//===- serving/StoreKey.h - Normalized certificate-store keys --*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one normalized lookup key shared by every `CertificateStore`
/// implementation — the in-memory `CertCache`, the on-disk
/// `DiskCertStore`, and the `TieredStore` composing them. A key captures
/// exactly the result-relevant state of one verification:
///
///  - the training set as its 128-bit content fingerprint
///    (data/Fingerprint.h), never as a pointer or path;
///  - the query as its float *bit patterns* (support/BitHash.h policy:
///    0.0 and -0.0 are distinct, NaN payloads compare fine);
///  - the poisoning budget n;
///  - the result-relevant `VerifierConfig` fields: Depth, Domain, the
///    threat model (a removal proof must never answer a flip query, and
///    vice versa — the key partitions the range indexes per model too),
///    Cprob, Gini, DisjunctCap *only when the capped domain reads it*
///    (normalized to 0 otherwise, so Box/Disjuncts clients with
///    different ignored caps share entries), and the three
///    `ResourceLimits` knobs.
///
/// Scheduling knobs (FrontierJobs/pools), the cancellation token, and the
/// `Cache` pointer itself never enter a key: certificates are
/// bit-identical across them, and splitting keys on them would stop a
/// serial client from hitting entries a 64-thread sweep populated. Because both the RAM and the disk tier build keys
/// through the same `makeStoreKey`, an entry written by either tier is
/// addressable by the other — and by any other process that loads the
/// same dataset (the fingerprint is process-independent by
/// construction).
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SERVING_STOREKEY_H
#define ANTIDOTE_SERVING_STOREKEY_H

#include "antidote/Verifier.h"

#include <map>
#include <unordered_map>
#include <vector>

namespace antidote {

/// The normalized certificate-store lookup key; see the file comment for
/// what is — and deliberately is not — part of it.
struct StoreKey {
  DatasetFingerprint Data;
  std::vector<float> Query; ///< Bit-compared via its float values.
  uint32_t PoisoningBudget = 0;
  unsigned Depth = 0;
  AbstractDomainKind Domain = AbstractDomainKind::Box;
  ThreatModelKind Threat = ThreatModelKind::Removal;
  CprobTransformerKind Cprob = CprobTransformerKind::Optimal;
  GiniLiftingKind Gini = GiniLiftingKind::ExactTerm;
  size_t DisjunctCap = 0; ///< 0 unless Domain reads the cap.
  double TimeoutSeconds = 0.0;
  size_t MaxDisjuncts = 0;
  uint64_t MaxStateBytes = 0;

  bool operator==(const StoreKey &O) const;
  bool operator!=(const StoreKey &O) const { return !(*this == O); }
};

struct StoreKeyHash {
  size_t operator()(const StoreKey &K) const;
};

/// Builds the normalized key for one `CertificateStore` call. Every
/// store implementation funnels through this, so the key discipline
/// (and its tests) live in exactly one place.
StoreKey makeStoreKey(const DatasetFingerprint &Data, const float *X,
                      unsigned NumFeatures, uint32_t PoisoningBudget,
                      const VerifierConfig &Config);

/// The budget-agnostic base of \p K: the same key with
/// `PoisoningBudget` zeroed. The range indexes in `CertCache` and
/// `DiskCertStore` group their entries under base keys, so one probe
/// finds every stored proof radius for the same (dataset, query,
/// config) and the radius-range rule below picks a serving one.
StoreKey rangeBaseKey(const StoreKey &K);

/// The radius-range serving rule, shared by both store tiers (and
/// their tests): may a certificate of kind \p Kind proven at
/// \p CertifiedRadius answer a query at \p QueryBudget?
///
/// The rule is sound for every threat model whose budgets nest
/// (∆a(T) ⊆ ∆b(T) for a ≤ b) — true for removal (§4.1) and label flips
/// (≤ a relabelings is a special case of ≤ b) — and the threat model is
/// part of the key, so the range index never mixes proofs across models.
///
///  - Robust at N serves any n <= N: ∆n(T) ⊆ ∆N(T), so a prediction
///    invariant across the larger family is invariant across the
///    smaller (paper §4.1's concretization is anti-monotone in n).
///  - Unknown at N serves any n >= N: the abstraction failed to prove
///    at N, and widening the radius only loses precision, so the
///    failed attempt stands in for the wider one (it claims nothing,
///    hence is vacuously sound either way).
///  - ResourceLimit serves only its exact budget: the resource
///    accounting is budget-specific and neither direction transfers.
///
/// Exact matches (CertifiedRadius == QueryBudget) are handled by the
/// plain key lookup before any range probe, so this rule only decides
/// the strict cross-radius cases.
bool rangeServes(VerdictKind Kind, uint32_t CertifiedRadius,
                 uint32_t QueryBudget);

/// The radius-range index both store tiers keep in lockstep with their
/// entry maps: base key (`rangeBaseKey`) -> proof radius -> the entry's
/// map key, one radius-sorted view per servable verdict. The index
/// stores pointers to keys the owning map holds (node-based maps never
/// move their elements); an entry must be removed before its key dies.
///
/// Only *original* proofs — entries whose radius equals their key's
/// budget — are indexed, so a radius names at most one entry. A
/// range-, slack- or replica-served answer stored under the queried
/// budget would alias the original's radius and adds no serving power
/// the original lacks; it serves its exact key only. Not thread-safe:
/// callers hold their store's mutex.
class RadiusIndex {
public:
  /// Indexes the entry keyed \p K holding a \p Kind proof at
  /// \p Radius; a no-op unless it is an original Robust/Unknown proof.
  void add(const StoreKey &K, VerdictKind Kind, uint32_t Radius);

  /// Undoes `add` with the same arguments.
  void remove(const StoreKey &K, VerdictKind Kind, uint32_t Radius);

  /// The entry key that serves \p K's base key at budget \p N under
  /// `rangeServes`, or null: the tightest Robust proof at radius >= n,
  /// else the widest Unknown attempt at radius <= n. Robust is the
  /// informative verdict, so it wins whenever one applies.
  const StoreKey *find(const StoreKey &K, uint32_t N) const;

  void clear() { Slots.clear(); }

private:
  struct Slot {
    std::map<uint32_t, const StoreKey *> Robust;  ///< Serve n <= radius.
    std::map<uint32_t, const StoreKey *> Unknown; ///< Serve n >= radius.
  };
  std::unordered_map<StoreKey, Slot, StoreKeyHash> Slots;
};

} // namespace antidote

#endif // ANTIDOTE_SERVING_STOREKEY_H
