//===- serving/TieredStore.h - RAM-over-disk certificate store -*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two-tier production certificate store: a RAM LRU (`CertCache`)
/// in front of a persistent backing store (`DiskCertStore`), behind one
/// `CertificateStore` facade so `Verifier`, `CertServer`, and
/// `runPoisoningSweep` stay tier-agnostic.
///
///     lookup ──▶ RAM tier ──hit──▶ served (hash probe)
///                  │miss
///                  ▼
///               disk tier ──hit──▶ served + *promoted* into RAM, so
///                  │miss           the next repeat is a hash probe
///                  ▼
///               verified fresh ──▶ stored write-through to both tiers
///
/// Write-through happens only for deterministic verdicts — `Verifier`
/// already filters (the PR-4 discipline), and the disk tier re-checks
/// defensively — so neither tier can ever replay a verdict a fresh run
/// might contradict. RAM eviction never touches disk: the byte-budgeted
/// LRU bounds *residency*, the disk tier is the system of record, and an
/// entry evicted from RAM is simply re-promoted on its next use.
///
/// Both tiers key through the shared `StoreKey` (serving/StoreKey.h), so
/// promotion is a plain store — no key translation, and a certificate
/// written by any process is addressable by every other process sharing
/// the store directory.
///
/// Radius-range serving lives *inside* each tier (the same rule both
/// sides of serving/StoreKey.h `rangeServes`), so this facade needs no
/// range logic of its own. One subtlety is free by construction: when a
/// disk *range* hit is promoted, it is stored under the queried budget
/// but carries the original proof's `CertifiedRadius` (≠ that budget),
/// so the RAM tier's registration rule (original proofs only) keeps it
/// out of the RAM range index — promoted range answers serve exact
/// repeats only, and every range probe keeps resolving against original
/// proofs. No radius collision, no double counting.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SERVING_TIEREDSTORE_H
#define ANTIDOTE_SERVING_TIEREDSTORE_H

#include "serving/CertificateStore.h"

#include <atomic>
#include <cstdint>

namespace antidote {

/// Composes two `CertificateStore`s, RAM semantics in front and
/// persistent semantics behind. Owns neither — the server/CLI owns the
/// tiers (the disk store may be shared more widely than one tiering).
class TieredStore final : public CertificateStore {
public:
  /// \p Ram is consulted first and fed on promotion; \p Disk is the
  /// system of record. Either may be null, degrading to the other tier
  /// alone (a convenience for call sites with optional knobs).
  TieredStore(CertificateStore *Ram, CertificateStore *Disk)
      : Ram(Ram), Disk(Disk) {}

  bool lookup(const DatasetFingerprint &Data, const float *X,
              unsigned NumFeatures, uint32_t PoisoningBudget,
              const VerifierConfig &Config, Certificate &Out) override;

  void store(const DatasetFingerprint &Data, const float *X,
             unsigned NumFeatures, uint32_t PoisoningBudget,
             const VerifierConfig &Config, const Certificate &Cert) override;

  /// Probes never promote: the shed path's "free answer?" question must
  /// not spend RAM-tier budget on a query the server is refusing.
  bool probe(const DatasetFingerprint &Data, const float *X,
             unsigned NumFeatures, uint32_t PoisoningBudget,
             const VerifierConfig &Config, Certificate &Out) override;

  /// The tier-crossing counters (`RamHits`/`DiskHits`/`Misses`); each
  /// tier keeps its own full stats behind its own handle.
  StoreStats stats() const override;

  /// Replication rides on the persistent tier: forwarded to `Disk`.
  ReplicationEndpoint *replication() override {
    return Disk ? Disk->replication() : nullptr;
  }

private:
  CertificateStore *Ram;
  CertificateStore *Disk;

  // Relaxed atomics: counters only — the tiers do their own locking.
  std::atomic<uint64_t> RamHits{0};
  std::atomic<uint64_t> DiskHits{0};
  std::atomic<uint64_t> Misses{0};
};

} // namespace antidote

#endif // ANTIDOTE_SERVING_TIEREDSTORE_H
