//===- antidote/Verifier.h - Poisoning-robustness verifier ------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's main entry point: given a training set once, verify
/// n-poisoning robustness (Definition 3.1 with the ∆n model of §4.1) for
/// any number of inputs.
///
/// Typical use (see examples/quickstart.cpp):
/// \code
///   Verifier V(Train);
///   VerifierConfig Config;
///   Config.Depth = 2;
///   Config.Domain = AbstractDomainKind::Disjuncts;
///   Certificate Cert = V.verify(Test.row(0), /*PoisoningBudget=*/8, Config);
///   if (Cert.isRobust()) { ... }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_ANTIDOTE_VERIFIER_H
#define ANTIDOTE_ANTIDOTE_VERIFIER_H

#include "antidote/Certificate.h"
#include "concrete/DTrace.h"
#include "data/Fingerprint.h"
#include "support/Budget.h"
#include "support/ThreadPool.h"

namespace antidote {

/// The caching hook `Verifier::verify` talks to. The antidote layer only
/// names the seam; the contract and every implementation live above it
/// in serving/CertificateStore.h.
class CertificateStore;
class ReverifyScheduler;

/// Per-query verification parameters.
struct VerifierConfig {
  unsigned Depth = 2;
  AbstractDomainKind Domain = AbstractDomainKind::Box;

  /// The poisoning threat model the budget n quantifies over
  /// (abstract/ThreatModel.h). Flip queries require the Disjuncts domain
  /// (`threatModel(Threat).supportsDomain`); front ends enforce this
  /// before building a config.
  ThreatModelKind Threat = ThreatModelKind::Removal;

  CprobTransformerKind Cprob = CprobTransformerKind::Optimal;
  GiniLiftingKind Gini = GiniLiftingKind::ExactTerm;
  size_t DisjunctCap = 64; ///< DisjunctsCapped only (precision knob).

  /// Per-query resource budget (timeout / disjunct cap / state bytes);
  /// support/Budget.h is the single home of these knobs.
  ResourceLimits Limits;

  /// Optional shared token; cancelling it stops in-flight queries
  /// cooperatively (they report VerdictKind::Cancelled, or the token's
  /// reason) — the lever `verifyBatch` callers use to abandon a batch.
  const CancellationToken *Cancel = nullptr;

  /// Executors for the frontier fan-out *within* one query's DTrace# run
  /// (1 = serial, 0 = one per hardware thread). Orthogonal to the batch-
  /// level pool `verifyBatch` takes: that knob spreads independent
  /// queries across cores, this one spreads a single hard query's
  /// disjuncts. Certificates are bit-identical for every value.
  unsigned FrontierJobs = 1;

  /// Optional externally owned pool for the frontier fan-out (overrides
  /// FrontierJobs-driven pool spawning; see AbstractLearnerConfig). A
  /// sweep passes one long-lived pool here so thousands of queries do not
  /// each re-spawn threads.
  ThreadPool *FrontierPool = nullptr;

  /// Optional certificate store consulted before verifying and updated
  /// after (serving traffic mostly repeats queries, so a warm cache
  /// short-circuits them to the stored certificate). Implementations
  /// must be safe to call from concurrent `verifyBatch` workers; the
  /// serving layer's fingerprint-keyed `CertCache` is the production
  /// one. Null (default) disables caching entirely.
  CertificateStore *Cache = nullptr;

  /// Delta-tolerant serving: when the verifier knows its dataset's
  /// lineage (see `Verifier::setLineage`) and the store misses under
  /// the dataset's own fingerprint, consult it under the *parent*
  /// fingerprint with budget n + RowsRemoved, and serve a Robust
  /// certificate found there (sound for pure-removal deltas; see
  /// `DatasetLineage`). The CLI knob `--delta-slack 0` turns this off
  /// for A/B runs. Ignored without lineage or without a cache — and
  /// under any threat model other than Removal: the n + k containment
  /// argument is about removed rows and does not transfer to flips
  /// (a relabeling of the child set is not a relabeling of the parent).
  bool DeltaSlack = true;

  /// Optional hook the slack path notifies when it serves an answer
  /// from the parent's certificate: the exact re-verification should
  /// run in the background and write the fresh certificate through
  /// under the child's own fingerprint. `CertServer` is the production
  /// implementation (its background queue drains when the foreground
  /// is idle). Null = no background re-verification is scheduled.
  ReverifyScheduler *Reverify = nullptr;
};

/// The background re-verification hook the delta-slack path talks to.
/// When `Verifier::verify` answers a query from the *parent* dataset's
/// certificate (sound, but wider than necessary), it calls
/// `scheduleReverify` so an exact certificate for the child dataset
/// lands in the store without blocking the response. Implementations
/// must be safe to call from concurrent `verifyBatch` workers and must
/// run the re-verification with `DeltaSlack` off (or lineage cleared) —
/// otherwise the background run would serve itself from the same parent
/// certificate instead of verifying.
class ReverifyScheduler {
public:
  virtual ~ReverifyScheduler() = default;

  /// Requests a background exact verification of (\p X .. \p X +
  /// \p NumFeatures, \p PoisoningBudget) against the child dataset.
  /// May coalesce duplicates; best-effort (a dropped request only
  /// costs the next cold query a verification).
  virtual void scheduleReverify(const float *X, unsigned NumFeatures,
                                uint32_t PoisoningBudget) = 0;
};

/// Verifies data-poisoning robustness of decision-tree learning on a fixed
/// training set. Holds the per-dataset acceleration structures, so
/// constructing one Verifier and reusing it across queries is the intended
/// pattern.
///
/// Thread-safety: a constructed Verifier is immutable — `predict`, `trace`,
/// `verify`, and `verifyBatch` only read the dataset, the SplitContext's
/// cached sort orders, and per-call state, so any number of threads may
/// issue queries against one instance concurrently.
class Verifier {
public:
  explicit Verifier(const Dataset &Train)
      : Train(&Train), Ctx(Train), AllTrainRows(allRows(Train)),
        Fingerprint(fingerprintDataset(Train)) {}

  const Dataset &trainingSet() const { return *Train; }
  const SplitContext &context() const { return Ctx; }

  /// Content fingerprint of the training set, computed once at
  /// construction — the dataset component of every cache key this
  /// verifier's queries use (see data/Fingerprint.h).
  const DatasetFingerprint &fingerprint() const { return Fingerprint; }

  /// Declares this verifier's training set a delta of a parent dataset
  /// (see `DatasetLineage`), arming the `DeltaSlack` serving path. The
  /// one exception to "immutable after construction": call it before
  /// issuing queries, never concurrently with them. Typically built
  /// from the parent's fingerprint plus the mutation counters the
  /// `Dataset` kept since `markLineage()` (data/Dataset.h).
  void setLineage(const DatasetLineage &L) { Lineage = L; HasLineage = true; }
  const DatasetLineage *lineage() const {
    return HasLineage ? &Lineage : nullptr;
  }

  /// L(T)(x): the unpoisoned learner's prediction at depth \p Depth.
  unsigned predict(const float *X, unsigned Depth) const;

  /// Full concrete trace (exposes `cprob`, the trace σ, and the leaf).
  TraceResult trace(const float *X, unsigned Depth) const;

  /// Attempts to prove that x's prediction is invariant across every
  /// training set in ∆n(T), n = \p PoisoningBudget.
  Certificate verify(const float *X, uint32_t PoisoningBudget,
                     const VerifierConfig &Config) const;

  /// Verifies every input of \p Inputs under the same budget and config,
  /// fanning the queries out across \p Pool (plus the calling thread).
  /// The queries share one `bestSplit#` memo for the call (see
  /// `AbstractLearnerConfig::Memo`): all start from the same ⟨T, n⟩, so
  /// the root and most depth-1 states are scored once per batch. A shared
  /// Ψ is exactly the one the query would compute itself, so each
  /// certificate equals `verify`'s for its input, whichever query scored a
  /// state first; results are deterministic and thread-count-independent
  /// (timings aside). Certificates come back indexed like Inputs. A
  /// null/empty pool runs serially.
  std::vector<Certificate> verifyBatch(const std::vector<const float *> &Inputs,
                                       uint32_t PoisoningBudget,
                                       const VerifierConfig &Config,
                                       ThreadPool *Pool = nullptr) const;

private:
  /// `verify`, with the learner's `bestSplit#` going through \p Memo when
  /// one is given.
  Certificate verifyWith(const float *X, uint32_t PoisoningBudget,
                         const VerifierConfig &Config,
                         BestSplitMemo *Memo) const;

  const Dataset *Train;
  SplitContext Ctx;
  RowIndexList AllTrainRows;
  DatasetFingerprint Fingerprint;
  DatasetLineage Lineage;
  bool HasLineage = false;
};

} // namespace antidote

#endif // ANTIDOTE_ANTIDOTE_VERIFIER_H
