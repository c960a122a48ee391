//===- abstract/LabelFlip.h - Label-flip robustness certification -*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An extension beyond the paper's ∆n removal model: certification against
/// **adversarial label contamination**, where the attacker flips the labels
/// of up to n training rows (the threat model of Xiao et al.'s "Support
/// Vector Machines Under Adversarial Label Contamination", which the paper
/// cites in §7 as a modification-style poisoning model).
///
/// The perturbed set is
///   ∆flip_n(T) = { T_L : L relabels ≤ n rows of T },
/// and x is flip-robust iff DTrace(T_L, x) = DTrace(T, x) for every L.
///
/// The abstraction is pleasantly *simpler* than the removal domain, because
/// flips leave feature vectors untouched:
///  - candidate thresholds depend only on feature values, so the concrete
///    midpoint predicates are exact for every concretization — no symbolic
///    predicates and no `maybe` evaluation on x;
///  - `filter` is exact (x's side of a concrete predicate is deterministic),
///    so each abstract state keeps an exact row set plus the flip budget;
///  - only the class counts are uncertain: class i's count ranges over
///    [max(0, c_i − n), min(c_i + n, |T|)], giving the flip `cprob#`.
/// What remains abstract is `bestSplit#` (scores depend on labels), handled
/// by the same Ψ-selection scan as §4.6's removal rule, and the `ent = 0`
/// conditional (the attacker may be able to force a pure leaf of either
/// class). The analysis runs the disjunctive domain (§5.2 style); a box
/// variant would need a row-set join against flip semantics and is
/// intentionally not provided.
///
/// Since the threat-model refactor the verification itself is one instance
/// of the shared `DTrace#` frontier engine (abstract/AbstractDTrace.h with
/// `Threat = ThreatModelKind::LabelFlip`); `verifyLabelFlipRobustness`
/// remains as a thin convenience wrapper, and the per-model transformers
/// below are consumed by abstract/ThreatModel.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_ABSTRACT_LABELFLIP_H
#define ANTIDOTE_ABSTRACT_LABELFLIP_H

#include "abstract/AbstractDataset.h"
#include "abstract/Domination.h"
#include "abstract/PredicateSet.h"
#include "concrete/DTrace.h"
#include "support/Budget.h"
#include "support/Interval.h"

#include <optional>

namespace antidote {

/// Flip-model `cprob#`: per-class probability intervals of a training set
/// with counts \p Counts (summing to \p Total > 0) under up to \p Budget
/// label flips.
std::vector<Interval>
flipClassProbabilities(const std::vector<uint32_t> &Counts, uint32_t Total,
                       uint32_t Budget);

/// Flip-model `score#` of a candidate split (side sizes are exact; only
/// the per-side class counts are intervals; each side may absorb up to
/// min(n, |side|) flips). One fused pass per side, bit-identical to
/// composing `flipClassProbabilities` with `abstractGiniImpurity`.
Interval flipSplitScore(const std::vector<uint32_t> &PosCounts,
                        uint32_t PosTotal, const std::vector<uint32_t>
                        &NegCounts, uint32_t NegTotal, uint32_t Budget);

/// The flip `score#` lower bound of every candidate of \p Block into
/// \p Lb (one per candidate): bit for bit `flipSplitScore(...).lb()` of
/// each candidate's sides, computed as straight-line loops over the block.
void flipSplitScoreLowerBounds(const SplitBlock &Block, uint32_t Budget,
                               double *Lb);

/// Flip-model `bestSplit#(⟨T,n⟩)`: `selectMinimalSplits`
/// (abstract/AbstractBestSplit.h) over the concrete midpoint candidates of
/// `State.rows()`, scored by `flipSplitScore`. Triviality of a split is
/// label-independent, so Φ∀ = Φ∃: Ψ is every candidate whose score
/// interval overlaps the minimal one, and exactly {⋄} when no non-trivial
/// candidate exists (then *every* concretization returns). Requires a
/// non-empty state; an interrupted run returns `std::nullopt`.
std::optional<PredicateSet> flipBestSplit(const SplitContext &Ctx,
                                          const AbstractDataset &State,
                                          const ResourceMeter *Meter = nullptr);

/// Configuration of a flip-robustness query.
struct LabelFlipConfig {
  unsigned Depth = 1;

  /// Per-query resource budget (support/Budget.h is the single home of
  /// the timeout/disjunct/state-byte knobs).
  ResourceLimits Limits;

  /// Optional shared cancellation token, polled per frontier element.
  const CancellationToken *Cancel = nullptr;
};

/// Result of a flip-robustness query.
struct LabelFlipResult {
  /// Mirrors `LearnerStatus`; Completed means the analysis finished.
  enum class Status : uint8_t { Completed, Timeout, ResourceLimit,
                                Cancelled };
  Status RunStatus = Status::Completed;

  /// True iff robustness was proven: one class dominates every terminal.
  bool Robust = false;

  /// The dominating class when Robust (equals the unflipped prediction).
  unsigned DominatingClass = 0;

  /// L(T)(x) on the unflipped labels.
  unsigned ConcretePrediction = 0;

  size_t NumTerminals = 0;
  size_t PeakDisjuncts = 0;
  double Seconds = 0.0;
};

/// Proves (or fails to prove) that x's prediction is invariant under every
/// relabeling of up to \p Budget rows of `Rows` (a canonical non-empty row
/// set over `Ctx.base()`).
LabelFlipResult verifyLabelFlipRobustness(const SplitContext &Ctx,
                                          const RowIndexList &Rows,
                                          const float *X, uint32_t Budget,
                                          const LabelFlipConfig &Config);

/// Ground-truth oracle: retrains on every relabeling with ≤ \p Budget
/// flips (Σ_j C(|T|, j)(k−1)^j concrete learners), aborting at \p MaxSets.
/// Used by the soundness property tests and feasible only on tiny sets.
struct FlipEnumerationResult {
  bool Robust = true;
  bool Exhausted = true;
  uint64_t SetsChecked = 0;
  unsigned OriginalPrediction = 0;
};
FlipEnumerationResult
verifyByFlipEnumeration(const SplitContext &Ctx, const RowIndexList &Rows,
                        const float *X, uint32_t Budget, unsigned Depth,
                        uint64_t MaxSets = 2000000);

} // namespace antidote

#endif // ANTIDOTE_ABSTRACT_LABELFLIP_H
