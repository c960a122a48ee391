//===- abstract/AbstractBestSplit.h - bestSplit# ----------------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `bestSplit#` — the abstract predicate-selection transformer (§4.6,
/// Appendix B.2).
///
/// Where the concrete `bestSplit` returns the single score-minimizing
/// predicate, the abstract version must return every predicate that *could*
/// be minimal for *some* training set in γ(⟨T,n⟩):
///
///   1. Candidate predicates come from adjacent value pairs of the current
///      abstract set (symbolic `x ≤ [a,b)` for real features, `x ≤ 0.5` for
///      boolean ones). Lemma B.5 shows this set covers every predicate any
///      concretization's learner would construct.
///   2. Φ∃ — candidates splitting at least one concretization non-trivially
///      (both sides non-empty as sets); Φ∀ — candidates splitting *every*
///      concretization non-trivially (both sides larger than n).
///   3. If Φ∀ is empty, return Φ∃ ∪ {⋄} (some concretization may admit no
///      split at all). Otherwise return the Φ∃ predicates whose `score#`
///      lower bound does not exceed lubΦ∀, the least upper bound among Φ∀
///      scores — i.e. everything whose score interval overlaps the minimal
///      interval.
///
/// `selectMinimalSplits` is that rule, written once: one scan over the
/// shared candidate enumerator's feature blocks with the score and the Φ∀
/// test supplied by the threat model. The removal model
/// (`abstractBestSplit`) scores symbolic candidates with `score#`; the
/// label-flip model (abstract/LabelFlip.h) scores concrete midpoints and
/// takes Φ∀ = Φ∃. Both compute each block's lower bounds with a
/// straight-line kernel and the few upper bounds that can matter with the
/// per-candidate score.
///
/// `BestSplitMemo` shares the transformer's results between the queries of
/// one verification batch, which mostly reach the same few states near the
/// root.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_ABSTRACT_ABSTRACTBESTSPLIT_H
#define ANTIDOTE_ABSTRACT_ABSTRACTBESTSPLIT_H

#include "abstract/AbstractDataset.h"
#include "abstract/AbstractGini.h"
#include "abstract/PredicateSet.h"
#include "abstract/ThreatModel.h"
#include "concrete/BestSplit.h"
#include "support/Budget.h"

#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace antidote {

/// How one threat model scores the candidates `selectMinimalSplits`
/// enumerates. Each function is called once per feature block or once per
/// surviving candidate, never once per enumerated candidate.
struct SplitScorer {
  /// The predicate form of the candidates.
  PredicateMode Mode = PredicateMode::SymbolicInterval;
  /// Writes the score lower bound of each of the block's candidates to the
  /// array (`size()` entries).
  std::function<void(const SplitBlock &, double *)> LowerBounds;
  /// The score upper bound of the block's candidate I.
  std::function<double(const SplitBlock &, size_t)> UpperBound;
  /// Φ∀ membership from the side sizes (PosTotal, NegTotal).
  std::function<bool(uint32_t, uint32_t)> IsUniversal;
};

/// The Ψ-selection rule of §4.6 over the candidates of `State.rows()`,
/// scored by \p Scorer. Every enumerated candidate is in Φ∃. Returns
/// Φ∃ ∪ {⋄} when Φ∀ is empty, and otherwise the candidates whose score
/// lower bound is at most lubΦ∀. Requires a non-empty abstract set.
///
/// Each feature's candidates are scored as one block: first every lower
/// bound, then, in candidate order, the upper bound of each Φ∀ candidate
/// whose lower bound is at most the running lub. That skip is exact: the
/// lub only decreases and every score interval has ub ≥ lb, so a candidate
/// whose lower bound exceeds the running lub can neither enter Ψ nor lower
/// the lub.
///
/// When \p Meter is given it is polled up front and before each feature
/// block; an interrupted run returns `std::nullopt`, never a truncated
/// set — a partial Ψ could fabricate terminals the untruncated run would
/// never produce (spuriously refuting domination), so truncation is
/// unrepresentable and every caller must handle the interrupt explicitly.
/// Without a meter the result is always engaged.
std::optional<PredicateSet> selectMinimalSplits(const SplitContext &Ctx,
                                                const AbstractDataset &State,
                                                const SplitScorer &Scorer,
                                                const ResourceMeter *Meter);

/// `bestSplit#(⟨T,n⟩)` under the removal model: `selectMinimalSplits` over
/// symbolic candidates, scored by `score#` with side budgets min(n, |side|)
/// (equation (1)), where Φ∀ holds iff neither side can be emptied by
/// dropping n rows. Optimal × ExactTerm takes its lower bounds from
/// `optimalExactScoreLowerBounds`; the ablation kinds score each candidate
/// with the per-candidate `abstractSplitScore`. Requires a non-empty
/// abstract set; \p Meter as in `selectMinimalSplits`.
std::optional<PredicateSet>
abstractBestSplit(const SplitContext &Ctx, const AbstractDataset &Data,
                  CprobTransformerKind Kind,
                  GiniLiftingKind Lifting = GiniLiftingKind::ExactTerm,
                  const ResourceMeter *Meter = nullptr);

/// A thread-safe memo of `bestSplit#` results over one `SplitContext`.
/// An entry is keyed by the threat model, the `cprob#` transformer, the
/// `ent#` lifting, and the state's budget and exact row set: lookups hash
/// the rows (`rowSetHash`) but then compare them, so a hash collision can
/// never hand one state another state's Ψ. The first insert of a key wins.
/// Only complete results belong here; an interrupted `bestSplit#`
/// (std::nullopt) is never stored.
class BestSplitMemo {
public:
  /// The Ψ stored for `bestSplit#(State)` under (\p Threat, \p Cprob,
  /// \p Gini), if any.
  std::optional<PredicateSet> find(ThreatModelKind Threat,
                                   CprobTransformerKind Cprob,
                                   GiniLiftingKind Gini,
                                   const AbstractDataset &State) const;

  /// Stores \p Psi as `bestSplit#(State)` under (\p Threat, \p Cprob,
  /// \p Gini) unless that key already has an entry.
  void insert(ThreatModelKind Threat, CprobTransformerKind Cprob,
              GiniLiftingKind Gini, const AbstractDataset &State,
              const PredicateSet &Psi);

  size_t size() const;

private:
  struct Entry {
    ThreatModelKind Threat;
    CprobTransformerKind Cprob;
    GiniLiftingKind Gini;
    uint32_t Budget;
    RowIndexList Rows;
    PredicateSet Psi;
  };

  /// The entry for the key, or null; \p Hash is the key's hash.
  const Entry *lookup(uint64_t Hash, ThreatModelKind Threat,
                      CprobTransformerKind Cprob, GiniLiftingKind Gini,
                      const AbstractDataset &State) const;

  mutable std::mutex Mutex;
  std::unordered_multimap<uint64_t, Entry> Entries;
};

} // namespace antidote

#endif // ANTIDOTE_ABSTRACT_ABSTRACTBESTSPLIT_H
