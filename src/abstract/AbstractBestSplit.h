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
/// shared candidate enumerator with the score and the Φ∀ test supplied by
/// the threat model. The removal model (`abstractBestSplit`) scores
/// symbolic candidates with `score#`; the label-flip model
/// (abstract/LabelFlip.h) scores concrete midpoints and takes Φ∀ = Φ∃.
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

#include <limits>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace antidote {

/// The Ψ-selection rule of §4.6 over the candidates of `State.rows()`,
/// enumerated in \p Mode. \p Score maps a candidate's sides
/// `(PosCounts, PosTotal, NegCounts, NegTotal)` to its score interval;
/// \p IsUniversal maps `(PosTotal, NegTotal)` to Φ∀ membership. Every
/// enumerated candidate is in Φ∃. Returns Φ∃ ∪ {⋄} when Φ∀ is empty, and
/// otherwise the candidates whose score lower bound is at most lubΦ∀.
/// Requires a non-empty abstract set.
///
/// When \p Meter is given it is polled up front and every 64 candidates;
/// an interrupted run returns `std::nullopt`, never a truncated set — a
/// partial Ψ could fabricate terminals the untruncated run would never
/// produce (spuriously refuting domination), so truncation is
/// unrepresentable and every caller must handle the interrupt explicitly.
/// Without a meter the result is always engaged.
template <typename ScoreFn, typename UniversalFn>
std::optional<PredicateSet>
selectMinimalSplits(const SplitContext &Ctx, const AbstractDataset &State,
                    PredicateMode Mode, const ResourceMeter *Meter,
                    ScoreFn &&Score, UniversalFn &&IsUniversal) {
  assert(!State.isEmptySet() && "bestSplit# of the empty abstract set");
  if (Meter && Meter->interrupted())
    return std::nullopt;
  const std::vector<uint32_t> &Totals = State.counts();
  const uint32_t Total = State.size();
  std::vector<uint32_t> NegCounts(Totals.size());

  struct Candidate {
    SplitPredicate Pred;
    double ScoreLb;
  };
  // The running lub only decreases, so a candidate whose lower bound
  // already exceeds it can never be kept and is not stored.
  std::vector<Candidate> Kept;
  double Lub = std::numeric_limits<double>::infinity();
  bool AnyUniversal = false;
  bool Interrupted = false;
  unsigned SinceCheck = 0;
  forEachCandidateSplit(
      Ctx, State.rows(), Mode,
      [&](const SplitPredicate &Pred, const std::vector<uint32_t> &PosCounts,
          uint32_t PosTotal) {
        if (Interrupted)
          return;
        if (Meter && ++SinceCheck == 64) {
          SinceCheck = 0;
          if (Meter->interrupted()) {
            Interrupted = true;
            return;
          }
        }
        const uint32_t NegTotal = Total - PosTotal;
        for (size_t C = 0; C < Totals.size(); ++C)
          NegCounts[C] = Totals[C] - PosCounts[C];
        Interval S = Score(PosCounts, PosTotal, NegCounts, NegTotal);
        if (IsUniversal(PosTotal, NegTotal)) {
          AnyUniversal = true;
          Lub = std::min(Lub, S.ub());
        }
        if (S.lb() <= Lub)
          Kept.push_back({Pred, S.lb()});
      });
  if (Interrupted)
    return std::nullopt;

  PredicateSet Psi;
  Psi.reserve(Kept.size());
  for (const Candidate &C : Kept)
    if (C.ScoreLb <= Lub)
      Psi.add(C.Pred);
  // No predicate is guaranteed non-trivial for every concretization, so
  // some concretization may make bestSplit return ⋄ (§4.6).
  if (!AnyUniversal)
    Psi.addNull();
  Psi.canonicalize();
  return Psi;
}

/// `bestSplit#(⟨T,n⟩)` under the removal model: `selectMinimalSplits` over
/// symbolic candidates, scored by `score#` with side budgets min(n, |side|)
/// (equation (1)), where Φ∀ holds iff neither side can be emptied by
/// dropping n rows. Requires a non-empty abstract set; \p Meter as in
/// `selectMinimalSplits`.
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
