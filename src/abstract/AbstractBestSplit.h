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
/// The loop runs *per feature*: each shard scores one feature's candidates
/// (Φ∃ membership, score intervals, its local lubΦ∀ contribution), and the
/// shards fold in strict feature-index order, which replays the emission
/// order of one flat scan.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_ABSTRACT_ABSTRACTBESTSPLIT_H
#define ANTIDOTE_ABSTRACT_ABSTRACTBESTSPLIT_H

#include "abstract/AbstractDataset.h"
#include "abstract/AbstractGini.h"
#include "abstract/PredicateSet.h"
#include "concrete/BestSplit.h"
#include "support/Budget.h"

#include <optional>

namespace antidote {

/// `bestSplit#(⟨T,n⟩)`. Requires a non-empty abstract set.
///
/// When \p Meter is given, the candidate scoring polls it up front and
/// periodically while scoring; an
/// interrupted run returns `std::nullopt`, never a truncated set — a
/// partial Ψ could fabricate terminals the untruncated run would never
/// produce (spuriously refuting domination), so truncation is
/// unrepresentable and every caller must handle the interrupt explicitly.
/// Without a meter the result is always engaged.
std::optional<PredicateSet>
abstractBestSplit(const SplitContext &Ctx, const AbstractDataset &Data,
                  CprobTransformerKind Kind,
                  GiniLiftingKind Lifting = GiniLiftingKind::ExactTerm,
                  const ResourceMeter *Meter = nullptr);

} // namespace antidote

#endif // ANTIDOTE_ABSTRACT_ABSTRACTBESTSPLIT_H
