//===- abstract/AbstractFilter.h - filter# ----------------------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `filter#` — the abstract dataset-refinement transformer (§4.5, extended
/// to three-valued symbolic predicates in Appendix B.2).
///
/// Given the abstract set, the predicate set Ψ returned by `bestSplit#`,
/// and the test input x, the box-domain filter joins `⟨T,n⟩↓#ρ` for every
/// ρ ∈ Ψ that x possibly satisfies and `⟨T,n⟩↓#¬ρ` for every ρ that x
/// possibly falsifies (a `maybe` predicate contributes both sides). The
/// disjunctive domain instead keeps every restriction as its own disjunct;
/// that path lives in `AbstractDTrace.cpp` and calls
/// `AbstractDataset::restrict` directly.
///
/// At the last depth the disjunctive children are terminals, and `cprob#`
/// and the domination check read only their size, budget and class
/// counts. `summarizeRestrictions` computes exactly those, plus a hash of
/// the row set for deduplication, for every child of one disjunct without
/// building any of them: each side of a predicate is a prefix (or the
/// complement of one) of the parent's rows in the feature's presorted
/// order, so one walk per feature answers every predicate on it.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_ABSTRACT_ABSTRACTFILTER_H
#define ANTIDOTE_ABSTRACT_ABSTRACTFILTER_H

#include "abstract/AbstractDataset.h"
#include "abstract/PredicateSet.h"
#include "concrete/BestSplit.h"

namespace antidote {

/// `filter#(⟨T,n⟩, Ψ, x)` in the box domain. Requires Ψ to contain at least
/// one (non-⋄) predicate; the ⋄ branch is handled by the learner driver.
AbstractDataset abstractFilter(const AbstractDataset &Data,
                               const PredicateSet &Preds, const float *X);

/// A 128-bit hash of a row set: two sums, mod 2^64, of fixed
/// pseudo-random per-row keys. Being additive, it accumulates along any
/// walk over the rows, and a complement's hash is the whole set's minus
/// the part's.
struct RowSetHash {
  uint64_t H1 = 0;
  uint64_t H2 = 0;

  /// The hash of this set with the subset \p Part removed.
  RowSetHash operator-(const RowSetHash &Part) const {
    return RowSetHash{H1 - Part.H1, H2 - Part.H2};
  }

  bool operator==(const RowSetHash &Other) const {
    return H1 == Other.H1 && H2 == Other.H2;
  }
};

/// The `RowSetHash` of \p Rows.
RowSetHash rowSetHash(const RowIndexList &Rows);

/// One disjunctive `filter#` child `Cur.restrict(Ψ[Pred], Positive)`,
/// known by everything but its rows. Its class counts live in the owning
/// `RestrictionSummaries`.
struct RestrictionSummary {
  uint32_t Budget = 0;
  uint32_t Size = 0;
  RowSetHash Hash; ///< `rowSetHash` of the child's rows.
  uint32_t Pred = 0; ///< Index into the summarized Ψ's predicates().
  bool Positive = true;
};

/// Child summaries in emission order, with their class counts stored flat
/// (`NumClasses` per child).
struct RestrictionSummaries {
  unsigned NumClasses = 0;
  std::vector<RestrictionSummary> Items;
  std::vector<uint32_t> Counts;

  size_t size() const { return Items.size(); }
  const uint32_t *counts(size_t I) const {
    return Counts.data() + I * NumClasses;
  }
  /// `stateBytes()` of the child the summary stands for.
  uint64_t stateBytes(size_t I) const {
    return AbstractDataset::exactStateBytes(Items[I].Size, NumClasses);
  }
};

/// Appends to \p Out a summary of every child the disjunctive `filter#`
/// emits for \p Cur — for each predicate of \p Preds in order, the
/// positive then the negative restriction, each only when x may lie on
/// that side — matching `Cur.restrict(Pred, Positive)` field for field.
/// \p Ctx must be built over `Cur.base()`.
void summarizeRestrictions(const SplitContext &Ctx, const AbstractDataset &Cur,
                           const PredicateSet &Preds, const float *X,
                           RestrictionSummaries &Out);

} // namespace antidote

#endif // ANTIDOTE_ABSTRACT_ABSTRACTFILTER_H
