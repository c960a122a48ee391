//===- concrete/BestSplit.h - Split candidate enumeration -------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Candidate split enumeration and the concrete `bestSplit` (paper §3.3,
/// §5.1).
///
/// For a real-valued feature the learner considers one threshold per pair of
/// adjacent distinct values occurring in the current training set, namely
/// the midpoint (a+b)/2 (`DTraceR`, §5.1); the abstract learner considers
/// the symbolic interval [a, b) for the same pairs (Appendix B.2). Both the
/// concrete and abstract `bestSplit` operators therefore share one
/// enumerator, `forEachCandidateSplit`, which streams every candidate in
/// ascending (feature, threshold) order. The concrete `bestSplit` is one
/// scan over it with a running argmin; `bestSplit#` is one scan with a
/// running lub (abstract/AbstractBestSplit.h). The enumerator has two
/// layers:
///
///  - `SplitEnumerationPrepass` — the state every feature's pass needs
///    (the row-membership mask and, for boolean features, the class
///    counts of each feature's `value == 0` side), built in one row-major
///    pass.
///  - `forEachFeatureCandidateSplit` — streams one feature's candidates in
///    ascending threshold order.
///
/// `SplitContext` caches, per base dataset, the per-feature value-sorted row
/// orders that make each enumeration a single filtered pass (O(|features| ×
/// |base rows|)) instead of a fresh sort per tree node — plus, aligned with
/// each order, the sorted column values themselves, so the enumeration scans
/// two dense arrays instead of gathering values row-by-row.
///
/// Kernel shape: each per-feature pass first *compacts* the in-set entries
/// of the sorted order into dense (value, label) scratch with an
/// always-write/conditionally-advance loop (no data-dependent branch), then
/// scans the dense slice for value boundaries. Both passes touch only
/// contiguous memory, which is what lets the compiler vectorize them.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_CONCRETE_BESTSPLIT_H
#define ANTIDOTE_CONCRETE_BESTSPLIT_H

#include "concrete/Gini.h"
#include "concrete/Predicate.h"
#include "data/Dataset.h"

#include <optional>

namespace antidote {

/// Whether the enumerator should emit the concrete midpoint threshold or
/// the symbolic interval predicate for each adjacent value pair.
enum class PredicateMode : uint8_t {
  ConcreteMidpoint, ///< `x ≤ (a+b)/2` — used by DTrace / DTraceR.
  SymbolicInterval, ///< `x ≤ [a, b)` — used by DTrace#_R (Appendix B.2).
};

/// Immutable per-dataset acceleration structure for split enumeration.
class SplitContext {
public:
  explicit SplitContext(const Dataset &Base);

  const Dataset &base() const { return *Base; }

  /// Row ids of the base dataset sorted by (value of \p Feature, row id).
  /// Only available for Real features.
  const RowIndexList &sortedOrder(unsigned Feature) const {
    assert(Base->schema().FeatureKinds[Feature] == FeatureKind::Real &&
           "sorted order is only built for real features");
    return Orders[Feature];
  }

  /// Column values of \p Feature aligned with `sortedOrder(Feature)`:
  /// `sortedValues(F)[I] == column(F)[sortedOrder(F)[I]]`. Lets the
  /// enumeration read the sorted values with unit stride instead of
  /// gathering through the row ids. Only available for Real features.
  const float *sortedValues(unsigned Feature) const {
    assert(Base->schema().FeatureKinds[Feature] == FeatureKind::Real &&
           "sorted values are only built for real features");
    return Values[Feature].data();
  }

private:
  const Dataset *Base;
  std::vector<RowIndexList> Orders; ///< Indexed by feature; empty if Boolean.
  std::vector<std::vector<float>> Values; ///< Aligned with Orders.
};

/// Read-only state shared by every per-feature enumeration pass over one
/// row set: the base-row membership mask and (when the schema has boolean
/// features) the per-feature class counts of the `value == 0` side.
/// Building it is the one row-major pass of the enumeration. The
/// referenced context and row list must outlive the prepass.
class SplitEnumerationPrepass {
public:
  SplitEnumerationPrepass(const SplitContext &Ctx, const RowIndexList &Rows);

  const SplitContext &context() const { return *Ctx; }
  const RowIndexList &rows() const { return *Rows; }
  uint32_t total() const { return static_cast<uint32_t>(Rows->size()); }

  bool contains(uint32_t Row) const { return InRows[Row]; }

  /// Class counts of boolean feature \p Feature's `value == 0` side (null
  /// when the schema has no boolean features).
  const uint32_t *zeroCounts(unsigned Feature) const {
    assert(!ZeroCounts.empty() && "no boolean feature in the schema");
    return ZeroCounts.data() +
           static_cast<size_t>(Feature) * Ctx->base().numClasses();
  }

private:
  const SplitContext *Ctx;
  const RowIndexList *Rows;
  std::vector<uint8_t> InRows;      ///< Membership mask over the base rows.
  std::vector<uint32_t> ZeroCounts; ///< feature-major; empty if no booleans.
};

/// Streams feature \p Feature's candidate splits of `Pre.rows()` in
/// ascending threshold order, invoking
///   `Cb(const SplitPredicate &P, const std::vector<uint32_t> &PosCounts,
///       uint32_t PosTotal)`
/// exactly as `forEachCandidateSplit` does for the full enumeration.
/// \p PosCounts is caller-provided scratch of size `numClasses()`.
/// Candidates whose positive side would be empty or the whole set are
/// skipped (trivial for every consumer).
template <typename Callback>
void forEachFeatureCandidateSplit(const SplitEnumerationPrepass &Pre,
                                  unsigned Feature, PredicateMode Mode,
                                  std::vector<uint32_t> &PosCounts,
                                  Callback &&Cb) {
  const Dataset &Base = Pre.context().base();
  unsigned NumClasses = Base.numClasses();
  uint32_t Total = Pre.total();
  assert(PosCounts.size() == NumClasses && "scratch sized to the classes");

  if (Base.schema().FeatureKinds[Feature] == FeatureKind::Boolean) {
    // Boolean feature: at most the single predicate `x_F ≤ 0.5`, present
    // iff both values occur in the row set.
    const uint32_t *Counts = Pre.zeroCounts(Feature);
    uint32_t PosTotal = 0;
    for (unsigned C = 0; C < NumClasses; ++C) {
      PosCounts[C] = Counts[C];
      PosTotal += Counts[C];
    }
    if (PosTotal == 0 || PosTotal == Total)
      return;
    Cb(SplitPredicate::threshold(Feature, 0.5), PosCounts, PosTotal);
    return;
  }

  // Real feature. The boundary scan runs over a dense (value, label)
  // sequence in sorted order; how that sequence is produced depends on the
  // row set:
  //
  //  - Full row set (the top-of-tree case and every entire-dataset abstract
  //    query): the SplitContext's presorted value slice *is* the sequence —
  //    no membership test, no compaction, just two unit-stride reads.
  //  - Proper subset: compact the in-set entries into scratch first with an
  //    always-write/conditionally-advance loop (no data-dependent branch),
  //    then scan the dense slice.
  //
  // Both paths visit the same (value, label) sequence in the same order, so
  // every consumer sees bit-identical candidates.
  const RowIndexList &Order = Pre.context().sortedOrder(Feature);
  const float *SortedVals = Pre.context().sortedValues(Feature);
  const uint32_t *Labels = Base.labels();
  const size_t OrderSize = Order.size();

  std::fill(PosCounts.begin(), PosCounts.end(), 0);
  uint32_t PosTotal = 0;
  bool HavePrev = false;
  double Prev = 0.0;
  auto EmitBoundary = [&](double V) {
    if (HavePrev && V != Prev) {
      assert(PosTotal > 0 && PosTotal < Total && "boundary must split");
      if (Mode == PredicateMode::ConcreteMidpoint)
        Cb(SplitPredicate::threshold(Feature, (Prev + V) / 2.0), PosCounts,
           PosTotal);
      else
        Cb(SplitPredicate::symbolic(Feature, Prev, V), PosCounts, PosTotal);
    }
    Prev = V;
    HavePrev = true;
  };

  if (Total == OrderSize) {
    for (size_t I = 0; I < OrderSize; ++I) {
      EmitBoundary(SortedVals[I]);
      ++PosCounts[Labels[Order[I]]];
      ++PosTotal;
    }
    return;
  }

  thread_local std::vector<float> ValScratch;
  thread_local std::vector<uint32_t> LabScratch;
  ValScratch.resize(OrderSize);
  LabScratch.resize(OrderSize);
  size_t N = 0;
  for (size_t I = 0; I < OrderSize; ++I) {
    const uint32_t Row = Order[I];
    ValScratch[N] = SortedVals[I];
    LabScratch[N] = Labels[Row];
    N += Pre.contains(Row);
  }
  assert(N == Total && "compaction must keep exactly the row set");

  for (size_t I = 0; I < N; ++I) {
    EmitBoundary(ValScratch[I]);
    ++PosCounts[LabScratch[I]];
    ++PosTotal;
  }
}

/// Streams every candidate split of \p Rows (which must be a canonical row
/// set over `Ctx.base()`): one prepass, then the per-feature passes in
/// ascending feature order.
///
/// For each candidate, invokes
///   `Cb(const SplitPredicate &P, const std::vector<uint32_t> &PosCounts,
///       uint32_t PosTotal)`
/// where PosCounts/PosTotal describe `T↓P` (rows satisfying the predicate).
/// The negative side is `Totals - PosCounts`. Candidates whose positive
/// side would be empty or the whole set are skipped: they are trivial for
/// the concrete learner (Φ' in §3.3) and excluded from both Φ∃ and Φ∀ in
/// the abstract learner (§4.6), so no consumer wants them.
template <typename Callback>
void forEachCandidateSplit(const SplitContext &Ctx, const RowIndexList &Rows,
                           PredicateMode Mode, Callback &&Cb) {
  SplitEnumerationPrepass Pre(Ctx, Rows);
  std::vector<uint32_t> PosCounts(Ctx.base().numClasses());
  for (unsigned F = 0; F < Ctx.base().numFeatures(); ++F)
    forEachFeatureCandidateSplit(Pre, F, Mode, PosCounts, Cb);
}

/// The concrete `bestSplit(T)` of §3.3 (with §5.1's dynamic thresholds for
/// real features): the non-trivially-splitting predicate minimizing
/// `score`, or `std::nullopt` for ⋄ when no such predicate exists. Ties are
/// broken toward the smallest (feature, threshold); the paper leaves them
/// nondeterministic (see DESIGN.md §5).
std::optional<SplitPredicate> bestSplit(const SplitContext &Ctx,
                                        const RowIndexList &Rows);

/// Rows of \p Rows on the requested side of a concrete predicate. The
/// predicate must not be symbolic.
RowIndexList filterRows(const Dataset &Base, const RowIndexList &Rows,
                        const SplitPredicate &Pred, bool Positive);

} // namespace antidote

#endif // ANTIDOTE_CONCRETE_BESTSPLIT_H
