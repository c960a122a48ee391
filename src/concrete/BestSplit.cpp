//===- concrete/BestSplit.cpp - Split candidate enumeration ------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "concrete/BestSplit.h"

#include <algorithm>

using namespace antidote;

SplitContext::SplitContext(const Dataset &Base) : Base(&Base) {
  Orders.resize(Base.numFeatures());
  Values.resize(Base.numFeatures());
  for (unsigned F = 0; F < Base.numFeatures(); ++F) {
    if (Base.schema().FeatureKinds[F] != FeatureKind::Real)
      continue;
    const float *Col = Base.column(F);
    RowIndexList &Order = Orders[F];
    Order = allRows(Base);
    std::sort(Order.begin(), Order.end(), [Col](uint32_t A, uint32_t B) {
      float Va = Col[A];
      float Vb = Col[B];
      if (Va != Vb)
        return Va < Vb;
      return A < B;
    });
    // Materialize the sorted values aligned with the order, so enumeration
    // passes never gather through the row ids.
    std::vector<float> &Sorted = Values[F];
    Sorted.resize(Order.size());
    for (size_t I = 0, E = Order.size(); I < E; ++I)
      Sorted[I] = Col[Order[I]];
  }
}

SplitEnumerationPrepass::SplitEnumerationPrepass(const SplitContext &Ctx,
                                                 const RowIndexList &Rows)
    : Ctx(&Ctx), Rows(&Rows) {
  const Dataset &Base = Ctx.base();
  assert(isCanonicalRowSet(Rows) && "rows must be a canonical row set");
  unsigned NumClasses = Base.numClasses();
  unsigned NumFeatures = Base.numFeatures();

  // Membership mask over the base dataset, so the per-feature passes can
  // walk the cached global sorted orders.
  InRows.assign(Base.numRows(), 0);
  for (uint32_t Row : Rows)
    InRows[Row] = 1;

  // Boolean features: one pass per boolean column accumulates the class
  // counts of its `value == 0` side. The comparison result feeds the count
  // directly (no conditional increment), and each pass reads exactly one
  // column slice plus the label slice.
  bool HasBoolean = false;
  for (unsigned F = 0; F < NumFeatures; ++F)
    if (Base.schema().FeatureKinds[F] == FeatureKind::Boolean)
      HasBoolean = true;
  if (!HasBoolean)
    return;
  ZeroCounts.assign(static_cast<size_t>(NumFeatures) * NumClasses, 0);
  const uint32_t *Labels = Base.labels();
  for (unsigned F = 0; F < NumFeatures; ++F) {
    if (Base.schema().FeatureKinds[F] != FeatureKind::Boolean)
      continue;
    const float *Col = Base.column(F);
    uint32_t *Out = ZeroCounts.data() + static_cast<size_t>(F) * NumClasses;
    for (uint32_t Row : Rows)
      Out[Labels[Row]] += Col[Row] == 0.0f;
  }
}

std::optional<SplitPredicate> antidote::bestSplit(const SplitContext &Ctx,
                                                  const RowIndexList &Rows) {
  std::vector<uint32_t> Totals = classCounts(Ctx.base(), Rows);
  uint32_t Total = static_cast<uint32_t>(Rows.size());
  std::vector<uint32_t> NegCounts(Totals.size());
  std::optional<SplitPredicate> Best;
  double BestScore = 0.0;
  forEachCandidateSplit(
      Ctx, Rows, PredicateMode::ConcreteMidpoint,
      [&](const SplitPredicate &Pred, const std::vector<uint32_t> &PosCounts,
          uint32_t PosTotal) {
        for (size_t C = 0; C < Totals.size(); ++C)
          NegCounts[C] = Totals[C] - PosCounts[C];
        double Score =
            splitScore(PosCounts, PosTotal, NegCounts, Total - PosTotal);
        // Candidates arrive in ascending (feature, threshold) order, so a
        // strict improvement test yields the smallest tied predicate.
        if (!Best || Score < BestScore) {
          Best = Pred;
          BestScore = Score;
        }
      });
  return Best;
}

RowIndexList antidote::filterRows(const Dataset &Base,
                                  const RowIndexList &Rows,
                                  const SplitPredicate &Pred, bool Positive) {
  assert(!Pred.isSymbolic() && "concrete filter needs a concrete predicate");
  // Compare-and-compact over one column slice: a concrete predicate is
  // `value ≤ threshold` on a single feature, so the three-valued evaluate
  // collapses to one comparison. Always write the row id, advance the write
  // cursor by the comparison result — no data-dependent branch.
  const float *Col = Base.column(Pred.feature());
  const double Threshold = Pred.lo();
  RowIndexList Result(Rows.size());
  size_t N = 0;
  for (uint32_t Row : Rows) {
    Result[N] = Row;
    N += (static_cast<double>(Col[Row]) <= Threshold) == Positive;
  }
  Result.resize(N);
  return Result;
}
