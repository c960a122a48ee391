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
  const uint32_t *Labels = Base.labels();
  std::vector<uint32_t> Counts(NumClasses, 0);
  for (uint32_t Row : Rows) {
    InRows[Row] = 1;
    ++Counts[Labels[Row]];
  }
  Totals.assign(Counts.begin(), Counts.end());

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
  for (unsigned F = 0; F < NumFeatures; ++F) {
    if (Base.schema().FeatureKinds[F] != FeatureKind::Boolean)
      continue;
    const float *Col = Base.column(F);
    uint32_t *Out = ZeroCounts.data() + static_cast<size_t>(F) * NumClasses;
    for (uint32_t Row : Rows)
      Out[Labels[Row]] += Col[Row] == 0.0f;
  }
}

void SplitBlock::reserve(size_t Candidates, unsigned Classes) {
  if (Candidates > PosTotals.size()) {
    Cuts.resize(Candidates);
    PosTotals.resize(Candidates);
  }
  Stride = Candidates;
  if (Stride * Classes > Counts.size())
    Counts.resize(Stride * Classes);
}

bool SplitBlock::assign(const SplitEnumerationPrepass &Pre,
                        unsigned Feature) {
  const Dataset &Base = Pre.context().base();
  this->Feature = Feature;
  NumClasses = Base.numClasses();
  Total = Pre.total();
  Totals = Pre.classTotals();
  Size = 0;
  Boolean = Base.schema().FeatureKinds[Feature] == FeatureKind::Boolean;

  if (Boolean) {
    // At most the single predicate `x_F ≤ 0.5`, present iff both values
    // occur in the row set.
    const uint32_t *Zero = Pre.zeroCounts(Feature);
    uint32_t PosTotal = 0;
    for (unsigned C = 0; C < NumClasses; ++C)
      PosTotal += Zero[C];
    if (PosTotal == 0 || PosTotal == Pre.total())
      return false;
    reserve(1, NumClasses);
    PosTotals[0] = PosTotal;
    for (unsigned C = 0; C < NumClasses; ++C)
      Counts[C * Stride] = Zero[C];
    Size = 1;
    return true;
  }

  // Real feature. The boundary scan runs over a dense (value, label)
  // sequence in sorted order; how that sequence is produced depends on the
  // row set:
  //
  //  - Full row set (the top-of-tree case and every entire-dataset abstract
  //    query): the SplitContext's presorted value slice *is* the sequence —
  //    no membership test, no compaction.
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
  const size_t N = Pre.total();

  thread_local std::vector<float> ValScratch;
  thread_local std::vector<uint32_t> LabScratch;
  ValScratch.resize(OrderSize);
  LabScratch.resize(OrderSize);
  const float *Vals = SortedVals;
  if (N == OrderSize) {
    for (size_t I = 0; I < N; ++I)
      LabScratch[I] = Labels[Order[I]];
  } else {
    size_t Kept = 0;
    for (size_t I = 0; I < OrderSize; ++I) {
      const uint32_t Row = Order[I];
      ValScratch[Kept] = SortedVals[I];
      LabScratch[Kept] = Labels[Row];
      Kept += Pre.contains(Row);
    }
    assert(Kept == N && "compaction must keep exactly the row set");
    Vals = ValScratch.data();
  }
  if (N < 2)
    return false;

  // A candidate sits at every value change: its positive side is the
  // prefix before it, so at most N - 1 of them. One pass over the sorted
  // sequence finds the cuts and the class counts of each cut's prefix
  // together. The running counts are packed into a 64-bit word, one
  // 32-bit lane per class (row ids are 32-bit, so no lane overflows), so
  // counting a row is one register add. Every row writes its cut slot and
  // the cursor advances only on a value change: no data-dependent branch.
  // With more classes than one word holds, the pass repeats per word (the
  // cuts come out the same each time).
  reserve(N - 1, NumClasses);
  Values = Vals;
  constexpr unsigned LaneBits = 32;
  constexpr unsigned Lanes = 64 / LaneBits;
  constexpr uint64_t LaneMask = (uint64_t(1) << LaneBits) - 1;
  thread_local std::vector<uint64_t> PackedScratch, StepScratch;
  PackedScratch.resize(N - 1);
  StepScratch.resize(NumClasses);
  // Locals, not members, in the loop: a uint64_t store could alias
  // `Size`, which would force it through memory on every row.
  uint64_t *__restrict Packed = PackedScratch.data();
  uint64_t *__restrict Step = StepScratch.data();
  uint32_t *__restrict CutAt = Cuts.data();
  const uint32_t *Labs = LabScratch.data();
  size_t NumCuts = 0;
  for (unsigned Word = 0; Word * Lanes < NumClasses; ++Word) {
    for (unsigned C = 0; C < NumClasses; ++C)
      Step[C] = C / Lanes == Word ? uint64_t(1) << (C % Lanes * LaneBits) : 0;
    NumCuts = 0;
    uint64_t Running = Step[Labs[0]];
    for (size_t I = 1; I < N; ++I) {
      CutAt[NumCuts] = static_cast<uint32_t>(I);
      Packed[NumCuts] = Running;
      NumCuts += Vals[I] != Vals[I - 1];
      Running += Step[Labs[I]];
    }
    for (unsigned C = Word * Lanes; C < NumClasses && C / Lanes == Word;
         ++C) {
      const unsigned Shift = C % Lanes * LaneBits;
      double *__restrict Out =
          Counts.data() + static_cast<size_t>(C) * Stride;
      for (size_t B = 0; B < NumCuts; ++B)
        Out[B] = static_cast<double>(
            static_cast<int64_t>((Packed[B] >> Shift) & LaneMask));
    }
  }
  double *__restrict Sizes = PosTotals.data();
  for (size_t B = 0; B < NumCuts; ++B)
    Sizes[B] = CutAt[B];
  Size = NumCuts;
  return Size > 0;
}

uint32_t SplitBlock::sideCounts(size_t I, std::vector<uint32_t> &Pos,
                                std::vector<uint32_t> &Neg) const {
  assert(I < Size && "candidate out of range");
  Pos.resize(NumClasses);
  Neg.resize(NumClasses);
  for (unsigned C = 0; C < NumClasses; ++C) {
    Pos[C] = static_cast<uint32_t>(posCounts(C)[I]);
    Neg[C] = static_cast<uint32_t>(Totals[C] - posCounts(C)[I]);
  }
  return static_cast<uint32_t>(PosTotals[I]);
}

void antidote::splitScores(const SplitBlock &Block, double *Scores) {
  // `splitScore`: per side |side| · (0 + Σ_C p(1 − p)), summed in class
  // order as `giniImpurityFromCounts` sums it.
  blockSideSums(
      Block,
      [](double Count, double Side) {
        const double P = Count / Side;
        return P * (1.0 - P);
      },
      [](double Side) { return Side; }, Scores);
}

std::optional<SplitPredicate> antidote::bestSplit(const SplitContext &Ctx,
                                                  const RowIndexList &Rows) {
  std::optional<SplitPredicate> Best;
  double BestScore = 0.0;
  std::vector<double> Scores;
  forEachSplitBlock(Ctx, Rows, [&](const SplitBlock &Block) {
    Scores.resize(Block.size());
    splitScores(Block, Scores.data());
    // Candidates arrive in ascending (feature, threshold) order, so a
    // strict improvement test yields the smallest tied predicate.
    for (size_t I = 0; I < Block.size(); ++I)
      if (!Best || Scores[I] < BestScore) {
        Best = Block.predicate(I, PredicateMode::ConcreteMidpoint);
        BestScore = Scores[I];
      }
    return true;
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
