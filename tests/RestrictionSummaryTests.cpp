//===- tests/RestrictionSummaryTests.cpp - filter# child summaries ---------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// `summarizeRestrictions` against the children it stands for: every
// summary must match `Cur.restrict(Pred, Positive)` field for field — size,
// budget, class counts, stateBytes() and row-set hash — in filter#'s
// emission order, over random mixed real/boolean datasets, random parents,
// symbolic and concrete predicates (thresholds on and between data
// values), and x on each of the three sides.
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractFilter.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace antidote;
using namespace antidote::testutil;

namespace {

constexpr unsigned NumReal = 3;
constexpr unsigned NumFeatures = NumReal + 2; // Two boolean features last.
constexpr unsigned DistinctValues = 6;

/// Real features draw from {0..5} (ties are common), booleans from {0, 1}.
Dataset makeMixedDataset(Rng &R, unsigned NumClasses) {
  DatasetSchema Schema;
  Schema.FeatureKinds.assign(NumReal, FeatureKind::Real);
  Schema.FeatureKinds.resize(NumFeatures, FeatureKind::Boolean);
  Schema.NumClasses = NumClasses;
  Dataset Data(Schema);
  unsigned Rows = 1 + static_cast<unsigned>(R.uniformInt(40));
  std::vector<float> Features(NumFeatures);
  for (unsigned Row = 0; Row < Rows; ++Row) {
    for (unsigned F = 0; F < NumFeatures; ++F)
      Features[F] = static_cast<float>(
          R.uniformInt(F < NumReal ? DistinctValues : 2));
    Data.addRow(Features, static_cast<unsigned>(R.uniformInt(NumClasses)));
  }
  return Data;
}

/// A threshold on a data value, half-way between two, or past either end.
double randomThreshold(Rng &R, unsigned Feature) {
  uint64_t Top = Feature < NumReal ? DistinctValues - 1 : 1;
  return static_cast<double>(R.uniformInt(2 * Top + 5)) / 2.0 - 1.0;
}

/// A random predicate: concrete or symbolic, on any feature.
SplitPredicate randomPredicate(Rng &R) {
  unsigned F = static_cast<unsigned>(R.uniformInt(NumFeatures));
  double A = randomThreshold(R, F);
  double B = randomThreshold(R, F);
  if (A == B || R.bernoulli(0.4))
    return SplitPredicate::threshold(F, A);
  return SplitPredicate::symbolic(F, std::min(A, B), std::max(A, B));
}

/// Checks every summary against the child `restrict` builds, in filter#
/// order; returns the number of children compared.
size_t expectSummariesMatchRestrict(const SplitContext &Ctx,
                                    const AbstractDataset &Cur,
                                    const PredicateSet &Psi, const float *X) {
  RestrictionSummaries Out;
  summarizeRestrictions(Ctx, Cur, Psi, X, Out);
  const unsigned K = Cur.base().numClasses();
  EXPECT_EQ(Out.NumClasses, K);
  EXPECT_EQ(Out.Counts.size(), Out.size() * K);
  size_t Next = 0;
  for (uint32_t P = 0; P < Psi.size(); ++P) {
    const SplitPredicate &Pred = Psi.predicates()[P];
    ThreeValued V = Pred.evaluate(X);
    for (bool Positive : {true, false}) {
      if (V == (Positive ? ThreeValued::False : ThreeValued::True))
        continue;
      std::string Label = Pred.str() + (Positive ? " positive" : " negative") +
                          " of " + Cur.str();
      if (Next >= Out.size()) {
        ADD_FAILURE() << "missing summary for " << Label;
        return Next;
      }
      AbstractDataset Child = Cur.restrict(Pred, Positive);
      const RestrictionSummary &S = Out.Items[Next];
      EXPECT_EQ(S.Pred, P) << Label;
      EXPECT_EQ(S.Positive, Positive) << Label;
      EXPECT_EQ(S.Size, Child.size()) << Label;
      EXPECT_EQ(S.Budget, Child.budget()) << Label;
      EXPECT_EQ(std::vector<uint32_t>(Out.counts(Next), Out.counts(Next) + K),
                Child.counts())
          << Label;
      EXPECT_EQ(Out.stateBytes(Next), Child.stateBytes()) << Label;
      EXPECT_TRUE(S.Hash == rowSetHash(Child.rows())) << Label;
      ++Next;
    }
  }
  EXPECT_EQ(Next, Out.size()) << "extra summaries";
  return Next;
}

} // namespace

TEST(RestrictionSummaryTest, MatchesRestrictOnRandomPredicates) {
  Rng R(20200615);
  size_t Compared = 0;
  for (int Trial = 0; Trial < 300; ++Trial) {
    unsigned NumClasses = 2 + static_cast<unsigned>(R.uniformInt(2));
    Dataset Data = makeMixedDataset(R, NumClasses);
    SplitContext Ctx(Data);
    // A random non-empty parent and budget.
    RowIndexList Rows;
    for (uint32_t Row = 0; Row < Data.numRows(); ++Row)
      if (R.bernoulli(0.7))
        Rows.push_back(Row);
    if (Rows.empty())
      Rows.push_back(static_cast<uint32_t>(R.uniformInt(Data.numRows())));
    AbstractDataset Cur(Data, Rows,
                        static_cast<uint32_t>(R.uniformInt(Rows.size() + 2)));

    PredicateSet Psi;
    unsigned NumPreds = 1 + static_cast<unsigned>(R.uniformInt(12));
    for (unsigned I = 0; I < NumPreds; ++I)
      Psi.add(randomPredicate(R));
    if (R.bernoulli(0.5))
      Psi.canonicalize();
    std::vector<float> X(NumFeatures);
    for (unsigned F = 0; F < NumFeatures; ++F)
      X[F] = static_cast<float>(randomThreshold(R, F));
    Compared += expectSummariesMatchRestrict(Ctx, Cur, Psi, X.data());
  }
  EXPECT_GT(Compared, 1000u);
}

TEST(RestrictionSummaryTest, ConcreteThresholdOnADataValueKeepsTiedRows) {
  // x ≤ 10 on Figure 2's data: the row at exactly 10 is on the positive
  // side, so the positive child is {0..4, 7..10} (9 rows), not the 8 rows
  // below 10; the negative child is the other 4.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  AbstractDataset Cur = AbstractDataset::entire(Data, 2);
  PredicateSet Psi;
  Psi.add(SplitPredicate::threshold(0, 10.0));
  Psi.add(SplitPredicate::threshold(0, 0.0));
  Psi.add(SplitPredicate::threshold(0, 14.0));
  for (float X : {5.0f, 10.0f, 12.0f}) {
    SCOPED_TRACE(X);
    RestrictionSummaries Out;
    summarizeRestrictions(Ctx, Cur, Psi, &X, Out);
    ASSERT_EQ(Out.size(), 3u); // Concrete: one side per predicate.
    EXPECT_EQ(Out.Items[0].Size, X <= 10.0f ? 9u : 4u);
    EXPECT_EQ(Out.Items[1].Size, 12u); // x > 0: all but the row at 0.
    EXPECT_EQ(Out.Items[2].Size, 13u); // x ≤ 14: every row.
    expectSummariesMatchRestrict(Ctx, Cur, Psi, &X);
  }
}

TEST(RestrictionSummaryTest, SymbolicPredicateSidesOfEachQueryPosition) {
  // x ≤ [4, 7) and x ≤ [3, 8) on Figure 2's data, with x below, inside
  // and above both intervals: True emits only the positive side, Maybe
  // both, False only the negative. The second predicate's Maybe rows (4
  // and 7) stay possible on the positive side and are charged to the
  // budget.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  AbstractDataset Cur = AbstractDataset::entire(Data, 1);
  PredicateSet Psi;
  Psi.add(SplitPredicate::symbolic(0, 4.0, 7.0));
  Psi.add(SplitPredicate::symbolic(0, 3.0, 8.0));
  for (float X : {2.0f, 5.0f, 9.0f}) {
    SCOPED_TRACE(X);
    EXPECT_EQ(expectSummariesMatchRestrict(Ctx, Cur, Psi, &X),
              X == 5.0f ? 4u : 2u);
  }
}

TEST(RestrictionSummaryTest, HashSeparatesSetsAndComposesByComplement) {
  RowIndexList A = {0, 2, 5};
  RowIndexList B = {0, 2, 6};
  RowIndexList Union = {0, 2, 5, 7, 9};
  RowIndexList Rest = {7, 9};
  EXPECT_FALSE(rowSetHash(A) == rowSetHash(B));
  EXPECT_TRUE(rowSetHash(Union) - rowSetHash(A) == rowSetHash(Rest));
  EXPECT_TRUE(rowSetHash({}) == RowSetHash());
}
