//===- tests/LabelFlipTests.cpp - Label-flip certification tests --------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/LabelFlip.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace antidote;
using namespace antidote::testutil;

//===----------------------------------------------------------------------===//
// Flip transformers
//===----------------------------------------------------------------------===//

TEST(FlipCprobTest, BoundsAreCountPlusMinusBudget) {
  std::vector<Interval> Probs = flipClassProbabilities({7, 2}, 9, 2);
  EXPECT_DOUBLE_EQ(Probs[0].lb(), 5.0 / 9.0);
  EXPECT_DOUBLE_EQ(Probs[0].ub(), 1.0);
  EXPECT_DOUBLE_EQ(Probs[1].lb(), 0.0);
  EXPECT_DOUBLE_EQ(Probs[1].ub(), 4.0 / 9.0);
}

TEST(FlipCprobTest, ZeroBudgetIsExact) {
  std::vector<Interval> Probs = flipClassProbabilities({3, 5}, 8, 0);
  EXPECT_TRUE(Probs[0].isSingleton());
  EXPECT_DOUBLE_EQ(Probs[0].lb(), 3.0 / 8.0);
}

TEST(FlipCprobTest, SoundOverFlipEnumeration) {
  // For every relabeling with <= n flips, the concrete class probability
  // lies in the abstract interval.
  Rng R(515151);
  for (int Trial = 0; Trial < 100; ++Trial) {
    uint32_t C0 = 1 + static_cast<uint32_t>(R.uniformInt(6));
    uint32_t C1 = static_cast<uint32_t>(R.uniformInt(6));
    uint32_t Total = C0 + C1;
    uint32_t Budget = static_cast<uint32_t>(R.uniformInt(Total + 1));
    std::vector<Interval> Probs =
        flipClassProbabilities({C0, C1}, Total, Budget);
    // Flipping j0 rows 0->1 and j1 rows 1->0.
    for (uint32_t J0 = 0; J0 <= std::min(C0, Budget); ++J0)
      for (uint32_t J1 = 0; J1 + J0 <= Budget && J1 <= C1; ++J1) {
        double P0 = static_cast<double>(C0 - J0 + J1) / Total;
        double P1 = static_cast<double>(C1 + J0 - J1) / Total;
        EXPECT_TRUE(Probs[0].contains(P0));
        EXPECT_TRUE(Probs[1].contains(P1));
      }
  }
}

TEST(FlipBestSplitTest, ZeroBudgetMatchesConcrete) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  std::vector<SplitPredicate> Preds =
      flipBestSplit(Ctx, AbstractDataset::entire(Data, 0))->predicates();
  ASSERT_EQ(Preds.size(), 1u);
  EXPECT_DOUBLE_EQ(Preds[0].thresholdValue(), 10.5);
}

TEST(FlipBestSplitTest, PredicatesAreConcreteAndGrowWithBudget) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  size_t Prev = 0;
  for (uint32_t Budget : {0u, 1u, 2u, 4u}) {
    std::vector<SplitPredicate> Preds =
        flipBestSplit(Ctx, AbstractDataset::entire(Data, Budget))
            ->predicates();
    for (const SplitPredicate &Pred : Preds)
      EXPECT_FALSE(Pred.isSymbolic());
    EXPECT_GE(Preds.size(), Prev);
    Prev = Preds.size();
  }
}

TEST(FlipBestSplitTest, CoversConcreteBestOfEveryRelabeling) {
  // The flip analogue of Lemma 4.10, by exhaustive relabeling.
  Rng R(616161);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 7;
  Spec.NumFeatures = 2;
  Spec.DistinctValues = 4;
  for (int Trial = 0; Trial < 15; ++Trial) {
    Dataset Data = makeRandomDataset(R, Spec);
    SplitContext Ctx(Data);
    RowIndexList Rows = allRows(Data);
    uint32_t Budget = 1 + static_cast<uint32_t>(R.uniformInt(2));
    std::vector<SplitPredicate> Psi =
        flipBestSplit(Ctx, AbstractDataset(Data, Rows, Budget))->predicates();
    // Enumerate relabelings and check coverage of each concrete best.
    std::vector<unsigned> Labels(Rows.size());
    for (size_t I = 0; I < Rows.size(); ++I)
      Labels[I] = Data.label(Rows[I]);
    std::function<void(size_t, uint32_t)> Recurse = [&](size_t Index,
                                                        uint32_t Left) {
      if (Index == Rows.size()) {
        Dataset Flipped(Data.schema());
        for (size_t I = 0; I < Rows.size(); ++I)
          Flipped.addRow(Data.row(Rows[I]), Labels[I]);
        SplitContext FlippedCtx(Flipped);
        std::optional<SplitPredicate> Best =
            bestSplit(FlippedCtx, allRows(Flipped));
        if (!Best) {
          EXPECT_TRUE(Psi.empty());
          return;
        }
        EXPECT_NE(std::find(Psi.begin(), Psi.end(), *Best), Psi.end())
            << "flip-concrete best " << Best->str() << " not covered";
        return;
      }
      Recurse(Index + 1, Left);
      if (Left == 0)
        return;
      unsigned Base = Labels[Index];
      for (unsigned C = 0; C < Data.numClasses(); ++C) {
        if (C == Base)
          continue;
        Labels[Index] = C;
        Recurse(Index + 1, Left - 1);
        Labels[Index] = Base;
      }
    };
    Recurse(0, Budget);
  }
}

//===----------------------------------------------------------------------===//
// End-to-end flip verification
//===----------------------------------------------------------------------===//

namespace {

/// A 16-row linearly separable set: feature value I, label I >= 8. Wide
/// margins keep the flip score intervals of boundary-remote predicates
/// above the minimal interval, so flip proofs succeed.
Dataset separableDataset() {
  Dataset Data(DatasetSchema::uniform(1, FeatureKind::Real, 2));
  for (int I = 0; I < 16; ++I)
    Data.addRow({static_cast<float>(I)}, I < 8 ? 0u : 1u);
  return Data;
}

} // namespace

TEST(LabelFlipVerifyTest, SeparableDataToleratesOneFlip) {
  Dataset Data = separableDataset();
  SplitContext Ctx(Data);
  float X = 2.0f;
  LabelFlipConfig Config;
  Config.Depth = 1;
  LabelFlipResult Result =
      verifyLabelFlipRobustness(Ctx, allRows(Data), &X, 1, Config);
  EXPECT_EQ(Result.RunStatus, LabelFlipResult::Status::Completed);
  EXPECT_TRUE(Result.Robust);
  EXPECT_EQ(Result.DominatingClass, 0u);
  EXPECT_EQ(Result.ConcretePrediction, 0u);
}

TEST(LabelFlipVerifyTest, Figure2IsTooTightForFlipProofs) {
  // On the 13-point running example even one flip (~8% contamination) is
  // unprovable: small split sides get [0, 1] probability intervals, which
  // drag extra predicates into bestSplit# (the flip-model analogue of the
  // §2 imprecision discussion). Enumeration shows x = 18 actually *is*
  // robust — another sound-but-incomplete gap.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 18.0f;
  LabelFlipConfig Config;
  Config.Depth = 1;
  LabelFlipResult Result =
      verifyLabelFlipRobustness(Ctx, allRows(Data), &X, 1, Config);
  EXPECT_FALSE(Result.Robust);
  FlipEnumerationResult Oracle =
      verifyByFlipEnumeration(Ctx, allRows(Data), &X, 1, 1);
  EXPECT_TRUE(Oracle.Robust);
}

TEST(LabelFlipVerifyTest, ZeroBudgetIsAlwaysProvableOffTies) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  LabelFlipConfig Config;
  Config.Depth = 2;
  for (float X : {0.0f, 3.0f, 8.0f, 12.0f, 20.0f}) {
    LabelFlipResult Result =
        verifyLabelFlipRobustness(Ctx, allRows(Data), &X, 0, Config);
    EXPECT_TRUE(Result.Robust) << "x = " << X;
  }
}

TEST(LabelFlipVerifyTest, ExcessiveBudgetUnprovable) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  LabelFlipConfig Config;
  Config.Depth = 1;
  LabelFlipResult Result =
      verifyLabelFlipRobustness(Ctx, allRows(Data), &X, 13, Config);
  EXPECT_FALSE(Result.Robust);
}

TEST(LabelFlipVerifyTest, TimeoutSurfaces) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  LabelFlipConfig Config;
  Config.Depth = 3;
  Config.Limits.TimeoutSeconds = 1e-9;
  LabelFlipResult Result =
      verifyLabelFlipRobustness(Ctx, allRows(Data), &X, 3, Config);
  EXPECT_EQ(Result.RunStatus, LabelFlipResult::Status::Timeout);
  EXPECT_FALSE(Result.Robust);
}

TEST(LabelFlipVerifyTest, ResourceLimitSurfaces) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  LabelFlipConfig Config;
  Config.Depth = 2;
  Config.Limits.MaxDisjuncts = 1;
  LabelFlipResult Result =
      verifyLabelFlipRobustness(Ctx, allRows(Data), &X, 4, Config);
  EXPECT_EQ(Result.RunStatus, LabelFlipResult::Status::ResourceLimit);
}

//===----------------------------------------------------------------------===//
// Flip oracle and soundness
//===----------------------------------------------------------------------===//

TEST(FlipEnumerationTest, CountsLabelings) {
  // 4 rows with a 3-1 majority, budget 1: flipping any single label leaves
  // class 0 with at least a tie (broken toward 0), so the instance is
  // robust at depth 0 and all 1 + 4 labelings are visited.
  Dataset Data(DatasetSchema::uniform(1, FeatureKind::Real, 2));
  Data.addRow({0.0f}, 0);
  Data.addRow({1.0f}, 0);
  Data.addRow({2.0f}, 0);
  Data.addRow({3.0f}, 1);
  SplitContext Ctx(Data);
  float X = 0.0f;
  FlipEnumerationResult Result =
      verifyByFlipEnumeration(Ctx, allRows(Data), &X, 1, 0);
  EXPECT_TRUE(Result.Robust);
  EXPECT_EQ(Result.SetsChecked, 5u);
}

TEST(FlipEnumerationTest, DetectsNonRobustInstance) {
  // Depth 0 majority vote 2-1: flipping one majority label creates a 1-2
  // majority for the other class.
  Dataset Data(DatasetSchema::uniform(1, FeatureKind::Real, 2));
  Data.addRow({0.0f}, 0);
  Data.addRow({1.0f}, 0);
  Data.addRow({2.0f}, 1);
  SplitContext Ctx(Data);
  float X = 0.0f;
  FlipEnumerationResult Result =
      verifyByFlipEnumeration(Ctx, allRows(Data), &X, 1, 0);
  EXPECT_FALSE(Result.Robust);
}

namespace {

class FlipSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(FlipSoundnessTest, ProofImpliesFlipEnumerationRobust) {
  // Flip proofs need clean margin structure: any kept predicate that
  // leaves x with a side of <= 2n rows yields a [0, 1] probability
  // interval and kills domination. Draw clean separable sets with
  // randomized sizes/boundaries and query points with >= 2 rows of edge
  // clearance and >= 3 of boundary clearance (where proofs are possible),
  // plus fully random noisy sets (which exercise the refutation side).
  Rng R(GetParam());
  unsigned Proven = 0;
  for (int Trial = 0; Trial < 20; ++Trial) {
    bool Clean = Trial % 2 == 0;
    unsigned Rows = 14 + static_cast<unsigned>(R.uniformInt(3));
    unsigned Boundary = 6 + static_cast<unsigned>(R.uniformInt(4));
    Dataset Data(DatasetSchema::uniform(2, FeatureKind::Real, 2));
    for (unsigned I = 0; I < Rows; ++I) {
      unsigned Label = I < Boundary ? 0u : 1u;
      if (!Clean && R.bernoulli(0.15))
        Label ^= 1u;
      Data.addRow({static_cast<float>(I),
                   static_cast<float>(R.uniformInt(4))},
                  Label);
    }
    SplitContext Ctx(Data);
    RowIndexList AllTrainRows = allRows(Data);
    uint32_t Budget = 1;
    unsigned Depth = 1 + static_cast<unsigned>(R.uniformInt(2));
    float QueryIndex = R.bernoulli(0.5)
                           ? static_cast<float>(Boundary - 4)
                           : static_cast<float>(Boundary + 3);
    float X[2] = {QueryIndex, 1.0f};

    LabelFlipConfig Config;
    Config.Depth = Depth;
    LabelFlipResult Abstract =
        verifyLabelFlipRobustness(Ctx, AllTrainRows, X, Budget, Config);
    if (!Abstract.Robust)
      continue;
    ++Proven;
    FlipEnumerationResult Oracle =
        verifyByFlipEnumeration(Ctx, AllTrainRows, X, Budget, Depth);
    EXPECT_TRUE(Oracle.Robust)
        << "flip proof contradicted by enumeration (depth=" << Depth
        << ", boundary=" << Boundary << ")";
    EXPECT_EQ(Abstract.DominatingClass, Oracle.OriginalPrediction);
  }
  EXPECT_GT(Proven, 0u);
}

TEST_P(FlipSoundnessTest, RobustnessAntiMonotoneInBudget) {
  Rng R(GetParam() ^ 0x9999);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 9;
  for (int Trial = 0; Trial < 20; ++Trial) {
    Dataset Data = makeRandomDataset(R, Spec);
    SplitContext Ctx(Data);
    std::vector<float> X = makeRandomQuery(R, Spec);
    LabelFlipConfig Config;
    Config.Depth = 2;
    bool Prev = true;
    for (uint32_t N = 0; N <= 3; ++N) {
      LabelFlipResult Result = verifyLabelFlipRobustness(
          Ctx, allRows(Data), X.data(), N, Config);
      if (!Prev) {
        EXPECT_FALSE(Result.Robust) << "proved n=" << N << " but not n-1";
      }
      Prev = Result.Robust;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlipSoundnessTest,
                         ::testing::Values(81ull, 82ull, 83ull));

TEST(LabelFlipVerifyTest, CertifiedFlipBudgetOnSeparableData) {
  // Certify the largest flip budget on the separable set and check it is
  // anti-monotone and non-trivial.
  Dataset Data = separableDataset();
  SplitContext Ctx(Data);
  float X = 2.0f;
  LabelFlipConfig Config;
  Config.Depth = 1;
  uint32_t MaxFlip = 0;
  for (uint32_t N = 1; N <= Data.numRows(); ++N) {
    if (!verifyLabelFlipRobustness(Ctx, allRows(Data), &X, N, Config)
             .Robust)
      break;
    MaxFlip = N;
  }
  EXPECT_GE(MaxFlip, 1u);
  EXPECT_LT(MaxFlip, Data.numRows());
  // And everything below the certified budget is also certified.
  for (uint32_t N = 0; N <= MaxFlip; ++N)
    EXPECT_TRUE(verifyLabelFlipRobustness(Ctx, allRows(Data), &X, N,
                                          Config)
                    .Robust);
}
