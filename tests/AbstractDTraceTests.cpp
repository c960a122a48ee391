//===- tests/AbstractDTraceTests.cpp - DTrace# end-to-end soundness -----------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractDTrace.h"

#include "TestUtil.h"
#include "antidote/Enumeration.h"
#include "concrete/DTrace.h"

#include <gtest/gtest.h>

using namespace antidote;
using namespace antidote::testutil;

namespace {

AbstractLearnerConfig baseConfig(AbstractDomainKind Domain, unsigned Depth) {
  AbstractLearnerConfig Config;
  Config.Domain = Domain;
  Config.Depth = Depth;
  Config.StopOnRefutation = false; // Tests inspect complete terminal sets.
  return Config;
}

// For the tests that read Result.Terminals, which only a collecting run
// fills in.
AbstractLearnerConfig collectingConfig(AbstractDomainKind Domain,
                                       unsigned Depth) {
  AbstractLearnerConfig Config = baseConfig(Domain, Depth);
  Config.CollectTerminals = true;
  return Config;
}

} // namespace

TEST(AbstractDTraceTest, Figure2DepthOneDisjunctsProveWhite) {
  // The §2 running example at one poisoned element: every surviving
  // disjunct keeps white dominating, so classification of 5 is proven
  // invariant.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractDataset Initial = AbstractDataset::entire(Data, 1);
  AbstractLearnerResult Result = runAbstractDTrace(
      Ctx, Initial, &X, collectingConfig(AbstractDomainKind::Disjuncts, 1));
  EXPECT_EQ(Result.Status, LearnerStatus::Completed);
  EXPECT_FALSE(Result.Refuted);
  ASSERT_TRUE(Result.DominatingClass.has_value());
  EXPECT_EQ(*Result.DominatingClass, 0u); // white
  EXPECT_GE(Result.Terminals.size(), 2u); // Several tied predicates.
}

TEST(AbstractDTraceTest, Figure2BoxJoinLosesWhatDisjunctsProve) {
  // §5.2's motivation: at n = 1 the box domain joins quite dissimilar
  // training-set fragments across the tied predicates and can no longer
  // dominate, while the disjunctive domain proves the instance (previous
  // test). This is the Example 5.3 imprecision in action.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractDataset Initial = AbstractDataset::entire(Data, 1);
  AbstractLearnerResult Result = runAbstractDTrace(
      Ctx, Initial, &X, collectingConfig(AbstractDomainKind::Box, 1));
  EXPECT_EQ(Result.Status, LearnerStatus::Completed);
  EXPECT_EQ(Result.Terminals.size(), 1u); // Box keeps a single state.
  EXPECT_FALSE(Result.DominatingClass.has_value());
}

TEST(AbstractDTraceTest, Figure2OverviewProbabilityInterval) {
  // §2: after splitting on x ≤ 10 with two poisonings, the white
  // probability interval on the left branch is [0.71, 1] (i.e. [5/7, 1]).
  // In the disjunctive run, that branch is the terminal whose rows are
  // exactly T↓x≤10 with budget 2.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractDataset Initial = AbstractDataset::entire(Data, 2);
  AbstractLearnerResult Result = runAbstractDTrace(
      Ctx, Initial, &X, collectingConfig(AbstractDomainKind::Disjuncts, 1));
  RowIndexList LeftRows = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  bool FoundLeftBranch = false;
  for (const AbstractDataset &Terminal : Result.Terminals) {
    if (Terminal.rows() != LeftRows || Terminal.budget() != 2)
      continue;
    FoundLeftBranch = true;
    std::vector<Interval> Probs = abstractClassProbabilities(
        Terminal, CprobTransformerKind::Optimal);
    EXPECT_NEAR(Probs[0].lb(), 5.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(Probs[0].ub(), 1.0);
  }
  EXPECT_TRUE(FoundLeftBranch);
}

TEST(AbstractDTraceTest, RefutationWhenBudgetTooLarge) {
  // With enough poisoning the left leaf can be flipped; domination fails.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractDataset Initial = AbstractDataset::entire(Data, 7);
  AbstractLearnerResult Result = runAbstractDTrace(
      Ctx, Initial, &X, baseConfig(AbstractDomainKind::Box, 1));
  EXPECT_EQ(Result.Status, LearnerStatus::Completed);
  EXPECT_FALSE(Result.DominatingClass.has_value());
}

TEST(AbstractDTraceTest, EarlyStopOnRefutationProducesSameVerdict) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  for (uint32_t Budget : {0u, 1u, 2u, 4u, 7u, 13u}) {
    AbstractDataset Initial = AbstractDataset::entire(Data, Budget);
    AbstractLearnerConfig Full = baseConfig(AbstractDomainKind::Box, 2);
    AbstractLearnerConfig Early = Full;
    Early.StopOnRefutation = true;
    AbstractLearnerResult A = runAbstractDTrace(Ctx, Initial, &X, Full);
    AbstractLearnerResult B = runAbstractDTrace(Ctx, Initial, &X, Early);
    EXPECT_EQ(A.DominatingClass.has_value(), B.DominatingClass.has_value());
    if (A.DominatingClass && B.DominatingClass) {
      EXPECT_EQ(*A.DominatingClass, *B.DominatingClass);
    }
  }
}

TEST(AbstractDTraceTest, TimeoutIsReported) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractLearnerConfig Config = baseConfig(AbstractDomainKind::Disjuncts, 4);
  Config.Limits.TimeoutSeconds = 1e-9; // Expire immediately.
  AbstractDataset Initial = AbstractDataset::entire(Data, 4);
  AbstractLearnerResult Result = runAbstractDTrace(Ctx, Initial, &X, Config);
  EXPECT_EQ(Result.Status, LearnerStatus::Timeout);
  EXPECT_FALSE(Result.DominatingClass.has_value());
}

TEST(AbstractDTraceTest, DisjunctCapIsHonored) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractLearnerConfig Config =
      baseConfig(AbstractDomainKind::DisjunctsCapped, 3);
  Config.DisjunctCap = 2;
  AbstractDataset Initial = AbstractDataset::entire(Data, 4);
  AbstractLearnerResult Result = runAbstractDTrace(Ctx, Initial, &X, Config);
  EXPECT_EQ(Result.Status, LearnerStatus::Completed);
  EXPECT_LE(Result.PeakDisjuncts, 2u);
}

TEST(AbstractDTraceTest, ResourceLimitIsReported) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractLearnerConfig Config = baseConfig(AbstractDomainKind::Disjuncts, 4);
  Config.Limits.MaxDisjuncts = 1; // Any branching trips the cap.
  AbstractDataset Initial = AbstractDataset::entire(Data, 6);
  AbstractLearnerResult Result = runAbstractDTrace(Ctx, Initial, &X, Config);
  EXPECT_EQ(Result.Status, LearnerStatus::ResourceLimit);
}

TEST(AbstractDTraceTest, StatsArePopulated) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  AbstractDataset Initial = AbstractDataset::entire(Data, 2);
  AbstractLearnerResult Result = runAbstractDTrace(
      Ctx, Initial, &X, baseConfig(AbstractDomainKind::Disjuncts, 2));
  EXPECT_GT(Result.BestSplitCalls, 0u);
  EXPECT_GT(Result.PeakStateBytes, 0u);
  EXPECT_GE(Result.PeakDisjuncts, 1u);
  EXPECT_GE(Result.Seconds, 0.0);
}

TEST(AbstractDTraceTest, InterruptedBestSplitIsNeverConsumedByTheLearner) {
  // A token cancelled before the run starts trips the first bestSplit#
  // poll; the learner must surface Cancelled with no terminals — the
  // nullopt result cannot silently become an (unsound) empty Ψ that
  // completes a verdict.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  CancellationToken Token;
  Token.cancel();
  for (AbstractDomainKind Domain :
       {AbstractDomainKind::Box, AbstractDomainKind::Disjuncts,
        AbstractDomainKind::DisjunctsCapped}) {
    AbstractLearnerConfig Config;
    Config.Depth = 3;
    Config.Domain = Domain;
    Config.DisjunctCap = 8;
    Config.Limits.TimeoutSeconds = 0.0;
    Config.Cancel = &Token;
    Config.CollectTerminals = true;
    AbstractLearnerResult Result = runAbstractDTrace(
        Ctx, AbstractDataset::entire(Data, 4), &X, Config);
    std::string Label = domainKindName(Domain);
    EXPECT_EQ(Result.Status, LearnerStatus::Cancelled) << Label;
    EXPECT_TRUE(Result.Terminals.empty()) << Label;
    EXPECT_FALSE(Result.DominatingClass.has_value()) << Label;
  }
}

//===----------------------------------------------------------------------===//
// Theorem 4.11: terminal coverage of every concrete final state
//===----------------------------------------------------------------------===//

namespace {

struct SoundnessCase {
  uint64_t Seed;
  AbstractDomainKind Domain;
};

class DTraceSoundnessTest
    : public ::testing::TestWithParam<SoundnessCase> {};

std::string soundnessCaseName(
    const ::testing::TestParamInfo<SoundnessCase> &Info) {
  std::string Name = domainKindName(Info.param.Domain);
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name + "_seed" + std::to_string(Info.param.Seed);
}

} // namespace

TEST_P(DTraceSoundnessTest, TerminalsCoverEveryConcreteRun) {
  // For every T' ∈ ∆n(T), the concrete DTrace(T', x) final training set
  // must lie in γ of some terminal abstract state (Theorem 4.11 lifted to
  // our multi-terminal formulation).
  Rng R(GetParam().Seed);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 8;
  Spec.NumFeatures = 2;
  Spec.DistinctValues = 4;
  for (int Trial = 0; Trial < 20; ++Trial) {
    Spec.BooleanFeatures = R.bernoulli(0.25);
    Spec.NumClasses = 2 + static_cast<unsigned>(R.uniformInt(2));
    Dataset Data = makeRandomDataset(R, Spec);
    SplitContext Ctx(Data);
    RowIndexList Rows = allRows(Data);
    uint32_t Budget = static_cast<uint32_t>(R.uniformInt(3));
    unsigned Depth = 1 + static_cast<unsigned>(R.uniformInt(3));
    std::vector<float> X = makeRandomQuery(R, Spec);

    AbstractLearnerResult Abstract = runAbstractDTrace(
        Ctx, AbstractDataset(Data, Rows, Budget), X.data(),
        collectingConfig(GetParam().Domain, Depth));
    ASSERT_EQ(Abstract.Status, LearnerStatus::Completed);

    forEachPerturbedSubset(Rows, Budget, [&](const RowIndexList &Subset) {
      TraceResult Concrete = runDTrace(Ctx, Subset, X.data(), Depth);
      bool Covered = false;
      for (const AbstractDataset &Terminal : Abstract.Terminals)
        if (Terminal.concretizationContains(Concrete.FinalRows)) {
          Covered = true;
          break;
        }
      EXPECT_TRUE(Covered)
          << "concrete final state not covered by any terminal (depth="
          << Depth << ", n=" << Budget << ")";
    });
  }
}

TEST_P(DTraceSoundnessTest, DominationImpliesEnumerationRobust) {
  // The headline soundness property: a dominating class means *no*
  // removal of ≤ n rows can change the prediction; the enumeration oracle
  // must agree.
  Rng R(GetParam().Seed ^ 0xabcdef);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 9;
  Spec.NumFeatures = 2;
  Spec.DistinctValues = 4;
  unsigned Proven = 0;
  for (int Trial = 0; Trial < 30; ++Trial) {
    Spec.BooleanFeatures = R.bernoulli(0.25);
    Dataset Data = makeRandomDataset(R, Spec);
    SplitContext Ctx(Data);
    RowIndexList Rows = allRows(Data);
    uint32_t Budget = static_cast<uint32_t>(R.uniformInt(3));
    unsigned Depth = 1 + static_cast<unsigned>(R.uniformInt(2));
    std::vector<float> X = makeRandomQuery(R, Spec);

    AbstractLearnerResult Abstract = runAbstractDTrace(
        Ctx, AbstractDataset(Data, Rows, Budget), X.data(),
        baseConfig(GetParam().Domain, Depth));
    if (Abstract.Status != LearnerStatus::Completed ||
        !Abstract.DominatingClass)
      continue;
    ++Proven;
    EnumerationResult Oracle =
        verifyByEnumeration(Ctx, Rows, X.data(), Budget, Depth);
    EXPECT_TRUE(Oracle.Robust)
        << "Antidote proved robustness but enumeration found a "
           "counterexample (depth="
        << Depth << ", n=" << Budget << ")";
    EXPECT_EQ(*Abstract.DominatingClass, Oracle.OriginalPrediction);
  }
  // The test would be vacuous if nothing was ever proven.
  EXPECT_GT(Proven, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Domains, DTraceSoundnessTest,
    ::testing::Values(
        SoundnessCase{501, AbstractDomainKind::Box},
        SoundnessCase{502, AbstractDomainKind::Box},
        SoundnessCase{601, AbstractDomainKind::Disjuncts},
        SoundnessCase{602, AbstractDomainKind::Disjuncts},
        SoundnessCase{701, AbstractDomainKind::DisjunctsCapped}),
    soundnessCaseName);

//===----------------------------------------------------------------------===//
// Relative precision of the domains
//===----------------------------------------------------------------------===//

TEST(DomainPrecisionTest, DisjunctsAtLeastAsPreciseAsBox) {
  // §5.2: "by construction, the disjunctive abstract domain is at least as
  // precise as our standard abstract domain."
  Rng R(888);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 10;
  Spec.NumFeatures = 2;
  unsigned BoxProven = 0, DisjProven = 0;
  for (int Trial = 0; Trial < 40; ++Trial) {
    Dataset Data = makeRandomDataset(R, Spec);
    SplitContext Ctx(Data);
    uint32_t Budget = static_cast<uint32_t>(R.uniformInt(3));
    unsigned Depth = 1 + static_cast<unsigned>(R.uniformInt(2));
    std::vector<float> X = makeRandomQuery(R, Spec);
    AbstractDataset Initial = AbstractDataset::entire(Data, Budget);
    AbstractLearnerResult Box = runAbstractDTrace(
        Ctx, Initial, X.data(), baseConfig(AbstractDomainKind::Box, Depth));
    AbstractLearnerResult Disj = runAbstractDTrace(
        Ctx, Initial, X.data(),
        baseConfig(AbstractDomainKind::Disjuncts, Depth));
    BoxProven += Box.DominatingClass.has_value();
    DisjProven += Disj.DominatingClass.has_value();
    if (Box.DominatingClass) {
      EXPECT_TRUE(Disj.DominatingClass.has_value())
          << "box proved an instance disjuncts could not";
      if (Disj.DominatingClass) {
        EXPECT_EQ(*Box.DominatingClass, *Disj.DominatingClass);
      }
    }
  }
  EXPECT_GE(DisjProven, BoxProven);
}

TEST(DomainPrecisionTest, VerifiedRobustnessIsMonotoneInBudget) {
  // If the learner proves robustness at budget n, it must also prove it at
  // every smaller budget (the doubling protocol of §6.1 relies on this).
  Rng R(999);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 10;
  for (int Trial = 0; Trial < 25; ++Trial) {
    Dataset Data = makeRandomDataset(R, Spec);
    SplitContext Ctx(Data);
    unsigned Depth = 1 + static_cast<unsigned>(R.uniformInt(2));
    std::vector<float> X = makeRandomQuery(R, Spec);
    for (AbstractDomainKind Domain :
         {AbstractDomainKind::Box, AbstractDomainKind::Disjuncts}) {
      bool PrevProven = true;
      for (uint32_t N = 0; N <= 4; ++N) {
        AbstractLearnerResult Result = runAbstractDTrace(
            Ctx, AbstractDataset::entire(Data, N), X.data(),
            baseConfig(Domain, Depth));
        bool Proven = Result.DominatingClass.has_value();
        if (!PrevProven) {
          EXPECT_FALSE(Proven)
              << domainKindName(Domain) << ": proved at n=" << N
              << " but not at n-1";
        }
        PrevProven = Proven;
      }
    }
  }
}
