//===- tests/ExtendedPropertyTests.cpp - Wider configuration coverage ----------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// Soundness and lattice-law property tests across the *whole*
// configuration space (both cprob# transformers × both ent# liftings ×
// all three domains), beyond the default-configuration coverage in
// AbstractDTraceTests.cpp.
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractDTrace.h"

#include "TestUtil.h"
#include "antidote/Enumeration.h"
#include "antidote/Verifier.h"

#include <gtest/gtest.h>

using namespace antidote;
using namespace antidote::testutil;

//===----------------------------------------------------------------------===//
// Lattice laws of the ⟨T,n⟩ domain
//===----------------------------------------------------------------------===//

namespace {

AbstractDataset randomElement(Rng &R, const Dataset &Data) {
  RowIndexList Rows;
  for (uint32_t I = 0; I < Data.numRows(); ++I)
    if (R.bernoulli(0.6))
      Rows.push_back(I);
  if (Rows.empty())
    Rows.push_back(static_cast<uint32_t>(R.uniformInt(Data.numRows())));
  uint32_t Budget = static_cast<uint32_t>(R.uniformInt(Rows.size() + 1));
  return AbstractDataset(Data, std::move(Rows), Budget);
}

} // namespace

TEST(LatticeLawTest, JoinAssociativeCommutativeIdempotent) {
  Rng R(42424);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 10;
  for (int Trial = 0; Trial < 60; ++Trial) {
    Dataset Data = makeRandomDataset(R, Spec);
    AbstractDataset A = randomElement(R, Data);
    AbstractDataset B = randomElement(R, Data);
    AbstractDataset C = randomElement(R, Data);
    EXPECT_EQ(AbstractDataset::join(A, B), AbstractDataset::join(B, A));
    EXPECT_EQ(AbstractDataset::join(A, A), A);
    // Associativity of the *row sets* always holds; the budgets of the two
    // association orders may differ (the join is not exact), but both must
    // upper-bound all three operands.
    AbstractDataset L =
        AbstractDataset::join(AbstractDataset::join(A, B), C);
    AbstractDataset Rj =
        AbstractDataset::join(A, AbstractDataset::join(B, C));
    EXPECT_EQ(L.rows(), Rj.rows());
    for (const AbstractDataset *Op : {&A, &B, &C}) {
      EXPECT_TRUE(Op->leq(L));
      EXPECT_TRUE(Op->leq(Rj));
    }
  }
}

TEST(LatticeLawTest, OrderIsReflexiveAndTransitiveOnSamples) {
  Rng R(52525);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 9;
  for (int Trial = 0; Trial < 60; ++Trial) {
    Dataset Data = makeRandomDataset(R, Spec);
    AbstractDataset A = randomElement(R, Data);
    EXPECT_TRUE(A.leq(A));
    AbstractDataset B = AbstractDataset::join(A, randomElement(R, Data));
    AbstractDataset C = AbstractDataset::join(B, randomElement(R, Data));
    EXPECT_TRUE(A.leq(B));
    EXPECT_TRUE(B.leq(C));
    EXPECT_TRUE(A.leq(C)); // Transitivity along the constructed chain.
  }
}

TEST(LatticeLawTest, MeetIsGreatestLowerBoundOnSamples) {
  Rng R(62626);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 8;
  for (int Trial = 0; Trial < 60; ++Trial) {
    Dataset Data = makeRandomDataset(R, Spec);
    AbstractDataset A = randomElement(R, Data);
    AbstractDataset B = randomElement(R, Data);
    std::optional<AbstractDataset> M = AbstractDataset::meet(A, B);
    if (!M)
      continue;
    EXPECT_TRUE(M->leq(A));
    EXPECT_TRUE(M->leq(B));
  }
}

//===----------------------------------------------------------------------===//
// Soundness across the full transformer configuration space
//===----------------------------------------------------------------------===//

namespace {

struct ConfigCase {
  CprobTransformerKind Cprob;
  GiniLiftingKind Gini;
  AbstractDomainKind Domain;
};

class ConfigSoundnessTest : public ::testing::TestWithParam<ConfigCase> {};

std::string configCaseName(const ::testing::TestParamInfo<ConfigCase> &I) {
  std::string Name;
  Name += I.param.Cprob == CprobTransformerKind::Optimal ? "Optimal"
                                                         : "Naive";
  Name += I.param.Gini == GiniLiftingKind::ExactTerm ? "Exact" : "Natural";
  std::string Domain = domainKindName(I.param.Domain);
  for (char &C : Domain)
    if (C == '-')
      C = '_';
  return Name + "_" + Domain;
}

} // namespace

TEST_P(ConfigSoundnessTest, TerminalsCoverConcreteRunsAndOracleAgrees) {
  Rng R(979797);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 8;
  Spec.NumFeatures = 2;
  Spec.DistinctValues = 4;
  unsigned Proven = 0;
  for (int Trial = 0; Trial < 20; ++Trial) {
    Spec.BooleanFeatures = R.bernoulli(0.3);
    Dataset Data = makeRandomDataset(R, Spec);
    SplitContext Ctx(Data);
    RowIndexList Rows = allRows(Data);
    uint32_t Budget = static_cast<uint32_t>(R.uniformInt(3));
    unsigned Depth = 1 + static_cast<unsigned>(R.uniformInt(2));
    std::vector<float> X = makeRandomQuery(R, Spec);

    AbstractLearnerConfig Config;
    Config.Depth = Depth;
    Config.Domain = GetParam().Domain;
    Config.Cprob = GetParam().Cprob;
    Config.Gini = GetParam().Gini;
    Config.DisjunctCap = 3; // Stress the capped merge when active.
    Config.StopOnRefutation = false;
    AbstractLearnerResult Abstract = runAbstractDTrace(
        Ctx, AbstractDataset(Data, Rows, Budget), X.data(), Config);
    ASSERT_EQ(Abstract.Status, LearnerStatus::Completed);

    // Only a collecting run fills in Terminals; the verdict below is the
    // default run's.
    AbstractLearnerConfig Collecting = Config;
    Collecting.CollectTerminals = true;
    AbstractLearnerResult Collected = runAbstractDTrace(
        Ctx, AbstractDataset(Data, Rows, Budget), X.data(), Collecting);
    ASSERT_EQ(Collected.Status, LearnerStatus::Completed);

    forEachPerturbedSubset(Rows, Budget, [&](const RowIndexList &Subset) {
      TraceResult Concrete = runDTrace(Ctx, Subset, X.data(), Depth);
      bool Covered = false;
      for (const AbstractDataset &Terminal : Collected.Terminals)
        if (Terminal.concretizationContains(Concrete.FinalRows)) {
          Covered = true;
          break;
        }
      EXPECT_TRUE(Covered) << "uncovered concrete final state";
    });

    if (Abstract.DominatingClass) {
      ++Proven;
      EnumerationResult Oracle =
          verifyByEnumeration(Ctx, Rows, X.data(), Budget, Depth);
      EXPECT_TRUE(Oracle.Robust) << "unsound proof";
    }
  }
  EXPECT_GT(Proven, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConfigSoundnessTest,
    ::testing::Values(
        ConfigCase{CprobTransformerKind::Optimal,
                   GiniLiftingKind::ExactTerm, AbstractDomainKind::Box},
        ConfigCase{CprobTransformerKind::NaiveInterval,
                   GiniLiftingKind::ExactTerm,
                   AbstractDomainKind::Disjuncts},
        ConfigCase{CprobTransformerKind::Optimal,
                   GiniLiftingKind::NaturalLifting,
                   AbstractDomainKind::Disjuncts},
        ConfigCase{CprobTransformerKind::NaiveInterval,
                   GiniLiftingKind::NaturalLifting,
                   AbstractDomainKind::Box},
        ConfigCase{CprobTransformerKind::Optimal,
                   GiniLiftingKind::ExactTerm,
                   AbstractDomainKind::DisjunctsCapped}),
    configCaseName);

//===----------------------------------------------------------------------===//
// Relative precision across configurations
//===----------------------------------------------------------------------===//

TEST(ConfigPrecisionTest, ExactTermGiniProvesAtLeastAsMuch) {
  Rng R(171717);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 10;
  unsigned ExactProven = 0, NaturalProven = 0;
  for (int Trial = 0; Trial < 30; ++Trial) {
    Dataset Data = makeRandomDataset(R, Spec);
    Verifier V(Data);
    std::vector<float> X = makeRandomQuery(R, Spec);
    VerifierConfig Exact;
    Exact.Depth = 2;
    Exact.Domain = AbstractDomainKind::Disjuncts;
    VerifierConfig Natural = Exact;
    Natural.Gini = GiniLiftingKind::NaturalLifting;
    for (uint32_t N : {1u, 2u}) {
      bool E = V.verify(X.data(), N, Exact).isRobust();
      bool L = V.verify(X.data(), N, Natural).isRobust();
      ExactProven += E;
      NaturalProven += L;
      if (L) {
        // The exact term range is contained in the natural lifting's, so
        // score intervals shrink, bestSplit# sets shrink, and everything
        // the loose config proves the tight one must prove too.
        EXPECT_TRUE(E) << "natural lifting proved what exact-term lost";
      }
    }
  }
  EXPECT_GE(ExactProven, NaturalProven);
  EXPECT_GT(ExactProven, 0u);
}

TEST(ConfigPrecisionTest, CappedDomainBetweenBoxAndDisjunctsEmpirically) {
  // Not a theorem, but the §6.3 motivation: the capped domain should land
  // between Box and full Disjuncts in proving power on aggregate.
  Rng R(272727);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 12;
  unsigned BoxProven = 0, CappedProven = 0, FullProven = 0;
  for (int Trial = 0; Trial < 40; ++Trial) {
    Dataset Data = makeRandomDataset(R, Spec);
    Verifier V(Data);
    std::vector<float> X = makeRandomQuery(R, Spec);
    VerifierConfig Config;
    Config.Depth = 2;
    for (uint32_t N : {1u, 2u}) {
      Config.Domain = AbstractDomainKind::Box;
      BoxProven += V.verify(X.data(), N, Config).isRobust();
      Config.Domain = AbstractDomainKind::DisjunctsCapped;
      Config.DisjunctCap = 4;
      CappedProven += V.verify(X.data(), N, Config).isRobust();
      Config.Domain = AbstractDomainKind::Disjuncts;
      FullProven += V.verify(X.data(), N, Config).isRobust();
    }
  }
  EXPECT_LE(BoxProven, CappedProven);
  EXPECT_LE(CappedProven, FullProven);
}

//===----------------------------------------------------------------------===//
// Determinism end to end
//===----------------------------------------------------------------------===//

TEST(DeterminismTest, VerifierIsBitStableAcrossRuns) {
  Rng R(313131);
  RandomDatasetSpec Spec;
  Spec.MaxRows = 12;
  Dataset Data = makeRandomDataset(R, Spec);
  Verifier V1(Data), V2(Data);
  VerifierConfig Config;
  Config.Depth = 3;
  Config.Domain = AbstractDomainKind::Disjuncts;
  for (int Query = 0; Query < 10; ++Query) {
    std::vector<float> X = makeRandomQuery(R, Spec);
    for (uint32_t N : {0u, 1u, 2u, 3u}) {
      Certificate A = V1.verify(X.data(), N, Config);
      Certificate B = V2.verify(X.data(), N, Config);
      EXPECT_EQ(A.Kind, B.Kind);
      EXPECT_EQ(A.NumTerminals, B.NumTerminals);
      EXPECT_EQ(A.PeakDisjuncts, B.PeakDisjuncts);
      EXPECT_EQ(A.BestSplitCalls, B.BestSplitCalls);
    }
  }
}
