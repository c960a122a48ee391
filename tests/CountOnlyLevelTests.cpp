//===- tests/CountOnlyLevelTests.cpp - Count-only last level ---------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// The Disjuncts domain folds its last depth's children from summaries
// unless `CollectTerminals` asks for the terminals themselves, in which
// case it builds them. The two paths must agree on every result field but
// the terminal list: status, verdict, and every counter, including
// NumTerminals, PeakDisjuncts, PeakStateBytes and BestSplitCalls. Covered
// over registry datasets, both threat models, depths 1-3, StopOnRefutation
// on and off, and FrontierJobs 1 and 4, plus a refuting fold that must
// rebuild the children and a disjunct cap that trips on the last level.
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractDTrace.h"

#include "TestUtil.h"
#include "data/Registry.h"

#include <gtest/gtest.h>

using namespace antidote;
using namespace antidote::testutil;

namespace {

/// Runs \p Config with the last level materialized and count-only, expects
/// identical results, and returns the count-only one.
AbstractLearnerResult expectPathsAgree(const SplitContext &Ctx,
                                       const AbstractDataset &Initial,
                                       const float *X,
                                       AbstractLearnerConfig Config,
                                       const std::string &Label) {
  Config.CollectTerminals = true;
  AbstractLearnerResult Built = runAbstractDTrace(Ctx, Initial, X, Config);
  Config.CollectTerminals = false;
  AbstractLearnerResult Counted = runAbstractDTrace(Ctx, Initial, X, Config);
  EXPECT_EQ(Built.Status, Counted.Status) << Label;
  EXPECT_EQ(Built.DominatingClass, Counted.DominatingClass) << Label;
  EXPECT_EQ(Built.Refuted, Counted.Refuted) << Label;
  EXPECT_EQ(Built.NumTerminals, Counted.NumTerminals) << Label;
  EXPECT_EQ(Built.PeakDisjuncts, Counted.PeakDisjuncts) << Label;
  EXPECT_EQ(Built.PeakStateBytes, Counted.PeakStateBytes) << Label;
  EXPECT_EQ(Built.BestSplitCalls, Counted.BestSplitCalls) << Label;
  EXPECT_TRUE(Counted.Terminals.empty()) << Label;
  return Counted;
}

/// A deterministic config: no wall clock, so only the caps can stop a run,
/// and a disjunct cap low enough to keep the grid quick under the
/// sanitizers (runs that trip it must agree too).
AbstractLearnerConfig deterministicConfig(ThreatModelKind Threat,
                                          unsigned Depth) {
  AbstractLearnerConfig Config;
  Config.Depth = Depth;
  Config.Domain = AbstractDomainKind::Disjuncts;
  Config.Threat = Threat;
  Config.Limits.TimeoutSeconds = 0.0;
  Config.Limits.MaxDisjuncts = 200;
  return Config;
}

class CountOnlyLevelTest : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(CountOnlyLevelTest, EveryCounterMatchesTheMaterializedLevel) {
  BenchmarkDataset Bench = loadBenchmarkDataset(GetParam(), BenchScale::Scaled);
  const Dataset &Train = Bench.Split.Train;
  SplitContext Ctx(Train);
  // The first verify row runs serially, the second on four frontier
  // executors.
  const uint32_t Rows[] = {Bench.VerifyRows[0], Bench.VerifyRows[1]};
  const unsigned Jobs[] = {1, 4};
  // Runs that fold a summarized last level at depth 2 or 3: they complete
  // without StopOnRefutation, so neither the cap nor an early refutation
  // ended them first.
  unsigned DeepCompleted = 0;
  for (ThreatModelKind Threat :
       {ThreatModelKind::Removal, ThreatModelKind::LabelFlip})
    for (unsigned Depth = 1; Depth <= 3; ++Depth)
      for (size_t R = 0; R < 2; ++R)
        for (uint32_t N : {0u, 1u, 8u})
          for (bool Stop : {true, false}) {
            AbstractLearnerConfig Config = deterministicConfig(Threat, Depth);
            Config.StopOnRefutation = Stop;
            Config.FrontierJobs = Jobs[R];
            std::string Label = std::string(threatModelName(Threat)) +
                                " depth " + std::to_string(Depth) + " row " +
                                std::to_string(Rows[R]) + " n " +
                                std::to_string(N) + " stop " +
                                std::to_string(Stop) + " jobs " +
                                std::to_string(Jobs[R]);
            AbstractLearnerResult Counted = expectPathsAgree(
                Ctx, AbstractDataset::entire(Train, N),
                Bench.Split.Test.row(Rows[R]), Config, Label);
            DeepCompleted += Depth >= 2 && !Stop &&
                             Counted.Status == LearnerStatus::Completed;
          }
  EXPECT_GT(DeepCompleted, 0u) << "the grid never folds a deep last level";
}

INSTANTIATE_TEST_SUITE_P(Datasets, CountOnlyLevelTest,
                         ::testing::Values("iris", "wdbc", "mammography",
                                           "mnist17-binary"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           std::string Name = I.param;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

TEST(CountOnlyLevelEdgeTest, RefutingFoldRebuildsTheChildren) {
  // At depth 1 with no pure or ⋄ terminal at the root, every terminal is
  // a last-level child, so a refutation under StopOnRefutation comes from
  // the children's fold — the case that rebuilds them to find where the
  // materialized fold stops. Its NumTerminals must still match.
  BenchmarkDataset Bench = loadBenchmarkDataset("iris", BenchScale::Scaled);
  const Dataset &Train = Bench.Split.Train;
  SplitContext Ctx(Train);
  unsigned Found = 0;
  for (uint32_t Row : Bench.VerifyRows)
    for (uint32_t N : {1u, 2u, 4u, 8u}) {
      AbstractLearnerConfig Config =
          deterministicConfig(ThreatModelKind::Removal, 1);
      AbstractDataset Initial = AbstractDataset::entire(Train, N);
      const float *X = Bench.Split.Test.row(Row);
      std::string Label =
          "row " + std::to_string(Row) + " n " + std::to_string(N);
      Config.StopOnRefutation = false;
      AbstractLearnerResult Full =
          expectPathsAgree(Ctx, Initial, X, Config, Label + " full");
      Config.StopOnRefutation = true;
      AbstractLearnerResult Stopped =
          expectPathsAgree(Ctx, Initial, X, Config, Label + " stopped");
      bool OnlyChildren = Full.NumTerminals == Full.PeakDisjuncts;
      if (OnlyChildren && Stopped.Refuted &&
          Stopped.NumTerminals < Full.NumTerminals)
        ++Found;
    }
  EXPECT_GT(Found, 0u) << "no case stopped inside the children's fold";
}

TEST(CountOnlyLevelEdgeTest, DisjunctCapTripsOnTheLastLevel) {
  // A cap that depth 1 fits under but depth 2's last level exceeds: both
  // paths must stop with ResourceLimit at the same point and counters.
  BenchmarkDataset Bench = loadBenchmarkDataset("iris", BenchScale::Scaled);
  const Dataset &Train = Bench.Split.Train;
  SplitContext Ctx(Train);
  unsigned Found = 0;
  for (uint32_t Row : Bench.VerifyRows) {
    AbstractDataset Initial = AbstractDataset::entire(Train, 4);
    const float *X = Bench.Split.Test.row(Row);
    AbstractLearnerConfig Config =
        deterministicConfig(ThreatModelKind::Removal, 2);
    Config.StopOnRefutation = false;
    Config.Limits.MaxDisjuncts = 0;
    AbstractLearnerResult Uncapped = runAbstractDTrace(Ctx, Initial, X, Config);
    Config.Depth = 1;
    AbstractLearnerResult Shallow = runAbstractDTrace(Ctx, Initial, X, Config);
    if (Uncapped.PeakDisjuncts <= 2 * Shallow.PeakDisjuncts + 1)
      continue;
    // Depth 1 under the cap means depth 2's first level passes it too.
    Config.Limits.MaxDisjuncts = 2 * Shallow.PeakDisjuncts + 1;
    ASSERT_EQ(runAbstractDTrace(Ctx, Initial, X, Config).Status,
              LearnerStatus::Completed);
    Config.Depth = 2;
    for (unsigned Jobs : {1u, 4u}) {
      Config.FrontierJobs = Jobs;
      std::string Label =
          "row " + std::to_string(Row) + " jobs " + std::to_string(Jobs);
      AbstractLearnerResult Capped =
          expectPathsAgree(Ctx, Initial, X, Config, Label);
      EXPECT_EQ(Capped.Status, LearnerStatus::ResourceLimit) << Label;
    }
    ++Found;
  }
  EXPECT_GT(Found, 0u) << "no row whose last level outgrows the cap";
}

TEST(CountOnlyLevelEdgeTest, OtherDomainsKeepTheirTerminalAccounting) {
  // Box and DisjunctsCapped always build their children; only the
  // terminal list may differ with CollectTerminals, not the byte peak the
  // terminals feed.
  BenchmarkDataset Bench = loadBenchmarkDataset("iris", BenchScale::Scaled);
  const Dataset &Train = Bench.Split.Train;
  SplitContext Ctx(Train);
  for (AbstractDomainKind Domain :
       {AbstractDomainKind::Box, AbstractDomainKind::DisjunctsCapped})
    for (uint32_t Row : Bench.VerifyRows) {
      AbstractLearnerConfig Config =
          deterministicConfig(ThreatModelKind::Removal, 3);
      Config.Domain = Domain;
      Config.DisjunctCap = 8;
      Config.StopOnRefutation = false;
      expectPathsAgree(Ctx, AbstractDataset::entire(Train, 2),
                       Bench.Split.Test.row(Row), Config,
                       std::string(domainKindName(Domain)) + " row " +
                           std::to_string(Row));
    }
}
