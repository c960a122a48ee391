//===- tests/BestSplitMemoTests.cpp - bestSplit# shared across a batch -----===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// `Verifier::verifyBatch` shares one `BestSplitMemo` between its queries.
// The memo must change nothing but time: every batch certificate equals
// the per-row `verify` certificate field for field (Seconds aside),
// serially and with concurrent batch and frontier pools; memo hits still
// count as bestSplit# applications; an interrupted bestSplit# is never
// stored; and the key tells apart every input bestSplit# depends on.
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractDTrace.h"
#include "antidote/Verifier.h"

#include "TestUtil.h"
#include "data/Registry.h"

#include <gtest/gtest.h>

using namespace antidote;
using namespace antidote::testutil;

namespace {

void expectSameCertificate(const Certificate &A, const Certificate &B,
                           const std::string &Label) {
  EXPECT_EQ(A.Kind, B.Kind) << Label;
  EXPECT_EQ(A.PoisoningBudget, B.PoisoningBudget) << Label;
  EXPECT_EQ(A.CertifiedRadius, B.CertifiedRadius) << Label;
  EXPECT_EQ(A.Depth, B.Depth) << Label;
  EXPECT_EQ(A.Domain, B.Domain) << Label;
  EXPECT_EQ(A.Threat, B.Threat) << Label;
  EXPECT_EQ(A.ConcretePrediction, B.ConcretePrediction) << Label;
  EXPECT_EQ(A.DominatingClass, B.DominatingClass) << Label;
  EXPECT_EQ(A.NumTerminals, B.NumTerminals) << Label;
  EXPECT_EQ(A.PeakDisjuncts, B.PeakDisjuncts) << Label;
  EXPECT_EQ(A.PeakStateBytes, B.PeakStateBytes) << Label;
  EXPECT_EQ(A.BestSplitCalls, B.BestSplitCalls) << Label;
}

void expectSameRun(const AbstractLearnerResult &A,
                   const AbstractLearnerResult &B, const std::string &Label) {
  EXPECT_EQ(A.Status, B.Status) << Label;
  EXPECT_EQ(A.DominatingClass, B.DominatingClass) << Label;
  EXPECT_EQ(A.Refuted, B.Refuted) << Label;
  EXPECT_EQ(A.NumTerminals, B.NumTerminals) << Label;
  EXPECT_EQ(A.PeakDisjuncts, B.PeakDisjuncts) << Label;
  EXPECT_EQ(A.PeakStateBytes, B.PeakStateBytes) << Label;
  EXPECT_EQ(A.BestSplitCalls, B.BestSplitCalls) << Label;
}

/// A dataset and the part of the depth × budget grid run on it. Depths
/// 1-3 and budgets {1, 4, 16} run in full on the small datasets; the
/// larger ones take the corner whose queries stay cheap under the
/// sanitizers.
struct GridCase {
  const char *Dataset;
  unsigned MaxDepth;
  uint32_t MaxBudget;
};

const GridCase kGridCases[] = {
    {"iris", 3, 16},
    {"mammography", 3, 16},
    {"wdbc", 2, 1},
    {"mnist17-binary", 2, 1},
};

/// A (threat model, domain) pair the grid covers.
struct Setting {
  ThreatModelKind Threat;
  AbstractDomainKind Domain;
};

const Setting kSettings[] = {
    {ThreatModelKind::Removal, AbstractDomainKind::Box},
    {ThreatModelKind::Removal, AbstractDomainKind::Disjuncts},
    {ThreatModelKind::Removal, AbstractDomainKind::DisjunctsCapped},
    {ThreatModelKind::LabelFlip, AbstractDomainKind::Disjuncts},
};

/// No wall clock, so only the caps can stop a query, and a disjunct cap
/// low enough to keep the grid quick under the sanitizers (queries that
/// trip it must agree too).
VerifierConfig deterministicConfig(const Setting &S, unsigned Depth) {
  VerifierConfig Config;
  Config.Depth = Depth;
  Config.Domain = S.Domain;
  Config.Threat = S.Threat;
  Config.DisjunctCap = 8;
  Config.Limits.TimeoutSeconds = 0.0;
  Config.Limits.MaxDisjuncts = 64;
  return Config;
}

AbstractLearnerConfig learnerConfig(unsigned Depth, BestSplitMemo *Memo) {
  AbstractLearnerConfig Config;
  Config.Depth = Depth;
  Config.Domain = AbstractDomainKind::Disjuncts;
  Config.Limits.TimeoutSeconds = 0.0;
  Config.Memo = Memo;
  return Config;
}

class BatchMemoTest
    : public ::testing::TestWithParam<std::tuple<GridCase, Setting>> {};

} // namespace

TEST_P(BatchMemoTest, BatchCertificatesEqualPerRowVerify) {
  const auto &[Case, S] = GetParam();
  BenchmarkDataset Bench =
      loadBenchmarkDataset(Case.Dataset, BenchScale::Scaled);
  const Dataset &Test = Bench.Split.Test;
  Verifier V(Bench.Split.Train);
  ASSERT_GE(Bench.VerifyRows.size(), 3u);
  // Three distinct inputs, then the first again.
  const size_t Picks[] = {0, 1, 2, 0};
  const size_t Distinct = 3;
  std::vector<const float *> Inputs;
  for (size_t I : Picks)
    Inputs.push_back(Test.row(Bench.VerifyRows[I]));

  // The sweep's arrangement: batch workers plus one frontier pool shared
  // by every query.
  std::unique_ptr<ThreadPool> BatchPool = makeVerificationPool(4);
  std::unique_ptr<ThreadPool> FrontierPool = makeVerificationPool(4);
  unsigned Robust = 0;
  for (unsigned Depth = 1; Depth <= Case.MaxDepth; ++Depth)
    for (uint32_t N = 1; N <= Case.MaxBudget; N *= 4) {
      VerifierConfig Config = deterministicConfig(S, Depth);
      std::string Label =
          "depth " + std::to_string(Depth) + " n " + std::to_string(N);
      std::vector<Certificate> Serial = V.verifyBatch(Inputs, N, Config);
      VerifierConfig Pooled = Config;
      Pooled.FrontierJobs = 4;
      Pooled.FrontierPool = FrontierPool.get();
      std::vector<Certificate> Parallel =
          V.verifyBatch(Inputs, N, Pooled, BatchPool.get());
      ASSERT_EQ(Serial.size(), Inputs.size()) << Label;
      ASSERT_EQ(Parallel.size(), Inputs.size()) << Label;
      std::vector<Certificate> Alone;
      for (size_t I = 0; I < Inputs.size(); ++I) {
        std::string Item = Label + " input " + std::to_string(I);
        if (I < Distinct)
          Alone.push_back(V.verify(Inputs[I], N, Config));
        const Certificate &Expected = Alone[Picks[I]];
        expectSameCertificate(Expected, Serial[I], Item + " serial");
        expectSameCertificate(Expected, Parallel[I], Item + " pooled");
        Robust += Expected.isRobust();
      }
    }
  EXPECT_GT(Robust, 0u) << "the grid never proves anything";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BatchMemoTest,
    ::testing::Combine(::testing::ValuesIn(kGridCases),
                       ::testing::ValuesIn(kSettings)),
    [](const ::testing::TestParamInfo<BatchMemoTest::ParamType> &I) {
      const Setting &S = std::get<1>(I.param);
      std::string Label = std::string(std::get<0>(I.param).Dataset) + "_" +
                          threatModelName(S.Threat) + "_" +
                          domainKindName(S.Domain);
      for (char &C : Label)
        if (C == '-')
          C = '_';
      return Label;
    });

TEST(BestSplitMemoTest, DepthOneRunsShareTheRootEntry) {
  BenchmarkDataset Bench = loadBenchmarkDataset("iris", BenchScale::Scaled);
  const Dataset &Train = Bench.Split.Train;
  SplitContext Ctx(Train);
  AbstractDataset Initial = AbstractDataset::entire(Train, 1);
  ASSERT_GE(Bench.VerifyRows.size(), 2u);
  BestSplitMemo Memo;
  for (uint32_t Row : Bench.VerifyRows) {
    AbstractLearnerResult Run = runAbstractDTrace(
        Ctx, Initial, Bench.Split.Test.row(Row), learnerConfig(1, &Memo));
    EXPECT_EQ(Run.BestSplitCalls, 1u) << "row " << Row;
  }
  EXPECT_EQ(Memo.size(), 1u);

  // Deeper runs memoize the root's children too, but nothing below them,
  // though they score depth-2 states as well.
  std::optional<PredicateSet> RootPsi =
      abstractBestSplit(Ctx, Initial, CprobTransformerKind::Optimal);
  ASSERT_TRUE(RootPsi);
  unsigned ScoredDepthTwo = 0;
  for (uint32_t Row : Bench.VerifyRows) {
    const float *X = Bench.Split.Test.row(Row);
    unsigned Shallow =
        runAbstractDTrace(Ctx, Initial, X, learnerConfig(2, nullptr))
            .BestSplitCalls;
    ScoredDepthTwo +=
        runAbstractDTrace(Ctx, Initial, X, learnerConfig(3, &Memo))
            .BestSplitCalls > Shallow;
  }
  EXPECT_GT(ScoredDepthTwo, 0u) << "no run scored a depth-2 state";
  EXPECT_GT(Memo.size(), 1u);
  EXPECT_LE(Memo.size(), 1 + 2 * RootPsi->size());
}

TEST(BestSplitMemoTest, CancelledRunStoresNothing) {
  BenchmarkDataset Bench = loadBenchmarkDataset("iris", BenchScale::Scaled);
  const Dataset &Train = Bench.Split.Train;
  SplitContext Ctx(Train);
  AbstractDataset Initial = AbstractDataset::entire(Train, 4);
  const float *X = Bench.Split.Test.row(Bench.VerifyRows[0]);
  CancellationToken Cancelled;
  Cancelled.cancel();
  for (unsigned Jobs : {1u, 4u}) {
    std::string Label = "jobs " + std::to_string(Jobs);
    BestSplitMemo Memo;
    AbstractLearnerConfig Config = learnerConfig(2, &Memo);
    Config.FrontierJobs = Jobs;
    Config.Cancel = &Cancelled;
    EXPECT_EQ(runAbstractDTrace(Ctx, Initial, X, Config).Status,
              LearnerStatus::Cancelled)
        << Label;
    EXPECT_EQ(Memo.size(), 0u) << Label;

    Config.Cancel = nullptr;
    AbstractLearnerResult Shared = runAbstractDTrace(Ctx, Initial, X, Config);
    Config.Memo = nullptr;
    AbstractLearnerResult Alone = runAbstractDTrace(Ctx, Initial, X, Config);
    EXPECT_EQ(Alone.Status, LearnerStatus::Completed) << Label;
    expectSameRun(Alone, Shared, Label);
    EXPECT_GT(Memo.size(), 0u) << Label;
  }
}

TEST(BestSplitMemoTest, KeyIsExact) {
  // Figure 2's rows 1-3 and 5-7 are all white: two states of equal size,
  // budget and class counts over different rows.
  Dataset Data = figure2Dataset();
  AbstractDataset A(Data, {1, 2, 3}, 1);
  AbstractDataset B(Data, {5, 6, 7}, 1);
  ASSERT_EQ(A.counts(), B.counts());
  const ThreatModelKind Removal = ThreatModelKind::Removal;
  const CprobTransformerKind Optimal = CprobTransformerKind::Optimal;
  const GiniLiftingKind Exact = GiniLiftingKind::ExactTerm;
  PredicateSet PsiA = PredicateSet::nullOnly();
  PredicateSet PsiB;
  PsiB.add(SplitPredicate::threshold(0, 6.0));

  BestSplitMemo Memo;
  Memo.insert(Removal, Optimal, Exact, A, PsiA);
  EXPECT_FALSE(Memo.find(Removal, Optimal, Exact, B));
  Memo.insert(Removal, Optimal, Exact, B, PsiB);
  EXPECT_EQ(Memo.size(), 2u);
  EXPECT_EQ(Memo.find(Removal, Optimal, Exact, A), PsiA);
  EXPECT_EQ(Memo.find(Removal, Optimal, Exact, B), PsiB);

  // The same rows under any other budget or setting are other keys.
  EXPECT_FALSE(
      Memo.find(Removal, Optimal, Exact, AbstractDataset(Data, {1, 2, 3}, 2)));
  EXPECT_FALSE(Memo.find(ThreatModelKind::LabelFlip, Optimal, Exact, A));
  EXPECT_FALSE(
      Memo.find(Removal, CprobTransformerKind::NaiveInterval, Exact, A));
  EXPECT_FALSE(
      Memo.find(Removal, Optimal, GiniLiftingKind::NaturalLifting, A));

  // The first insert of a key wins.
  Memo.insert(Removal, Optimal, Exact, A, PsiB);
  EXPECT_EQ(Memo.size(), 2u);
  EXPECT_EQ(Memo.find(Removal, Optimal, Exact, A), PsiA);
}
