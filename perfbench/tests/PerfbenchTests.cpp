//===- perfbench/tests/PerfbenchTests.cpp - Tests of the benchmark code ---===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's statistics (tail-percentile selection, open-loop
/// accounting, FIFO span matching, self time), its golden comparison, and
/// a tiny-size smoke run of every workload, traced and untraced. Run from
/// the repository root: `python3 perfbench/run.py --self-test`.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Queries.h"
#include "Stats.h"
#include "Trace.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

using namespace perfbench;

namespace {

std::string scratchDir(const std::string &Name) {
  std::filesystem::path Dir =
      std::filesystem::path(".bench_out") / "tests" / Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir.string();
}

} // namespace

TEST(Percentiles, NearestRank) {
  std::vector<double> V = {5, 1, 4, 2, 3};
  EXPECT_EQ(quantile(V, 0.5), 3);
  EXPECT_EQ(quantile(V, 0.0), 1);
  EXPECT_EQ(quantile(V, 1.0), 5);
  EXPECT_EQ(quantile(V, 0.8), 4);
  EXPECT_EQ(quantile({}, 0.5), 0);
  EXPECT_EQ(median({7, 9}), 7);
}

TEST(Percentiles, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(tailPercentile(0), 0.0);
  EXPECT_EQ(tailPercentile(19), 0.0); // Ten beyond the median needs 20.
  EXPECT_EQ(tailPercentile(20), 0.5);
  EXPECT_EQ(tailPercentile(99), 0.5); // p90 of 99 leaves only 9 beyond.
  EXPECT_EQ(tailPercentile(100), 0.9);
  EXPECT_EQ(tailPercentile(999), 0.9);
  EXPECT_EQ(tailPercentile(1000), 0.99);
  EXPECT_EQ(tailPercentile(10000), 0.999);
  EXPECT_EQ(tailPercentile(10000000), 0.99999);
  // The rule, checked directly: at least ten samples strictly above.
  for (size_t N : {20u, 57u, 100u, 2345u, 99999u}) {
    double P = tailPercentile(N);
    std::vector<double> V(N);
    for (size_t I = 0; I < N; ++I)
      V[I] = static_cast<double>(I);
    double Q = quantile(V, P);
    EXPECT_GE(static_cast<size_t>(N - 1 - Q), 10u) << N;
  }
}

TEST(OpenLoop, LatencyRunsFromTheDueTime) {
  std::vector<OpenLoopRecord> R(4);
  R[0] = {1.0, 1.0, 1.5, true};  // On time: latency 0.5.
  R[1] = {2.0, 2.3, 2.4, true};  // Sent 0.3 late: latency 0.4, not 0.1.
  R[2] = {3.0, 3.1, -1.0, false}; // Never answered.
  R[3] = {4.0, -1.0, -1.0, false}; // Never sent: not counted.
  OpenLoopSummary S = summarizeOpenLoop(R);
  EXPECT_EQ(S.Sent, 3u);
  EXPECT_EQ(S.Answered, 2u);
  EXPECT_EQ(S.Failed, 1u);
  ASSERT_EQ(S.Latencies.size(), 2u);
  EXPECT_DOUBLE_EQ(S.Latencies[0], 0.5);
  EXPECT_NEAR(S.Latencies[1], 0.4, 1e-12);
  EXPECT_NEAR(S.MaxLate, 0.3, 1e-12);
}

TEST(OpenLoop, RefusedAnswersAreFailures) {
  std::vector<OpenLoopRecord> R = {{0.0, 0.0, 0.1, false},
                                   {0.1, 0.1, 0.2, true}};
  OpenLoopSummary S = summarizeOpenLoop(R);
  EXPECT_EQ(S.Failed, 1u);
  EXPECT_EQ(S.Answered, 1u);
  EXPECT_EQ(S.Latencies.size(), 1u);
}

TEST(FifoMatch, PairsEventsWithRequestsPerKeyInOrder) {
  const uint64_t A = 11, B = 22, C = 33;
  std::vector<long> M = matchFifo({A, B, A}, {A, A, B, A, C});
  EXPECT_EQ(M, (std::vector<long>{0, 2, 1, -1, -1}));
  EXPECT_TRUE(matchFifo({}, {A}) == std::vector<long>{-1});
  EXPECT_TRUE(matchFifo({A}, {}).empty());
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog Log;
  long Root = Log.add("antidote.sweep", 0.0, 10.0);
  Log.add("antidote.verify", 1.0, 3.0, Root);
  Log.add("antidote.verify", 2.0, 5.0, Root); // Overlaps the first.
  Log.add("antidote.verify", 8.0, 12.0, Root); // Runs past the parent.
  std::map<std::string, double> Self = selfTimes(Log.spans());
  EXPECT_DOUBLE_EQ(Self["antidote.sweep"], 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(Self["antidote.verify"], 2.0 + 3.0 + 4.0);
  long Open = Log.open("x", 1.0);
  Log.close(Open, 2.5);
  EXPECT_DOUBLE_EQ(Log.spans()[Open].End, 2.5);
}

TEST(Golden, MismatchesAndMissingFilesFail) {
  RunOptions O;
  O.GoldenDir = scratchDir("golden");
  std::vector<std::string> Lines = {"a 1", "b 2"};
  RunResult Record;
  O.RecordGolden = true;
  checkGolden(O, "g.txt", Lines, Record);
  EXPECT_TRUE(Record.Correct);
  O.RecordGolden = false;

  RunResult Same;
  checkGolden(O, "g.txt", Lines, Same);
  EXPECT_TRUE(Same.Correct);

  RunResult Different;
  checkGolden(O, "g.txt", {"a 1", "b 3"}, Different);
  ASSERT_FALSE(Different.Correct);
  EXPECT_NE(Different.Problems[0].find("line 2"), std::string::npos);

  RunResult Shorter;
  checkGolden(O, "g.txt", {"a 1"}, Shorter);
  EXPECT_FALSE(Shorter.Correct);

  RunResult Missing;
  checkGolden(O, "absent.txt", Lines, Missing);
  EXPECT_FALSE(Missing.Correct);
}

namespace {

RunOptions tinyOptions(const std::string &Name, bool Trace) {
  RunOptions O;
  O.Seed = 3;
  O.Seconds = 0.3;
  O.Trace = Trace;
  O.Nproc = 2;
  O.Tiny = true;
  O.WorkDir = scratchDir(Name + (Trace ? "-traced" : ""));
  return O;
}

void expectSmoke(const std::string &Name, bool Trace) {
  RunResult R;
  ASSERT_TRUE(runWorkload(Name, tinyOptions(Name, Trace), R));
  for (const std::string &P : R.Problems)
    ADD_FAILURE() << Name << ": " << P;
  EXPECT_TRUE(R.Correct);
  EXPECT_GT(R.Attempted, 0u);
  EXPECT_EQ(R.Failed, 0u);
  std::set<std::string> Names;
  for (const Metric &M : R.Metrics) {
    Names.insert(M.Name);
    EXPECT_GE(M.Value, Trace ? -1e9 : 0.0) << M.Name;
  }
  if (Trace) {
    std::vector<Metric> All = completePerLayer(R.Metrics);
    EXPECT_EQ(All.size(), perLayerMetrics().size());
    for (const Metric &M : R.Metrics) {
      bool Known = false;
      for (const auto &[Layer, Unit] : perLayerMetrics())
        Known |= Layer == M.Name && Unit == M.Unit;
      EXPECT_TRUE(Known) << M.Name << " is not a declared per-layer metric";
    }
  } else {
    std::set<std::string> EndToEnd;
    for (const auto &[Metric, Unit] : endToEndMetrics())
      EndToEnd.insert(Metric);
    EXPECT_EQ(Names, EndToEnd);
    for (const Metric &M : R.Metrics)
      EXPECT_GT(M.Value, 0.0) << M.Name;
  }
}

} // namespace

TEST(Smoke, SweepWdbc) {
  expectSmoke("sweep-wdbc", false);
  expectSmoke("sweep-wdbc", true);
}

TEST(Smoke, HardMnist) {
  expectSmoke("hard-mnist", false);
  expectSmoke("hard-mnist", true);
}

TEST(Smoke, ServeMixed) {
  expectSmoke("serve-mixed", false);
  expectSmoke("serve-mixed", true);
}

TEST(Smoke, ReplicaCatchup) {
  expectSmoke("replica-catchup", false);
  expectSmoke("replica-catchup", true);
}

TEST(Smoke, UnknownWorkloadIsRejected) {
  RunResult R;
  EXPECT_FALSE(runWorkload("no-such-workload", RunOptions(), R));
}
