//===- perfbench/src/WorkloadHard.cpp - The hard-mnist workload -----------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// hard-mnist: serial `Verifier::verify` over a fixed list of registry
/// mnist17-real test rows at depth 2, Disjuncts, n = 1, default limits.
/// Row 8 grows a frontier of about 330k disjuncts (about 3.5 s and
/// 1.4 GB), where the last depth level and row-set materialization
/// dominate and `bestSplit#` is a small share; rows 1 and 6 are cheap
/// (one robust, one not). This is the serial, one-job number.
///
/// Every certificate counter is deterministic and is compared against a
/// golden. The seed permutes the order the list runs in; the set stays
/// fixed so the goldens hold and runs of different seeds do equal work.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Queries.h"
#include "Stats.h"

#include "data/Registry.h"
#include "support/MemoryUsage.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdio>
#include <optional>

using namespace antidote;

namespace perfbench {

namespace {

std::string certLine(uint32_t Row, const Certificate &C) {
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "row %u %s dominating %d terminals %zu peak_disjuncts %zu "
                "peak_state_bytes %llu bestsplit_calls %u",
                Row, verdictKindName(C.Kind),
                C.DominatingClass ? static_cast<int>(*C.DominatingClass) : -1,
                C.NumTerminals, C.PeakDisjuncts,
                static_cast<unsigned long long>(C.PeakStateBytes),
                C.BestSplitCalls);
  return Line;
}

} // namespace

RunResult runHardMnist(const RunOptions &O) {
  RunResult R;
  const std::string Name = O.Tiny ? "iris" : "mnist17-real";
  std::vector<uint32_t> List = {8, 1, 6};
  VerifierConfig Config;
  Config.Depth = 2;
  Config.Domain = AbstractDomainKind::Disjuncts;

  // Set-up: generate the dataset and build the verifier (fingerprint and
  // SplitContext presort). It runs twice again before every pass, so its
  // median spans the whole run rather than one moment of it.
  SpanLog Log;
  std::vector<double> Setups, Loads;
  BenchmarkDataset B;
  std::optional<Verifier> V;
  auto SetUp = [&] {
    V.reset();
    double Start = nowSeconds();
    B = loadBenchmarkDataset(Name, BenchScale::Scaled);
    double Loaded = nowSeconds();
    V.emplace(B.Split.Train);
    B.Split.Test.row(0); // Builds the row-major view the queries read.
    Setups.push_back(secondsSince(Start));
    Loads.push_back(Loaded - Start);
    Log.add("data.load", Start, Loaded);
  };
  SetUp();
  if (O.Tiny)
    List = {B.VerifyRows[0], B.VerifyRows[1], B.VerifyRows[2]};
  std::vector<uint32_t> Order = List;
  Rng Shuffle(O.Seed);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Shuffle.uniformInt(I)]);

  // Runs the list once, checks every certificate, returns its wall time.
  auto RunList = [&](const VerifierConfig &C) {
    std::vector<std::string> Lines;
    double Start = nowSeconds();
    for (uint32_t Row : Order) {
      Certificate Cert = V->verify(B.Split.Test.row(Row), 1, C);
      ++R.Attempted;
      if (Cert.Kind == VerdictKind::Timeout ||
          Cert.Kind == VerdictKind::Cancelled)
        ++R.Failed;
      Lines.push_back(certLine(Row, Cert));
    }
    double Seconds = secondsSince(Start);
    std::sort(Lines.begin(), Lines.end());
    if (!O.Tiny)
      checkGolden(O, "hard-mnist.txt", Lines, R);
    return Seconds;
  };

  // Warm-up: one whole pass, checked but not timed. The first pass pays
  // for faulting in the heap the big frontier grows into.
  RunList(Config);

  if (!O.Trace) {
    std::vector<double> Times;
    double Begin = nowSeconds();
    do {
      SetUp();
      SetUp();
      Times.push_back(RunList(Config));
    } while (secondsSince(Begin) < O.Seconds);
    std::printf("hard: %zu timed passes over %zu queries, min %.4f s max "
                "%.4f s\n",
                Times.size(), Order.size(),
                *std::min_element(Times.begin(), Times.end()),
                *std::max_element(Times.begin(), Times.end()));
    printTimes("timed", Times);
    printTimes("set-up", Setups);
    R.add("setup_s", median(Setups), "s");
    R.add("op_ms", median(Times) * 1e3, "ms"); // One pass over the list.
    R.add("peak_rss_mb", processPeakRssBytes() / 1e6, "MB");
    return R;
  }

  R.add("data.load_s", median(Loads), "s");
  addSetupLayerMetrics(B.Split.Train, Log, R);
  double Plain = RunList(Config);
  QuerySpanStore Spans;
  VerifierConfig Traced = Config;
  Traced.Cache = &Spans;
  double ListStart = nowSeconds();
  double TracedSeconds = RunList(Traced);
  long Root = Log.add("antidote.list", ListStart, ListStart + TracedSeconds);
  std::vector<QueryRecord> Records = Spans.records();
  for (size_t I = 0; I < Records.size(); ++I)
    Log.add("antidote.verify", Records[I].Start,
            Records[I].End < 0 ? Records[I].Start : Records[I].End, Root,
            I + 1);
  R.add("trace.overhead_s", TracedSeconds - Plain, "s");
  addTraceLayerMetric(*V, Records, Log, R);
  double ReplayStart = nowSeconds();
  long Replay = Log.open("abstract.replay", ReplayStart);
  // Serial on purpose: the big frontier's terminals take about 1.4 GB.
  addQueryLayerMetrics(*V, Records, /*Jobs=*/1, Log, Replay, R);
  Log.close(Replay, nowSeconds());
  addSelfTimeMetrics(Log, R);
  writeSpans(Log, O, "hard-mnist", R);
  return R;
}

} // namespace perfbench
