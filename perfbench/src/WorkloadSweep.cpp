//===- perfbench/src/WorkloadSweep.cpp - The sweep-wdbc workload ----------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sweep-wdbc: the §6.1 doubling and binary-search protocol
/// (`runPoisoningSweep`) on registry wdbc, depths {1, 2}, box and
/// disjuncts, n up to 64, on min(4, nproc) jobs. Many small and medium
/// queries fan out behind the per-probe barrier, so the abstract and
/// antidote layers do nearly all the work and serving none.
///
/// Every verdict is decided by a deterministic cap (2^12 disjuncts,
/// 1 GiB of abstract state), never by the clock: the only timeout is a
/// safety one far above any query, and a `Timeout` counts as a failure.
/// The per-cell counters therefore hold exactly and are compared against
/// a golden. The disjunct cap sits at 2^12 rather than higher so one
/// sweep takes about a second and a run measures ten of them.
///
/// The seed permutes the order of the sweep's instances, which changes
/// how each probe's batch is scheduled across the jobs but not the set
/// of queries, so the goldens hold for every seed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Queries.h"
#include "Stats.h"

#include "antidote/Sweep.h"
#include "data/Registry.h"
#include "support/MemoryUsage.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>

using namespace antidote;

namespace perfbench {

namespace {

/// One line per (depth, domain, n) cell, with the deterministic counters.
std::vector<std::string> cellLines(const SweepResult &Result) {
  std::vector<std::string> Lines;
  for (const SweepSeries &S : Result.Series)
    for (const SweepCell &C : S.Cells) {
      char Line[160];
      std::snprintf(Line, sizeof(Line),
                    "depth %u %s n %u attempted %u verified %u resource %u",
                    C.Depth, C.DomainName.c_str(), C.Poisoning, C.Attempted,
                    C.Verified, C.ResourceFailures);
      Lines.push_back(Line);
    }
  return Lines;
}

/// Counts one sweep's attempts and failures and checks its cells.
void checkSweep(const RunOptions &O, const SweepResult &Result,
                std::vector<std::string> &First, RunResult &R) {
  unsigned Attempted = 0, Failed = 0;
  for (const SweepSeries &S : Result.Series)
    for (const SweepCell &C : S.Cells) {
      Attempted += C.Attempted;
      Failed += C.Timeouts + C.Cancellations;
    }
  R.Attempted += Attempted;
  R.Failed += Failed;
  std::vector<std::string> Lines = cellLines(Result);
  if (First.empty()) {
    First = Lines;
    if (!O.Tiny)
      checkGolden(O, "sweep-wdbc.txt", Lines, R);
  } else if (Lines != First) {
    R.fail("a repeated sweep's cells differ from the first sweep's");
  }
}

void printSweepShape(const SweepResult &Result) {
  unsigned Attempted = 0, Verified = 0, Capped = 0, Timeouts = 0, Cells = 0;
  for (const SweepSeries &S : Result.Series)
    for (const SweepCell &C : S.Cells) {
      ++Cells;
      Attempted += C.Attempted;
      Verified += C.Verified;
      Capped += C.ResourceFailures;
      Timeouts += C.Timeouts;
    }
  std::printf("sweep: %u cells, %u attempted, %u verified, %u decided by a "
              "cap (%.1f%%), %u timeouts\n",
              Cells, Attempted, Verified, Capped,
              Attempted ? 100.0 * Capped / Attempted : 0.0, Timeouts);
}

} // namespace

RunResult runSweepWdbc(const RunOptions &O) {
  RunResult R;
  const std::string Name = O.Tiny ? "iris" : "wdbc";
  SweepConfig Config;
  Config.Depths = O.Tiny ? std::vector<unsigned>{1} : std::vector<unsigned>{1, 2};
  Config.MaxPoisoning = O.Tiny ? 4 : 64;
  Config.InstanceLimits = {/*TimeoutSeconds=*/600.0, /*MaxDisjuncts=*/1u << 12,
                           /*MaxStateBytes=*/1ull << 30};
  Config.Jobs = std::max(1u, std::min(4u, O.Nproc));

  // Set-up is generating the dataset, five times before every sweep, so
  // its median spans the whole run rather than one moment of it.
  SpanLog Log;
  std::vector<double> Setups;
  BenchmarkDataset B;
  auto SetUp = [&] {
    for (int K = 0; K < 5; ++K) {
      double Start = nowSeconds();
      B = loadBenchmarkDataset(Name, BenchScale::Scaled);
      Setups.push_back(secondsSince(Start));
      Log.add("data.load", Start, Start + Setups.back());
    }
  };
  SetUp();
  std::vector<uint32_t> Rows = B.VerifyRows;
  Rng Shuffle(O.Seed);
  for (size_t I = Rows.size(); I > 1; --I)
    std::swap(Rows[I - 1], Rows[Shuffle.uniformInt(I)]);

  std::vector<std::string> First;
  auto Sweep = [&](const SweepConfig &C, double &Seconds) {
    double Start = nowSeconds();
    SweepResult Result =
        runPoisoningSweep(B.Split.Train, B.Split.Test, Rows, C);
    Seconds = secondsSince(Start);
    checkSweep(O, Result, First, R);
    return Result;
  };
  double Warm = 0.0;
  printSweepShape(Sweep(Config, Warm)); // Warm-up, checked but not timed.

  if (!O.Trace) {
    std::vector<double> Times;
    double Begin = nowSeconds();
    do {
      double Seconds = 0.0;
      SetUp();
      Sweep(Config, Seconds);
      Times.push_back(Seconds);
    } while (secondsSince(Begin) < O.Seconds);
    std::printf("sweep: %zu timed sweeps on %u jobs, min %.4f s max %.4f s\n",
                Times.size(), Config.Jobs,
                *std::min_element(Times.begin(), Times.end()),
                *std::max_element(Times.begin(), Times.end()));
    printTimes("timed", Times);
    printTimes("set-up", Setups);
    R.add("setup_s", median(Setups), "s");
    R.add("op_ms", median(Times) * 1e3, "ms"); // One sweep.
    R.add("peak_rss_mb", processPeakRssBytes() / 1e6, "MB");
    return R;
  }

  // Traced run: one plain sweep, then one with every query bracketed.
  R.add("data.load_s", median(Setups), "s");
  addSetupLayerMetrics(B.Split.Train, Log, R);
  double Plain = 0.0, Traced = 0.0;
  Sweep(Config, Plain);
  QuerySpanStore Spans;
  SweepConfig TracedConfig = Config;
  TracedConfig.Cache = &Spans;
  double SweepStart = nowSeconds();
  Sweep(TracedConfig, Traced);
  long Root = Log.add("antidote.sweep", SweepStart, SweepStart + Traced);
  std::vector<QueryRecord> Records = Spans.records();

  // A probe is one (depth, domain, n) step; its queries run as one batch.
  using ProbeKey = std::tuple<unsigned, int, uint32_t>;
  std::map<ProbeKey, std::vector<size_t>> Probes;
  for (size_t I = 0; I < Records.size(); ++I)
    Probes[{Records[I].Config.Depth,
            static_cast<int>(Records[I].Config.Domain), Records[I].Budget}]
        .push_back(I);
  double Critical = 0.0, Busy = 0.0;
  for (const auto &[Key, Members] : Probes) {
    double Lo = 1e300, Hi = -1e300, Slowest = 0.0;
    for (size_t I : Members) {
      const QueryRecord &Q = Records[I];
      double End = Q.End < 0 ? Q.Start : Q.End;
      Lo = std::min(Lo, Q.Start);
      Hi = std::max(Hi, End);
      Slowest = std::max(Slowest, End - Q.Start);
      Busy += End - Q.Start;
    }
    long Probe = Log.add("antidote.probe", Lo, Hi, Root);
    for (size_t I : Members)
      Log.add("antidote.verify", Records[I].Start,
              Records[I].End < 0 ? Records[I].Start : Records[I].End, Probe,
              I + 1);
    Critical += Slowest;
  }
  R.add("antidote.sweep.probes", static_cast<double>(Probes.size()), "count");
  R.add("antidote.sweep.critical_path_s", Critical, "s");
  R.add("antidote.sweep.barrier_idle_frac",
        Traced > 0 ? 1.0 - Busy / (Config.Jobs * Traced) : 0.0, "ratio");
  R.add("trace.overhead_s", Traced - Plain, "s");

  Verifier V(B.Split.Train);
  addTraceLayerMetric(V, Records, Log, R);
  double ReplayStart = nowSeconds();
  long Replay = Log.open("abstract.replay", ReplayStart);
  addQueryLayerMetrics(V, Records, Config.Jobs, Log, Replay, R);
  Log.close(Replay, nowSeconds());
  addSelfTimeMetrics(Log, R);
  writeSpans(Log, O, "sweep-wdbc", R);
  return R;
}

} // namespace perfbench
