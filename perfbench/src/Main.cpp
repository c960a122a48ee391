//===- perfbench/src/Main.cpp - Benchmark command line --------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           [--work-dir DIR] [--golden-dir DIR]
///           [--source-id ID] [--record-golden]
///
/// Runs one workload and prints each metric with its unit, the machine
/// record, and, as the last line, one JSON object with the keys
/// `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
/// correctness check failed, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sched.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace perfbench;

static unsigned affinityCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

/// Total and stolen CPU ticks from /proc/stat, or zeros when unreadable.
/// A hypervisor running other guests on this machine's cores shows up as
/// steal; it moves every timing here, so each run records it.
static std::pair<double, double> cpuTicks() {
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  double Total = 0.0, Steal = 0.0, Field = 0.0;
  Stat >> Cpu;
  for (int I = 0; I < 8 && Stat >> Field; ++I) {
    Total += Field;
    if (I == 7)
      Steal = Field;
  }
  return {Total, Steal};
}

static int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] "
               "[--golden-dir DIR] [--source-id ID] [--record-golden]\n",
               Why);
  return 2;
}

static bool parseUnsigned(const char *Text, unsigned long long &Out) {
  char *End = nullptr;
  errno = 0;
  Out = std::strtoull(Text, &End, 10);
  return errno == 0 && End != Text && *End == '\0' && Text[0] != '-';
}

int main(int Argc, char **Argv) {
  RunOptions Options;
  Options.Nproc = affinityCpus();
  std::string Workload, SourceId = "unknown";
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--record-golden") {
      Options.RecordGolden = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    const char *Value = Argv[++I];
    unsigned long long N = 0;
    if (Arg == "--workload") {
      Workload = Value;
    } else if (Arg == "--seed") {
      if (!parseUnsigned(Value, N))
        return usage("--seed takes a non-negative integer");
      Options.Seed = N;
      HaveSeed = true;
    } else if (Arg == "--seconds") {
      char *End = nullptr;
      Options.Seconds = std::strtod(Value, &End);
      if (End == Value || *End != '\0' || !(Options.Seconds > 0) ||
          Options.Seconds > 600)
        return usage("--seconds takes a number in (0, 600]");
      HaveSeconds = true;
    } else if (Arg == "--trace") {
      if (!parseUnsigned(Value, N) || N > 1)
        return usage("--trace takes 0 or 1");
      Options.Trace = N == 1;
      HaveTrace = true;
    } else if (Arg == "--work-dir") {
      Options.WorkDir = Value;
    } else if (Arg == "--golden-dir") {
      Options.GoldenDir = Value;
    } else if (Arg == "--source-id") {
      SourceId = Value;
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
  }
  if (Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");

  std::printf("perfbench: workload %s seed %llu seconds %g trace %d\n",
              Workload.c_str(), static_cast<unsigned long long>(Options.Seed),
              Options.Seconds, Options.Trace ? 1 : 0);
  std::printf("machine: %s\n",
              machineJson(Options.Nproc, SourceId).c_str());
  std::fflush(stdout);

  RunResult Result;
  std::pair<double, double> Before = cpuTicks();
  if (!runWorkload(Workload, Options, Result))
    return usage(("unknown workload " + Workload).c_str());
  std::pair<double, double> After = cpuTicks();
  if (After.first > Before.first)
    std::printf("host: %.1f%% of this machine's CPU time was stolen by the "
                "hypervisor during the run\n",
                100.0 * (After.second - Before.second) /
                    (After.first - Before.first));
  if (Options.Trace) {
    Result.Metrics = completePerLayer(Result.Metrics);
  } else {
    std::vector<std::pair<std::string, std::string>> Reported;
    for (const Metric &M : Result.Metrics)
      Reported.push_back({M.Name, M.Unit});
    if (Reported != endToEndMetrics())
      Result.fail("the workload did not report the end-to-end metrics");
  }

  for (Metric &M : Result.Metrics)
    if (!std::isfinite(M.Value)) {
      Result.fail("metric " + M.Name + " is not finite");
      M.Value = 0.0;
    }
  for (const std::string &P : Result.Problems)
    std::printf("check failed: %s\n", P.c_str());
  double FailedFrac =
      Result.Attempted
          ? static_cast<double>(Result.Failed) / Result.Attempted
          : 0.0;
  std::printf("failed_frac = %.6g ratio (%llu of %llu)\n", FailedFrac,
              static_cast<unsigned long long>(Result.Failed),
              static_cast<unsigned long long>(Result.Attempted));
  for (const Metric &M : Result.Metrics)
    std::printf("metric %s = %.10g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());

  std::string Json = "{\"correct\": ";
  Json += Result.Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Result.Attempted);
  Json += ", \"failed\": " + std::to_string(Result.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < Result.Metrics.size(); ++I) {
    const Metric &M = Result.Metrics[I];
    char Value[64];
    std::snprintf(Value, sizeof(Value), "%.17g", M.Value);
    Json += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Value +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return Result.Correct ? 0 : 1;
}
