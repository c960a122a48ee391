//===- perfbench/src/Bench.h - Benchmark workloads and results ---*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's four workloads and the result record they share.
///
/// Each workload builds its inputs from the seed, sets up (several times,
/// so set-up time is a median), warms the cores, measures for the given
/// number of seconds, and checks every output it produced. The untraced
/// run reports the end-to-end metrics; the traced run (`Trace`) reports
/// the per-layer metrics instead, taken by timing calls into each layer's
/// public functions and by wrapping the public `CertificateStore` and
/// `ReplicationEndpoint` interfaces. Nothing inside the library is
/// instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct RunOptions {
  uint64_t Seed = 1;
  double Seconds = 10.0; ///< Length of the measured phase.
  bool Trace = false;
  unsigned Nproc = 1; ///< Busy threads the workload may use in total.
  std::string WorkDir = ".bench_out"; ///< Stores, traces, scratch files.
  std::string GoldenDir = "perfbench/goldens";
  bool RecordGolden = false; ///< Write the goldens instead of checking.
  /// Shrinks every size to a few hundred milliseconds of work, for the
  /// benchmark's own smoke tests. Goldens are not checked at this size.
  bool Tiny = false;
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;       ///< End-to-end, or per-layer if traced.
  std::vector<std::string> Problems; ///< Why a check failed, one per line.

  void fail(std::string Why) {
    Correct = false;
    Problems.push_back(std::move(Why));
  }
  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

RunResult runSweepWdbc(const RunOptions &Options);
RunResult runHardMnist(const RunOptions &Options);
RunResult runServeMixed(const RunOptions &Options);
RunResult runReplicaCatchup(const RunOptions &Options);

/// Spins the cores, then runs the named workload; false when the name is
/// unknown.
bool runWorkload(const std::string &Name, const RunOptions &Options,
                 RunResult &Out);

/// Every end-to-end metric name and unit: an untraced run of any workload
/// reports exactly these. `op_ms` is the median time of the workload's
/// operation: a sweep, a pass over the hard query list, a hit request
/// from its due time, or a fresh replica's catch-up.
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

/// Every per-layer metric name and unit, in report order. A traced run
/// reports all of them; a layer the workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// Replaces \p Layer's metrics with the full per-layer list, in order,
/// taking values from \p Layer and 0 for the names it lacks.
std::vector<Metric> completePerLayer(const std::vector<Metric> &Layer);

/// Spins every core for \p Seconds: the virtual machines this runs on
/// grant parallel CPU only under sustained load.
void spinCores(unsigned Threads, double Seconds);

/// Keeps cores busy at the lowest scheduling class (SCHED_IDLE) for its
/// lifetime, so any runnable thread preempts a spinner at once but no core
/// halts. On a busy host a halted virtual CPU can take hundreds of
/// microseconds to wake, which would otherwise swamp every thread hand-off
/// a latency measurement contains.
class IdleSpinners {
public:
  explicit IdleSpinners(unsigned Threads);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners &) = delete;
  IdleSpinners &operator=(const IdleSpinners &) = delete;

private:
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Spinners;
};

/// Prints every sample of a repeated timing on one line, in run order.
void printTimes(const char *What, const std::vector<double> &Seconds);

/// One-line JSON describing the machine and build.
std::string machineJson(unsigned Nproc, const std::string &SourceId);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
