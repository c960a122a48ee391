//===- perfbench/src/Bench.cpp - Workload dispatch and machine record -----===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif

namespace perfbench {

bool runWorkload(const std::string &Name, const RunOptions &Options,
                 RunResult &Out) {
  static const char *const Names[] = {"sweep-wdbc", "hard-mnist",
                                      "serve-mixed", "replica-catchup"};
  if (std::find(std::begin(Names), std::end(Names), Name) == std::end(Names))
    return false;
  // Warm the cores before set-up, so set-up is timed on them too.
  spinCores(Options.Nproc, Options.Tiny ? 0.05 : 1.5);
  if (Name == "sweep-wdbc")
    Out = runSweepWdbc(Options);
  else if (Name == "hard-mnist")
    Out = runHardMnist(Options);
  else if (Name == "serve-mixed")
    Out = runServeMixed(Options);
  else
    Out = runReplicaCatchup(Options);
  return true;
}

const std::vector<std::pair<std::string, std::string>> &endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"setup_s", "s"}, {"op_ms", "ms"}, {"peak_rss_mb", "MB"}};
  return Names;
}

const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"data.load_s", "s"},
      {"data.fingerprint_s", "s"},
      {"concrete.splitctx_s", "s"},
      {"concrete.trace_us", "us"},
      {"abstract.engine_s", "s"},
      {"abstract.bestsplit_root_ms", "ms"},
      {"abstract.filter_root_ms", "ms"},
      {"abstract.bestsplit_share", "ratio"},
      {"abstract.bestsplit_calls", "count"},
      {"abstract.terminals", "count"},
      {"abstract.peak_disjuncts", "count"},
      {"abstract.peak_state_mb", "MB"},
      {"antidote.verify.calls", "count"},
      {"antidote.verify.busy_s", "s"},
      {"antidote.verify.p50_ms", "ms"},
      {"antidote.verify.max_ms", "ms"},
      {"antidote.sweep.probes", "count"},
      {"antidote.sweep.critical_path_s", "s"},
      {"antidote.sweep.barrier_idle_frac", "ratio"},
      {"serving.store.lookup_p50_us", "us"},
      {"serving.store.lookup_p99_us", "us"},
      {"serving.store.store_p99_us", "us"},
      {"serving.store.ram_hits", "count"},
      {"serving.store.disk_hits", "count"},
      {"serving.store.range_hits", "count"},
      {"serving.store.misses", "count"},
      {"serving.store.hit_ratio", "ratio"},
      {"serving.store.ram_evictions", "count"},
      {"serving.store.open_s", "s"},
      {"serving.certserver.queue_wait_p99_us", "us"},
      {"serving.certserver.hold_p99_us", "us"},
      {"serving.certserver.pending_max", "count"},
      {"serving.net.requests", "count"},
      {"serving.net.failed", "count"},
      {"serving.net.gen_late_max_ms", "ms"},
      {"serving.net.hit_p99_us", "us"},
      {"serving.net.miss_p50_ms", "ms"},
      {"serving.net.miss_p99_ms", "ms"},
      {"serving.net.max_rate_rps", "1/s"},
      {"serving.repl.polls", "count"},
      {"serving.repl.records_per_poll", "count"},
      {"serving.repl.poll_p50_ms", "ms"},
      {"serving.repl.poll_p99_ms", "ms"},
      {"serving.repl.serve_poll_p50_ms", "ms"},
      {"serving.repl.apply_p50_us", "us"},
      {"serving.repl.corrupt", "count"},
      {"serving.repl.errors", "count"},
      {"trace.self.data_s", "s"},
      {"trace.self.concrete_s", "s"},
      {"trace.self.abstract_s", "s"},
      {"trace.self.antidote_s", "s"},
      {"trace.self.serving_s", "s"},
      {"trace.spans", "count"},
      {"trace.overhead_s", "s"},
  };
  return Names;
}

std::vector<Metric> completePerLayer(const std::vector<Metric> &Layer) {
  std::map<std::string, double> Values;
  for (const Metric &M : Layer)
    Values[M.Name] = M.Value;
  std::vector<Metric> Out;
  for (const auto &[Name, Unit] : perLayerMetrics()) {
    auto It = Values.find(Name);
    Out.push_back({Name, It == Values.end() ? 0.0 : It->second, Unit});
  }
  return Out;
}

void spinCores(unsigned Threads, double Seconds) {
  IdleSpinners Spin(Threads);
  std::this_thread::sleep_for(std::chrono::duration<double>(Seconds));
}

IdleSpinners::IdleSpinners(unsigned Threads) {
  for (unsigned I = 0; I < Threads; ++I)
    Spinners.emplace_back([this] {
      sched_param Param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &Param);
      while (!Stop.load(std::memory_order_relaxed))
        for (volatile int K = 0; K < 1000; ++K) {
        }
    });
}

IdleSpinners::~IdleSpinners() {
  Stop = true;
  for (std::thread &T : Spinners)
    T.join();
}

void printTimes(const char *What, const std::vector<double> &Seconds) {
  std::printf("%s (s):", What);
  for (double S : Seconds)
    std::printf(" %.4f", S);
  std::printf("\n");
}

static std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

std::string machineJson(unsigned Nproc, const std::string &SourceId) {
  std::string Cpu = "unknown";
  std::ifstream Info("/proc/cpuinfo");
  for (std::string Line; std::getline(Info, Line);)
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos && Colon + 2 <= Line.size())
        Cpu = Line.substr(Colon + 2);
      break;
    }
  std::ostringstream Out;
  Out << "{\"nproc\": " << Nproc << ", \"hardware_threads\": "
      << std::thread::hardware_concurrency() << ", \"cpu\": \""
      << jsonEscape(Cpu) << "\", \"compiler\": \""
      << jsonEscape(PERFBENCH_COMPILER) << "\", \"flags\": \""
      << jsonEscape(PERFBENCH_FLAGS) << "\", \"git_sha\": \""
      << jsonEscape(SourceId) << "\"}";
  return Out.str();
}

} // namespace perfbench
