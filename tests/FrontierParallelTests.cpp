//===- tests/FrontierParallelTests.cpp - Frontier-parallel DTrace# ------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// Determinism and cancellation of the *within-one-verification* fan-out:
// splitting a DTrace# depth iteration into parallel per-disjunct transfer
// steps plus a sequential in-order merge must leave every observable —
// certificates, the full terminal list, PeakDisjuncts/PeakStateBytes,
// BestSplitCalls — bit-identical to the serial run in all three abstract
// domains, and a token cancelled mid-frontier must still surface its
// reason (mirroring tests/ParallelSweepTests.cpp one level down).
//
//===----------------------------------------------------------------------===//

#include "antidote/Sweep.h"

#include "TestUtil.h"
#include "data/Registry.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>
#include <future>
#include <numeric>
#include <thread>

using namespace antidote;
using namespace antidote::testutil;

namespace {

AbstractDomainKind kAllDomains[] = {AbstractDomainKind::Box,
                                    AbstractDomainKind::Disjuncts,
                                    AbstractDomainKind::DisjunctsCapped};

/// A learner config with no wall clock (timing must not influence the
/// serial-vs-parallel comparison; the caps are still live and exercised).
AbstractLearnerConfig learnerConfig(AbstractDomainKind Domain,
                                    unsigned FrontierJobs) {
  AbstractLearnerConfig Config;
  Config.Depth = 3;
  Config.Domain = Domain;
  Config.DisjunctCap = 8; // Small enough that capped runs overflow-join.
  Config.FrontierJobs = FrontierJobs;
  Config.Limits.TimeoutSeconds = 0.0;
  Config.CollectTerminals = true; // expectIdenticalRuns compares terminals.
  return Config;
}

/// Everything except Seconds must match exactly, terminal-by-terminal.
void expectIdenticalRuns(const AbstractLearnerResult &Serial,
                         const AbstractLearnerResult &Parallel,
                         const char *Label) {
  EXPECT_EQ(Serial.Status, Parallel.Status) << Label;
  EXPECT_EQ(Serial.DominatingClass, Parallel.DominatingClass) << Label;
  EXPECT_EQ(Serial.Refuted, Parallel.Refuted) << Label;
  EXPECT_EQ(Serial.PeakDisjuncts, Parallel.PeakDisjuncts) << Label;
  EXPECT_EQ(Serial.PeakStateBytes, Parallel.PeakStateBytes) << Label;
  EXPECT_EQ(Serial.BestSplitCalls, Parallel.BestSplitCalls) << Label;
  ASSERT_EQ(Serial.Terminals.size(), Parallel.Terminals.size()) << Label;
  for (size_t I = 0; I < Serial.Terminals.size(); ++I)
    EXPECT_TRUE(Serial.Terminals[I] == Parallel.Terminals[I])
        << Label << ", terminal " << I;
}

} // namespace

//===----------------------------------------------------------------------===//
// OrderedFanout (the support-layer work-chunk helper itself)
//===----------------------------------------------------------------------===//

TEST(OrderedFanoutTest, ComputesEveryItemExactlyOnceInAnyOrder) {
  ThreadPool Pool(3);
  const size_t Count = 1000;
  std::vector<int> Results(Count, -1);
  std::vector<std::atomic<int>> Computed(Count);
  for (auto &C : Computed)
    C.store(0);

  OrderedFanout Fanout(&Pool, Count, /*ChunkSize=*/7, [&](size_t I) {
    Computed[I].fetch_add(1);
    Results[I] = static_cast<int>(I) * 3;
  });
  for (size_t I = 0; I < Count; ++I) {
    Fanout.awaitItem(I);
    EXPECT_EQ(Results[I], static_cast<int>(I) * 3);
  }
  for (size_t I = 0; I < Count; ++I)
    EXPECT_EQ(Computed[I].load(), 1) << "item " << I;
}

TEST(OrderedFanoutTest, NullPoolDegradesToInlineSerialLoop) {
  const size_t Count = 25;
  std::vector<std::thread::id> ComputedBy(Count);
  OrderedFanout Fanout(nullptr, Count, /*ChunkSize=*/0,
                       [&](size_t I) { ComputedBy[I] = std::this_thread::get_id(); });
  for (size_t I = 0; I < Count; ++I)
    Fanout.awaitItem(I);
  for (size_t I = 0; I < Count; ++I)
    EXPECT_EQ(ComputedBy[I], std::this_thread::get_id());
}

TEST(OrderedFanoutTest, BoundedWindowStillComputesEverything) {
  // A claim window bounds worker run-ahead; it must only throttle, never
  // drop or double-compute items.
  ThreadPool Pool(3);
  const size_t Count = 5000;
  std::vector<std::atomic<int>> Computed(Count);
  for (auto &C : Computed)
    C.store(0);
  OrderedFanout Fanout(&Pool, Count, /*ChunkSize=*/8,
                       [&](size_t I) { Computed[I].fetch_add(1); },
                       /*WindowChunks=*/2);
  for (size_t I = 0; I < Count; ++I)
    Fanout.awaitItem(I);
  for (size_t I = 0; I < Count; ++I)
    ASSERT_EQ(Computed[I].load(), 1) << "item " << I;
}

TEST(OrderedFanoutTest, CancelWakesWorkersParkedAtWindowHorizon) {
  // With a tiny window the workers exhaust their claimable range almost
  // immediately and park; cancelRemaining must wake them so the
  // destructor's join cannot hang.
  ThreadPool Pool(2);
  const size_t Count = 100000;
  std::atomic<size_t> Calls{0};
  {
    OrderedFanout Fanout(&Pool, Count, /*ChunkSize=*/4,
                         [&](size_t) { Calls.fetch_add(1); },
                         /*WindowChunks=*/2);
    Fanout.awaitItem(0);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Fanout.cancelRemaining();
  }
  // The window kept run-ahead bounded: nowhere near Count was computed.
  EXPECT_LT(Calls.load(), Count / 2);
}

TEST(OrderedFanoutTest, CancelRemainingSkipsUnclaimedWork) {
  // Deterministic version: park both workers on gate tasks submitted
  // before the fan-out exists, so its helper tasks queue behind them and
  // no worker can claim a chunk until the gate opens. The consumer then
  // computes items 0..9 inline (awaitItem's claim-or-compute path),
  // cancels, and only then opens the gate: the helpers start, observe the
  // skip flag at the top of drainChunks, and claim nothing. Exactly the
  // ten awaited items run, on every scheduling.
  std::mutex GateMutex; // Declared before the pool: workers use the gate.
  std::condition_variable GateCv;
  bool GateOpen = false;
  ThreadPool Pool(2);
  auto Blocker = [&] {
    std::unique_lock<std::mutex> Lock(GateMutex);
    GateCv.wait(Lock, [&] { return GateOpen; });
  };
  Pool.submit(Blocker);
  Pool.submit(Blocker);

  const size_t Count = 100000;
  std::atomic<size_t> ComputeCalls{0};
  {
    OrderedFanout Fanout(&Pool, Count, /*ChunkSize=*/4,
                         [&](size_t) { ComputeCalls.fetch_add(1); });
    for (size_t I = 0; I < 10; ++I)
      Fanout.awaitItem(I); // Workers are parked: each runs inline.
    Fanout.cancelRemaining();
    {
      std::lock_guard<std::mutex> Lock(GateMutex);
      GateOpen = true;
    }
    GateCv.notify_all();
    // Destructor waits for helpers that started; queued ones exit on
    // entry once they observe teardown.
  }
  EXPECT_EQ(ComputeCalls.load(), 10u);
}

TEST(OrderedFanoutTest, TeardownDoesNotWaitForQueuedHelpers) {
  // Fan-outs share one pool across concurrent queries, so a fan-out's
  // helper task can still sit in the queue behind another query's work
  // when its consumer finishes. Park the only worker on a gate, let the
  // consumer compute everything inline, and tear the fan-out down while
  // its helper is still queued: teardown must return without waiting for
  // it (or this test hangs), and once the gate opens the helper must exit
  // without running Body.
  std::mutex GateMutex; // Declared before the pool: the worker uses it.
  std::condition_variable GateCv;
  bool GateOpen = false;
  ThreadPool Pool(1);
  Pool.submit([&] {
    std::unique_lock<std::mutex> Lock(GateMutex);
    GateCv.wait(Lock, [&] { return GateOpen; });
  });

  const size_t Count = 16;
  std::atomic<size_t> ComputeCalls{0};
  {
    OrderedFanout Fanout(&Pool, Count, /*ChunkSize=*/1,
                         [&](size_t) { ComputeCalls.fetch_add(1); });
    for (size_t I = 0; I < Count; ++I)
      Fanout.awaitItem(I);
  }
  {
    std::lock_guard<std::mutex> Lock(GateMutex);
    GateOpen = true;
  }
  GateCv.notify_all();
  // The pool is FIFO with one worker: once this marker runs, the queued
  // helper has run too.
  std::promise<void> Drained;
  Pool.submit([&] { Drained.set_value(); });
  Drained.get_future().wait();
  EXPECT_EQ(ComputeCalls.load(), Count);
}

TEST(ResolveJobsTest, ZeroMeansHardwareAndHugeValuesAreClamped) {
  // One rule for every Jobs knob (sweeps, --all, CertServer workers);
  // only the arithmetic is checked, so no thread is ever started.
  unsigned Hardware = ThreadPool::hardwareConcurrency();
  EXPECT_EQ(resolveJobs(0), Hardware);
  EXPECT_EQ(resolveJobs(1), 1u);
  EXPECT_EQ(resolveJobs(16 * Hardware), 16 * Hardware);
  EXPECT_EQ(resolveJobs(16 * Hardware + 1), 16 * Hardware);
  EXPECT_EQ(resolveJobs(~0u), 16 * Hardware);
}

//===----------------------------------------------------------------------===//
// Serial vs parallel frontier stepping: bit-identical results
//===----------------------------------------------------------------------===//

TEST(FrontierParallelTest, LearnerRunsIdenticalAcrossFrontierJobs) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  for (AbstractDomainKind Domain : kAllDomains) {
    for (uint32_t N : {2u, 6u}) {
      AbstractDataset Initial = AbstractDataset::entire(Data, N);
      AbstractLearnerResult Serial =
          runAbstractDTrace(Ctx, Initial, &X, learnerConfig(Domain, 1));
      for (unsigned Jobs : {2u, 8u}) {
        AbstractLearnerResult Parallel =
            runAbstractDTrace(Ctx, Initial, &X, learnerConfig(Domain, Jobs));
        std::string Label = std::string(domainKindName(Domain)) + ", n=" +
                            std::to_string(N) + ", FrontierJobs=" +
                            std::to_string(Jobs);
        expectIdenticalRuns(Serial, Parallel, Label.c_str());
      }
    }
  }
}

TEST(FrontierParallelTest, CompleteTerminalSetsIdenticalWithoutRefutationShortcut) {
  // StopOnRefutation off: the full frontier is traversed, so this compares
  // every terminal the abstraction produces, not just a refuted prefix.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 11.5f;
  for (AbstractDomainKind Domain : kAllDomains) {
    AbstractLearnerConfig SerialConfig = learnerConfig(Domain, 1);
    SerialConfig.StopOnRefutation = false;
    AbstractLearnerConfig ParallelConfig = learnerConfig(Domain, 8);
    ParallelConfig.StopOnRefutation = false;
    AbstractDataset Initial = AbstractDataset::entire(Data, 4);
    expectIdenticalRuns(
        runAbstractDTrace(Ctx, Initial, &X, SerialConfig),
        runAbstractDTrace(Ctx, Initial, &X, ParallelConfig),
        domainKindName(Domain));
  }
}

TEST(FrontierParallelTest, ResourceLimitAbortsIdenticalAcrossFrontierJobs) {
  // A disjunct-cap abort happens mid-frontier; the merge phase must stop
  // at exactly the same disjunct whatever the thread count, leaving the
  // same truncated terminal list and the same status.
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  for (AbstractDomainKind Domain :
       {AbstractDomainKind::Disjuncts, AbstractDomainKind::DisjunctsCapped}) {
    AbstractLearnerConfig SerialConfig = learnerConfig(Domain, 1);
    SerialConfig.StopOnRefutation = false;
    SerialConfig.Limits.MaxDisjuncts = 8;
    AbstractLearnerConfig ParallelConfig = SerialConfig;
    ParallelConfig.FrontierJobs = 8;
    AbstractDataset Initial = AbstractDataset::entire(Data, 6);
    AbstractLearnerResult Serial =
        runAbstractDTrace(Ctx, Initial, &X, SerialConfig);
    EXPECT_EQ(Serial.Status, LearnerStatus::ResourceLimit);
    expectIdenticalRuns(Serial,
                        runAbstractDTrace(Ctx, Initial, &X, ParallelConfig),
                        domainKindName(Domain));
  }
}

TEST(FrontierParallelTest, VerifierCertificatesIdenticalAcrossFrontierJobs) {
  BenchmarkDataset Bench = loadBenchmarkDataset("iris", BenchScale::Scaled);
  Verifier V(Bench.Split.Train);
  for (AbstractDomainKind Domain : kAllDomains) {
    VerifierConfig Serial;
    Serial.Depth = 2;
    Serial.Domain = Domain;
    Serial.DisjunctCap = 8;
    Serial.Limits.TimeoutSeconds = 0.0;
    // A handful of rows keeps the 3-domain x 2-job-count product fast.
    std::vector<uint32_t> Rows(Bench.VerifyRows.begin(),
                               Bench.VerifyRows.begin() +
                                   std::min<size_t>(8,
                                                    Bench.VerifyRows.size()));
    for (uint32_t Row : Rows) {
      const float *X = Bench.Split.Test.row(Row);
      Certificate Lone = V.verify(X, /*PoisoningBudget=*/4, Serial);
      for (unsigned Jobs : {2u, 8u}) {
        VerifierConfig Parallel = Serial;
        Parallel.FrontierJobs = Jobs;
        Certificate Cert = V.verify(X, /*PoisoningBudget=*/4, Parallel);
        std::string Label = std::string(domainKindName(Domain)) + ", row " +
                            std::to_string(Row) + ", FrontierJobs=" +
                            std::to_string(Jobs);
        EXPECT_EQ(Cert.Kind, Lone.Kind) << Label;
        EXPECT_EQ(Cert.ConcretePrediction, Lone.ConcretePrediction) << Label;
        EXPECT_EQ(Cert.DominatingClass, Lone.DominatingClass) << Label;
        EXPECT_EQ(Cert.NumTerminals, Lone.NumTerminals) << Label;
        EXPECT_EQ(Cert.PeakDisjuncts, Lone.PeakDisjuncts) << Label;
        EXPECT_EQ(Cert.PeakStateBytes, Lone.PeakStateBytes) << Label;
        EXPECT_EQ(Cert.BestSplitCalls, Lone.BestSplitCalls) << Label;
      }
    }
  }
}

TEST(FrontierParallelTest, SharedFrontierPoolMatchesOwnedPool) {
  // A sweep passes one long-lived pool through VerifierConfig::FrontierPool
  // instead of letting every query spawn its own; results must not care.
  BenchmarkDataset Bench = loadBenchmarkDataset("iris", BenchScale::Scaled);
  Verifier V(Bench.Split.Train);
  VerifierConfig Config;
  Config.Depth = 2;
  Config.Domain = AbstractDomainKind::Disjuncts;
  Config.Limits.TimeoutSeconds = 0.0;
  const float *X = Bench.Split.Test.row(0);
  Certificate Serial = V.verify(X, 4, Config);

  ThreadPool Shared(3);
  Config.FrontierJobs = 4;
  Config.FrontierPool = &Shared;
  Certificate Pooled = V.verify(X, 4, Config);
  EXPECT_EQ(Pooled.Kind, Serial.Kind);
  EXPECT_EQ(Pooled.NumTerminals, Serial.NumTerminals);
  EXPECT_EQ(Pooled.PeakDisjuncts, Serial.PeakDisjuncts);
  EXPECT_EQ(Pooled.PeakStateBytes, Serial.PeakStateBytes);
  EXPECT_EQ(Pooled.BestSplitCalls, Serial.BestSplitCalls);
}

TEST(FrontierParallelTest, SweepAggregatesIdenticalWithFrontierJobs) {
  // The §6.1 protocol with frontier-level parallelism only (Jobs = 1) and
  // with both fan-out levels on at once must reproduce the serial sweep
  // bit-for-bit, exactly like ParallelSweepTests does for Jobs alone.
  BenchmarkDataset Bench = loadBenchmarkDataset("iris", BenchScale::Scaled);
  SweepConfig Serial;
  Serial.Depths = {1, 2};
  Serial.MaxPoisoning = 64;
  Serial.InstanceLimits.TimeoutSeconds = 0.0;
  Serial.InstanceLimits.MaxDisjuncts = 1u << 14;
  Serial.InstanceLimits.MaxStateBytes = 1ull << 28;
  SweepResult Baseline = runPoisoningSweep(Bench.Split.Train,
                                           Bench.Split.Test, Bench.VerifyRows,
                                           Serial);

  const std::pair<unsigned, unsigned> Combos[] = {{1, 4}, {2, 2}};
  for (auto [Jobs, FrontierJobs] : Combos) {
    SweepConfig Parallel = Serial;
    Parallel.Jobs = Jobs;
    Parallel.FrontierJobs = FrontierJobs;
    SweepResult Result = runPoisoningSweep(
        Bench.Split.Train, Bench.Split.Test, Bench.VerifyRows, Parallel);
    ASSERT_EQ(Result.Series.size(), Baseline.Series.size());
    for (size_t S = 0; S < Result.Series.size(); ++S) {
      const SweepSeries &X = Baseline.Series[S];
      const SweepSeries &Y = Result.Series[S];
      EXPECT_EQ(X.MaxVerifiedN, Y.MaxVerifiedN);
      ASSERT_EQ(X.Cells.size(), Y.Cells.size());
      for (size_t C = 0; C < X.Cells.size(); ++C) {
        EXPECT_EQ(X.Cells[C].Poisoning, Y.Cells[C].Poisoning);
        EXPECT_EQ(X.Cells[C].Attempted, Y.Cells[C].Attempted);
        EXPECT_EQ(X.Cells[C].Verified, Y.Cells[C].Verified);
        EXPECT_EQ(X.Cells[C].ResourceFailures, Y.Cells[C].ResourceFailures);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Cancellation mid-frontier
//===----------------------------------------------------------------------===//

TEST(FrontierParallelTest, MidFrontierCancellationReportsDeadlineReason) {
  // Cancel for deadline reasons from another thread while a parallel
  // frontier is in flight: the merge phase's next poll must wind the run
  // down and the status must be Timeout, not Cancelled — the same
  // guarantee ParallelSweepTests asserts for the serial learner.
  BenchmarkDataset Bench =
      loadBenchmarkDataset("mammography", BenchScale::Scaled);
  SplitContext Ctx(Bench.Split.Train);
  AbstractLearnerConfig Config;
  Config.Depth = 5;
  Config.Domain = AbstractDomainKind::Disjuncts;
  Config.StopOnRefutation = false;
  Config.FrontierJobs = 4;
  Config.Limits.MaxDisjuncts = 0;  // Uncapped:
  Config.Limits.MaxStateBytes = 0; // only the token can stop this run.
  CancellationToken Token;
  Config.Cancel = &Token;
  AbstractDataset Initial = AbstractDataset::entire(Bench.Split.Train, 16);

  std::thread Canceller([&Token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Token.cancel(BudgetOutcome::Timeout);
  });
  AbstractLearnerResult Result = runAbstractDTrace(
      Ctx, Initial, Bench.Split.Test.row(0), Config);
  Canceller.join();
  EXPECT_EQ(Result.Status, LearnerStatus::Timeout);
  EXPECT_FALSE(Result.DominatingClass.has_value());
  // Early stop, not a full traversal: generous headroom because the
  // sanitizer CI jobs slow wind-down latency 5-15x, but still far below
  // the uncancelled traversal (seconds natively, minutes under TSan).
  EXPECT_LT(Result.Seconds, 5.0);
}

TEST(FrontierParallelTest, PreCancelledTokenStopsParallelFrontierRun) {
  Dataset Data = figure2Dataset();
  SplitContext Ctx(Data);
  float X = 5.0f;
  CancellationToken Token;
  Token.cancel();

  AbstractLearnerConfig Config = learnerConfig(AbstractDomainKind::Disjuncts, 8);
  Config.Depth = 4;
  Config.Cancel = &Token;
  AbstractDataset Initial = AbstractDataset::entire(Data, 6);
  AbstractLearnerResult Result = runAbstractDTrace(Ctx, Initial, &X, Config);
  EXPECT_EQ(Result.Status, LearnerStatus::Cancelled);
  EXPECT_TRUE(Result.Terminals.empty());
  EXPECT_FALSE(Result.DominatingClass.has_value());
}
