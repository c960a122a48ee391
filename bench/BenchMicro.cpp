//===- bench/BenchMicro.cpp - Transformer micro-benchmarks ---------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// google-benchmark microbenchmarks for the building blocks whose costs
// drive the Figure 7-11 curves: interval arithmetic, ⟨T,n⟩ joins and
// restrictions, cprob#/ent#, concrete and abstract bestSplit, DTrace, and
// end-to-end verification queries.
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractBestSplit.h"
#include "abstract/AbstractFilter.h"
#include "abstract/LabelFlip.h"
#include "antidote/Sweep.h"
#include "antidote/Verifier.h"
#include "data/Registry.h"
#include "serving/CertCache.h"
#include "serving/DiskCertStore.h"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

using namespace antidote;

namespace {

/// Shared lazily-constructed workloads (benchmark registration happens
/// before main, so construction must be deferred into the benchmarks).
const BenchmarkDataset &mammo() {
  static BenchmarkDataset Bench =
      loadBenchmarkDataset("mammography", BenchScale::Scaled);
  return Bench;
}

const SplitContext &mammoCtx() {
  static SplitContext Ctx(mammo().Split.Train);
  return Ctx;
}

const Verifier &mammoVerifier() {
  static Verifier V(mammo().Split.Train);
  return V;
}

const BenchmarkDataset &wdbc() {
  static BenchmarkDataset Bench =
      loadBenchmarkDataset("wdbc", BenchScale::Scaled);
  return Bench;
}

const Verifier &wdbcVerifier() {
  static Verifier V(wdbc().Split.Train);
  return V;
}

} // namespace

static void BM_IntervalArithmetic(benchmark::State &State) {
  Interval A(0.25, 0.75);
  Interval B(0.1, 0.9);
  for (auto _ : State) {
    Interval C = A * B + (B - A);
    Interval D = C.join(A).meet(B);
    benchmark::DoNotOptimize(D);
  }
}
BENCHMARK(BM_IntervalArithmetic);

static void BM_AbstractJoin(benchmark::State &State) {
  const Dataset &Train = mammo().Split.Train;
  RowIndexList Even, Odd;
  for (uint32_t Row = 0; Row < Train.numRows(); ++Row)
    (Row % 2 ? Odd : Even).push_back(Row);
  AbstractDataset A(Train, Even, 4);
  AbstractDataset B(Train, Odd, 2);
  for (auto _ : State) {
    AbstractDataset J = AbstractDataset::join(A, B);
    benchmark::DoNotOptimize(J.budget());
  }
}
BENCHMARK(BM_AbstractJoin);

static void BM_AbstractRestrict(benchmark::State &State) {
  const Dataset &Train = mammo().Split.Train;
  AbstractDataset A = AbstractDataset::entire(Train, 8);
  SplitPredicate Pred = SplitPredicate::symbolic(1, 50.0, 55.0);
  for (auto _ : State) {
    AbstractDataset R = A.restrict(Pred, true);
    benchmark::DoNotOptimize(R.size());
  }
}
BENCHMARK(BM_AbstractRestrict);

// The count-only last frontier level's kernel: summarize every filter#
// child of one mnist17-real depth-1 disjunct (x = test row 8, the hard
// query, n = 1) under its full bestSplit# Ψ, without building any child.
static void BM_AbstractRestrictSummaries(benchmark::State &State) {
  static const BenchmarkDataset Mnist =
      loadBenchmarkDataset("mnist17-real", BenchScale::Scaled);
  static const SplitContext Ctx(Mnist.Split.Train);
  const float *X = Mnist.Split.Test.row(8);
  AbstractDataset Root = AbstractDataset::entire(Mnist.Split.Train, 1);
  PredicateSet RootPsi = *abstractBestSplit(Ctx, Root,
                                            CprobTransformerKind::Optimal);
  const SplitPredicate &First = RootPsi.predicates().front();
  AbstractDataset Parent =
      Root.restrict(First, First.evaluate(X) != ThreeValued::False);
  PredicateSet Psi =
      *abstractBestSplit(Ctx, Parent, CprobTransformerKind::Optimal);
  RestrictionSummaries Out;
  for (auto _ : State) {
    Out.Items.clear();
    Out.Counts.clear();
    summarizeRestrictions(Ctx, Parent, Psi, X, Out);
    benchmark::DoNotOptimize(Out.Items.data());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Out.size()));
  State.counters["psi"] = static_cast<double>(Psi.size());
}
BENCHMARK(BM_AbstractRestrictSummaries)->Unit(benchmark::kMillisecond);

static void BM_CprobTransformer(benchmark::State &State) {
  CprobTransformerKind Kind =
      State.range(0) ? CprobTransformerKind::NaiveInterval
                     : CprobTransformerKind::Optimal;
  std::vector<uint32_t> Counts = {311, 353};
  for (auto _ : State) {
    std::vector<Interval> Probs =
        abstractClassProbabilities(Counts, 664, 16, Kind);
    benchmark::DoNotOptimize(Probs.data());
  }
}
BENCHMARK(BM_CprobTransformer)->Arg(0)->Arg(1);

// One abstractGiniImpurity call is ~10 ns — binary code layout alone
// moves that past any sane regression tolerance — so each iteration
// sweeps 256 distinct probability vectors and the gate compares the
// microsecond-scale aggregate (tools/bench_compare.py gates this name).
static void BM_AbstractGini(benchmark::State &State) {
  std::vector<std::vector<Interval>> Inputs;
  for (int I = 0; I < 256; ++I) {
    double Lo = (I % 16) / 16.0;
    double Hi = Lo + (1.0 - Lo) * (I / 16) / 16.0;
    Inputs.push_back({Interval(Lo, Hi), Interval(1.0 - Hi, 1.0 - Lo)});
  }
  for (auto _ : State) {
    double Acc = 0.0;
    for (const std::vector<Interval> &Probs : Inputs)
      Acc += abstractGiniImpurity(Probs).ub();
    benchmark::DoNotOptimize(Acc);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Inputs.size()));
}
BENCHMARK(BM_AbstractGini);

static void BM_ConcreteBestSplit(benchmark::State &State) {
  RowIndexList Rows = allRows(mammo().Split.Train);
  for (auto _ : State) {
    std::optional<SplitPredicate> Best = bestSplit(mammoCtx(), Rows);
    benchmark::DoNotOptimize(Best);
  }
}
BENCHMARK(BM_ConcreteBestSplit);

static void BM_AbstractBestSplit(benchmark::State &State) {
  AbstractDataset A = AbstractDataset::entire(
      mammo().Split.Train, static_cast<uint32_t>(State.range(0)));
  for (auto _ : State) {
    PredicateSet Psi =
        *abstractBestSplit(mammoCtx(), A, CprobTransformerKind::Optimal);
    benchmark::DoNotOptimize(Psi.size());
  }
}
BENCHMARK(BM_AbstractBestSplit)->Arg(1)->Arg(8)->Arg(64);

// The hard-mnist benchmark's dominant layer: bestSplit# at the mnist17-real
// root, over 300k candidates in 784 feature blocks.
static void BM_AbstractBestSplitMnist(benchmark::State &State) {
  static const BenchmarkDataset Mnist =
      loadBenchmarkDataset("mnist17-real", BenchScale::Scaled);
  static const SplitContext Ctx(Mnist.Split.Train);
  AbstractDataset A = AbstractDataset::entire(
      Mnist.Split.Train, static_cast<uint32_t>(State.range(0)));
  for (auto _ : State) {
    PredicateSet Psi =
        *abstractBestSplit(Ctx, A, CprobTransformerKind::Optimal);
    benchmark::DoNotOptimize(Psi.size());
  }
}
BENCHMARK(BM_AbstractBestSplitMnist)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The label-flip bestSplit#: the same Ψ-selection pass as above over
// concrete midpoints with the flip score#, on the same root.
static void BM_FlipBestSplit(benchmark::State &State) {
  AbstractDataset A = AbstractDataset::entire(
      mammo().Split.Train, static_cast<uint32_t>(State.range(0)));
  for (auto _ : State) {
    PredicateSet Psi = *flipBestSplit(mammoCtx(), A);
    benchmark::DoNotOptimize(Psi.size());
  }
}
BENCHMARK(BM_FlipBestSplit)->Arg(1)->Arg(8)->Arg(64);

//===----------------------------------------------------------------------===//
// SoA kernel benches: the branch-free column kernels in isolation.
//
// These three pin the hot loops the struct-of-arrays refactor vectorized:
// the dense candidate-scan split enumeration, the fused ent#-from-counts,
// and the compare-into-mask row filter. They are in the CI regression gate
// (BENCH_kernels.json); a >25% cpu_time slowdown fails the gate.
//===----------------------------------------------------------------------===//

// One full candidate enumeration pass over every feature: the sorted
// (value, label) sequence plus the boundary scan that fills each feature's
// split block.
static void BM_KernelSplitCandidateScan(benchmark::State &State) {
  RowIndexList Rows = allRows(mammo().Split.Train);
  SplitEnumerationPrepass Pre(mammoCtx(), Rows);
  SplitBlock Block;
  for (auto _ : State) {
    size_t Candidates = 0;
    for (unsigned F = 0; F < mammo().Split.Train.numFeatures(); ++F)
      if (Block.assign(Pre, F))
        Candidates += Block.size();
    benchmark::DoNotOptimize(Candidates);
  }
}
BENCHMARK(BM_KernelSplitCandidateScan);

// ent# straight from a flat count slice: Arg(0) = the fused branch-free
// kernel (Optimal x ExactTerm), Arg(1) = the retained naive reference
// composition cprob# |> ent# on the same counts. The ratio between the two
// is the fusion speedup, measurable inside one binary.
static void BM_KernelAbstractGiniCounts(benchmark::State &State) {
  std::vector<uint32_t> Counts = {311, 353, 127, 64};
  uint32_t Total = 855, Budget = 16;
  if (State.range(0) == 0) {
    for (auto _ : State) {
      Interval Ent = abstractGiniImpurityFromCounts(
          Counts, Total, Budget, CprobTransformerKind::Optimal,
          GiniLiftingKind::ExactTerm);
      benchmark::DoNotOptimize(Ent);
    }
  } else {
    for (auto _ : State) {
      Interval Ent = abstractGiniImpurity(
          abstractClassProbabilities(Counts, Total, Budget,
                                     CprobTransformerKind::Optimal),
          GiniLiftingKind::ExactTerm);
      benchmark::DoNotOptimize(Ent);
    }
  }
}
BENCHMARK(BM_KernelAbstractGiniCounts)->Arg(0)->Arg(1);

// The branch-free always-write/conditionally-advance row filter over one
// contiguous feature column (the concrete DTrace partition step).
static void BM_KernelFilterMask(benchmark::State &State) {
  const Dataset &Train = mammo().Split.Train;
  RowIndexList Rows = allRows(Train);
  SplitPredicate Pred = SplitPredicate::threshold(1, 52.0);
  for (auto _ : State) {
    RowIndexList Kept = filterRows(Train, Rows, Pred, true);
    benchmark::DoNotOptimize(Kept.size());
  }
}
BENCHMARK(BM_KernelFilterMask);

// Slice-wise interval join over SoA bound slices (support/Interval.h).
static void BM_KernelSliceJoin(benchmark::State &State) {
  const size_t N = 1024;
  std::vector<double> ALo(N), AHi(N), BLo(N), BHi(N), OutLo(N), OutHi(N);
  for (size_t I = 0; I < N; ++I) {
    ALo[I] = static_cast<double>(I % 17);
    AHi[I] = ALo[I] + 2.0;
    BLo[I] = static_cast<double>(I % 23) - 1.0;
    BHi[I] = BLo[I] + 3.0;
  }
  for (auto _ : State) {
    joinSlices(ALo.data(), AHi.data(), BLo.data(), BHi.data(), OutLo.data(),
               OutHi.data(), N);
    benchmark::DoNotOptimize(OutLo.data());
    benchmark::DoNotOptimize(OutHi.data());
  }
}
BENCHMARK(BM_KernelSliceJoin);

static void BM_ConcreteDTrace(benchmark::State &State) {
  RowIndexList Rows = allRows(mammo().Split.Train);
  const float *X = mammo().Split.Test.row(0);
  for (auto _ : State) {
    TraceResult Trace = runDTrace(mammoCtx(), Rows, X, 3);
    benchmark::DoNotOptimize(Trace.PredictedClass);
  }
}
BENCHMARK(BM_ConcreteDTrace);

static void BM_VerifyQuery(benchmark::State &State) {
  VerifierConfig Config;
  Config.Depth = 2;
  Config.Domain = State.range(0) ? AbstractDomainKind::Disjuncts
                                 : AbstractDomainKind::Box;
  Config.Limits.TimeoutSeconds = 5.0;
  const float *X = mammo().Split.Test.row(1);
  uint32_t Budget = static_cast<uint32_t>(State.range(1));
  for (auto _ : State) {
    Certificate Cert = mammoVerifier().verify(X, Budget, Config);
    benchmark::DoNotOptimize(Cert.Kind);
  }
}
BENCHMARK(BM_VerifyQuery)
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({0, 16})
    ->Args({1, 16});

// One serial `verifyBatch` over wdbc's verify rows, the shape of one
// sweep probe: the queries share a bestSplit# memo, so the root and the
// depth-1 states they have in common are scored once per batch. Caps, not
// the clock, decide every verdict.
static void BM_VerifyBatch(benchmark::State &State) {
  VerifierConfig Config;
  Config.Depth = 2;
  Config.Domain = AbstractDomainKind::Disjuncts;
  Config.Limits.TimeoutSeconds = 0.0;
  Config.Limits.MaxDisjuncts = 1u << 12;
  std::vector<const float *> Inputs;
  for (uint32_t Row : wdbc().VerifyRows)
    Inputs.push_back(wdbc().Split.Test.row(Row));
  for (auto _ : State) {
    std::vector<Certificate> Certs =
        wdbcVerifier().verifyBatch(Inputs, /*PoisoningBudget=*/4, Config);
    benchmark::DoNotOptimize(Certs.data());
  }
}
BENCHMARK(BM_VerifyBatch)->Unit(benchmark::kMillisecond);

// The label-flip threat model through the same unified frontier engine as
// removal (abstract/ThreatModel.h): the cost profile differs — flip keeps
// exact row sets, so restricts are concrete filters, but the forced-pure
// terminal check and the flip cprob# intervals run per disjunct. Gated by
// tools/bench_compare.py alongside BM_VerifyQuery so an engine-level
// change that only hurts one model is still caught. Disjuncts only: the
// flip transformer is unsound under box joins.
static void BM_FlipVerify(benchmark::State &State) {
  VerifierConfig Config;
  Config.Depth = 2;
  Config.Domain = AbstractDomainKind::Disjuncts;
  Config.Threat = ThreatModelKind::LabelFlip;
  Config.Limits.TimeoutSeconds = 5.0;
  const float *X = mammo().Split.Test.row(1);
  uint32_t Budget = static_cast<uint32_t>(State.range(0));
  for (auto _ : State) {
    Certificate Cert = mammoVerifier().verify(X, Budget, Config);
    benchmark::DoNotOptimize(Cert.Kind);
  }
}
BENCHMARK(BM_FlipVerify)->Arg(2)->Arg(16);

// Serial-vs-parallel scaling of the §6.1 sweep: the same synthetic
// workload at Jobs = 1/2/4. Aggregates are identical across thread counts
// (tests/ParallelSweepTests.cpp enforces this); only wall clock should
// move. Real time is what matters for a multithreaded region, hence
// UseRealTime. On a single-core machine expect ~1x.
static void BM_PoisoningSweepJobs(benchmark::State &State) {
  const BenchmarkDataset &Bench = mammo();
  SweepConfig Config;
  Config.Depths = {1, 2};
  Config.InstanceLimits.TimeoutSeconds = 5.0;
  Config.MaxPoisoning = 64;
  Config.Jobs = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    SweepResult Result = runPoisoningSweep(
        Bench.Split.Train, Bench.Split.Test, Bench.VerifyRows, Config);
    benchmark::DoNotOptimize(Result.Series.data());
  }
}
BENCHMARK(BM_PoisoningSweepJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Frontier-parallel scaling of a single hard query: one deep Disjuncts
// verification whose per-depth frontiers are large enough to fan out, at
// FrontierJobs = 1/2/4. The certificate (and every counter in it) is
// identical across thread counts (tests/FrontierParallelTests.cpp
// enforces this); only real time should move, and only on multi-core
// machines — hence UseRealTime, and expect ~1x on a single core.
static void BM_VerifyFrontierJobs(benchmark::State &State) {
  VerifierConfig Config;
  Config.Depth = 3;
  Config.Domain = AbstractDomainKind::Disjuncts;
  Config.Limits.TimeoutSeconds = 30.0;
  Config.FrontierJobs = static_cast<unsigned>(State.range(0));
  std::unique_ptr<ThreadPool> Pool =
      makeVerificationPool(Config.FrontierJobs);
  Config.FrontierPool = Pool.get();
  const float *X = mammo().Split.Test.row(1);
  for (auto _ : State) {
    Certificate Cert = mammoVerifier().verify(X, /*PoisoningBudget=*/16,
                                              Config);
    benchmark::DoNotOptimize(Cert.Kind);
  }
}
BENCHMARK(BM_VerifyFrontierJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The serving layer's value proposition: most serving traffic repeats
// queries, and a warm fingerprint-keyed cache short-circuits a repeat to
// one hash probe. Arg(0) re-verifies a fixed batch of queries from
// scratch every iteration (a cache-less server); Arg(1) runs the same
// batch against a cache warmed by a single seeding pass, so every timed
// query is a hit. The speedup is hash-probe vs full verification and
// therefore shows on any machine, single-core containers included —
// unlike the Jobs scaling benches, no second core is needed. Cached
// certificates are byte-identical to the seeding run's
// (tests/CertCacheTests.cpp enforces it); the `hit_rate` counter
// reports the timed passes' hit fraction (1.0 once warm).
static void BM_CacheHitRate(benchmark::State &State) {
  bool Warm = State.range(0);
  VerifierConfig Config;
  Config.Depth = 2;
  Config.Domain = AbstractDomainKind::Disjuncts;
  Config.Limits.TimeoutSeconds = 5.0;
  const BenchmarkDataset &Bench = mammo();
  std::vector<const float *> Inputs;
  for (size_t I = 0; I < 8 && I < Bench.VerifyRows.size(); ++I)
    Inputs.push_back(Bench.Split.Test.row(Bench.VerifyRows[I]));

  CertCache Cache(/*MaxBytes=*/0);
  uint64_t HitsBefore = 0;
  if (Warm) {
    Config.Cache = &Cache;
    // Seeding pass: misses verify and populate; everything after hits.
    mammoVerifier().verifyBatch(Inputs, /*PoisoningBudget=*/8, Config);
    HitsBefore = Cache.stats().Hits;
  }
  uint64_t Served = 0;
  for (auto _ : State) {
    std::vector<Certificate> Certs =
        mammoVerifier().verifyBatch(Inputs, /*PoisoningBudget=*/8, Config);
    benchmark::DoNotOptimize(Certs.data());
    Served += Certs.size();
  }
  State.counters["hit_rate"] =
      Served ? static_cast<double>(Cache.stats().Hits - HitsBefore) /
                   static_cast<double>(Served)
             : 0.0;
}
BENCHMARK(BM_CacheHitRate)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The persistence tier's value proposition: certificates outlive the
// process, so a *restarted* server answers yesterday's queries from
// disk instead of re-verifying them. Arg(0) is the restarted cold
// process with no store (re-verifies the batch); Arg(1) simulates a
// cold-process/warm-disk restart every iteration — open a fresh
// `DiskCertStore` on a directory a one-time seeding pass populated
// (paying the full index rebuild), then serve the batch from disk.
// Like BM_CacheHitRate this needs no second core: the speedup is
// (open + pread + checksum) vs full verification. The `disk_hit_rate`
// counter is the correctness signal (1.0 once warm; certificates are
// byte-identical to the seeding run's —
// tests/DiskCertStoreTests.cpp enforces it).
static void BM_DiskStoreHitRate(benchmark::State &State) {
  bool Warm = State.range(0);
  VerifierConfig Config;
  Config.Depth = 2;
  Config.Domain = AbstractDomainKind::Disjuncts;
  Config.Limits.TimeoutSeconds = 5.0;
  const BenchmarkDataset &Bench = mammo();
  std::vector<const float *> Inputs;
  for (size_t I = 0; I < 8 && I < Bench.VerifyRows.size(); ++I)
    Inputs.push_back(Bench.Split.Test.row(Bench.VerifyRows[I]));

  // One warm store directory per process, seeded once.
  static const std::string StoreDir = [] {
    char Template[] = "/tmp/antidote-bench-store-XXXXXX";
    const char *Dir = mkdtemp(Template);
    return std::string(Dir ? Dir : "/tmp/antidote-bench-store");
  }();
  if (Warm) {
    DiskCertStore::OpenResult Seeded = DiskCertStore::open(StoreDir);
    if (!Seeded.ok()) {
      State.SkipWithError(Seeded.Error.c_str());
      return;
    }
    if (Seeded.Store->stats().LiveRecords < Inputs.size()) {
      VerifierConfig SeedConfig = Config;
      SeedConfig.Cache = Seeded.Store.get();
      mammoVerifier().verifyBatch(Inputs, /*PoisoningBudget=*/8,
                                  SeedConfig);
    }
  }
  uint64_t Served = 0, DiskHits = 0;
  for (auto _ : State) {
    std::unique_ptr<DiskCertStore> Restarted;
    if (Warm) {
      // The restart: a fresh process would rebuild the index from the
      // segments exactly like this.
      DiskCertStore::OpenResult Opened = DiskCertStore::open(StoreDir);
      if (!Opened.ok()) {
        State.SkipWithError(Opened.Error.c_str());
        return;
      }
      Restarted = std::move(Opened.Store);
      Config.Cache = Restarted.get();
    }
    std::vector<Certificate> Certs =
        mammoVerifier().verifyBatch(Inputs, /*PoisoningBudget=*/8, Config);
    benchmark::DoNotOptimize(Certs.data());
    Served += Certs.size();
    if (Restarted)
      DiskHits += Restarted->stats().Hits;
  }
  State.counters["disk_hit_rate"] =
      Served ? static_cast<double>(DiskHits) / static_cast<double>(Served)
             : 0.0;
}
BENCHMARK(BM_DiskStoreHitRate)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The delta-tolerant serving path's value proposition: after a small
// training-set edit, queries are answered from the *parent* dataset's
// stored certificates (two hash probes, via the removal-slack rule of
// data/Fingerprint.h) instead of re-verified from scratch. Arg(0)
// re-verifies a fixed batch against the edited dataset every iteration
// (what a delta-blind server must do after any edit invalidates its
// fingerprint); Arg(1) serves the same batch through the slack rule
// from a cache the parent seeded at radius n + 1. Only queries the
// parent proves Robust at the slack radius participate (slack never
// serves Unknown), so the `delta_hit_rate` counter — the fraction of
// served answers carrying a parent radius wider than the queried
// budget — is 1.0 once warm, and the speedup shows single-core.
static void BM_DeltaHitRate(benchmark::State &State) {
  bool Warm = State.range(0);
  VerifierConfig Config;
  Config.Depth = 2;
  Config.Domain = AbstractDomainKind::Disjuncts;
  Config.Limits.TimeoutSeconds = 5.0;
  const BenchmarkDataset &Bench = mammo();

  // The edited dataset: the parent minus its first training row.
  Dataset Child = Bench.Split.Train;
  Child.markLineage();
  Child.removeRow(0);
  Verifier ChildVerifier(Child);

  CertCache Cache(/*MaxBytes=*/0);
  std::vector<const float *> Inputs;
  {
    // Seed the parent's entries at the slack radius 1 + 1 and keep the
    // queries it proves Robust there — the ones the slack rule serves.
    VerifierConfig SeedConfig = Config;
    SeedConfig.Cache = &Cache;
    for (size_t I = 0; I < 8 && I < Bench.VerifyRows.size(); ++I) {
      const float *X = Bench.Split.Test.row(Bench.VerifyRows[I]);
      if (mammoVerifier().verify(X, /*PoisoningBudget=*/2, SeedConfig)
              .Kind == VerdictKind::Robust)
        Inputs.push_back(X);
    }
  }
  if (Warm) {
    Config.Cache = &Cache;
    ChildVerifier.setLineage(
        lineageSinceMark(mammoVerifier().fingerprint(), Child));
  }
  uint64_t Served = 0, SlackServed = 0;
  for (auto _ : State) {
    std::vector<Certificate> Certs =
        ChildVerifier.verifyBatch(Inputs, /*PoisoningBudget=*/1, Config);
    benchmark::DoNotOptimize(Certs.data());
    for (const Certificate &Cert : Certs)
      SlackServed += Cert.CertifiedRadius > Cert.PoisoningBudget;
    Served += Certs.size();
  }
  State.counters["delta_hit_rate"] =
      Served ? static_cast<double>(SlackServed) / static_cast<double>(Served)
             : 0.0;
}
BENCHMARK(BM_DeltaHitRate)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
