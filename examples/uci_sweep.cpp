//===- examples/uci_sweep.cpp - Sweep a benchmark or CSV dataset --------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// Runs the paper's §6.1 experimental protocol against one of the built-in
// benchmark datasets or a user-provided CSV file, and prints the
// fraction-verified curve (one row of the paper's Figure 6).
//
// Usage:
//   uci_sweep [--jobs N] [--frontier-jobs N] [--threat removal|flip]
//             [dataset-name]
//   uci_sweep [--jobs N] [--frontier-jobs N] --csv train.csv test.csv
//
// The serving knobs (cache, disk store, threat model, parallelism) come
// from the shared ServingOptions table — the same flags and ANTIDOTE_*
// env twins as antidote_cli. The process-role knobs (--listen,
// --replicate-from) parse but are refused: a sweep is a batch job, not
// a server.
//
//===----------------------------------------------------------------------===//

#include "antidote/Report.h"
#include "antidote/Sweep.h"
#include "data/Csv.h"
#include "data/Registry.h"
#include "serving/CertCache.h"
#include "serving/DiskCertStore.h"
#include "serving/ServingOptions.h"
#include "serving/TieredStore.h"
#include "support/Parse.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

using namespace antidote;

static void printUsage(const char *Program) {
  std::printf("usage: %s [serving knobs...] [dataset-name]\n", Program);
  std::printf("       %s [serving knobs...] --csv <train.csv> "
              "<test.csv>\n\n",
              Program);
  ServingOptions::printHelp(stdout);
  std::printf("\n--listen and --replicate-from are refused: a sweep is "
              "a batch job,\nnot a server (use antidote_cli for "
              "those).\n");
  std::printf("built-in datasets:");
  for (const std::string &Name : benchmarkDatasetNames())
    std::printf(" %s", Name.c_str());
  std::printf("\n");
}

int main(int Argc, char **Argv) {
  Dataset Train, Test;
  std::vector<uint32_t> VerifyRows;
  std::string Name = "mammography";
  const char *Program = Argv[0];

  // The shared serving knobs (env twins first, then flags — see
  // serving/ServingOptions.h); the remaining arguments keep their
  // historical positional meaning.
  ServingOptions Serving;
  if (!Serving.parse(Argc, Argv))
    return 1;
  // A sweep has no server role: refuse the flags that would imply one
  // instead of silently ignoring them.
  if (Serving.Listen) {
    std::fprintf(stderr, "error: --listen is antidote_cli's job; a "
                         "sweep is a batch process\n");
    return 1;
  }
  if (Serving.Replicate) {
    std::fprintf(stderr, "error: --replicate-from is antidote_cli's "
                         "job; a sweep is a batch process\n");
    return 1;
  }

  if (Argc >= 2 && std::strcmp(Argv[1], "--help") == 0) {
    printUsage(Program);
    return 0;
  }
  if (Argc >= 2 && std::strcmp(Argv[1], "--csv") == 0) {
    if (Argc < 4) {
      printUsage(Program);
      return 1;
    }
    CsvLoadResult TrainResult = loadCsvDataset(Argv[2]);
    if (!TrainResult.succeeded()) {
      std::fprintf(stderr, "error: %s\n", TrainResult.Error.c_str());
      return 1;
    }
    CsvLoadResult TestResult =
        loadCsvDataset(Argv[3], TrainResult.Data->schema());
    if (!TestResult.succeeded()) {
      std::fprintf(stderr, "error: %s\n", TestResult.Error.c_str());
      return 1;
    }
    Train = std::move(*TrainResult.Data);
    Test = std::move(*TestResult.Data);
    for (uint32_t Row = 0; Row < Test.numRows(); ++Row)
      VerifyRows.push_back(Row);
    Name = Argv[2];
  } else {
    if (Argc >= 2) {
      if (Argv[1][0] == '-') {
        std::fprintf(stderr, "error: unknown flag '%s'\n", Argv[1]);
        return 1;
      }
      Name = Argv[1];
    }
    BenchmarkDataset Bench = loadBenchmarkDataset(Name, BenchScale::Scaled);
    Train = std::move(Bench.Split.Train);
    Test = std::move(Bench.Split.Test);
    VerifyRows = std::move(Bench.VerifyRows);
  }

  std::printf("=== Poisoning-robustness sweep: %s (threat %s) ===\n",
              Name.c_str(), threatModelName(Serving.Threat));
  std::printf("train %u rows x %u features, verifying %zu test inputs, "
              "%u job(s), %u frontier job(s)\n",
              Train.numRows(), Train.numFeatures(), VerifyRows.size(),
              Serving.Jobs, Serving.FrontierJobs);
  if (Serving.Threat == ThreatModelKind::LabelFlip)
    std::printf("note: box-domain cells are skipped — the flip "
                "class-probability transformer is sound only under the "
                "disjuncts domain\n");
  std::printf("\n");

  SweepConfig Config;
  Config.Depths = {1, 2};
  Config.Threat = Serving.Threat;
  Config.InstanceLimits.TimeoutSeconds = 2.0;
  Config.MaxPoisoning = Train.numRows();
  Config.Jobs = Serving.Jobs;
  Config.FrontierJobs = Serving.FrontierJobs;
  Config.DeltaSlack = Serving.DeltaSlack;
  // The store composition, shared with antidote_cli: RAM LRU in front,
  // persistent tier behind (--cache-dir / ANTIDOTE_CACHE_DIR — a re-run
  // of the same sweep answers its deterministic cells from disk), both
  // behind the abstract CertificateStore facade. Unusable paths fail
  // before hours of verification, not after.
  std::unique_ptr<CertCache> Cache;
  if (Serving.CacheEnabled)
    Cache = std::make_unique<CertCache>(Serving.CacheBytes);
  std::unique_ptr<DiskCertStore> DiskStore;
  if (!Serving.CacheDir.empty()) {
    DiskCertStoreOptions DiskOptions;
    DiskOptions.RetentionBytes = Serving.RetentionBytes;
    DiskCertStore::OpenResult Opened =
        DiskCertStore::open(Serving.CacheDir, DiskOptions);
    if (!Opened.ok()) {
      std::fprintf(stderr, "error: %s\n", Opened.Error.c_str());
      return 1;
    }
    DiskStore = std::move(Opened.Store);
  }
  TieredStore Tiered(Cache.get(), DiskStore.get());
  if (Cache || DiskStore)
    Config.Cache = &Tiered;
  SweepResult Result = runPoisoningSweep(Train, Test, VerifyRows, Config);

  for (unsigned Depth : Config.Depths) {
    std::printf("--- depth %u ---\n", Depth);
    TableWriter Table({"n", "box verified", "disjuncts verified",
                       "either (%)", "avg time (disj)"});
    for (uint32_t N : Result.attemptedPoisonings(Depth)) {
      unsigned BoxCount = 0, DisjCount = 0;
      double DisjSeconds = 0.0;
      unsigned DisjAttempted = 0;
      for (const SweepSeries &S : Result.Series) {
        if (S.Depth != Depth)
          continue;
        for (const SweepCell &Cell : S.Cells) {
          if (Cell.Poisoning != N)
            continue;
          if (S.DomainName == "box")
            BoxCount = Cell.Verified;
          if (S.DomainName == "disjuncts") {
            DisjCount = Cell.Verified;
            DisjSeconds = Cell.TotalSeconds;
            DisjAttempted = Cell.Attempted;
          }
        }
      }
      Table.addRow({std::to_string(N), std::to_string(BoxCount),
                    std::to_string(DisjCount),
                    formatPercent(Result.fractionVerified(Depth, N)),
                    formatSeconds(DisjAttempted
                                      ? DisjSeconds / DisjAttempted
                                      : 0.0)});
    }
    Table.print();
    std::printf("\n");
  }
  if (Cache)
    std::printf("certificate cache: %s\n",
                Cache->stats().summary().c_str());
  if (DiskStore)
    std::printf("certificate disk store: %s\n",
                DiskStore->stats().summary().c_str());
  return 0;
}
