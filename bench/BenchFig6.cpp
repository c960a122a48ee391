//===- bench/BenchFig6.cpp - Figure 6 reproduction -----------------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// Regenerates Figure 6: for each of the five benchmark datasets, the
// fraction of test inputs proven robust as a function of the poisoning
// parameter n (log-scaled in the paper), at tree depths 1-4, counting an
// instance as verified if *either* the box or the disjunctive domain
// proves it (the paper's parallel-domain setup).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "antidote/Report.h"
#include "serving/CertCache.h"

#include "support/Timer.h"

#include <cstdio>

using namespace antidote;
using namespace antidote::benchutil;

int main() {
  BenchScale Scale = benchScaleFromEnv();
  Timer Total;
  std::printf("=== Figure 6 reproduction: fraction verified vs poisoning n "
              "===\n");
  std::printf("scale: %s\n\n", Scale == BenchScale::Full ? "full" : "scaled");

  for (const std::string &Name : benchmarkDatasetNames()) {
    SweepConfig Config =
        Scale == BenchScale::Full ? paperScaleConfig() : scaledConfig();
    if (Scale != BenchScale::Full) {
      // Keep the whole five-dataset sweep within a few minutes: trim the
      // most expensive corner (MNIST-like with real features).
      if (Name == "mnist17-real") {
        Config.Depths = {1, 2};
        Config.InstanceLimits.TimeoutSeconds = 1.5;
      } else if (Name == "mnist17-binary") {
        Config.InstanceLimits.TimeoutSeconds = 0.75;
      }
    }
    std::unique_ptr<CertCache> Cache = applyEnvKnobs(Config);
    BenchmarkDataset Bench = loadBenchmarkDataset(Name, Scale);
    std::printf("### %s (train %u, verifying %zu inputs; jobs %u, frontier "
                "jobs %u, cert cache %s) ###\n",
                Name.c_str(), Bench.Split.Train.numRows(),
                Bench.VerifyRows.size(), Config.Jobs, Config.FrontierJobs,
                Cache ? "on" : "off");
    SweepResult Result = runPoisoningSweep(
        Bench.Split.Train, Bench.Split.Test, Bench.VerifyRows, Config);
    printFractionVerifiedSeries(Name, Result, Config.Depths);
    if (Cache)
      std::printf("certificate cache: %s\n\n",
                  Cache->stats().summary().c_str());
  }

  std::printf("paper-reported shape: every dataset verifies a sizable "
              "fraction at small n;\nthe fraction decays with n; depth 1 "
              "on iris is the outlier (footnote 10's\n50/50 leaf) where "
              "almost nothing verifies; MNIST variants sustain the\n"
              "largest absolute n before the cliff (hundreds of elements "
              "at paper scale).\n");
  std::printf("\ntotal bench time: %s\n", formatSeconds(Total.seconds())
                                              .c_str());
  return 0;
}
