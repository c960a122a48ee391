//===- perfbench/src/Queries.cpp - Per-layer analysis of verify queries ---===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "Queries.h"

#include "Stats.h"

#include "abstract/AbstractBestSplit.h"
#include "abstract/AbstractDTrace.h"
#include "abstract/AbstractFilter.h"
#include "data/Fingerprint.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <fstream>
#include <memory>

using namespace antidote;

namespace perfbench {

double secondsSince(double Start) { return nowSeconds() - Start; }

void addSetupLayerMetrics(const Dataset &Train, SpanLog &Log, RunResult &R) {
  double Start = nowSeconds();
  DatasetFingerprint F = fingerprintDataset(Train);
  double Mid = nowSeconds();
  SplitContext Ctx(Train);
  double End = nowSeconds();
  (void)F;
  Log.add("data.fingerprint", Start, Mid);
  Log.add("concrete.splitctx", Mid, End);
  R.add("data.fingerprint_s", Mid - Start, "s");
  R.add("concrete.splitctx_s", End - Mid, "s");
}

void addTraceLayerMetric(const Verifier &V,
                         const std::vector<QueryRecord> &Records,
                         SpanLog &Log, RunResult &R) {
  std::vector<double> Micros;
  for (size_t I = 0; I < Records.size(); ++I) {
    double Start = nowSeconds();
    TraceResult T = V.trace(Records[I].X.data(), Records[I].Config.Depth);
    double End = nowSeconds();
    (void)T;
    Log.add("concrete.trace", Start, End, -1, I + 1);
    Micros.push_back((End - Start) * 1e6);
  }
  R.add("concrete.trace_us", median(Micros), "us");
}

namespace {

struct EngineRun {
  double Engine = 0.0, BestSplit = 0.0, Filter = 0.0;
  double EngineStart = 0.0;
  bool Matches = true;
};

AbstractLearnerConfig learnerConfig(const VerifierConfig &C) {
  AbstractLearnerConfig L;
  L.Depth = C.Depth;
  L.Domain = C.Domain;
  L.Threat = C.Threat;
  L.Cprob = C.Cprob;
  L.Gini = C.Gini;
  L.DisjunctCap = C.DisjunctCap;
  L.Limits = C.Limits;
  return L;
}

} // namespace

void addQueryLayerMetrics(const Verifier &V,
                          const std::vector<QueryRecord> &Records,
                          unsigned Jobs, SpanLog &Log, long Parent,
                          RunResult &R) {
  std::vector<double> Millis;
  double Busy = 0.0;
  uint64_t Calls = 0, Terminals = 0, PeakDisjuncts = 0, PeakBytes = 0;
  for (size_t I = 0; I < Records.size(); ++I) {
    const QueryRecord &Q = Records[I];
    if (Q.End < 0) {
      R.fail("query " + std::to_string(I) + " never reached the store");
      continue;
    }
    Busy += Q.End - Q.Start;
    Millis.push_back((Q.End - Q.Start) * 1e3);
    Calls += Q.Cert.BestSplitCalls;
    Terminals += Q.Cert.NumTerminals;
    PeakDisjuncts = std::max<uint64_t>(PeakDisjuncts, Q.Cert.PeakDisjuncts);
    PeakBytes = std::max<uint64_t>(PeakBytes, Q.Cert.PeakStateBytes);
  }
  R.add("antidote.verify.calls", static_cast<double>(Records.size()), "count");
  R.add("antidote.verify.busy_s", Busy, "s");
  R.add("antidote.verify.p50_ms", median(Millis), "ms");
  R.add("antidote.verify.max_ms",
        Millis.empty() ? 0.0 : *std::max_element(Millis.begin(), Millis.end()),
        "ms");
  R.add("abstract.bestsplit_calls", static_cast<double>(Calls), "count");
  R.add("abstract.terminals", static_cast<double>(Terminals), "count");
  R.add("abstract.peak_disjuncts", static_cast<double>(PeakDisjuncts),
        "count");
  R.add("abstract.peak_state_mb", PeakBytes / 1e6, "MB");

  // The engine and its two kernels, called directly on each root state.
  std::vector<EngineRun> Runs(Records.size());
  std::unique_ptr<ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Jobs - 1);
  parallelFor(Pool.get(), Records.size(), [&](size_t I) {
    const QueryRecord &Q = Records[I];
    AbstractLearnerConfig L = learnerConfig(Q.Config);
    AbstractDataset Root =
        AbstractDataset::entire(V.trainingSet(), Q.Budget);
    EngineRun &E = Runs[I];
    E.EngineStart = nowSeconds();
    {
      AbstractLearnerResult Run =
          runAbstractDTrace(V.context(), Root, Q.X.data(), L);
      E.Engine = secondsSince(E.EngineStart);
      E.Matches = Run.NumTerminals == Q.Cert.NumTerminals &&
                  Run.PeakDisjuncts == Q.Cert.PeakDisjuncts &&
                  Run.PeakStateBytes == Q.Cert.PeakStateBytes &&
                  Run.BestSplitCalls == Q.Cert.BestSplitCalls &&
                  Run.DominatingClass == Q.Cert.DominatingClass;
    }
    double Start = nowSeconds();
    std::optional<PredicateSet> Preds =
        abstractBestSplit(V.context(), Root, L.Cprob, L.Gini);
    E.BestSplit = secondsSince(Start);
    if (Preds) {
      Start = nowSeconds();
      AbstractDataset Child = abstractFilter(Root, *Preds, Q.X.data());
      E.Filter = secondsSince(Start);
    }
  });

  double Engine = 0.0, Share = 0.0;
  std::vector<double> BestSplitMs, FilterMs;
  for (size_t I = 0; I < Runs.size(); ++I) {
    const EngineRun &E = Runs[I];
    Engine += E.Engine;
    Log.add("abstract.engine", E.EngineStart, E.EngineStart + E.Engine,
            Parent, I + 1);
    BestSplitMs.push_back(E.BestSplit * 1e3);
    FilterMs.push_back(E.Filter * 1e3);
    Share += Records[I].Cert.BestSplitCalls * E.BestSplit;
    if (!E.Matches)
      R.fail("direct engine run of query " + std::to_string(I) +
             " disagrees with its certificate's counters");
  }
  auto Mean = [](const std::vector<double> &V) {
    double Sum = 0.0;
    for (double X : V)
      Sum += X;
    return V.empty() ? 0.0 : Sum / V.size();
  };
  R.add("abstract.engine_s", Engine, "s");
  R.add("abstract.bestsplit_root_ms", Mean(BestSplitMs), "ms");
  R.add("abstract.filter_root_ms", Mean(FilterMs), "ms");
  R.add("abstract.bestsplit_share", Busy > 0 ? Share / Busy : 0.0, "ratio");
}

void checkGolden(const RunOptions &Options, const std::string &Name,
                 const std::vector<std::string> &Lines, RunResult &R) {
  std::string Path = Options.GoldenDir + "/" + Name;
  if (Options.RecordGolden) {
    std::ofstream Out(Path);
    for (const std::string &L : Lines)
      Out << L << "\n";
    if (!Out.flush())
      R.fail("cannot write golden " + Path);
    return;
  }
  std::ifstream In(Path);
  if (!In) {
    R.fail("cannot read golden " + Path);
    return;
  }
  std::vector<std::string> Golden;
  for (std::string L; std::getline(In, L);)
    if (!L.empty() && L[0] != '#')
      Golden.push_back(L);
  for (size_t I = 0; I < std::max(Golden.size(), Lines.size()); ++I) {
    std::string Want = I < Golden.size() ? Golden[I] : "(nothing)";
    std::string Got = I < Lines.size() ? Lines[I] : "(nothing)";
    if (Want != Got) {
      R.fail(Name + " line " + std::to_string(I + 1) + ": expected '" +
             Want + "', got '" + Got + "'");
      return;
    }
  }
}

bool sameCertificate(const Certificate &A, const Certificate &B) {
  return A.Kind == B.Kind && A.PoisoningBudget == B.PoisoningBudget &&
         A.CertifiedRadius == B.CertifiedRadius && A.Depth == B.Depth &&
         A.Domain == B.Domain && A.Threat == B.Threat &&
         A.ConcretePrediction == B.ConcretePrediction &&
         A.DominatingClass == B.DominatingClass &&
         A.NumTerminals == B.NumTerminals &&
         A.PeakDisjuncts == B.PeakDisjuncts &&
         A.PeakStateBytes == B.PeakStateBytes &&
         A.BestSplitCalls == B.BestSplitCalls;
}

void addSelfTimeMetrics(const SpanLog &Log, RunResult &R) {
  std::map<std::string, double> Self = selfTimes(Log.spans());
  std::map<std::string, double> ByLayer;
  for (const auto &[Name, Seconds] : Self)
    ByLayer[Name.substr(0, Name.find('.'))] += Seconds;
  for (const char *Layer :
       {"data", "concrete", "abstract", "antidote", "serving"})
    R.add(std::string("trace.self.") + Layer + "_s", ByLayer[Layer], "s");
  R.add("trace.spans", static_cast<double>(Log.size()), "count");
}

void writeSpans(const SpanLog &Log, const RunOptions &Options,
                const std::string &Workload, RunResult &R) {
  std::string Path = Options.WorkDir + "/trace-" + Workload + "-" +
                     std::to_string(Options.Seed) + ".json";
  if (!Log.write(Path))
    R.fail("cannot write spans to " + Path);
  else
    std::printf("spans: %zu written to %s\n", Log.size(), Path.c_str());
}

} // namespace perfbench
