//===- perfbench/src/WorkloadReplica.cpp - The replica-catchup workload ---===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// replica-catchup: the store's write path. Set-up seeds a source
/// `DiskCertStore` with real certificates (mammography queries made from
/// the seed, verified on every core and written through), reopens it —
/// the index rebuild — and serves it with a `NetServer`. The measured
/// phase then starts fresh replicas, one after another, and drives
/// `Replicator::pollOnce` until each has caught up: journal serving on
/// the source, validated apply and appends on the replica.
///
/// After each catch-up the replica's live record count must equal the
/// source's, and sampled lookups must return byte-identical certificates
/// from both stores.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Queries.h"
#include "Stats.h"
#include "Stores.h"

#include "data/Registry.h"
#include "serving/DiskCertStore.h"
#include "serving/NetServer.h"
#include "serving/Replicator.h"
#include "support/MemoryUsage.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>

using namespace antidote;

namespace perfbench {

namespace {

struct Query {
  std::vector<float> X;
  uint32_t N = 0;
};

/// Byte-for-byte equality, timings included: a replicated record must be
/// the source's record.
bool identical(const Certificate &A, const Certificate &B) {
  return sameCertificate(A, B) &&
         std::memcmp(&A.Seconds, &B.Seconds, sizeof(double)) == 0;
}

/// The serving side of one set-up.
struct Source {
  std::unique_ptr<DiskCertStore> Store;
  std::unique_ptr<ObservedStore> Observed;
  std::unique_ptr<CertServer> Server;
  std::unique_ptr<NetServer> Net;

  void reset() {
    Net.reset();
    Server.reset();
    Observed.reset();
    Store.reset();
  }
};

/// One catch-up's outcome.
struct CatchUp {
  double Seconds = 0.0;
  std::vector<TimedCall> Polls;
  ReplicatorStats Stats;
  std::vector<TimedCall> Applies; ///< Traced runs only.
};

} // namespace

RunResult runReplicaCatchup(const RunOptions &O) {
  RunResult R;
  const size_t NumQueries = O.Tiny ? 400 : 30000;
  const size_t Samples = O.Tiny ? 50 : 500;
  namespace fs = std::filesystem;
  const fs::path Root =
      fs::path(O.WorkDir) / ("replica-catchup-" + std::to_string(O.Seed));
  std::error_code Ignored;
  fs::remove_all(Root, Ignored);

  VerifierConfig Config;
  Config.Depth = 2;
  Config.Domain = AbstractDomainKind::Disjuncts;

  // Set-up, five times: dataset and verifier, seeding the source store
  // through a write-through verify batch, reopening it (the index
  // rebuild), and starting the server. The last one serves the run.
  SpanLog Log;
  BenchmarkDataset B;
  std::unique_ptr<Verifier> V;
  std::vector<Query> Queries;
  Source Src;
  std::vector<double> Setups, Opens, Loads;
  std::unique_ptr<ThreadPool> Pool;
  if (O.Nproc > 1)
    Pool = std::make_unique<ThreadPool>(O.Nproc - 1);
  for (int K = 0; K < 5; ++K) {
    Src.reset();
    V.reset();
    double Start = nowSeconds();
    B = loadBenchmarkDataset("mammography", BenchScale::Scaled);
    Loads.push_back(secondsSince(Start));
    Log.add("data.load", Start, Start + Loads.back());
    V = std::make_unique<Verifier>(B.Split.Train);
    const Dataset &Train = B.Split.Train;
    const unsigned F = Train.numFeatures();
    Rng Random(O.Seed * 0x2545F4914F6CDD1Dull + 99);
    Queries.assign(NumQueries, Query());
    std::vector<float> Lo(F), Hi(F);
    for (unsigned J = 0; J < F; ++J) {
      const float *Col = Train.column(J);
      Lo[J] = *std::min_element(Col, Col + Train.numRows());
      Hi[J] = *std::max_element(Col, Col + Train.numRows());
    }
    std::map<uint32_t, std::vector<const float *>> ByBudget;
    for (Query &Q : Queries) {
      Q.X.resize(F);
      for (unsigned J = 0; J < F; ++J)
        Q.X[J] = static_cast<float>(Random.uniform(Lo[J], Hi[J]));
      Q.N = 1u << Random.uniformInt(4);
      ByBudget[Q.N].push_back(Q.X.data());
    }

    fs::path Dir = Root / ("source-" + std::to_string(K));
    fs::create_directories(Dir, Ignored);
    {
      DiskCertStore::OpenResult Seed = DiskCertStore::open(Dir.string());
      if (!Seed.ok()) {
        R.fail("cannot open the source store: " + Seed.Error);
        return R;
      }
      VerifierConfig WriteThrough = Config;
      WriteThrough.Cache = Seed.Store.get();
      for (const auto &[N, Inputs] : ByBudget)
        V->verifyBatch(Inputs, N, WriteThrough, Pool.get());
    }
    double OpenStart = nowSeconds();
    DiskCertStore::OpenResult Reopened = DiskCertStore::open(Dir.string());
    Opens.push_back(secondsSince(OpenStart));
    Log.add("serving.store.open", OpenStart, OpenStart + Opens.back());
    if (!Reopened.ok()) {
      R.fail("cannot reopen the source store: " + Reopened.Error);
      return R;
    }
    Src.Store = std::move(Reopened.Store);
    CertificateStore *Served = Src.Store.get();
    if (O.Trace) {
      Src.Observed = std::make_unique<ObservedStore>(*Src.Store);
      Served = Src.Observed.get();
    }
    CertServerConfig SC;
    SC.Query = Config;
    SC.Jobs = 1;
    SC.Store = Served;
    Src.Server = std::make_unique<CertServer>(Train, SC);
    Src.Net = std::make_unique<NetServer>(*Src.Server, NetServerConfig());
    std::string Error;
    if (!Src.Net->start(Error)) {
      R.fail("cannot start the source server: " + Error);
      return R;
    }
    Setups.push_back(secondsSince(Start));
  }
  const StoreStats SourceStats = Src.Store->stats();
  std::printf("replica: source holds %llu records, %llu bytes, %llu "
              "segments\n",
              static_cast<unsigned long long>(SourceStats.LiveRecords),
              static_cast<unsigned long long>(SourceStats.LiveBytes),
              static_cast<unsigned long long>(SourceStats.Segments));

  // Sampled keys for the byte-identity check, from the seed.
  Rng Pick(O.Seed + 7);
  std::vector<size_t> Sampled;
  for (size_t I = 0; I < Samples; ++I)
    Sampled.push_back(Pick.uniformInt(Queries.size()));

  int Replicas = 0;
  auto RunCatchUp = [&](bool Observe) {
    CatchUp C;
    fs::path Dir = Root / ("replica-" + std::to_string(Replicas++));
    fs::create_directories(Dir, Ignored);
    DiskCertStore::OpenResult Opened = DiskCertStore::open(Dir.string());
    if (!Opened.ok()) {
      R.fail("cannot open a replica store: " + Opened.Error);
      return C;
    }
    std::unique_ptr<ObservedStore> Observed;
    CertificateStore *Local = Opened.Store.get();
    if (Observe) {
      Observed = std::make_unique<ObservedStore>(*Opened.Store);
      Local = Observed.get();
    }
    ReplicatorConfig RC;
    RC.Port = Src.Net->port();
    {
      Replicator Rep(*Local, RC);
      double Start = nowSeconds();
      bool More = true;
      std::string Error;
      while (More) {
        double PollStart = nowSeconds();
        bool Ok = Rep.pollOnce(More, Error);
        C.Polls.push_back({PollStart, nowSeconds()});
        if (!Ok) {
          R.fail("replication poll failed: " + Error);
          break;
        }
      }
      C.Seconds = secondsSince(Start);
      C.Stats = Rep.stats();
    }
    if (Observed)
      C.Applies = Observed->endpoint().applies();
    R.Attempted += C.Stats.Applied + C.Stats.Duplicates + C.Stats.Corrupt +
                   C.Stats.Errors;
    R.Failed += C.Stats.Corrupt + C.Stats.Errors;

    StoreStats Replica = Opened.Store->stats();
    if (Replica.LiveRecords != SourceStats.LiveRecords)
      R.fail("replica holds " + std::to_string(Replica.LiveRecords) +
             " records, the source " +
             std::to_string(SourceStats.LiveRecords));
    for (size_t I : Sampled) {
      const Query &Q = Queries[I];
      Certificate FromSource, FromReplica;
      unsigned F = V->trainingSet().numFeatures();
      bool InSource = Src.Store->lookup(V->fingerprint(), Q.X.data(), F, Q.N,
                                        Config, FromSource);
      bool InReplica = Opened.Store->lookup(V->fingerprint(), Q.X.data(), F,
                                            Q.N, Config, FromReplica);
      if (!InSource || !InReplica || !identical(FromSource, FromReplica)) {
        R.fail("sampled key " + std::to_string(I) +
               " differs between source and replica");
        break;
      }
    }
    Opened.Store.reset();
    fs::remove_all(Dir, Ignored);
    return C;
  };

  RunCatchUp(false); // Warm-up: page cache and connection paths.

  if (!O.Trace) {
    std::vector<double> Times;
    size_t Polls = 0;
    double Begin = nowSeconds();
    do {
      CatchUp C = RunCatchUp(false);
      Times.push_back(C.Seconds);
      Polls = C.Polls.size();
    } while (secondsSince(Begin) < O.Seconds);
    std::printf("replica: %zu timed catch-ups of %llu records in %zu polls, "
                "min %.4f s max %.4f s\n",
                Times.size(),
                static_cast<unsigned long long>(SourceStats.LiveRecords),
                Polls, *std::min_element(Times.begin(), Times.end()),
                *std::max_element(Times.begin(), Times.end()));
    printTimes("timed", Times);
    printTimes("set-up", Setups);
    R.add("setup_s", median(Setups), "s");
    R.add("op_ms", median(Times) * 1e3, "ms"); // One fresh replica's catch-up.
    R.add("peak_rss_mb", processPeakRssBytes() / 1e6, "MB");
  } else {
    R.add("data.load_s", median(Loads), "s");
    addSetupLayerMetrics(B.Split.Train, Log, R);
    R.add("serving.store.open_s", median(Opens), "s");
    CatchUp Plain = RunCatchUp(false);
    size_t Served0 = Src.Observed->endpoint().polls().size();
    CatchUp C = RunCatchUp(true);
    std::vector<TimedCall> Served = Src.Observed->endpoint().polls();
    Served.erase(Served.begin(), Served.begin() + Served0);

    long Root = -1;
    if (!C.Polls.empty())
      Root = Log.add("serving.repl.catchup", C.Polls.front().Start,
                     C.Polls.back().End);
    std::vector<double> PollMs, ServeMs, ApplyUs;
    std::vector<long> PollSpans;
    for (size_t I = 0; I < C.Polls.size(); ++I) {
      PollMs.push_back((C.Polls[I].End - C.Polls[I].Start) * 1e3);
      PollSpans.push_back(Log.add("serving.repl.poll", C.Polls[I].Start,
                                  C.Polls[I].End, Root, I + 1));
    }
    // Serve and apply calls nest inside the poll that made them.
    auto Nest = [&](const std::vector<TimedCall> &Calls, const char *Name,
                    std::vector<double> &Out, double Scale) {
      size_t P = 0;
      for (const TimedCall &T : Calls) {
        while (P + 1 < C.Polls.size() && C.Polls[P].End < T.Start)
          ++P;
        Out.push_back((T.End - T.Start) * Scale);
        Log.add(Name, T.Start, T.End, PollSpans.empty() ? -1 : PollSpans[P],
                P + 1);
      }
    };
    Nest(Served, "serving.repl.serve_poll", ServeMs, 1e3);
    Nest(C.Applies, "serving.repl.apply", ApplyUs, 1e6);
    R.add("serving.repl.polls", static_cast<double>(C.Stats.Polls), "count");
    R.add("serving.repl.records_per_poll",
          C.Stats.Polls ? static_cast<double>(C.Stats.Applied) / C.Stats.Polls
                        : 0.0,
          "count");
    R.add("serving.repl.poll_p50_ms", quantile(PollMs, 0.5), "ms");
    R.add("serving.repl.poll_p99_ms", quantile(PollMs, 0.99), "ms");
    R.add("serving.repl.serve_poll_p50_ms", quantile(ServeMs, 0.5), "ms");
    R.add("serving.repl.apply_p50_us", quantile(ApplyUs, 0.5), "us");
    R.add("serving.repl.corrupt", static_cast<double>(C.Stats.Corrupt),
          "count");
    R.add("serving.repl.errors", static_cast<double>(C.Stats.Errors),
          "count");
    R.add("trace.overhead_s", C.Seconds - Plain.Seconds, "s");
    addSelfTimeMetrics(Log, R);
    writeSpans(Log, O, "replica-catchup", R);
  }
  Src.reset();
  fs::remove_all(Root, Ignored);
  return R;
}

} // namespace perfbench
