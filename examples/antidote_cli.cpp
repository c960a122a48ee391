//===- examples/antidote_cli.cpp - Command-line verifier ----------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// A standalone command-line front end to the verifier, for certifying CSV
// datasets without writing any C++:
//
//   antidote_cli --train train.csv --query "5.1,3.5,1.4,0.2" --n 8
//                --depth 2 --domain disjuncts
//   antidote_cli --dataset mammography --row 3 --n 16 --threat flip
//   antidote_cli --dataset iris --all --n 4 --jobs 8
//   antidote_cli --dataset iris --serve --n 4 --cache-bytes 1048576
//   antidote_cli --dataset iris --listen 0 --n 4 --cache-dir store
//                --replicate-from primary:9000
//
// --threat picks the poisoning model (removal | flip); every mode —
// single query, --all, --serve, caching, the disk store — works under
// either, through the same Verifier stack.
//
// --serve turns the process into a warm certificate server: queries
// stream in on stdin (one "v1,v2,..." feature vector per line), are
// batched through one long-lived Verifier + thread pool, and repeated
// queries short-circuit to the fingerprint-keyed certificate store.
//
// The store is composed here, at the wiring layer: a RAM LRU
// (CertCache) in front of an optional persistent DiskCertStore behind
// one TieredStore facade — everything downstream (CertServer,
// NetServer, Replicator) holds only the abstract CertificateStore.
// --replicate-from turns a serving process into a replica that pulls
// the source's journal into its own --cache-dir.
//
// Exit code 0 = robust proven (with --all/--serve: every query proven),
// 1 = not proven, 2 = usage/load error.
//
//===----------------------------------------------------------------------===//

#include "data/Csv.h"
#include "data/Registry.h"
#include "serving/CertCache.h"
#include "serving/CertServer.h"
#include "serving/DiskCertStore.h"
#include "serving/NetServer.h"
#include "serving/Replicator.h"
#include "serving/ServingOptions.h"
#include "serving/TieredStore.h"
#include "support/Parse.h"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iostream>
#include <memory>
#include <string>
#include <type_traits>

using namespace antidote;

namespace {

/// Parsed command line: the shared serving knobs plus this front end's
/// own mode and verification flags.
struct CliOptions {
  ServingOptions Serving;
  std::string TrainCsv;
  std::string DatasetName;
  std::string QueryValues; ///< Comma-separated feature vector.
  int TestRow = -1;        ///< Row of the registry test split to query.
  bool AllRows = false;    ///< Verify every row of the test split.
  bool Serve = false;      ///< Serve stdin queries through a CertServer.
  uint32_t Budget = 1;
  unsigned Depth = 2;
  AbstractDomainKind Domain = AbstractDomainKind::Disjuncts;
  size_t DisjunctCap = 64;
  double TimeoutSeconds = 60.0;
};

void printUsage() {
  std::printf(
      "usage: antidote_cli (--train FILE.csv | --dataset NAME)\n"
      "                    (--query \"v1,v2,...\" | --row K | --all |"
      " --serve |\n"
      "                     --listen PORT)\n"
      "                    [--n N] [--depth D] [--domain box|disjuncts|"
      "capped]\n"
      "                    [--cap K] [--timeout SECONDS] [serving "
      "knobs...]\n\n"
      "  --train    training set CSV (features..., integer label)\n"
      "  --dataset  built-in benchmark:");
  for (const std::string &Name : benchmarkDatasetNames())
    std::printf(" %s", Name.c_str());
  std::printf(
      "\n"
      "  --query    feature vector of the input to certify\n"
      "  --row      use row K of the benchmark's test split\n"
      "  --all      certify every row of the test split\n"
      "  --serve    warm certificate server: read one query per line\n"
      "             (\"v1,v2,...\") from stdin, batch them through one\n"
      "             long-lived Verifier, cache repeated queries\n"
      "  --listen   network certificate server: bind 127.0.0.1:PORT\n"
      "             (0 = kernel-assigned, printed on startup) and speak\n"
      "             the length-prefixed binary protocol (see\n"
      "             examples/net_client.cpp); SIGINT/SIGTERM shut down\n"
      "             cleanly and print the net:/cache:/disk: stats; also\n"
      "             answers replication journal polls, so replicas can\n"
      "             pull this process's store\n"
      "\n"
      "verification knobs:\n"
      "  --n N            poisoning budget (at most the training-set "
      "size; default 1)\n"
      "  --depth D        decision-tree depth (default 2)\n"
      "  --domain D       abstract domain: box|disjuncts|capped "
      "(default disjuncts)\n"
      "  --cap K          disjunct cap, capped domain only (default "
      "64)\n"
      "  --timeout S      per-query wall-clock budget, seconds (0 = "
      "none; default 60)\n\n");
  ServingOptions::printHelp(stdout);
  std::printf(
      "\nreplication: --replicate-from needs --cache-dir (the journaled "
      "disk\nstore is the replication target) and --serve or --listen; "
      "replicated\ncertificates are byte-identical to the source's and "
      "pass the same\nchecksum/duplicate validation as local appends.\n");
}

bool parseArgs(int Argc, char **Argv, CliOptions &Options) {
  // The shared serving knobs first (env twins, then their flags);
  // whatever remains is this front end's own.
  if (!Options.Serving.parse(Argc, Argv))
    return false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--help" || Arg == "-h")
      return false;
    const char *Value = nullptr;
    if (Arg == "--all") {
      Options.AllRows = true;
      continue;
    }
    if (Arg == "--serve") {
      Options.Serve = true;
      continue;
    }
    if (!(Value = Next())) {
      std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
      return false;
    }
    // Every numeric flag parses checked: garbage must error out loudly,
    // not silently become 0 (bare atoi) or wrap through an unsigned cast.
    auto CountFlag = [&](uint64_t Max, auto &Out) {
      std::optional<uint64_t> Parsed = parseUnsignedArg(Value, Max);
      if (!Parsed) {
        std::fprintf(stderr,
                     "error: %s needs an unsigned integer <= %llu, got "
                     "'%s'\n",
                     Arg.c_str(), static_cast<unsigned long long>(Max),
                     Value);
        return false;
      }
      Out = static_cast<std::remove_reference_t<decltype(Out)>>(*Parsed);
      return true;
    };
    if (Arg == "--train")
      Options.TrainCsv = Value;
    else if (Arg == "--dataset")
      Options.DatasetName = Value;
    else if (Arg == "--query")
      Options.QueryValues = Value;
    else if (Arg == "--row") {
      if (!CountFlag(INT_MAX, Options.TestRow))
        return false;
    } else if (Arg == "--n") {
      if (!CountFlag(UINT32_MAX, Options.Budget))
        return false;
    } else if (Arg == "--depth") {
      if (!CountFlag(UINT_MAX, Options.Depth))
        return false;
    } else if (Arg == "--cap") {
      if (!CountFlag(SIZE_MAX, Options.DisjunctCap))
        return false;
    } else if (Arg == "--timeout") {
      std::optional<double> Parsed = parseDoubleArg(Value);
      if (!Parsed || *Parsed < 0.0) {
        std::fprintf(stderr,
                     "error: --timeout needs a finite number of seconds "
                     ">= 0, got '%s'\n",
                     Value);
        return false;
      }
      Options.TimeoutSeconds = *Parsed;
    } else if (Arg == "--domain") {
      if (std::strcmp(Value, "box") == 0)
        Options.Domain = AbstractDomainKind::Box;
      else if (std::strcmp(Value, "disjuncts") == 0)
        Options.Domain = AbstractDomainKind::Disjuncts;
      else if (std::strcmp(Value, "capped") == 0)
        Options.Domain = AbstractDomainKind::DisjunctsCapped;
      else {
        std::fprintf(stderr, "error: unknown domain '%s'\n", Value);
        return false;
      }
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
      return false;
    }
  }
  const ServingOptions &Serving = Options.Serving;
  bool HaveData = !Options.TrainCsv.empty() ^ !Options.DatasetName.empty();
  bool HaveQuery = !Options.QueryValues.empty() || Options.TestRow >= 0 ||
                   Options.AllRows || Options.Serve || Serving.Listen;
  if (!HaveData || !HaveQuery) {
    std::fprintf(stderr, "error: need one data source and one query "
                         "source\n");
    return false;
  }
  if (Options.AllRows && Options.DatasetName.empty()) {
    std::fprintf(stderr, "error: --all needs --dataset\n");
    return false;
  }
  if (Options.Serve && (Options.AllRows || !Options.QueryValues.empty() ||
                        Options.TestRow >= 0 || Serving.Listen)) {
    std::fprintf(stderr,
                 "error: --serve takes queries from stdin only\n");
    return false;
  }
  if (Serving.Listen && (Options.AllRows || !Options.QueryValues.empty() ||
                         Options.TestRow >= 0)) {
    std::fprintf(stderr,
                 "error: --listen takes queries from the socket only\n");
    return false;
  }
  if (Serving.Replicate) {
    if (Serving.CacheDir.empty()) {
      std::fprintf(stderr,
                   "error: --replicate-from needs --cache-dir (the "
                   "journaled disk store is the replication target)\n");
      return false;
    }
    if (!Options.Serve && !Serving.Listen) {
      std::fprintf(stderr,
                   "error: --replicate-from needs --serve or --listen "
                   "(a one-shot process has no time to replicate)\n");
      return false;
    }
  }
  if (!threatModel(Serving.Threat).supportsDomain(Options.Domain)) {
    std::fprintf(stderr,
                 "error: the %s threat model supports only the disjuncts "
                 "domain (its class-probability transformer is unsound "
                 "under box joins)\n",
                 threatModelName(Serving.Threat));
    return false;
  }
  return true;
}

/// Every store tier's stats line comes from the one shared
/// `StoreStats::summary()` rendering — the CI smokes grep these.
void printStoreLines(const CertCache *Cache, const DiskCertStore *Disk) {
  if (Cache)
    std::printf("cache: %s\n", Cache->stats().summary().c_str());
  if (Disk)
    std::printf("disk: %s\n", Disk->stats().summary().c_str());
}

/// The replica's transcript line, printed at shutdown; the CI
/// replication smoke pins `applied=` exactly.
void printReplStats(const ReplicatorStats &Stats) {
  std::printf("repl: polls=%llu applied=%llu duplicates=%llu "
              "corrupt=%llu epoch_resets=%llu errors=%llu\n",
              static_cast<unsigned long long>(Stats.Polls),
              static_cast<unsigned long long>(Stats.Applied),
              static_cast<unsigned long long>(Stats.Duplicates),
              static_cast<unsigned long long>(Stats.Corrupt),
              static_cast<unsigned long long>(Stats.EpochResets),
              static_cast<unsigned long long>(Stats.Errors));
}

/// The `CertServerConfig` of both serving modes (`--listen`, `--serve`):
/// the verification flags and serving knobs over the composed \p Store.
CertServerConfig serverConfig(const CliOptions &Options,
                              CertificateStore *Store) {
  const ServingOptions &Serving = Options.Serving;
  CertServerConfig Config;
  Config.Query.Depth = Options.Depth;
  Config.Query.Domain = Options.Domain;
  Config.Query.Threat = Serving.Threat;
  Config.Query.DisjunctCap = Options.DisjunctCap;
  Config.Query.Limits.TimeoutSeconds = Options.TimeoutSeconds;
  Config.Query.FrontierJobs = Serving.FrontierJobs;
  Config.Query.DeltaSlack = Serving.DeltaSlack;
  Config.Jobs = Serving.Jobs;
  Config.Store = Store;
  return Config;
}

/// Parses "v1,v2,..." into floats; returns false on malformed input.
bool parseQuery(const std::string &Text, unsigned NumFeatures,
                std::vector<float> &Query) {
  const char *Cursor = Text.c_str();
  while (*Cursor) {
    char *End = nullptr;
    float V = std::strtof(Cursor, &End);
    if (End == Cursor)
      return false;
    Query.push_back(V);
    Cursor = End;
    if (*Cursor == ',')
      ++Cursor;
  }
  return Query.size() == NumFeatures;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Options;
  if (!parseArgs(Argc, Argv, Options)) {
    printUsage();
    return 2;
  }
  const ServingOptions &Serving = Options.Serving;

  // Resolve the training set and query vector.
  Dataset Train;
  Dataset Test;
  if (!Options.TrainCsv.empty()) {
    CsvLoadResult Loaded = loadCsvDataset(Options.TrainCsv);
    if (!Loaded.succeeded()) {
      std::fprintf(stderr, "error: %s\n", Loaded.Error.c_str());
      return 2;
    }
    Train = std::move(*Loaded.Data);
  } else {
    BenchmarkDataset Bench =
        loadBenchmarkDataset(Options.DatasetName, benchScaleFromEnv());
    Train = std::move(Bench.Split.Train);
    Test = std::move(Bench.Split.Test);
  }
  if (Options.Budget > Train.numRows()) {
    std::fprintf(stderr,
                 "error: --n %u exceeds the %u-row training set (the "
                 "attacker cannot have contributed more rows than exist)\n",
                 Options.Budget, Train.numRows());
    return 2;
  }
  std::vector<float> Query;
  if (Options.AllRows || Options.Serve || Serving.Listen) {
    // --all resolves its inputs below; --serve reads them from stdin,
    // --listen from the socket.
  } else if (!Options.QueryValues.empty()) {
    if (!parseQuery(Options.QueryValues, Train.numFeatures(), Query)) {
      std::fprintf(stderr, "error: query must have %u numeric values\n",
                   Train.numFeatures());
      return 2;
    }
  } else {
    if (Test.numRows() == 0 ||
        Options.TestRow >= static_cast<int>(Test.numRows())) {
      std::fprintf(stderr, "error: --row requires a --dataset test split "
                           "with that many rows\n");
      return 2;
    }
    const float *Row = Test.row(static_cast<unsigned>(Options.TestRow));
    Query.assign(Row, Row + Train.numFeatures());
  }

  std::printf("training set: %u rows x %u features, %u classes\n",
              Train.numRows(), Train.numFeatures(), Train.numClasses());
  std::printf("threat model: %s (up to %u %s)\n",
              threatModelName(Serving.Threat), Options.Budget,
              Serving.Threat == ThreatModelKind::LabelFlip
                  ? "relabeled training rows"
                  : "attacker-contributed rows removed");

  // The store composition happens here, once, and everything below
  // holds only the abstract CertificateStore: a RAM LRU in front
  // (always on under --serve/--listen, opt-in otherwise), the
  // persistent tier behind (--cache-dir / ANTIDOTE_CACHE_DIR, with the
  // retention budget), both behind one TieredStore facade. An unusable
  // directory is a usage error — fail loudly now, not after hours of
  // verification.
  std::unique_ptr<DiskCertStore> DiskStore;
  if (!Serving.CacheDir.empty()) {
    DiskCertStoreOptions DiskOptions;
    DiskOptions.RetentionBytes = Serving.RetentionBytes;
    DiskCertStore::OpenResult Opened =
        DiskCertStore::open(Serving.CacheDir, DiskOptions);
    if (!Opened.ok()) {
      std::fprintf(stderr, "error: %s\n", Opened.Error.c_str());
      return 2;
    }
    DiskStore = std::move(Opened.Store);
  }
  bool WantCache = Serving.CacheEnabled || Options.Serve || Serving.Listen;
  std::unique_ptr<CertCache> Cache;
  if (WantCache)
    Cache = std::make_unique<CertCache>(Serving.CacheBytes);
  TieredStore Tiered(Cache.get(), DiskStore.get());
  CertificateStore *Store =
      (Cache || DiskStore) ? static_cast<CertificateStore *>(&Tiered)
                           : nullptr;

  // The replica side: a background puller appending the source's
  // journal records through the normal validated path. Wired against
  // the abstract store — replication() resolves to the disk tier.
  std::unique_ptr<Replicator> Repl;
  if (Serving.Replicate) {
    ReplicatorConfig ReplConfig;
    ReplConfig.Host = Serving.ReplicateHost;
    ReplConfig.Port = Serving.ReplicatePort;
    ReplConfig.IntervalSeconds = Serving.ReplicateInterval;
    Repl = std::make_unique<Replicator>(*Store, ReplConfig);
    std::string Error;
    if (!Repl->start(Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    std::printf("replicating from %s:%u every %g s\n",
                Serving.ReplicateHost.c_str(), Serving.ReplicatePort,
                Serving.ReplicateInterval);
  }

  if (Serving.Listen) {
    // Block the shutdown signals *before* the server threads spawn so
    // every thread inherits the mask and sigwait below is the only
    // consumer — the one portable way to both run an epoll loop and
    // shut down cleanly on SIGINT/SIGTERM.
    sigset_t ShutdownSigs;
    sigemptyset(&ShutdownSigs);
    sigaddset(&ShutdownSigs, SIGINT);
    sigaddset(&ShutdownSigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &ShutdownSigs, nullptr);

    CertServer Server(Train, serverConfig(Options, Store));

    NetServerConfig NetConfig;
    NetConfig.Port = Serving.ListenPort;
    NetConfig.MaxClients = Serving.MaxClients;
    NetConfig.ShedDepth = Serving.ShedDepth;
    NetConfig.ClientRate = Serving.ClientRate;
    NetConfig.ClientBurst = Serving.ClientBurst;
    NetServer Net(Server, NetConfig);
    std::string Error;
    if (!Net.start(Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    // The CI smoke (and any script) learns the kernel-assigned port
    // from this line; keep its shape stable.
    std::printf("listening on 127.0.0.1:%u (dataset %s, threat %s, %u "
                "features)\n",
                Net.port(), Server.verifier().fingerprint().hex().c_str(),
                threatModelName(Serving.Threat), Train.numFeatures());
    std::fflush(stdout);

    int Sig = 0;
    sigwait(&ShutdownSigs, &Sig);
    std::printf("signal %d: shutting down\n", Sig);
    if (Repl)
      Repl->stop();
    Net.stop();
    NetServerStats Stats = Net.stats();
    std::printf("net: accepted=%llu refused=%llu framing=%llu "
                "requests=%llu verified=%llu probe_hits=%llu "
                "shed_overload=%llu shed_paced=%llu bad_requests=%llu "
                "cancelled=%llu journal_polls=%llu\n",
                static_cast<unsigned long long>(Stats.Accepted),
                static_cast<unsigned long long>(Stats.RefusedClients),
                static_cast<unsigned long long>(Stats.FramingErrors),
                static_cast<unsigned long long>(Stats.Requests),
                static_cast<unsigned long long>(Stats.Verified),
                static_cast<unsigned long long>(Stats.ProbeHits),
                static_cast<unsigned long long>(Stats.ShedOverload),
                static_cast<unsigned long long>(Stats.ShedPaced),
                static_cast<unsigned long long>(Stats.BadArity),
                static_cast<unsigned long long>(Stats.Cancelled),
                static_cast<unsigned long long>(Stats.JournalPolls));
    if (Repl)
      printReplStats(Repl->stats());
    printStoreLines(Cache.get(), DiskStore.get());
    return 0;
  }

  if (Options.Serve) {
    CertServer Server(Train, serverConfig(Options, Store));
    std::printf("serving (dataset %s, threat %s): one query per line on "
                "stdin (%u comma-separated features), n=%u\n",
                Server.verifier().fingerprint().hex().c_str(),
                threatModelName(Serving.Threat), Train.numFeatures(),
                Options.Budget);

    // Responses stream back in submission order as they complete — an
    // interactive client sees answers while it is still typing queries,
    // and a long-running feed cannot pile up unbounded futures (past the
    // window, reading blocks on the oldest in-flight answer — natural
    // backpressure against a producer outpacing verification).
    std::deque<std::future<Certificate>> Pending;
    size_t Submitted = 0, Printed = 0;
    unsigned Robust = 0;
    auto PrintFront = [&] {
      Certificate Cert = Pending.front().get();
      Pending.pop_front();
      Robust += Cert.isRobust();
      std::printf("query %4zu: %s\n", Printed++, Cert.summary().c_str());
      std::fflush(stdout);
    };
    auto FlushReady = [&] {
      while (!Pending.empty() &&
             Pending.front().wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready)
        PrintFront();
    };
    const size_t MaxPending = 1024;

    std::string Line;
    size_t LineNo = 0;
    while (std::getline(std::cin, Line)) {
      ++LineNo;
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (Line.empty() || Line[0] == '#')
        continue;
      std::vector<float> X;
      if (!parseQuery(Line, Train.numFeatures(), X)) {
        std::fprintf(stderr,
                     "error: line %zu: query must have %u numeric "
                     "values\n",
                     LineNo, Train.numFeatures());
        // Don't let the destructor's clean drain fully verify a deep
        // backlog after the user already saw the error — cancel it.
        Server.abort();
        return 2;
      }
      Pending.push_back(Server.submit(std::move(X), Options.Budget));
      ++Submitted;
      FlushReady();
      while (Pending.size() >= MaxPending)
        PrintFront();
    }
    while (!Pending.empty())
      PrintFront();

    std::printf("served %zu queries (threat %s): %u robust\n", Submitted,
                threatModelName(Serving.Threat), Robust);
    if (Repl) {
      Repl->stop();
      printReplStats(Repl->stats());
    }
    printStoreLines(Cache.get(), DiskStore.get());
    return Robust == Submitted ? 0 : 1;
  }

  Verifier V(Train);
  VerifierConfig Config;
  Config.Depth = Options.Depth;
  Config.Domain = Options.Domain;
  Config.Threat = Serving.Threat;
  Config.DisjunctCap = Options.DisjunctCap;
  Config.Limits.TimeoutSeconds = Options.TimeoutSeconds;
  Config.FrontierJobs = Serving.FrontierJobs;
  Config.DeltaSlack = Serving.DeltaSlack;
  // The one-shot and --all modes reuse the same composed store: a
  // RAM-only cache is pointless for a one-shot batch with distinct rows
  // but demos the hit path; the two-tier composition with a --cache-dir
  // makes even one-shot runs remember across processes — re-running the
  // same query answers from disk.
  if (Store)
    Config.Cache = Store;
  // One frontier pool shared by every query of the process (it outlives
  // the verify/verifyBatch calls below); null when --frontier-jobs is 1.
  std::unique_ptr<ThreadPool> FrontierPool =
      makeVerificationPool(Serving.FrontierJobs);
  Config.FrontierPool = FrontierPool.get();

  if (Options.AllRows) {
    std::vector<const float *> Inputs;
    for (uint32_t Row = 0; Row < Test.numRows(); ++Row)
      Inputs.push_back(Test.row(Row));
    std::unique_ptr<ThreadPool> Pool = makeVerificationPool(Serving.Jobs);
    std::printf("verifying %zu test rows on %u thread(s), %u shared "
                "frontier executor(s) per query\n",
                Inputs.size(), Pool ? Pool->size() + 1 : 1,
                FrontierPool ? FrontierPool->size() + 1 : 1);
    std::vector<Certificate> Certs =
        V.verifyBatch(Inputs, Options.Budget, Config, Pool.get());
    unsigned Robust = 0;
    for (uint32_t Row = 0; Row < Certs.size(); ++Row) {
      Robust += Certs[Row].isRobust();
      std::printf("row %4u: %s\n", Row, Certs[Row].summary().c_str());
    }
    std::printf("robust (threat %s): %u / %zu\n",
                threatModelName(Serving.Threat), Robust, Certs.size());
    printStoreLines(Cache.get(), DiskStore.get());
    return Robust == Certs.size() ? 0 : 1;
  }

  Certificate Cert = V.verify(Query.data(), Options.Budget, Config);
  std::printf("prediction: class %u\n", Cert.ConcretePrediction);
  std::printf("verdict: %s\n", Cert.summary().c_str());
  printStoreLines(Cache.get(), DiskStore.get());
  return Cert.isRobust() ? 0 : 1;
}
