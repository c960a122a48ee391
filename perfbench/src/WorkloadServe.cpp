//===- perfbench/src/WorkloadServe.cpp - The serve-mixed workload ---------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve-mixed: socket users asking for certificates. An in-process
/// `CertServer` and `NetServer` serve mammography (depth 2, Disjuncts)
/// from a `TieredStore` of a `CertCache` over a `DiskCertStore`. One
/// open-loop generator thread on one connection sends requests on a
/// Poisson schedule made from the seed, and times each from when it was
/// due, so a stall is charged to every request it delays.
///
/// The traffic mix, by construction (so each request's class is known):
///  - exact repeats of a hot key set, warmed into the store during set-up;
///  - about 30% of the hot-point requests ask a hot point that was proven
///    Robust at a smaller n, which the radius-range rule serves;
///  - a small share of fresh, never-seen points that must verify.
/// The RAM tier's budget is below the hot set's footprint, so hits split
/// between RAM and disk.
///
/// Busy threads: the generator, the NetServer loop, and the CertServer's
/// dispatcher plus workers (`Jobs = nproc - 2`), so the total is nproc.
/// The generator busy-polls, and lowest-priority spinners keep the other
/// cores from halting: on a busy virtual-machine host a halted core wakes
/// slowly, and hit p50 then moved between 74 and 543 us from run to run;
/// with the spinners it held at 45 to 48 us on the same host.
///
/// `CertServer` answers a batch's n-group only once the whole group has
/// been verified, and the one dispatcher takes the next batch only then,
/// so hits wait behind misses: hit p99 sits far above hit p50. The rate
/// ladder climbs until hit p99 misses its limit, the backlog grows, a
/// request fails, or the generator itself falls behind (reported as such,
/// never as a server limit).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Queries.h"
#include "Stats.h"
#include "Stores.h"

#include "data/Registry.h"
#include "serving/CertCache.h"
#include "serving/DiskCertStore.h"
#include "serving/NetServer.h"
#include "serving/TieredStore.h"
#include "support/MemoryUsage.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <unordered_map>

using namespace antidote;

namespace perfbench {

namespace {

/// Sizes of the workload; `Tiny` shrinks them for the smoke test.
struct ServeShape {
  size_t HotKeys = 2000;
  uint64_t RamBudget = 200 * 1024; ///< Below the hot set's footprint.
  double FreshShare = 0.08;
  double RangeShare = 0.30; ///< Of the hot-point requests.
  double WarmRate = 4000, WarmSeconds = 1.0;
  double NominalRate = 4000;
  std::vector<double> Ladder = {8000, 16000, 32000, 64000, 128000};
  double HitLimitMs = 50.0; ///< Hit p99 limit for a ladder rung to pass.
  double MaxLateMs = 2.0;   ///< Generator p99 lateness a rung tolerates.
};

enum class KeyClass : uint8_t { Hot, Range, Fresh };

struct Key {
  std::vector<float> X;
  uint32_t N = 0;
  KeyClass Class = KeyClass::Hot;
};

struct Request {
  double Due = 0.0;
  uint32_t Key = 0;
};

/// Everything one request got back.
struct Answer {
  bool Ok = false;
  Certificate Cert;
};

/// The server side, rebuilt by each set-up.
struct ServeStack {
  std::unique_ptr<DiskCertStore> Disk;
  std::unique_ptr<CertCache> Ram;
  std::unique_ptr<TieredStore> Tiered;
  std::unique_ptr<ObservedStore> Observed;
  std::unique_ptr<CertServer> Server;
  std::unique_ptr<NetServer> Net;
  FdHandle Client;

  /// Tears down in dependency order: client, front end, server, stores.
  void reset() {
    Client.reset();
    Net.reset();
    Server.reset();
    Observed.reset();
    Tiered.reset();
    Ram.reset();
    Disk.reset();
  }
};

/// One open-loop client on one connection, driven from the calling thread.
class Generator {
public:
  Generator(int Fd, std::vector<Key> &Keys) : Fd(Fd), Keys(Keys) {}

  /// Sends \p Schedule (due times relative to now), waits for every answer
  /// or \p DrainSeconds past the last due time, and returns one record per
  /// request. \p BacklogAtEnd receives the number of requests still
  /// unanswered when the last one was sent. \p Sample, when set, runs about
  /// once a millisecond.
  std::vector<OpenLoopRecord> run(const std::vector<Request> &Schedule,
                                  double DrainSeconds, size_t &BacklogAtEnd,
                                  const std::function<void()> &Sample = {});

  /// Key and answer of every request sent so far, indexed by tag - 1,
  /// for the checks after timing.
  std::vector<std::pair<uint32_t, Answer>> Answers;

private:
  bool flush();
  bool receive(double Now, std::vector<OpenLoopRecord> &Records,
               uint64_t FirstTag, size_t &Done);

  int Fd;
  std::vector<Key> &Keys;
  FrameReader In{NetResponseMagic};
  std::string Out;
  size_t OutPos = 0;
  uint64_t NextTag = 1;
};

bool Generator::flush() {
  while (OutPos < Out.size()) {
    ssize_t N = ::send(Fd, Out.data() + OutPos, Out.size() - OutPos,
                       MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;
    if (N <= 0)
      return false;
    OutPos += static_cast<size_t>(N);
  }
  Out.clear();
  OutPos = 0;
  return true;
}

bool Generator::receive(double Now, std::vector<OpenLoopRecord> &Records,
                        uint64_t FirstTag, size_t &Done) {
  uint8_t Buf[65536];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;
    if (N <= 0 || !In.feed(Buf, static_cast<size_t>(N)))
      return false;
    while (std::optional<std::vector<uint8_t>> Payload = In.next()) {
      std::optional<NetResponse> Response =
          decodeResponsePayload(Payload->data(), Payload->size());
      if (!Response || Response->Tag < FirstTag ||
          Response->Tag - FirstTag >= Records.size())
        return false;
      OpenLoopRecord &Rec = Records[Response->Tag - FirstTag];
      if (Rec.Done >= 0)
        return false; // A second answer to one tag.
      Rec.Done = Now;
      Answer &A = Answers[Response->Tag - 1].second;
      A.Ok = Response->Status == NetStatus::Ok &&
             Response->Cert.Kind != VerdictKind::Timeout &&
             Response->Cert.Kind != VerdictKind::Cancelled;
      A.Cert = Response->Cert;
      Rec.Ok = A.Ok;
      ++Done;
    }
  }
}

std::vector<OpenLoopRecord>
Generator::run(const std::vector<Request> &Schedule, double DrainSeconds,
               size_t &BacklogAtEnd, const std::function<void()> &Sample) {
  std::vector<OpenLoopRecord> Records(Schedule.size());
  const uint64_t FirstTag = NextTag;
  NextTag += Schedule.size();
  for (const Request &Q : Schedule)
    Answers.push_back({Q.Key, Answer()});
  const double Base = nowSeconds() + 0.001;
  double NextSample = Base;
  for (size_t I = 0; I < Schedule.size(); ++I)
    Records[I].Due = Base + Schedule[I].Due;
  const double LastDue = Schedule.empty() ? Base : Records.back().Due;
  size_t Next = 0, Done = 0;
  bool Healthy = true, Counted = false;
  BacklogAtEnd = 0;
  while (Healthy && Done < Schedule.size()) {
    double Now = nowSeconds();
    while (Next < Schedule.size() && Records[Next].Due <= Now) {
      const Key &K = Keys[Schedule[Next].Key];
      NetRequest Req;
      Req.Tag = FirstTag + Next;
      Req.PoisoningBudget = K.N;
      Req.X = K.X;
      Out += encodeRequestFrame(Req);
      Records[Next].Sent = Now;
      ++Next;
    }
    Healthy = flush();
    if (Next == Schedule.size() && !Counted) {
      BacklogAtEnd = Next - Done;
      Counted = true;
    }
    if (Next == Schedule.size() && Now > LastDue + DrainSeconds)
      break;
    if (Sample && Now >= NextSample) {
      Sample();
      NextSample = Now + 0.001;
    }
    // Busy-poll: a sleeping generator pays a wake-up on this kind of
    // virtual machine both to send on time and to see each answer.
    pollfd P{Fd, static_cast<short>(POLLIN | (Out.empty() ? 0 : POLLOUT)),
             0};
    int Ready = ::poll(&P, 1, 0);
    if (Ready > 0 && (P.revents & (POLLIN | POLLHUP | POLLERR)))
      Healthy = receive(nowSeconds(), Records, FirstTag, Done);
  }
  return Records;
}

/// A Poisson schedule at \p Rate for \p Seconds; keys drawn by \p Pick.
std::vector<Request> poisson(Rng &Random, double Rate, double Seconds,
                             const std::function<uint32_t()> &Pick) {
  std::vector<Request> Out;
  double T = 0.0;
  for (;;) {
    T += -std::log(1.0 - Random.uniform()) / Rate;
    if (T >= Seconds)
      return Out;
    Out.push_back({T, Pick()});
  }
}

/// Latencies of one class of requests.
std::vector<double> latencies(const std::vector<OpenLoopRecord> &Records,
                              const std::vector<Request> &Schedule,
                              const std::vector<Key> &Keys, bool Hits) {
  std::vector<OpenLoopRecord> Picked;
  for (size_t I = 0; I < Records.size(); ++I)
    if ((Keys[Schedule[I].Key].Class != KeyClass::Fresh) == Hits)
      Picked.push_back(Records[I]);
  return summarizeOpenLoop(Picked).Latencies;
}

void printPhase(const char *Name, double Rate,
                const std::vector<OpenLoopRecord> &Records,
                const char *Verdict) {
  OpenLoopSummary S = summarizeOpenLoop(Records);
  std::printf("serve: %-8s rate %6.0f/s sent %zu answered %zu failed %zu "
              "generator late p99 %.3f ms max %.3f ms%s%s\n",
              Name, Rate, S.Sent, S.Answered, S.Failed, S.P99Late * 1e3,
              S.MaxLate * 1e3, *Verdict ? " : " : "", Verdict);
}

/// Prints a latency class with its sample count and tail percentile.
void printLatency(const char *Name, const std::vector<double> &Seconds) {
  std::printf("serve: %s latency n=%zu p50 %.1f us p99 %.1f us", Name,
              Seconds.size(), quantile(Seconds, 0.5) * 1e6,
              quantile(Seconds, 0.99) * 1e6);
  if (double Tail = tailPercentile(Seconds.size()))
    std::printf("; highest percentile with ten samples beyond it: p%g = "
                "%.1f us\n",
                Tail * 100, quantile(Seconds, Tail) * 1e6);
  else
    std::printf("; too few samples for any percentile with ten beyond it\n");
}

/// Climbs the rate ladder and returns the answered rate of the highest
/// rung whose hit p99 stays under the limit with no failed request and no
/// growing backlog; 0 when none does. A rung where the generator itself
/// fell behind ends the climb and is reported as such.
double rateLadder(Generator &Gen, Rng &Random, const ServeShape &Shape,
                  double RungSeconds, const std::function<uint32_t()> &Pick,
                  const std::vector<Key> &Keys) {
  double MaxRate = 0.0;
  for (double Rate : Shape.Ladder) {
    std::vector<Request> Rung = poisson(Random, Rate, RungSeconds, Pick);
    size_t Backlog = 0;
    std::vector<OpenLoopRecord> Records = Gen.run(Rung, 5.0, Backlog);
    OpenLoopSummary S = summarizeOpenLoop(Records);
    double HitP99 = quantile(latencies(Records, Rung, Keys, true), 0.99);
    char Verdict[160];
    bool Pass = false;
    if (S.P99Late * 1e3 > Shape.MaxLateMs)
      std::snprintf(Verdict, sizeof(Verdict),
                    "generator fell behind; not a server limit");
    else if (S.Failed)
      std::snprintf(Verdict, sizeof(Verdict), "%zu requests failed",
                    S.Failed);
    else if (Backlog > Rate * Shape.HitLimitMs / 1e3)
      std::snprintf(Verdict, sizeof(Verdict),
                    "backlog of %zu at the last due time", Backlog);
    else if (HitP99 * 1e3 > Shape.HitLimitMs)
      std::snprintf(Verdict, sizeof(Verdict),
                    "hit p99 %.2f ms over the %.0f ms limit", HitP99 * 1e3,
                    Shape.HitLimitMs);
    else {
      std::snprintf(Verdict, sizeof(Verdict), "hit p99 %.2f ms, pass",
                    HitP99 * 1e3);
      Pass = true;
    }
    printPhase("rung", Rate, Records, Verdict);
    if (!Pass)
      break;
    MaxRate = S.Answered / RungSeconds;
  }
  return MaxRate;
}

} // namespace

RunResult runServeMixed(const RunOptions &O) {
  RunResult R;
  ServeShape Shape;
  if (O.Tiny) {
    Shape.HotKeys = 60;
    Shape.RamBudget = 4 * 1024;
    Shape.FreshShare = 0.2;
    Shape.WarmRate = Shape.NominalRate = 400;
    Shape.WarmSeconds = 0.1;
    Shape.Ladder = {400, 800};
  }
  // The untraced run spends its time at the nominal rate; the traced run
  // splits it between the nominal rate (twice, for the overhead) and the
  // rate ladder.
  const double NominalSeconds = O.Trace ? O.Seconds * 0.3 : O.Seconds;
  const double RungSeconds = O.Seconds * 0.4 / Shape.Ladder.size();
  const unsigned Jobs = O.Nproc > 3 ? O.Nproc - 2 : 1;
  namespace fs = std::filesystem;
  const fs::path Root =
      fs::path(O.WorkDir) / ("serve-mixed-" + std::to_string(O.Seed));
  std::error_code Ignored;
  fs::remove_all(Root, Ignored);

  // Inputs from the seed: hot points, fresh points, and the schedule.
  double LoadStart = nowSeconds();
  BenchmarkDataset B = loadBenchmarkDataset("mammography", BenchScale::Scaled);
  const double LoadSeconds = secondsSince(LoadStart);
  const Dataset &Train = B.Split.Train;
  const unsigned F = Train.numFeatures();
  std::vector<float> Lo(F), Hi(F);
  for (unsigned J = 0; J < F; ++J) {
    const float *Col = Train.column(J);
    Lo[J] = *std::min_element(Col, Col + Train.numRows());
    Hi[J] = *std::max_element(Col, Col + Train.numRows());
  }
  Rng Random(O.Seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<Key> Keys;
  auto NewPoint = [&] {
    std::vector<float> X(F);
    for (unsigned J = 0; J < F; ++J)
      X[J] = static_cast<float>(Random.uniform(Lo[J], Hi[J]));
    return X;
  };
  const uint32_t HotBudgets[] = {4, 8};
  for (size_t I = 0; I < Shape.HotKeys; ++I)
    Keys.push_back({NewPoint(), HotBudgets[Random.uniformInt(2)],
                    KeyClass::Hot});

  VerifierConfig Query;
  Query.Depth = 2;
  Query.Domain = AbstractDomainKind::Disjuncts;

  // Keep the cores from halting while requests move between threads; the
  // generator busy-polls its own core. Stopped before the checks.
  auto Spinners =
      std::make_unique<IdleSpinners>(O.Nproc > 1 ? O.Nproc - 1 : 1);

  // Set-up, five times: store open, server start, connect, and warming
  // the hot set through the socket. The last stack serves the run.
  ServeStack Stack;
  std::vector<double> Setups;
  std::vector<uint32_t> RobustHot;
  for (int K = 0; K < 5; ++K) {
    Stack.reset();
    double Start = nowSeconds();
    fs::path Dir = Root / ("store-" + std::to_string(K));
    fs::create_directories(Dir, Ignored);
    DiskCertStore::OpenResult Opened = DiskCertStore::open(Dir.string());
    if (!Opened.ok()) {
      R.fail("cannot open the disk store: " + Opened.Error);
      return R;
    }
    Stack.Disk = std::move(Opened.Store);
    Stack.Ram = std::make_unique<CertCache>(Shape.RamBudget);
    Stack.Tiered = std::make_unique<TieredStore>(Stack.Ram.get(),
                                                 Stack.Disk.get());
    CertificateStore *Store = Stack.Tiered.get();
    if (O.Trace) {
      Stack.Observed = std::make_unique<ObservedStore>(*Stack.Tiered);
      Store = Stack.Observed.get();
    }
    CertServerConfig SC;
    SC.Query = Query;
    SC.Jobs = Jobs;
    SC.Store = Store;
    Stack.Server = std::make_unique<CertServer>(Train, SC);
    Stack.Net = std::make_unique<NetServer>(*Stack.Server, NetServerConfig());
    std::string Error;
    if (!Stack.Net->start(Error)) {
      R.fail("cannot start the socket server: " + Error);
      return R;
    }
    Stack.Client = connectTcpLoopback(Stack.Net->port());
    if (!Stack.Client.valid() || !setNonBlocking(Stack.Client.get())) {
      R.fail("cannot connect to the socket server");
      return R;
    }
    // Warm the hot set: every hot key once, back to back.
    Generator Warm(Stack.Client.get(), Keys);
    std::vector<Request> All;
    for (uint32_t I = 0; I < Shape.HotKeys; ++I)
      All.push_back({0.0, I});
    size_t Backlog = 0;
    Warm.run(All, 30.0, Backlog);
    Setups.push_back(secondsSince(Start));
    RobustHot.clear();
    for (auto &KA : Warm.Answers) {
      if (!KA.second.Ok) {
        R.fail("warming a hot key failed");
        return R;
      }
      if (KA.second.Cert.isRobust() && Keys[KA.first].N > 1)
        RobustHot.push_back(KA.first);
    }
    std::sort(RobustHot.begin(), RobustHot.end());
  }

  // Request picker: the mix above, from the seed.
  auto Pick = [&]() -> uint32_t {
    if (Random.bernoulli(Shape.FreshShare)) {
      Keys.push_back({NewPoint(), static_cast<uint32_t>(
                                      1u << Random.uniformInt(3)),
                      KeyClass::Fresh});
      return static_cast<uint32_t>(Keys.size() - 1);
    }
    if (!RobustHot.empty() && Random.bernoulli(Shape.RangeShare)) {
      const Key &Hot = Keys[RobustHot[Random.uniformInt(RobustHot.size())]];
      Keys.push_back({Hot.X,
                      1 + static_cast<uint32_t>(Random.uniformInt(Hot.N - 1)),
                      KeyClass::Range});
      return static_cast<uint32_t>(Keys.size() - 1);
    }
    return static_cast<uint32_t>(Random.uniformInt(Shape.HotKeys));
  };

  Generator Gen(Stack.Client.get(), Keys);

  size_t Backlog = 0;
  {
    std::vector<Request> Warm =
        poisson(Random, Shape.WarmRate, Shape.WarmSeconds, Pick);
    printPhase("warm-up", Shape.WarmRate,
               Gen.run(Warm, 5.0, Backlog), "");
  }

  // The nominal rate: the latency metrics. A traced run first repeats it
  // with the decorator not recording, for the tracing overhead.
  double PlainHitP50 = 0.0;
  if (O.Trace) {
    Stack.Observed->setRecording(false);
    std::vector<Request> Plain =
        poisson(Random, Shape.NominalRate, NominalSeconds, Pick);
    std::vector<OpenLoopRecord> Records =
        Gen.run(Plain, 5.0, Backlog);
    printPhase("untraced", Shape.NominalRate, Records, "");
    PlainHitP50 = quantile(latencies(Records, Plain, Keys, true), 0.5);
    Stack.Observed->setRecording(true);
  }
  size_t PendingMax = 0;
  std::function<void()> SamplePending;
  if (O.Trace)
    SamplePending = [&] {
      PendingMax = std::max(PendingMax, Stack.Server->pendingRequests());
    };
  StoreStats Ram0 = Stack.Ram->stats(), Disk0 = Stack.Disk->stats(),
             Tier0 = Stack.Tiered->stats();
  NetServerStats Net0 = Stack.Net->stats();
  size_t Lookups0 = O.Trace ? Stack.Observed->lookups().size() : 0;
  size_t Stores0 = O.Trace ? Stack.Observed->storeSeconds().size() : 0;
  std::vector<Request> Nominal =
      poisson(Random, Shape.NominalRate, NominalSeconds, Pick);
  std::vector<OpenLoopRecord> NominalRecords =
      Gen.run(Nominal, 5.0, Backlog, SamplePending);
  printPhase("nominal", Shape.NominalRate, NominalRecords, "");
  std::vector<double> Hits = latencies(NominalRecords, Nominal, Keys, true);
  std::vector<double> Misses = latencies(NominalRecords, Nominal, Keys, false);
  printLatency("hit", Hits);
  printLatency("miss", Misses);
  if (!O.Trace) {
    printTimes("set-up", Setups);
    R.add("setup_s", median(Setups), "s");
    R.add("op_ms", quantile(Hits, 0.5) * 1e3, "ms"); // One hit request.
    R.add("peak_rss_mb", processPeakRssBytes() / 1e6, "MB");
  } else {
    SpanLog Log;
    Log.add("data.load", LoadStart, LoadStart + LoadSeconds);
    R.add("data.load_s", LoadSeconds, "s");
    addSetupLayerMetrics(Train, Log, R);
    // Per-layer: the store decorator's timings and each tier's counters,
    // over the nominal phase only.
    StoreStats Ram1 = Stack.Ram->stats(), Disk1 = Stack.Disk->stats(),
               Tier1 = Stack.Tiered->stats();
    NetServerStats Net1 = Stack.Net->stats();
    std::vector<LookupEvent> Lookups = Stack.Observed->lookups();
    Lookups.erase(Lookups.begin(), Lookups.begin() + Lookups0);
    std::vector<double> Stores = Stack.Observed->storeSeconds();
    Stores.erase(Stores.begin(), Stores.begin() + Stores0);
    std::vector<double> LookupUs, StoreUs;
    for (const LookupEvent &E : Lookups)
      LookupUs.push_back((E.End - E.Start) * 1e6);
    for (double S : Stores)
      StoreUs.push_back(S * 1e6);
    R.add("serving.store.lookup_p50_us", quantile(LookupUs, 0.5), "us");
    R.add("serving.store.lookup_p99_us", quantile(LookupUs, 0.99), "us");
    R.add("serving.store.store_p99_us", quantile(StoreUs, 0.99), "us");
    double RamHits = (Ram1.Hits + Ram1.RangeHits) - (Ram0.Hits + Ram0.RangeHits);
    double DiskHits =
        (Disk1.Hits + Disk1.RangeHits) - (Disk0.Hits + Disk0.RangeHits);
    double Missed = static_cast<double>(Tier1.Misses - Tier0.Misses);
    R.add("serving.store.ram_hits", RamHits, "count");
    R.add("serving.store.disk_hits", DiskHits, "count");
    R.add("serving.store.range_hits",
          static_cast<double>((Ram1.RangeHits - Ram0.RangeHits) +
                              (Disk1.RangeHits - Disk0.RangeHits)),
          "count");
    R.add("serving.store.misses", Missed, "count");
    R.add("serving.store.hit_ratio",
          RamHits + DiskHits + Missed > 0
              ? (RamHits + DiskHits) / (RamHits + DiskHits + Missed)
              : 0.0,
          "ratio");
    R.add("serving.store.ram_evictions",
          static_cast<double>(Ram1.Evictions - Ram0.Evictions), "count");

    // Queue wait and hold, by FIFO per-key matching of requests to the
    // store lookups they caused.
    std::vector<uint64_t> RequestKeys, EventKeys;
    for (const Request &Q : Nominal)
      RequestKeys.push_back(
          queryKey(Keys[Q.Key].X.data(), F, Keys[Q.Key].N));
    for (const LookupEvent &E : Lookups)
      EventKeys.push_back(E.Key);
    std::vector<long> Match = matchFifo(RequestKeys, EventKeys);
    std::vector<double> QueueUs, HoldUs;
    for (size_t I = 0; I < Lookups.size(); ++I) {
      if (Match[I] < 0)
        continue;
      const OpenLoopRecord &Rec = NominalRecords[Match[I]];
      const LookupEvent &E = Lookups[I];
      uint64_t Id = static_cast<uint64_t>(Match[I]) + 1;
      long Span = Log.add("serving.request", Rec.Due,
                          Rec.Done < 0 ? E.End : Rec.Done, -1, Id);
      Log.add("serving.queue", Rec.Due, E.Start, Span, Id);
      Log.add("serving.store.lookup", E.Start, E.End, Span, Id);
      QueueUs.push_back((E.Start - Rec.Due) * 1e6);
      if (E.Hit && Rec.Done >= 0) {
        Log.add("serving.hold", E.End, Rec.Done, Span, Id);
        HoldUs.push_back((Rec.Done - E.End) * 1e6);
      } else if (Rec.Done >= 0) {
        Log.add("antidote.verify", E.End, Rec.Done, Span, Id);
      }
    }
    R.add("serving.certserver.queue_wait_p99_us", quantile(QueueUs, 0.99),
          "us");
    R.add("serving.certserver.hold_p99_us", quantile(HoldUs, 0.99), "us");
    R.add("serving.certserver.pending_max", static_cast<double>(PendingMax),
          "count");
    OpenLoopSummary S = summarizeOpenLoop(NominalRecords);
    R.add("serving.net.requests",
          static_cast<double>(Net1.Requests - Net0.Requests), "count");
    R.add("serving.net.failed",
          static_cast<double>((Net1.ShedOverload + Net1.ShedPaced +
                               Net1.BadArity + Net1.FramingErrors) -
                              (Net0.ShedOverload + Net0.ShedPaced +
                               Net0.BadArity + Net0.FramingErrors)),
          "count");
    R.add("serving.net.gen_late_max_ms", S.MaxLate * 1e3, "ms");

    R.add("trace.overhead_s", quantile(Hits, 0.5) - PlainHitP50, "s");
    R.add("serving.net.hit_p99_us", quantile(Hits, 0.99) * 1e6, "us");
    R.add("serving.net.miss_p50_ms", quantile(Misses, 0.5) * 1e3, "ms");
    R.add("serving.net.miss_p99_ms", quantile(Misses, 0.99) * 1e3, "ms");
    addSelfTimeMetrics(Log, R);
    writeSpans(Log, O, "serve-mixed", R);

    Stack.Observed->setRecording(false);
    R.add("serving.net.max_rate_rps",
          rateLadder(Gen, Random, Shape, RungSeconds, Pick, Keys), "1/s");
  }

  Spinners.reset();

  // Every answer against a fresh verification of its key.
  std::vector<std::pair<uint32_t, Answer>> Answered;
  Answered.reserve(Gen.Answers.size());
  for (auto &KA : Gen.Answers) {
    ++R.Attempted;
    if (!KA.second.Ok) {
      ++R.Failed;
      continue;
    }
    Answered.push_back(KA);
  }
  std::vector<uint32_t> Distinct;
  for (const auto &KA : Answered)
    Distinct.push_back(KA.first);
  std::sort(Distinct.begin(), Distinct.end());
  Distinct.erase(std::unique(Distinct.begin(), Distinct.end()),
                 Distinct.end());
  std::unordered_map<uint32_t, size_t> Slot;
  for (size_t I = 0; I < Distinct.size(); ++I)
    Slot[Distinct[I]] = I;
  std::vector<Certificate> Fresh(Distinct.size());
  {
    std::unique_ptr<ThreadPool> Pool;
    if (O.Nproc > 1)
      Pool = std::make_unique<ThreadPool>(O.Nproc - 1);
    const Verifier &V = Stack.Server->verifier();
    parallelFor(Pool.get(), Distinct.size(), [&](size_t I) {
      const Key &K = Keys[Distinct[I]];
      Fresh[I] = V.verify(K.X.data(), K.N, Query);
    });
  }
  size_t Exact = 0, Ranged = 0, Wrong = 0;
  for (const auto &[KeyIndex, A] : Answered) {
    const Certificate &Want = Fresh[Slot[KeyIndex]];
    const Certificate &Got = A.Cert;
    bool Good;
    if (Got.CertifiedRadius == Got.PoisoningBudget) {
      ++Exact;
      Good = sameCertificate(Got, Want);
    } else {
      ++Ranged;
      Good = Got.PoisoningBudget == Keys[KeyIndex].N &&
             (!Got.isRobust() || Want.isRobust());
    }
    if (!Good && Wrong++ < 3)
      R.fail("answer for key " + std::to_string(KeyIndex) + " (" +
             Got.summary() + ") disagrees with a fresh verification (" +
             Want.summary() + ")");
  }
  if (Wrong)
    R.fail(std::to_string(Wrong) + " answers disagree with fresh verification");
  std::printf("serve: checked %zu answers over %zu distinct keys against "
              "fresh verification: %zu exact, %zu range-served, %zu wrong\n",
              Answered.size(), Distinct.size(), Exact, Ranged, Wrong);
  size_t Classes[3] = {0, 0, 0};
  for (const auto &KA : Answered)
    ++Classes[static_cast<int>(Keys[KA.first].Class)];
  std::printf("serve: traffic shares: hot exact %.3f, range %.3f, fresh "
              "%.3f; tier counters: %s | ram %s | disk %s\n",
              Classes[0] / double(std::max<size_t>(1, Answered.size())),
              Classes[1] / double(std::max<size_t>(1, Answered.size())),
              Classes[2] / double(std::max<size_t>(1, Answered.size())),
              Stack.Tiered->stats().summary().c_str(),
              Stack.Ram->stats().summary().c_str(),
              Stack.Disk->stats().summary().c_str());

  Stack.reset();
  fs::remove_all(Root, Ignored);
  return R;
}

} // namespace perfbench
