//===- tests/CertServerTests.cpp - Warm certificate server tests --------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// The serving loop end to end: queued requests come back correct and in
// submission correspondence, repeated traffic hits the cache, mixed
// poisoning budgets are each answered at their own n, a hit is never held
// behind a miss, shutdown drains, and many client threads can hammer one
// server (the TSan CI job runs this suite).
//
//===----------------------------------------------------------------------===//

#include "serving/CertServer.h"

#include "serving/CertCache.h"
#include "serving/TieredStore.h"

#include "NetHarness.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

using namespace antidote;
using namespace antidote::testutil;

namespace {

CertServerConfig smallConfig() {
  CertServerConfig Config;
  Config.Query.Depth = 2;
  Config.Query.Domain = AbstractDomainKind::Disjuncts;
  Config.Query.Limits.TimeoutSeconds = 30.0;
  Config.Jobs = 2;
  return Config;
}

std::vector<float> point(float X) { return std::vector<float>{X}; }

} // namespace

TEST(CertServerTest, ServedCertificatesMatchDirectVerification) {
  Dataset Train = figure2Dataset();
  CertServer Server(Train, smallConfig());

  std::vector<float> Queries = {0.5f, 2.5f, 9.5f, 12.5f, 13.5f};
  std::vector<std::future<Certificate>> Futures;
  for (float Q : Queries)
    Futures.push_back(Server.submit(point(Q), /*PoisoningBudget=*/2));

  VerifierConfig Direct = smallConfig().Query;
  for (size_t I = 0; I < Queries.size(); ++I) {
    Certificate Served = Futures[I].get();
    const float X[] = {Queries[I]};
    Certificate Expected = Server.verifier().verify(X, 2, Direct);
    EXPECT_EQ(Served.Kind, Expected.Kind) << "query " << I;
    EXPECT_EQ(Served.ConcretePrediction, Expected.ConcretePrediction);
    EXPECT_EQ(Served.DominatingClass, Expected.DominatingClass);
    EXPECT_EQ(Served.NumTerminals, Expected.NumTerminals);
    EXPECT_EQ(Served.PeakDisjuncts, Expected.PeakDisjuncts);
    EXPECT_EQ(Served.PoisoningBudget, 2u);
  }
}

TEST(CertServerTest, RepeatedQueriesHitTheCache) {
  Dataset Train = figure2Dataset();
  // The store is composed at wiring time now — the server itself is
  // store-agnostic, so the test owns the cache it asserts against.
  CertCache Cache(/*MaxBytes=*/0);
  CertServerConfig Config = smallConfig();
  Config.Store = &Cache;
  CertServer Server(Train, Config);

  // Seed, then drain so the repeats arrive after the entry is stored.
  Certificate Cold = Server.submit(point(9.5f), 2).get();
  ASSERT_EQ(Cache.stats().Misses, 1u);

  std::vector<std::future<Certificate>> Repeats;
  for (int I = 0; I < 8; ++I)
    Repeats.push_back(Server.submit(point(9.5f), 2));
  for (auto &F : Repeats) {
    Certificate Warm = F.get();
    // Verbatim replay of the seeding certificate, Seconds included.
    EXPECT_EQ(Warm.Kind, Cold.Kind);
    EXPECT_EQ(Warm.NumTerminals, Cold.NumTerminals);
    EXPECT_EQ(Warm.PeakDisjuncts, Cold.PeakDisjuncts);
    EXPECT_EQ(Warm.Seconds, Cold.Seconds);
  }
  StoreStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 8u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.LiveRecords, 1u);
}

TEST(CertServerTest, MixedPoisoningBudgetsAreGroupedCorrectly) {
  Dataset Train = figure2Dataset();
  CertServer Server(Train, smallConfig());

  // Interleaved budgets in one flood; each answer must carry its own n.
  std::vector<std::future<Certificate>> Futures;
  std::vector<uint32_t> Budgets;
  for (int I = 0; I < 12; ++I) {
    uint32_t N = 1 + (I % 3);
    Budgets.push_back(N);
    Futures.push_back(Server.submit(point(9.5f), N));
  }
  for (size_t I = 0; I < Futures.size(); ++I) {
    Certificate Cert = Futures[I].get();
    EXPECT_EQ(Cert.PoisoningBudget, Budgets[I]);
    const float X[] = {9.5f};
    Certificate Expected =
        Server.verifier().verify(X, Budgets[I], smallConfig().Query);
    // The verdict must match a fresh verification even when the range
    // index served this budget from a proof at a different radius — in
    // that case the work counters (NumTerminals, ...) describe the
    // stored proof, so what is pinned here is the verdict plus the
    // radius lattice rule, not counter equality.
    EXPECT_EQ(Cert.Kind, Expected.Kind);
    if (Cert.Kind == VerdictKind::Robust) {
      EXPECT_GE(Cert.CertifiedRadius, Budgets[I]);
    } else if (Cert.Kind == VerdictKind::Unknown) {
      EXPECT_LE(Cert.CertifiedRadius, Budgets[I]);
    }
  }
}

TEST(CertServerTest, StorelessServerStillServes) {
  // smallConfig() wires no store at all (Store stays null) — every
  // query verifies fresh and nothing crashes reaching for a tier.
  Dataset Train = figure2Dataset();
  CertServer Server(Train, smallConfig());
  EXPECT_EQ(Server.store(), nullptr);
  Certificate A = Server.submit(point(9.5f), 2).get();
  Certificate B = Server.submit(point(9.5f), 2).get();
  EXPECT_EQ(A.Kind, B.Kind);
}

TEST(CertServerTest, DrainWaitsForAllSubmitted) {
  Dataset Train = figure2Dataset();
  CertServer Server(Train, smallConfig());
  std::vector<std::future<Certificate>> Futures;
  for (int I = 0; I < 16; ++I)
    Futures.push_back(Server.submit(point(0.5f + I), 1));
  Server.drain();
  EXPECT_EQ(Server.pendingRequests(), 0u);
  for (auto &F : Futures) {
    ASSERT_EQ(F.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    F.get();
  }
}

TEST(CertServerTest, SubmitAfterStopIsRefusedAsCancelled) {
  Dataset Train = figure2Dataset();
  CertServer Server(Train, smallConfig());
  Server.submit(point(9.5f), 2).get();
  Server.stop();
  Certificate Refused = Server.submit(point(9.5f), 2).get();
  EXPECT_EQ(Refused.Kind, VerdictKind::Cancelled);
  // stop() is idempotent (the destructor will call it again).
  Server.stop();
}

TEST(CertServerTest, AbortResolvesEveryFutureWithoutFullVerification) {
  Dataset Train = figure2Dataset();
  CertServer Server(Train, smallConfig());
  // Flood, then abort immediately: every future must still resolve —
  // queries the abort caught in time as Cancelled, earlier ones with
  // their real verdict — and none may be dropped.
  std::vector<std::future<Certificate>> Futures;
  for (int I = 0; I < 64; ++I)
    Futures.push_back(Server.submit(point(9.5f + (I % 7)), 4));
  Server.abort();
  size_t Cancelled = 0;
  for (auto &F : Futures) {
    Certificate Cert = F.get();
    Cancelled += Cert.Kind == VerdictKind::Cancelled;
  }
  EXPECT_LE(Cancelled, Futures.size());
  // Aborted is stopped: later submissions are refused as Cancelled.
  EXPECT_EQ(Server.submit(point(9.5f), 4).get().Kind,
            VerdictKind::Cancelled);
}

TEST(CertServerTest, ManyClientThreadsOneServer) {
  Dataset Train = figure2Dataset();
  CertCache Cache(/*MaxBytes=*/0);
  CertServerConfig Config = smallConfig();
  Config.Store = &Cache;
  CertServer Server(Train, Config);

  // 4 client threads x 12 queries over 6 distinct points: submissions,
  // server workers, and cache accesses all interleave. Every future must
  // resolve to the right verdict for its point.
  constexpr int NumClients = 4, PerClient = 12;
  std::vector<std::thread> Clients;
  std::vector<std::vector<Certificate>> Results(NumClients);
  for (int C = 0; C < NumClients; ++C)
    Clients.emplace_back([&, C] {
      std::vector<std::future<Certificate>> Futures;
      for (int I = 0; I < PerClient; ++I) {
        float X = 0.5f + 2 * ((C + I) % 6);
        Futures.push_back(Server.submit(point(X), 2));
      }
      for (auto &F : Futures)
        Results[C].push_back(F.get());
    });
  for (std::thread &T : Clients)
    T.join();

  VerifierConfig Direct = smallConfig().Query;
  for (int C = 0; C < NumClients; ++C)
    for (int I = 0; I < PerClient; ++I) {
      const float X[] = {0.5f + 2 * ((C + I) % 6)};
      Certificate Expected = Server.verifier().verify(X, 2, Direct);
      EXPECT_EQ(Results[C][I].Kind, Expected.Kind);
      EXPECT_EQ(Results[C][I].ConcretePrediction,
                Expected.ConcretePrediction);
      EXPECT_EQ(Results[C][I].NumTerminals, Expected.NumTerminals);
    }
  StoreStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits + Stats.Misses, NumClients * PerClient);
  EXPECT_GE(Stats.Misses, 6u);
  EXPECT_GE(Stats.Hits, 1u); // 48 requests over 6 points must repeat.
}

//===----------------------------------------------------------------------===//
// The ticketed submit API (what the network front end rides on):
// cancellation, deadlines, completion callbacks, and the store-only
// probe. The GateStore (tests/NetHarness.h) pins verifications inside
// the store write-through, so queue occupancy is test-controlled.
//===----------------------------------------------------------------------===//

namespace {

/// smallConfig() with \p Gate as the backing store and one worker, so one
/// pinned verification occupies the whole server.
CertServerConfig gatedConfig(testharness::GateStore &Gate) {
  CertServerConfig Config = smallConfig();
  Config.Jobs = 1;
  Config.Store = &Gate;
  return Config;
}

} // namespace

TEST(CertServerTest, CancelQueuedRequestReleasesItsSlotImmediately) {
  Dataset Train = figure2Dataset();
  testharness::GateStore Gate;
  CertServer Server(Train, gatedConfig(Gate));

  // A blocker pins the one worker inside the gate; two more queue.
  Gate.close();
  CertServer::SubmitOptions None;
  uint64_t BlockerTicket = 0, T1 = 0, T2 = 0;
  std::future<Certificate> Blocker =
      Server.submit(point(20.0f), 3, None, BlockerTicket);
  ASSERT_TRUE(Gate.waitForEntered(1));
  std::future<Certificate> F1 = Server.submit(point(21.0f), 3, None, T1);
  std::future<Certificate> F2 = Server.submit(point(22.0f), 3, None, T2);
  ASSERT_NE(T1, 0u);
  ASSERT_NE(T1, T2);
  ASSERT_EQ(Server.pendingRequests(), 3u);

  // Cancelling a queued request frees its slot NOW — with the gate still
  // closed nothing else can shrink the count — and resolves the future
  // as Cancelled without any verification having run for it.
  EXPECT_TRUE(Server.cancelRequest(T1));
  EXPECT_EQ(Server.pendingRequests(), 2u);
  ASSERT_EQ(F1.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(F1.get().Kind, VerdictKind::Cancelled);

  // Double-cancels and unknown tickets refuse (the bookkeeping is gone).
  EXPECT_FALSE(Server.cancelRequest(T1));
  EXPECT_FALSE(Server.cancelRequest(~0ull));

  // The in-flight blocker is also cancellable — its token trips, the
  // slot winds down cooperatively rather than instantly.
  EXPECT_TRUE(Server.cancelRequest(BlockerTicket));

  Gate.open();
  Blocker.get(); // Resolves whatever the token race decided; never hangs.
  EXPECT_NE(F2.get().Kind, VerdictKind::Cancelled); // Untouched neighbour.
  EXPECT_FALSE(Server.cancelRequest(T2)); // Already served.
}

TEST(CertServerTest, CompletionCallbackFiresExactlyOncePerRequest) {
  Dataset Train = figure2Dataset();
  CertServer Server(Train, smallConfig());

  std::atomic<int> Calls{0};
  CertServer::SubmitOptions Options;
  Options.Completion = [&](const Certificate &Cert) {
    EXPECT_NE(Cert.Kind, VerdictKind::Cancelled);
    ++Calls;
  };
  uint64_t Ticket = 0;
  std::future<Certificate> F = Server.submit(point(9.5f), 2, Options, Ticket);
  EXPECT_NE(Ticket, 0u);
  F.get();
  // The callback runs right after fulfillment, before the worker books
  // the request as done — drain orders us after both.
  Server.drain();
  EXPECT_EQ(Calls.load(), 1);

  // A submission refused by a stopped server still gets its callback —
  // exactly once, with the Cancelled certificate — so an event-loop
  // caller never leaks an outstanding-request slot.
  Server.stop();
  std::atomic<int> RefusedCalls{0};
  CertServer::SubmitOptions AfterStop;
  AfterStop.Completion = [&](const Certificate &Cert) {
    EXPECT_EQ(Cert.Kind, VerdictKind::Cancelled);
    ++RefusedCalls;
  };
  uint64_t RefusedTicket = 99; // Must be overwritten to "no ticket".
  std::future<Certificate> Refused =
      Server.submit(point(9.5f), 2, AfterStop, RefusedTicket);
  EXPECT_EQ(RefusedTicket, 0u);
  EXPECT_EQ(Refused.get().Kind, VerdictKind::Cancelled);
  EXPECT_EQ(RefusedCalls.load(), 1);
}

TEST(CertServerTest, ProbeStoreAnswersOnlyWhatIsAlreadyKnown) {
  Dataset Train = figure2Dataset();
  CertCache Cache(/*MaxBytes=*/0);
  CertServerConfig Config = smallConfig();
  Config.Store = &Cache;
  CertServer Server(Train, Config);

  const float X[] = {9.5f};
  Certificate Probe;
  // Cold store: the probe misses and — crucially — verifies nothing.
  EXPECT_FALSE(Server.probeStore(X, 2, Probe));
  EXPECT_EQ(Server.pendingRequests(), 0u);

  Certificate Served = Server.submit(point(9.5f), 2).get();
  Server.drain();

  // Warm: the probe replays the stored certificate verbatim.
  ASSERT_TRUE(Server.probeStore(X, 2, Probe));
  EXPECT_EQ(Probe.Kind, Served.Kind);
  EXPECT_EQ(Probe.NumTerminals, Served.NumTerminals);
  EXPECT_EQ(Probe.Seconds, Served.Seconds);

  // The range rule rides along: a Robust proof at radius 2 also answers
  // the budget-1 probe (∆1 ⊆ ∆2), with the budget rewritten.
  if (Served.isRobust()) {
    Certificate Narrower;
    ASSERT_TRUE(Server.probeStore(X, 1, Narrower));
    EXPECT_EQ(Narrower.Kind, VerdictKind::Robust);
    EXPECT_EQ(Narrower.PoisoningBudget, 1u);
    EXPECT_GE(Narrower.CertifiedRadius, 1u);
  }

  // A point never queried still misses.
  const float Cold[] = {3.5f};
  EXPECT_FALSE(Server.probeStore(Cold, 2, Probe));
}

TEST(CertServerTest, DeadlineExpiredWhileQueuedAnswersTimeout) {
  Dataset Train = figure2Dataset();
  testharness::GateStore Gate;
  CertServer Server(Train, gatedConfig(Gate));

  Gate.close();
  CertServer::SubmitOptions None;
  uint64_t BlockerTicket = 0;
  std::future<Certificate> Blocker =
      Server.submit(point(20.0f), 3, None, BlockerTicket);
  ASSERT_TRUE(Gate.waitForEntered(1));

  // 50ms of client budget, spent entirely waiting behind the blocker.
  CertServer::SubmitOptions Deadline;
  Deadline.DeadlineSeconds = 0.05;
  uint64_t Ticket = 0;
  std::future<Certificate> Doomed =
      Server.submit(point(21.0f), 3, Deadline, Ticket);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  Gate.open();

  Certificate Cert = Doomed.get();
  EXPECT_EQ(Cert.Kind, VerdictKind::Timeout);
  EXPECT_EQ(Cert.PoisoningBudget, 3u);
  // The blocker had no deadline; its verdict is real.
  EXPECT_NE(Blocker.get().Kind, VerdictKind::Timeout);
  // Deadline timeouts are never cached: the same query asked again (no
  // deadline this time) verifies for real.
  EXPECT_NE(Server.submit(point(21.0f), 3).get().Kind,
            VerdictKind::Timeout);
}

TEST(CertServerTest, HitIsServedWhileAnotherWorkerWaitsOnAMiss) {
  // Two workers over RAM in front of the gate: a fresh query pins one
  // worker in its disk write-through, and a warm repeat must still be
  // answered from RAM by the other — never held until the miss is done.
  Dataset Train = figure2Dataset();
  CertCache Ram(/*MaxBytes=*/0);
  testharness::GateStore Gate;
  TieredStore Store(&Ram, &Gate);
  CertServerConfig Config = smallConfig();
  Config.Jobs = 2;
  Config.Store = &Store;
  CertServer Server(Train, Config);

  Certificate Warm = Server.submit(point(9.5f), 2).get();
  ASSERT_TRUE(Gate.waitForEntered(1));

  Gate.close();
  std::future<Certificate> Miss = Server.submit(point(20.0f), 3);
  ASSERT_TRUE(Gate.waitForEntered(2));
  std::future<Certificate> Hit = Server.submit(point(9.5f), 2);
  EXPECT_EQ(Hit.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "a warm hit waited behind a miss pinned on another worker";
  EXPECT_NE(Miss.wait_for(std::chrono::seconds(0)),
            std::future_status::ready); // The gate still holds it.
  Gate.open();
  Certificate Served = Hit.get();
  EXPECT_EQ(Served.Kind, Warm.Kind);
  EXPECT_EQ(Served.Seconds, Warm.Seconds); // Replayed, not re-verified.
  Miss.get();
  EXPECT_EQ(Ram.stats().Hits, 1u);
}

TEST(CertServerTest, OneWorkerCompletesInSubmissionOrderAcrossBudgets) {
  // With one worker the queue is served strictly first in, first out,
  // whatever each request's n: nothing regroups a backlog by budget.
  Dataset Train = figure2Dataset();
  std::mutex OrderMutex; // Outlives the server: callbacks write here.
  std::vector<size_t> Order;
  testharness::GateStore Gate;
  CertServer Server(Train, gatedConfig(Gate));

  // A blocker pins the worker, so the whole mixed-n burst is queued
  // before any of it is served.
  Gate.close();
  std::future<Certificate> Blocker = Server.submit(point(20.0f), 3);
  ASSERT_TRUE(Gate.waitForEntered(1));

  const std::vector<uint32_t> Budgets = {4, 1, 4, 2};
  std::vector<std::future<Certificate>> Futures;
  for (size_t I = 0; I < Budgets.size(); ++I) {
    CertServer::SubmitOptions Options;
    Options.Completion = [&, I](const Certificate &) {
      std::lock_guard<std::mutex> Guard(OrderMutex);
      Order.push_back(I);
    };
    uint64_t Ticket = 0;
    Futures.push_back(
        Server.submit(point(0.5f + I), Budgets[I], Options, Ticket));
  }
  EXPECT_EQ(Server.pendingRequests(), 5u);
  Gate.open();
  Blocker.get();
  Server.drain();

  EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 2, 3}));
  for (size_t I = 0; I < Futures.size(); ++I)
    EXPECT_EQ(Futures[I].get().PoisoningBudget, Budgets[I]);
}
