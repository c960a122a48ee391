//===- serving/CertServer.h - Warm certificate-serving loop ----*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived serving subsystem the ROADMAP's north star asks for:
/// one warm `Verifier` (per-dataset acceleration structures built once),
/// `Jobs` worker threads, one shared in-query frontier pool, and one
/// `CertificateStore`, behind a request queue so many clients can stream
/// queries at a single process. The server is deliberately
/// store-agnostic: it holds exactly one abstract `CertificateStore`
/// pointer and never names a concrete tier — the wiring layer composes
/// whatever it wants (a RAM `CertCache`, a `DiskCertStore`, both behind
/// a `TieredStore`, or nothing) and the server behaves identically.
///
/// Request path:
///
///   submit(x, n) ──▶ FIFO queue ──▶ worker 1 .. Jobs
///        │                            each pops one request: expired
///        │                            deadline → Timeout, otherwise
///        │                            Verifier::verify under the
///        │                            request's own token and limits
///        ▼                                     │
///   std::future ◀── promise (+ Completion) ◀───┘  at once, per request
///
/// Queries are independent (each `DTrace#` run stands alone), so a worker
/// serves one request and fulfills it immediately: a store hit is never
/// held behind a slow miss. Caching happens *inside* `Verifier::verify`
/// (the store is wired into the server's `VerifierConfig`), so a repeated
/// query costs one store probe on a worker instead of a verification, and
/// the served certificate is byte-identical to the fresh one that seeded
/// the entry (see serving/CertCache.h for the invariants). With
/// `Jobs = 1` requests are served strictly in submission order.
///
/// Shutdown: `stop()` (and the destructor) waits for the queue to drain —
/// every accepted future is always fulfilled. Submissions after `stop`
/// complete immediately with `VerdictKind::Cancelled`.
///
/// ## Background re-verification (the delta-slack loop)
///
/// When the server's training set is declared a delta of a parent
/// dataset (`CertServerConfig::Lineage`), the verifier's slack path may
/// answer a query from the *parent's* stored certificate (sound but
/// wider than necessary; see data/Fingerprint.h `DatasetLineage`). The
/// server is the `ReverifyScheduler` behind that path: each slack-served
/// query is queued for an exact re-verification that a worker runs only
/// when the foreground queue is empty — foreground latency is never
/// taxed — with the slack path disarmed (`DeltaSlack` off), so the fresh
/// certificate is computed for real and written through under the
/// child's own fingerprint. Duplicate requests are coalesced while
/// queued. `stop()` drops still-pending re-verifications by design (they
/// are an optimization: the next cold query just verifies), and
/// `drainBackground()` is the test/ops hook that waits for the
/// background queue too.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SERVING_CERTSERVER_H
#define ANTIDOTE_SERVING_CERTSERVER_H

#include "serving/CertificateStore.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

namespace antidote {

/// Server-wide parameters.
struct CertServerConfig {
  /// Per-query verification parameters, shared by every request: depth,
  /// domain, per-query `Limits`, and the in-query FrontierJobs knob.
  /// `FrontierPool` and `Cache` are overwritten by the server with its
  /// own long-lived instances; `Cancel` is replaced per request by the
  /// request's own token (the lever of `cancelRequest` and `abort()`).
  VerifierConfig Query;

  /// Worker threads, each serving one queued request at a time
  /// (`resolveJobs`: 0 = one per hardware thread, clamped to 16x).
  unsigned Jobs = 0;

  /// The certificate store every verification consults and feeds —
  /// externally owned (it may outlive the server or be shared by
  /// several) and abstract on purpose: the server never knows whether
  /// it is a RAM `CertCache`, a `DiskCertStore`, a `TieredStore`
  /// composing both, or absent (null = every query verifies fresh).
  /// Composition is the wiring layer's job, not the server's.
  CertificateStore *Store = nullptr;

  /// Declares the training set a delta of a parent dataset (see
  /// data/Fingerprint.h `DatasetLineage`), arming the delta-slack
  /// serving path: when the store misses under this dataset's own
  /// fingerprint, a Robust certificate stored under the parent's at
  /// radius >= n + RowsRemoved is served immediately (pure-removal
  /// deltas only) and an exact re-verification is queued in the
  /// background. Unset = the server serves exact/range matches only.
  std::optional<DatasetLineage> Lineage;
};

/// A long-lived certificate server for one training set.
///
/// Thread-safety: `submit`, `probeStore`, and `pendingRequests` may be
/// called from any number of client threads. The returned future is
/// fulfilled by the worker that served the request; `get()` blocks until
/// then.
class CertServer : private ReverifyScheduler {
public:
  CertServer(const Dataset &Train, const CertServerConfig &Config);

  /// Stops accepting, drains the queue, joins the workers.
  ~CertServer();

  CertServer(const CertServer &) = delete;
  CertServer &operator=(const CertServer &) = delete;

  /// Per-request options for the ticketed `submit` overload — what a
  /// network front end knows that the plain API does not.
  struct SubmitOptions {
    /// Remaining wall-clock budget the *client* granted this request,
    /// counted from submission — queue wait included, unlike the
    /// server-wide `Limits.TimeoutSeconds`, which a `ResourceMeter`
    /// only starts once verification begins. A request still queued
    /// when its deadline passes is answered `Timeout` without
    /// verifying; one a worker takes in time verifies under
    /// min(server timeout, remaining deadline). <= 0 = no deadline.
    double DeadlineSeconds = 0.0;

    /// Called immediately after the future is fulfilled, with the same
    /// certificate — the completion signal for event-loop callers that
    /// cannot block on futures. It runs on the worker that served the
    /// request (or, for a request refused or cancelled while queued, on
    /// the thread that called `submit` or `cancelRequest`), so with
    /// `Jobs > 1` callbacks may run concurrently with each other and
    /// must be thread-safe. Must not block; must not call back into this
    /// server's submit/cancel paths synchronously with anything that
    /// would deadlock (pushing onto an external queue and signalling an
    /// eventfd is the intended shape — see serving/NetServer.cpp).
    /// Invoked exactly once for every accepted request, whatever its
    /// outcome.
    std::function<void(const Certificate &)> Completion;
  };

  /// Enqueues one query: the ticketed overload with default options and
  /// the ticket dropped. \p X must hold exactly
  /// `verifier().trainingSet().numFeatures()` values (the CLI front end
  /// validates before submitting; this is the programmatic API's
  /// contract). The future is always eventually fulfilled.
  std::future<Certificate> submit(std::vector<float> X,
                                  uint32_t PoisoningBudget);

  /// The ticketed overload: like `submit`, plus per-request deadline
  /// and completion callback, and a ticket (never 0; 0 when the server
  /// already stopped) for `cancelRequest`. Every request verifies under
  /// its own `CancellationToken`, so one client's cancellation never
  /// stops a neighbour's identical query.
  std::future<Certificate> submit(std::vector<float> X,
                                  uint32_t PoisoningBudget,
                                  SubmitOptions Options,
                                  uint64_t &TicketOut);

  /// Abandons a ticketed request — the lever a network front end pulls
  /// when the client disconnects mid-flight. A still-queued request is
  /// removed immediately (releasing its queue slot — admission control
  /// upstream watches `pendingRequests`) and fulfilled as `Cancelled`;
  /// an in-flight one has its token cancelled so the verification
  /// winds down at its next budget poll instead of running to
  /// completion for a reader that no longer exists. Returns false when
  /// the ticket is unknown or already served. The future (and
  /// completion callback) still resolve on every path — cancellation
  /// abandons the *work*, never the bookkeeping.
  bool cancelRequest(uint64_t Ticket);

  /// Store-only probe: consults the server's certificate store (range
  /// rule included, residency undisturbed — `CertificateStore::probe`)
  /// exactly as the verify path would, but never verifies and never
  /// touches the queue. This is the shed path's lifeline — under
  /// overload the network tier answers what is already known (a hash
  /// probe / disk read) while refusing to take on new verification
  /// work. Safe from any thread; false when there is no store or no
  /// serving entry.
  bool probeStore(const float *X, uint32_t PoisoningBudget,
                  Certificate &Out) const;

  /// The warm verifier (for its fingerprint, dataset, and direct
  /// cache-bypassing queries in tests).
  const Verifier &verifier() const { return V; }

  /// The store this server serves from (null when configured without
  /// one). Abstract by design — callers wanting stats go through
  /// `CertificateStore::stats`, and the replication front end through
  /// `CertificateStore::replication`.
  CertificateStore *store() const { return Config.Store; }

  /// Requests queued or being served (for monitoring/backpressure).
  size_t pendingRequests() const;

  /// Background re-verifications queued or running (monitoring).
  size_t pendingReverifies() const;

  /// Background exact re-verifications completed since construction.
  uint64_t reverifiesCompleted() const;

  /// Blocks until every already-submitted request has been served.
  void drain();

  /// `drain()`, plus waits for the background re-verification queue to
  /// empty — after this, every slack-served answer has its exact
  /// certificate written through under the child's own fingerprint.
  void drainBackground();

  /// Stops accepting new work, serves everything already queued, joins
  /// the workers. Idempotent; the destructor calls it.
  void stop();

  /// `stop()` for error paths that must exit promptly: additionally
  /// cancels queued and in-flight verification cooperatively, so
  /// already-running queries wind down at their next budget poll and
  /// every unserved future resolves quickly with
  /// `VerdictKind::Cancelled` (cache hits still resolve to their stored
  /// certificate). Every accepted future is still fulfilled. Idempotent.
  void abort();

private:
  struct Request {
    std::vector<float> X;
    uint32_t PoisoningBudget = 0;
    std::promise<Certificate> Promise;

    uint64_t Ticket = 0; ///< Set on acceptance; never 0 once queued.
    bool HasDeadline = false;
    std::chrono::steady_clock::time_point Deadline{};
    /// Per-request cancellation, shared with `LiveTokens` so
    /// `cancelRequest`/`abort` reach it after the request leaves the
    /// queue.
    std::shared_ptr<CancellationToken> Cancel;
    std::function<void(const Certificate &)> Completion;
  };

  /// Fulfills \p R's promise and fires its completion callback (in that
  /// order — the callback may inspect the future's side effects).
  static void fulfill(Request &R, const Certificate &Cert);

  /// The certificate of a request answered without verifying: verdict
  /// \p Kind (Cancelled or Timeout, which claim nothing) at budget
  /// \p PoisoningBudget under the server's query config.
  Certificate unverified(VerdictKind Kind, uint32_t PoisoningBudget) const;

  /// The certificate for one request a worker took off the queue:
  /// `Timeout` when its deadline already passed, otherwise a verification
  /// under its own token and deadline-clamped limits.
  Certificate serve(const Request &R) const;

  /// Drops a served request's `LiveTokens` entry (after which
  /// `cancelRequest` returns false), then fulfills it.
  void finish(Request &R, const Certificate &Cert);

  /// A slack-served query awaiting its exact background re-verification.
  struct BackgroundRequest {
    std::vector<float> X;
    uint32_t PoisoningBudget = 0;
  };

  /// One worker's life: pop a request and serve it, or, while the queue
  /// is empty, run one background re-verification; exit once stopping
  /// and the queue is drained.
  void workerLoop();

  /// ReverifyScheduler: called by the slack path from the workers;
  /// enqueues (coalescing bit-identical duplicates) for a worker to run
  /// when the foreground is idle.
  void scheduleReverify(const float *X, unsigned NumFeatures,
                        uint32_t PoisoningBudget) override;

  CertServerConfig Config;
  Verifier V;
  /// `Config.Query` with the slack path disarmed (`DeltaSlack` off,
  /// no scheduler): the background re-verification config — it must
  /// verify for real, never serve itself from the parent certificate.
  VerifierConfig ExactQuery;
  std::unique_ptr<ThreadPool> FrontierPool;
  /// Cancelled by `abort()`; the background re-verifications' token.
  CancellationToken AbortToken;

  mutable std::mutex Mutex;
  std::condition_variable QueueChanged; ///< Signalled on submit/stop.
  std::condition_variable Idle;         ///< Signalled when work completes.
  std::deque<Request> Queue;
  size_t InFlight = 0; ///< Requests taken off the queue, not yet served.
  uint64_t NextTicket = 1; ///< Ticket source; 0 is reserved for "none".
  /// Every accepted-but-unserved request's token, queued or in-flight,
  /// so `cancelRequest` (after the request left the queue) and `abort`
  /// can cancel them. Erased when the request is fulfilled.
  std::unordered_map<uint64_t, std::shared_ptr<CancellationToken>>
      LiveTokens;
  /// Exact re-verifications of slack-served queries; the workers drain
  /// it only while `Queue` is empty. Pending entries are dropped
  /// on `stop()` (they are an optimization, not owed work).
  std::deque<BackgroundRequest> BackgroundQueue;
  size_t BackgroundInFlight = 0;
  uint64_t ReverifiesDone = 0;
  bool Stopping = false;
  std::vector<std::thread> Workers;
};

} // namespace antidote

#endif // ANTIDOTE_SERVING_CERTSERVER_H
