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
/// one shared batch `ThreadPool`, one shared in-query frontier/split pool,
/// and one `CertificateStore`, behind a request queue so many clients can
/// stream queries at a single process. The server is deliberately
/// store-agnostic: it holds exactly one abstract `CertificateStore`
/// pointer and never names a concrete tier — the wiring layer composes
/// whatever it wants (a RAM `CertCache`, a `DiskCertStore`, both behind
/// a `TieredStore`, or nothing) and the server behaves identically.
///
/// Request path:
///
///   submit(x, n) ──▶ queue ──▶ dispatcher thread ──▶ batcher
///        │                        (groups up to MaxBatch pending
///        │                         requests by poisoning budget n)
///        │                                 │
///        ▼                                 ▼
///   std::future ◀── promise ◀── Verifier::verifyBatch on the batch
///                               pool; each query consults/feeds the
///                               CertCache from its worker thread
///
/// The batcher exists for the same reason `verifyBatch` does: queries
/// are independent, so folding whatever has queued up while the previous
/// batch ran into one fan-out keeps every pool worker busy without any
/// per-query thread churn. Caching happens *inside* `Verifier::verify`
/// (the store is wired into the server's `VerifierConfig`), so a repeated
/// query costs one store probe on a worker instead of a verification, and
/// the served certificate is byte-identical to the fresh one that seeded
/// the entry (see serving/CertCache.h for the invariants).
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
/// query is queued for an exact re-verification that the dispatcher runs
/// only when the foreground queue is empty — foreground latency is never
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
  /// `FrontierPool`, `Cache`, and `Cancel` are overwritten by the server
  /// with its own long-lived instances (`Cancel` is the `abort()` lever).
  VerifierConfig Query;

  /// Worker threads for the batch fan-out across queued requests
  /// (0 = one per hardware thread, 1 = the dispatcher thread alone).
  unsigned Jobs = 0;

  /// Most requests one dispatch folds into a single `verifyBatch`. Keeps
  /// tail latency bounded under a flood: a huge backlog is served as
  /// several batches, each completing (and fulfilling its futures) on
  /// its own. 0 = unbounded (one batch per backlog), matching the
  /// codebase's "0 disables the cap" convention.
  size_t MaxBatch = 64;

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
/// fulfilled by the dispatcher (or a batch-pool worker's result folded by
/// it); `get()` blocks until then.
class CertServer : private ReverifyScheduler {
public:
  CertServer(const Dataset &Train, const CertServerConfig &Config);

  /// Stops accepting, drains the queue, joins the dispatcher.
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
    /// verifying; one dispatched in time verifies under
    /// min(server timeout, remaining deadline). <= 0 = no deadline.
    double DeadlineSeconds = 0.0;

    /// Called from the serving thread immediately after the future is
    /// fulfilled, with the same certificate — the completion signal
    /// for event-loop callers that cannot block on futures. Must not
    /// block; must not call back into this server's submit/cancel
    /// paths synchronously with anything that would deadlock (pushing
    /// onto an external queue and signalling an eventfd is the
    /// intended shape — see serving/NetServer.cpp). Invoked exactly
    /// once for every accepted request, whatever its outcome.
    std::function<void(const Certificate &)> Completion;
  };

  /// Enqueues one query. \p X must hold exactly
  /// `verifier().trainingSet().numFeatures()` values (the CLI front end
  /// validates before submitting; this is the programmatic API's
  /// contract). The future is always eventually fulfilled.
  std::future<Certificate> submit(std::vector<float> X,
                                  uint32_t PoisoningBudget);

  /// The ticketed overload: like `submit`, plus per-request deadline
  /// and completion callback, and a ticket (never 0) for
  /// `cancelRequest`. Each ticketed request verifies under its own
  /// `CancellationToken`, so one client's cancellation never stops a
  /// neighbour's identical query.
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

  /// Requests not yet handed to a batch (for monitoring/backpressure).
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
  /// the dispatcher. Idempotent; the destructor calls it.
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

    /// Ticketed-submit extras; defaulted (inert) for the plain path.
    uint64_t Ticket = 0; ///< 0 = not cancellable.
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

  /// Shared enqueue tail of both submit overloads. \p TicketOut non-null
  /// marks the request ticketed: it gets a ticket, its own cancellation
  /// token, and a `LiveTokens` entry.
  std::future<Certificate> enqueue(Request R, uint64_t *TicketOut);

  /// Fulfills a request leaving `serveBatch` and drops its
  /// `LiveTokens` entry (after which `cancelRequest` returns false).
  void finish(Request &R, const Certificate &Cert);

  /// A slack-served query awaiting its exact background re-verification.
  struct BackgroundRequest {
    std::vector<float> X;
    uint32_t PoisoningBudget = 0;
  };

  void dispatchLoop();
  void serveBatch(std::vector<Request> Batch);

  /// ReverifyScheduler: called by the slack path from batch-pool
  /// workers; enqueues (coalescing bit-identical duplicates) for the
  /// dispatcher to run when the foreground is idle.
  void scheduleReverify(const float *X, unsigned NumFeatures,
                        uint32_t PoisoningBudget) override;

  CertServerConfig Config;
  Verifier V;
  /// `Config.Query` with the slack path disarmed (`DeltaSlack` off,
  /// no scheduler): the background re-verification config — it must
  /// verify for real, never serve itself from the parent certificate.
  VerifierConfig ExactQuery;
  std::unique_ptr<ThreadPool> BatchPool;
  std::unique_ptr<ThreadPool> FrontierPool;
  CancellationToken AbortToken; ///< Cancelled by `abort()` only.

  mutable std::mutex Mutex;
  std::condition_variable QueueChanged; ///< Signalled on submit/stop.
  std::condition_variable Idle;         ///< Signalled when work completes.
  std::deque<Request> Queue;
  size_t InFlight = 0; ///< Requests taken off the queue, not yet served.
  uint64_t NextTicket = 1; ///< Ticket source; 0 is reserved for "none".
  /// Every accepted-but-unserved ticketed request's token, queued or
  /// in-flight, so `cancelRequest` (after the request left the queue)
  /// and `abort` (which must reach per-request tokens — ticketed
  /// verifications run under their own token, not `AbortToken`) can
  /// cancel them. Erased when the request is fulfilled.
  std::unordered_map<uint64_t, std::shared_ptr<CancellationToken>>
      LiveTokens;
  /// Exact re-verifications of slack-served queries; the dispatcher
  /// drains it only while `Queue` is empty. Pending entries are dropped
  /// on `stop()` (they are an optimization, not owed work).
  std::deque<BackgroundRequest> BackgroundQueue;
  size_t BackgroundInFlight = 0;
  uint64_t ReverifiesDone = 0;
  bool Stopping = false;
  std::thread Dispatcher;
};

} // namespace antidote

#endif // ANTIDOTE_SERVING_CERTSERVER_H
