//===- serving/CertServer.cpp - Warm certificate-serving loop -----------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "serving/CertServer.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace antidote;

CertServer::CertServer(const Dataset &Train, const CertServerConfig &Config)
    : Config(Config), V(Train),
      BatchPool(makeVerificationPool(Config.Jobs)),
      FrontierPool(makeVerificationPool(Config.Query.FrontierJobs)) {
  // The server owns the long-lived halves of the query config; whatever
  // the caller put there is replaced. The store is taken as configured —
  // abstract, already composed by the wiring layer.
  this->Config.Query.FrontierPool = FrontierPool.get();
  this->Config.Query.Cache = Config.Store;
  this->Config.Query.Cancel = &AbortToken;
  if (Config.Lineage) {
    V.setLineage(*Config.Lineage);
    // The server is the scheduler behind the slack path: slack-served
    // queries land on the background queue for exact re-verification.
    this->Config.Query.Reverify = this;
  }
  // The background config must verify for real: slack disarmed, no
  // scheduler (a background run must never re-queue itself).
  ExactQuery = this->Config.Query;
  ExactQuery.DeltaSlack = false;
  ExactQuery.Reverify = nullptr;
  Dispatcher = std::thread([this] { dispatchLoop(); });
}

CertServer::~CertServer() { stop(); }

void CertServer::fulfill(Request &R, const Certificate &Cert) {
  // Move the callback out first: set_value may unblock a waiter that
  // destroys the request's surroundings.
  std::function<void(const Certificate &)> Completion =
      std::move(R.Completion);
  R.Promise.set_value(Cert);
  if (Completion)
    Completion(Cert);
}

Certificate CertServer::unverified(VerdictKind Kind,
                                   uint32_t PoisoningBudget) const {
  Certificate Cert;
  Cert.Kind = Kind;
  Cert.PoisoningBudget = PoisoningBudget;
  Cert.Depth = Config.Query.Depth;
  Cert.Domain = Config.Query.Domain;
  Cert.Threat = Config.Query.Threat;
  return Cert;
}

std::future<Certificate> CertServer::submit(std::vector<float> X,
                                            uint32_t PoisoningBudget) {
  Request R;
  R.X = std::move(X);
  R.PoisoningBudget = PoisoningBudget;
  return enqueue(std::move(R), nullptr);
}

std::future<Certificate> CertServer::submit(std::vector<float> X,
                                            uint32_t PoisoningBudget,
                                            SubmitOptions Options,
                                            uint64_t &TicketOut) {
  Request R;
  R.X = std::move(X);
  R.PoisoningBudget = PoisoningBudget;
  R.Completion = std::move(Options.Completion);
  if (Options.DeadlineSeconds > 0.0) {
    R.HasDeadline = true;
    R.Deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(Options.DeadlineSeconds));
  }
  return enqueue(std::move(R), &TicketOut);
}

std::future<Certificate> CertServer::enqueue(Request R,
                                             uint64_t *TicketOut) {
  assert(R.X.size() == V.trainingSet().numFeatures() &&
         "query arity must match the training set");
  std::future<Certificate> Result = R.Promise.get_future();
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    if (Stopping) {
      if (TicketOut)
        *TicketOut = 0; // Nothing to cancel; the answer is already here.
      fulfill(R, unverified(VerdictKind::Cancelled, R.PoisoningBudget));
      return Result;
    }
    if (TicketOut) {
      R.Ticket = NextTicket++;
      R.Cancel = std::make_shared<CancellationToken>();
      LiveTokens.emplace(R.Ticket, R.Cancel);
      *TicketOut = R.Ticket;
    }
    Queue.push_back(std::move(R));
  }
  QueueChanged.notify_one();
  return Result;
}

bool CertServer::cancelRequest(uint64_t Ticket) {
  if (Ticket == 0)
    return false;
  Request Cancelled;
  bool FoundQueued = false;
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    // Still queued: release the slot now — admission control upstream
    // keys off the queue depth, and a dead client's request must not
    // hold capacity hostage, let alone get verified.
    for (auto It = Queue.begin(); It != Queue.end(); ++It) {
      if (It->Ticket != Ticket)
        continue;
      Cancelled = std::move(*It);
      Queue.erase(It);
      LiveTokens.erase(Ticket);
      FoundQueued = true;
      break;
    }
    if (!FoundQueued) {
      auto It = LiveTokens.find(Ticket);
      if (It == LiveTokens.end())
        return false; // Unknown or already served.
      // In flight: the verification observes the token at its next
      // budget poll and reports Cancelled through the normal path.
      It->second->cancel();
      return true;
    }
  }
  fulfill(Cancelled,
          unverified(VerdictKind::Cancelled, Cancelled.PoisoningBudget));
  Idle.notify_all(); // A drain may have been waiting on this request.
  return true;
}

bool CertServer::probeStore(const float *X, uint32_t PoisoningBudget,
                            Certificate &Out) const {
  CertificateStore *Store = Config.Store;
  if (!Store)
    return false;
  return Store->probe(V.fingerprint(), X, V.trainingSet().numFeatures(),
                      PoisoningBudget, Config.Query, Out);
}

void CertServer::dispatchLoop() {
  for (;;) {
    std::vector<Request> Batch;
    BackgroundRequest Reverify;
    bool RunReverify = false;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      QueueChanged.wait(Lock, [this] {
        return Stopping || !Queue.empty() || !BackgroundQueue.empty();
      });
      if (Queue.empty() && Stopping)
        // Nothing left to serve; pending background re-verifications
        // are dropped by design (the next cold query just verifies).
        return;
      if (Queue.empty()) {
        // Foreground idle: run one background re-verification, then
        // re-check — a submit during it takes priority next round.
        Reverify = std::move(BackgroundQueue.front());
        BackgroundQueue.pop_front();
        ++BackgroundInFlight;
        RunReverify = true;
      } else {
        // MaxBatch 0 = unbounded; anything else still takes at least
        // one request, so the loop always makes progress.
        size_t Take = Config.MaxBatch
                          ? std::min(Config.MaxBatch, Queue.size())
                          : Queue.size();
        Batch.reserve(Take);
        for (size_t I = 0; I < Take; ++I) {
          Batch.push_back(std::move(Queue.front()));
          Queue.pop_front();
        }
        InFlight += Batch.size();
      }
    }
    if (RunReverify) {
      // The exact certificate writes through to the store under the
      // child's own fingerprint inside verify (ExactQuery keeps the
      // server's Cache wiring; only the slack path is disarmed).
      V.verify(Reverify.X.data(), Reverify.PoisoningBudget, ExactQuery);
      {
        std::lock_guard<std::mutex> Guard(Mutex);
        --BackgroundInFlight;
        ++ReverifiesDone;
      }
      Idle.notify_all();
      continue;
    }
    size_t Served = Batch.size();
    serveBatch(std::move(Batch));
    {
      std::lock_guard<std::mutex> Guard(Mutex);
      InFlight -= Served;
    }
    Idle.notify_all();
  }
}

void CertServer::finish(Request &R, const Certificate &Cert) {
  if (R.Ticket) {
    std::lock_guard<std::mutex> Guard(Mutex);
    LiveTokens.erase(R.Ticket);
  }
  fulfill(R, Cert);
}

void CertServer::serveBatch(std::vector<Request> Batch) {
  // Group by poisoning budget (verifyBatch verifies one n per call)
  // while preserving submission order within each group. Serving traffic
  // overwhelmingly shares one n, so this is almost always a single
  // verifyBatch spanning the whole batch.
  std::vector<size_t> Order(Batch.size());
  for (size_t I = 0; I < Batch.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Batch[A].PoisoningBudget < Batch[B].PoisoningBudget;
  });

  size_t GroupStart = 0;
  while (GroupStart < Order.size()) {
    size_t GroupEnd = GroupStart;
    uint32_t N = Batch[Order[GroupStart]].PoisoningBudget;
    while (GroupEnd < Order.size() &&
           Batch[Order[GroupEnd]].PoisoningBudget == N)
      ++GroupEnd;

    bool AnyTicketed = false;
    for (size_t I = GroupStart; I < GroupEnd; ++I)
      if (Batch[Order[I]].Ticket || Batch[Order[I]].HasDeadline)
        AnyTicketed = true;

    if (AnyTicketed) {
      // Per-request path: each request verifies under its own token and
      // its own deadline-clamped limits, so one client's cancellation
      // or deadline never stops a neighbour's identical query. Expired
      // requests answer Timeout here without consuming a verification
      // (sound: Timeout claims nothing).
      auto Now = std::chrono::steady_clock::now();
      std::vector<size_t> Live;       // Indices into Batch.
      std::vector<VerifierConfig> Configs;
      for (size_t I = GroupStart; I < GroupEnd; ++I) {
        Request &R = Batch[Order[I]];
        if (R.HasDeadline && R.Deadline <= Now) {
          finish(R, unverified(VerdictKind::Timeout, N));
          continue;
        }
        VerifierConfig C = Config.Query;
        if (R.Cancel)
          C.Cancel = R.Cancel.get();
        if (R.HasDeadline) {
          double Remaining =
              std::chrono::duration<double>(R.Deadline - Now).count();
          C.Limits.TimeoutSeconds =
              C.Limits.TimeoutSeconds > 0
                  ? std::min(C.Limits.TimeoutSeconds, Remaining)
                  : Remaining;
        }
        Live.push_back(Order[I]);
        Configs.push_back(std::move(C));
      }
      std::vector<Certificate> Certs(Live.size());
      parallelFor(BatchPool.get(), Live.size(), [&](size_t J) {
        Request &R = Batch[Live[J]];
        Certs[J] = V.verify(R.X.data(), R.PoisoningBudget, Configs[J]);
      });
      for (size_t J = 0; J < Live.size(); ++J)
        finish(Batch[Live[J]], Certs[J]);
    } else {
      std::vector<const float *> Inputs;
      Inputs.reserve(GroupEnd - GroupStart);
      for (size_t I = GroupStart; I < GroupEnd; ++I)
        Inputs.push_back(Batch[Order[I]].X.data());

      // Cache lookups/stores happen per query on the batch-pool workers,
      // inside Verifier::verify — hits cost a hash probe, misses verify
      // and seed the cache for the next repeat.
      std::vector<Certificate> Certs =
          V.verifyBatch(Inputs, N, Config.Query, BatchPool.get());
      for (size_t I = GroupStart; I < GroupEnd; ++I)
        fulfill(Batch[Order[I]], Certs[I - GroupStart]);
    }

    GroupStart = GroupEnd;
  }
}

void CertServer::scheduleReverify(const float *X, unsigned NumFeatures,
                                  uint32_t PoisoningBudget) {
  BackgroundRequest R;
  R.X.assign(X, X + NumFeatures);
  R.PoisoningBudget = PoisoningBudget;
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    if (Stopping)
      return; // Best-effort by contract; a shutdown drops the request.
    // Coalesce bit-identical duplicates: a batch of repeats of one
    // slack-served query needs one re-verification, not many.
    for (const BackgroundRequest &Queued : BackgroundQueue)
      if (Queued.PoisoningBudget == PoisoningBudget &&
          Queued.X.size() == R.X.size() &&
          std::memcmp(Queued.X.data(), R.X.data(),
                      R.X.size() * sizeof(float)) == 0)
        return;
    BackgroundQueue.push_back(std::move(R));
  }
  QueueChanged.notify_one();
}

size_t CertServer::pendingRequests() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Queue.size() + InFlight;
}

size_t CertServer::pendingReverifies() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return BackgroundQueue.size() + BackgroundInFlight;
}

uint64_t CertServer::reverifiesCompleted() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return ReverifiesDone;
}

void CertServer::drain() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Idle.wait(Lock, [this] { return Queue.empty() && InFlight == 0; });
}

void CertServer::drainBackground() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Idle.wait(Lock, [this] {
    return Queue.empty() && InFlight == 0 && BackgroundQueue.empty() &&
           BackgroundInFlight == 0;
  });
}

void CertServer::stop() {
  std::thread ToJoin;
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    Stopping = true;
    ToJoin = std::move(Dispatcher); // Empty on every stop after the first.
  }
  QueueChanged.notify_all();
  if (ToJoin.joinable())
    ToJoin.join(); // The loop exits only once the queue is empty.
}

void CertServer::abort() {
  // Cancel first so the drain inside stop() is cheap: every queued or
  // in-flight verification observes the token and reports Cancelled
  // instead of running to completion. Ticketed requests verify under
  // their own tokens, not AbortToken, so those are cancelled too.
  AbortToken.cancel();
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    for (auto &Entry : LiveTokens)
      Entry.second->cancel();
  }
  stop();
}
