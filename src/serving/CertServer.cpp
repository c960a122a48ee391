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
      FrontierPool(makeVerificationPool(Config.Query.FrontierJobs)) {
  // The server owns the long-lived halves of the query config; whatever
  // the caller put there is replaced. The store is taken as configured —
  // abstract, already composed by the wiring layer. `Cancel` is set per
  // request (each verifies under its own token).
  this->Config.Query.FrontierPool = FrontierPool.get();
  this->Config.Query.Cache = Config.Store;
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
  ExactQuery.Cancel = &AbortToken;
  unsigned NumWorkers = resolveJobs(Config.Jobs);
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
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
  uint64_t Ticket;
  return submit(std::move(X), PoisoningBudget, SubmitOptions(), Ticket);
}

std::future<Certificate> CertServer::submit(std::vector<float> X,
                                            uint32_t PoisoningBudget,
                                            SubmitOptions Options,
                                            uint64_t &TicketOut) {
  assert(X.size() == V.trainingSet().numFeatures() &&
         "query arity must match the training set");
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
  std::future<Certificate> Result = R.Promise.get_future();
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    if (Stopping) {
      TicketOut = 0; // Nothing to cancel; the answer is already here.
      fulfill(R, unverified(VerdictKind::Cancelled, R.PoisoningBudget));
      return Result;
    }
    R.Ticket = NextTicket++;
    R.Cancel = std::make_shared<CancellationToken>();
    LiveTokens.emplace(R.Ticket, R.Cancel);
    TicketOut = R.Ticket;
    Queue.push_back(std::move(R));
  }
  QueueChanged.notify_one();
  return Result;
}

bool CertServer::cancelRequest(uint64_t Ticket) {
  if (Ticket == 0)
    return false;
  std::optional<Request> Cancelled;
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    // Still queued: release the slot now — admission control upstream
    // keys off the queue depth, and a dead client's request must not
    // hold capacity hostage, let alone get verified.
    for (auto It = Queue.begin(); It != Queue.end(); ++It) {
      if (It->Ticket != Ticket)
        continue;
      Cancelled.emplace(std::move(*It));
      Queue.erase(It);
      LiveTokens.erase(Ticket);
      break;
    }
    if (!Cancelled) {
      auto It = LiveTokens.find(Ticket);
      if (It == LiveTokens.end())
        return false; // Unknown or already served.
      // In flight: the verification observes the token at its next
      // budget poll and reports Cancelled through the normal path.
      It->second->cancel();
      return true;
    }
  }
  fulfill(*Cancelled,
          unverified(VerdictKind::Cancelled, Cancelled->PoisoningBudget));
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

void CertServer::workerLoop() {
  for (;;) {
    std::optional<Request> R;
    std::optional<BackgroundRequest> Reverify;
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
        Reverify.emplace(std::move(BackgroundQueue.front()));
        BackgroundQueue.pop_front();
        ++BackgroundInFlight;
      } else {
        R.emplace(std::move(Queue.front()));
        Queue.pop_front();
        ++InFlight;
      }
    }
    if (R) {
      finish(*R, serve(*R));
      std::lock_guard<std::mutex> Guard(Mutex);
      --InFlight;
    } else {
      // The exact certificate writes through to the store under the
      // child's own fingerprint inside verify (ExactQuery keeps the
      // server's Cache wiring; only the slack path is disarmed).
      V.verify(Reverify->X.data(), Reverify->PoisoningBudget, ExactQuery);
      std::lock_guard<std::mutex> Guard(Mutex);
      --BackgroundInFlight;
      ++ReverifiesDone;
    }
    Idle.notify_all();
  }
}

Certificate CertServer::serve(const Request &R) const {
  // An expired request answers Timeout without consuming a verification
  // (sound: Timeout claims nothing).
  auto Now = std::chrono::steady_clock::now();
  if (R.HasDeadline && R.Deadline <= Now)
    return unverified(VerdictKind::Timeout, R.PoisoningBudget);
  // Each request verifies under its own token and its own deadline-
  // clamped limits, so one client's cancellation or deadline never stops
  // a neighbour's identical query. Store lookups and write-throughs
  // happen inside verify: a hit costs one store probe on this worker.
  VerifierConfig C = Config.Query;
  C.Cancel = R.Cancel.get();
  if (R.HasDeadline) {
    double Remaining = std::chrono::duration<double>(R.Deadline - Now).count();
    double &Timeout = C.Limits.TimeoutSeconds;
    Timeout = Timeout > 0 ? std::min(Timeout, Remaining) : Remaining;
  }
  return V.verify(R.X.data(), R.PoisoningBudget, C);
}

void CertServer::finish(Request &R, const Certificate &Cert) {
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    LiveTokens.erase(R.Ticket);
  }
  fulfill(R, Cert);
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
    // Coalesce bit-identical duplicates: a burst of repeats of one
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
  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    Stopping = true;
    ToJoin.swap(Workers); // Empty on every stop after the first.
  }
  QueueChanged.notify_all();
  for (std::thread &Worker : ToJoin)
    Worker.join(); // Each exits only once the queue is empty.
}

void CertServer::abort() {
  // Cancel first so the drain inside stop() is cheap: every queued or
  // in-flight verification observes its token and reports Cancelled
  // instead of running to completion. Stopping is raised under the same
  // lock, so no request accepted later escapes with a live token.
  AbortToken.cancel();
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    Stopping = true;
    for (auto &Entry : LiveTokens)
      Entry.second->cancel();
  }
  stop();
}
