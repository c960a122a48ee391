//===- support/ThreadPool.cpp - Fixed-size worker pool ------------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <memory>

using namespace antidote;

ThreadPool::ThreadPool(unsigned NumWorkers) {
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  assert(!Workers.empty() && "submitting to a worker-less pool");
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    assert(!Stopping && "submitting to a stopping pool");
    Queue.push_back(std::move(Task));
  }
  WorkAvailable.notify_one();
}

unsigned ThreadPool::hardwareConcurrency() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
  }
}

void antidote::parallelFor(ThreadPool *Pool, size_t Count,
                           const std::function<void(size_t)> &Body) {
  if (!Pool || Pool->size() == 0 || Count <= 1) {
    for (size_t I = 0; I < Count; ++I)
      Body(I);
    return;
  }

  // Self-scheduling: every executor (each pool worker plus the calling
  // thread) repeatedly claims the next unclaimed index. The shared state
  // outlives the call only until the last helper decrements Pending, which
  // happens before this function returns, so capturing Body by reference
  // is safe.
  struct SharedState {
    std::atomic<size_t> Next{0};
    std::mutex Mutex;
    std::condition_variable Done;
    size_t Pending = 0;
  };
  auto State = std::make_shared<SharedState>();

  auto Drain = [State, &Body, Count] {
    for (size_t I; (I = State->Next.fetch_add(1)) < Count;)
      Body(I);
  };

  size_t NumHelpers = std::min<size_t>(Pool->size(), Count - 1);
  State->Pending = NumHelpers;
  for (size_t I = 0; I < NumHelpers; ++I)
    Pool->submit([State, Drain] {
      Drain();
      std::lock_guard<std::mutex> Lock(State->Mutex);
      if (--State->Pending == 0)
        State->Done.notify_all();
    });

  Drain();
  std::unique_lock<std::mutex> Lock(State->Mutex);
  State->Done.wait(Lock, [&State] { return State->Pending == 0; });
}

//===----------------------------------------------------------------------===//
// OrderedFanout
//===----------------------------------------------------------------------===//

/// Shared between the constructing thread and the worker tasks; the tasks
/// hold a shared_ptr so the allocation outlives whichever side finishes
/// last, but the destructor still joins the workers because Body captures
/// the caller's stack.
struct OrderedFanout::State {
  /// Per-item claim handshake. Unclaimed -> Claimed is won by exactly one
  /// executor (CAS); the Ready store releases the item's result to the
  /// consumer's acquire load in awaitItem.
  enum ItemStatus : uint8_t { Unclaimed = 0, Claimed = 1, Ready = 2 };

  std::function<void(size_t)> Body;
  size_t Count = 0;
  size_t ChunkSize = 1;
  std::unique_ptr<std::atomic<uint8_t>[]> Status;
  std::atomic<size_t> Cursor{0};

  /// Relaxed is enough: the flag is a pure go-faster hint (skipped items
  /// are by construction never awaited), never a correctness signal.
  std::atomic<bool> Skip{false};

  std::mutex Mutex;
  std::condition_variable HelpersDone;

  /// Helper tasks currently *executing* drainChunks. Tasks still queued on
  /// the pool are not counted: once Stopping is set they exit on entry
  /// without touching Body, so teardown never waits on the pool's queue —
  /// the property that lets concurrent fan-outs share one pool (a fan-out
  /// tearing down must not wait for its helper tasks queued behind other
  /// fan-outs' tasks).
  size_t ActiveHelpers = 0;
  bool Stopping = false; ///< Guarded by Mutex; set once at teardown.

  /// First item index the workers may NOT claim yet (size_t max when the
  /// window is unbounded). Guarded by Mutex; the consumer advances it as
  /// it awaits items and signals HorizonAdvanced.
  size_t Horizon = 0;
  std::condition_variable HorizonAdvanced;

  // Consumer-thread-only bookkeeping (no synchronization needed).
  size_t WindowItems = 0;        ///< 0 = unbounded.
  size_t PublishedHorizon = 0;   ///< Last Horizon value written.
  size_t HelpCursor = 0;         ///< Next index the consumer helps from.

  /// One worker's life: claim chunks until the cursor runs dry or the
  /// consumer cancels, claiming each index of a chunk individually so the
  /// consumer can compute not-yet-claimed items inline. A chunk at or
  /// past the claim horizon is not forfeited — the worker sleeps until
  /// the consumer's progress moves the horizon over it.
  void drainChunks() {
    while (!Skip.load(std::memory_order_relaxed)) {
      size_t Begin = Cursor.fetch_add(ChunkSize, std::memory_order_relaxed);
      if (Begin >= Count)
        return;
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        HorizonAdvanced.wait(Lock, [this, Begin] {
          return Skip.load(std::memory_order_relaxed) || Begin < Horizon;
        });
      }
      if (Skip.load(std::memory_order_relaxed))
        return;
      size_t End = std::min(Count, Begin + ChunkSize);
      for (size_t I = Begin; I < End; ++I) {
        uint8_t Expected = Unclaimed;
        if (Status[I].compare_exchange_strong(Expected, Claimed,
                                              std::memory_order_acquire)) {
          Body(I);
          Status[I].store(Ready, std::memory_order_release);
        }
      }
    }
  }

  /// Consumer-side help while waiting on a claimed item: claim and
  /// compute one later unclaimed item (within the horizon, which cannot
  /// advance while the consumer is here). Returns false when nothing is
  /// claimable, i.e. everything up to the horizon is claimed or done.
  bool helpOne() {
    size_t Limit = std::min(Count, PublishedHorizon);
    while (HelpCursor < Limit) {
      size_t J = HelpCursor++;
      uint8_t Expected = Unclaimed;
      if (Status[J].compare_exchange_strong(Expected, Claimed,
                                            std::memory_order_acquire)) {
        Body(J);
        Status[J].store(Ready, std::memory_order_release);
        return true;
      }
    }
    return false;
  }
};

OrderedFanout::OrderedFanout(ThreadPool *Pool, size_t Count, size_t ChunkSize,
                             std::function<void(size_t)> Body,
                             size_t WindowChunks)
    : S(std::make_shared<State>()) {
  size_t Helpers = Pool ? Pool->size() : 0;
  if (ChunkSize == 0) {
    // A few chunks per executor balances imbalanced item costs against
    // cursor traffic; 64 caps the tail a cancel can no longer skip.
    ChunkSize = std::min<size_t>(64, std::max<size_t>(
        1, Count / (4 * (Helpers + 1))));
  }
  S->Body = std::move(Body);
  S->Count = Count;
  S->ChunkSize = std::max<size_t>(1, ChunkSize);
  S->WindowItems = WindowChunks ? WindowChunks * S->ChunkSize : 0;
  S->Horizon = S->WindowItems ? S->WindowItems
                              : std::numeric_limits<size_t>::max();
  S->PublishedHorizon = S->Horizon;
  S->Status.reset(new std::atomic<uint8_t>[Count]);
  for (size_t I = 0; I < Count; ++I)
    S->Status[I].store(State::Unclaimed, std::memory_order_relaxed);

  size_t NumChunks = (Count + S->ChunkSize - 1) / S->ChunkSize;
  // One drain task per worker; the consumer thread is the extra executor,
  // so a single-chunk fan-out needs no helper at all.
  Helpers = std::min(Helpers, NumChunks > 0 ? NumChunks - 1 : 0);
  for (size_t I = 0; I < Helpers; ++I)
    Pool->submit([State = S] {
      {
        // Count this helper as active only if teardown has not begun; a
        // task drained from the queue after that must never call Body
        // (the caller's stack it captures may be gone).
        std::lock_guard<std::mutex> Lock(State->Mutex);
        if (State->Stopping)
          return;
        ++State->ActiveHelpers;
      }
      State->drainChunks();
      std::lock_guard<std::mutex> Lock(State->Mutex);
      if (--State->ActiveHelpers == 0)
        State->HelpersDone.notify_all();
    });
}

OrderedFanout::~OrderedFanout() {
  cancelRemaining();
  std::unique_lock<std::mutex> Lock(S->Mutex);
  S->Stopping = true;
  S->HelpersDone.wait(Lock, [this] { return S->ActiveHelpers == 0; });
}

void OrderedFanout::awaitItem(size_t I) {
  assert(I < S->Count && "awaiting an out-of-range item");
  // Bounded window: consuming item I entitles the workers to claim up to
  // I + WindowItems. Publishing (mutex + notify) once per chunk's worth
  // of progress keeps the consumer's fast path lock-free.
  if (S->WindowItems) {
    size_t NewHorizon = std::min(S->Count, I + S->WindowItems);
    if (NewHorizon >= S->PublishedHorizon + S->ChunkSize ||
        (NewHorizon == S->Count && NewHorizon > S->PublishedHorizon)) {
      std::lock_guard<std::mutex> Lock(S->Mutex);
      S->Horizon = NewHorizon;
      S->PublishedHorizon = NewHorizon;
      S->HorizonAdvanced.notify_all();
    }
  }

  std::atomic<uint8_t> &St = S->Status[I];
  uint8_t Expected = State::Unclaimed;
  if (St.compare_exchange_strong(Expected, State::Claimed,
                                 std::memory_order_acquire)) {
    // The workers have not reached this item: compute it here. No Ready
    // store is needed for our own read, but workers skip Claimed items
    // either way, and nobody else awaits it.
    S->Body(I);
    St.store(State::Ready, std::memory_order_release);
    return;
  }
  // A worker owns it; its Ready store releases the result. Rather than
  // spin, help forward on later unclaimed items; fall back to yielding
  // when everything claimable is taken, so a starved pool — e.g. a
  // frontier fan-out sharing workers with other in-flight verifications —
  // cannot deadlock the consumer, only slow it down.
  while (St.load(std::memory_order_acquire) != State::Ready)
    if (!S->helpOne())
      std::this_thread::yield();
}

void OrderedFanout::cancelRemaining() {
  if (S->Skip.exchange(true, std::memory_order_relaxed))
    return;
  // Wake workers parked at the horizon so they can observe Skip and exit.
  std::lock_guard<std::mutex> Lock(S->Mutex);
  S->HorizonAdvanced.notify_all();
}

unsigned antidote::resolveJobs(unsigned Jobs) {
  unsigned Hardware = ThreadPool::hardwareConcurrency();
  return Jobs == 0 ? Hardware : std::min(Jobs, 16u * Hardware);
}

std::unique_ptr<ThreadPool> antidote::makeVerificationPool(unsigned Jobs) {
  Jobs = resolveJobs(Jobs);
  if (Jobs == 1)
    return nullptr;
  return std::make_unique<ThreadPool>(Jobs - 1);
}
