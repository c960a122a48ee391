//===- support/Budget.h - Cancellation and resource budgets -----*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single home of the verifier's resource budgeting:
///
///  - `ResourceLimits` — the three knobs every budgeted run understands
///    (wall-clock timeout, live-disjunct cap, live-state-byte cap). Every
///    config struct embeds one of these instead of redeclaring the knobs.
///  - `CancellationToken` — a thread-safe cooperative stop flag shared
///    between a controller and any number of in-flight runs. The canceller
///    records *why* (plain cancellation, an external deadline, an external
///    resource monitor) so a stopped run can still report the paper's
///    Timeout / ResourceLimit outcomes faithfully.
///  - `ResourceMeter` — the per-run combination of the two: it owns the
///    run's deadline, watches the shared token, and is polled with the
///    current live-state levels from inside the abstract learner's depth
///    iterations (not just between them).
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SUPPORT_BUDGET_H
#define ANTIDOTE_SUPPORT_BUDGET_H

#include "support/Timer.h"

#include <atomic>
#include <cstdint>

namespace antidote {

/// Why a budgeted computation was (or was not) stopped.
enum class BudgetOutcome : uint8_t {
  Ok,            ///< Within budget; keep going.
  Cancelled,     ///< Cooperatively cancelled by the controller.
  Timeout,       ///< Wall-clock budget exhausted.
  ResourceLimit, ///< Disjunct/state-byte cap exceeded (the paper's OOM).
};

/// The resource knobs of a budgeted run. This struct is the *only* place
/// they are declared; `AbstractLearnerConfig`, `VerifierConfig`,
/// `SweepConfig`, and `LabelFlipConfig` all embed it.
struct ResourceLimits {
  /// Per-run wall-clock budget in seconds (the paper uses 3600 s; §6.1).
  /// 0 disables.
  double TimeoutSeconds = 0.0;

  /// Cap on live disjuncts, standing in for the paper's 160 GB OOM bound.
  /// 0 disables.
  size_t MaxDisjuncts = 1u << 20;

  /// Cap on live abstract-state bytes. 0 disables.
  uint64_t MaxStateBytes = 0;
};

/// A shared cooperative-cancellation flag. One controller cancels; any
/// number of runs (possibly on other threads) poll `cancelled()` and wind
/// down at the next checkpoint. The first cancellation's reason sticks, so
/// a run stopped by an external deadline still reports Timeout and one
/// stopped by an external resource monitor still reports ResourceLimit.
class CancellationToken {
public:
  /// Requests cancellation. \p Reason must not be `Ok`; later calls with a
  /// different reason are ignored.
  void cancel(BudgetOutcome Reason = BudgetOutcome::Cancelled);

  bool cancelled() const {
    return Reason.load(std::memory_order_relaxed) !=
           static_cast<uint8_t>(BudgetOutcome::Ok);
  }

  /// The first cancellation's reason, or `Ok` when not cancelled.
  BudgetOutcome reason() const {
    return static_cast<BudgetOutcome>(Reason.load(std::memory_order_acquire));
  }

private:
  std::atomic<uint8_t> Reason{static_cast<uint8_t>(BudgetOutcome::Ok)};
};

/// The per-run budget monitor: a deadline started at construction, the
/// embedded `ResourceLimits`, and an optional shared `CancellationToken`.
/// Long-running loops poll `check()` with their live-state levels, or the
/// cheaper `interrupted()` where no levels are at hand (inner transformer
/// loops).
class ResourceMeter {
public:
  explicit ResourceMeter(const ResourceLimits &Limits,
                         const CancellationToken *Cancel = nullptr)
      : Limits(Limits), Cancel(Cancel), Clock(Limits.TimeoutSeconds) {}

  const ResourceLimits &limits() const { return Limits; }

  /// Full budget check against the current live-state levels. Token
  /// cancellation wins over the deadline, which wins over the caps.
  BudgetOutcome check(size_t LiveDisjuncts, uint64_t LiveStateBytes) const {
    if (Cancel && Cancel->cancelled())
      return Cancel->reason();
    if (Clock.expired())
      return BudgetOutcome::Timeout;
    if (Limits.MaxDisjuncts && LiveDisjuncts > Limits.MaxDisjuncts)
      return BudgetOutcome::ResourceLimit;
    if (Limits.MaxStateBytes && LiveStateBytes > Limits.MaxStateBytes)
      return BudgetOutcome::ResourceLimit;
    return BudgetOutcome::Ok;
  }

  /// Deadline/token-only check for loops that track no resource levels.
  bool interrupted() const {
    return (Cancel && Cancel->cancelled()) || Clock.expired();
  }

private:
  ResourceLimits Limits;
  const CancellationToken *Cancel;
  Deadline Clock;
};

} // namespace antidote

#endif // ANTIDOTE_SUPPORT_BUDGET_H
