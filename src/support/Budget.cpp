//===- support/Budget.cpp - Cancellation and resource budgets -----------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "support/Budget.h"

#include <cassert>

using namespace antidote;

void CancellationToken::cancel(BudgetOutcome WithReason) {
  assert(WithReason != BudgetOutcome::Ok && "cancelling with reason Ok");
  uint8_t Expected = static_cast<uint8_t>(BudgetOutcome::Ok);
  // First cancellation wins; concurrent cancels with other reasons no-op.
  Reason.compare_exchange_strong(Expected,
                                 static_cast<uint8_t>(WithReason),
                                 std::memory_order_acq_rel);
}
