//===- perfbench/src/Stats.h - Sample statistics for the benchmark -*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The statistics every benchmark metric goes through: nearest-rank
/// quantiles, the tail-percentile rule (report the highest percentile that
/// still has at least ten samples beyond it), open-loop latency accounting
/// (a request is timed from when it was due, not from when the generator
/// got round to sending it), and FIFO per-key matching of events observed
/// inside the server to the requests that caused them.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of \p Values (0 <= \p Q <= 1); 0 when empty.
double quantile(std::vector<double> Values, double Q);

inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

/// The highest of the percentiles 50, 90, 99, 99.9, 99.99, 99.999 that
/// leaves at least ten of \p Count samples beyond it, as a fraction
/// (0.99 for p99). 0 when even the median has fewer than ten beyond it.
double tailPercentile(size_t Count);

/// One request of an open-loop run, in seconds on one clock.
struct OpenLoopRecord {
  double Due = 0.0;   ///< When the schedule said to send it.
  double Sent = -1.0; ///< When it went out; < 0 = never sent.
  double Done = -1.0; ///< When its answer arrived; < 0 = no answer.
  bool Ok = false;    ///< Answered with a usable certificate.
};

/// What an open-loop phase did, for one class of requests.
struct OpenLoopSummary {
  size_t Sent = 0;
  size_t Answered = 0; ///< Ok answers.
  size_t Failed = 0;   ///< Sent but not answered Ok (refused, error, lost).
  std::vector<double> Latencies; ///< Done - Due of each Ok answer.
  double MaxLate = 0.0; ///< Largest Sent - Due: how far the generator lagged.
  double P99Late = 0.0;
};

/// Summarizes \p Records. Latency runs from the due time, so a stall that
/// delays later sends is charged to the requests it delayed.
OpenLoopSummary summarizeOpenLoop(const std::vector<OpenLoopRecord> &Records);

/// Pairs events with requests per key, in FIFO order: the i-th event
/// carrying key K is matched with the i-th request carrying K. Returns,
/// for each event, the index of its request in \p RequestKeys, or -1
/// when K had no unmatched request left.
std::vector<long> matchFifo(const std::vector<uint64_t> &RequestKeys,
                            const std::vector<uint64_t> &EventKeys);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
