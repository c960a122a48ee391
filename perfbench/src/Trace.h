//===- perfbench/src/Trace.h - In-memory spans for the traced run -*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the traced benchmark run at each layer boundary it
/// calls from outside the library. Spans stay in memory while the run
/// measures and are written out once it ends. A layer's self time is its
/// span's duration minus the part of that interval its children cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock, measured from the first call in the
/// process, so spans and open-loop records share one time base.
double nowSeconds();

struct Span {
  std::string Name;
  double Start = 0.0;
  double End = 0.0;
  long Parent = -1;     ///< Index of the enclosing span; -1 = root.
  uint64_t Request = 0; ///< Spans of one request or query share this.
};

/// Thread-safe append-only span log.
class SpanLog {
public:
  /// Appends a span and returns its index (usable as a child's Parent).
  long add(std::string Name, double Start, double End, long Parent = -1,
           uint64_t Request = 0);

  /// Appends an open span (End = Start) to be closed with `close`.
  long open(std::string Name, double Start, long Parent = -1,
            uint64_t Request = 0) {
    return add(std::move(Name), Start, Start, Parent, Request);
  }
  void close(long Index, double End);

  std::vector<Span> spans() const;
  size_t size() const;

  /// Writes every span as one JSON array; false on an I/O error.
  bool write(const std::string &Path) const;

private:
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

/// Sum of self time (duration minus the union of its direct children's
/// intervals, clipped to the span) per span name.
std::map<std::string, double> selfTimes(const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
