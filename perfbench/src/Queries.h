//===- perfbench/src/Queries.h - Per-layer analysis of verify queries -*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-layer metrics of the two verification workloads (sweep-wdbc
/// and hard-mnist), shared because both see their queries the same way:
/// as `QueryRecord`s bracketed by a `QuerySpanStore`.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_QUERIES_H
#define PERFBENCH_QUERIES_H

#include "Bench.h"
#include "Stores.h"
#include "Trace.h"

#include "antidote/Verifier.h"

namespace perfbench {

/// Seconds since \p Start on the steady clock.
double secondsSince(double Start);

/// The data and concrete set-up layers, timed one call each:
/// `data.fingerprint_s` and `concrete.splitctx_s` (plus their spans).
void addSetupLayerMetrics(const antidote::Dataset &Train, SpanLog &Log,
                          RunResult &R);

/// `concrete.trace_us`: the median `Verifier::trace` time over \p Records.
void addTraceLayerMetric(const antidote::Verifier &V,
                         const std::vector<QueryRecord> &Records,
                         SpanLog &Log, RunResult &R);

/// The antidote.verify.* metrics from the records' spans, then the
/// abstract.* metrics: each query's root ⟨T,n⟩ is run through
/// `runAbstractDTrace` directly (on \p Jobs threads), and one
/// `abstractBestSplit` plus one `abstractFilter` call is timed on each
/// root state. Fails \p R when a direct engine run does not reproduce
/// its certificate's counters.
void addQueryLayerMetrics(const antidote::Verifier &V,
                          const std::vector<QueryRecord> &Records,
                          unsigned Jobs, SpanLog &Log, long Parent,
                          RunResult &R);

/// Compares \p Lines with the golden file \p Name under the golden
/// directory, or writes that file when recording. A missing file or the
/// first differing line fails \p R.
void checkGolden(const RunOptions &Options, const std::string &Name,
                 const std::vector<std::string> &Lines, RunResult &R);

/// Field-by-field equality of two certificates, timing aside.
bool sameCertificate(const antidote::Certificate &A,
                     const antidote::Certificate &B);

/// Adds `trace.self.<layer>_s` from the spans and `trace.spans`.
void addSelfTimeMetrics(const SpanLog &Log, RunResult &R);

/// Writes the spans under the work directory; records a problem when
/// the write fails.
void writeSpans(const SpanLog &Log, const RunOptions &Options,
                const std::string &Workload, RunResult &R);

} // namespace perfbench

#endif // PERFBENCH_QUERIES_H
