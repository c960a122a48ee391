//===- antidote/Sweep.h - The paper's experiment protocol -------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §6.1 experimental protocol, as a reusable harness:
///
///   1. For each (tree depth, abstract domain) start at poisoning n = 1.
///   2. Attempt to verify every element of the test subset; let S_n be the
///      verified survivors. If S_n ≠ ∅, double n and retry on S_n only
///      (robustness is anti-monotone in n, so non-survivors stay failed).
///   3. If at some n every survivor fails, binary-search (n/2, n) for the
///      largest n' at which at least one instance still verifies, recording
///      every attempted cell — this is what gives the paper's plots their
///      resolution near each curve's cliff.
///
/// The result records, per (depth, domain, n) cell, the verified counts and
/// the average time / peak-abstract-state-memory of the attempts (the
/// quantities plotted in Figures 6-11), plus each instance's maximum
/// verified n (used to derive Figure 6's fraction-verified curves,
/// including the "either domain" union the paper's Figure 6 reports).
///
/// Execution model: the doubling/binary-search control loop is inherently
/// sequential (each probe's candidate set depends on the previous probe's
/// survivors), but the instances *within* one probe are independent, so
/// `runPoisoningSweep` fans them out across `SweepConfig::Jobs` threads via
/// `Verifier::verifyBatch`. Aggregation happens on the controller thread in
/// instance order, so every count in the result is identical whatever the
/// thread count — with one inherent caveat: a per-instance *wall-clock*
/// timeout (`InstanceLimits.TimeoutSeconds`) is scheduling-dependent, so
/// instances near the timeout boundary can flip verdict under CPU
/// contention, exactly as they do between differently loaded machines.
/// Runs whose instances finish within budget are bit-identical for every
/// `Jobs` value. Per-instance budgets live in `SweepConfig::InstanceLimits`
/// (see support/Budget.h), and an optional shared `CancellationToken`
/// stops the whole sweep — including queries already in flight —
/// cooperatively.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_ANTIDOTE_SWEEP_H
#define ANTIDOTE_ANTIDOTE_SWEEP_H

#include "antidote/Verifier.h"
#include "support/Budget.h"

#include <string>
#include <vector>

namespace antidote {

/// One abstract-domain configuration participating in a sweep.
struct SweepDomainSpec {
  std::string Name; ///< Label used in reports ("box", "disjuncts", ...).
  AbstractDomainKind Domain = AbstractDomainKind::Box;
  size_t DisjunctCap = 64; ///< Only for DisjunctsCapped.
};

/// Sweep-wide parameters.
struct SweepConfig {
  std::vector<unsigned> Depths = {1, 2, 3, 4};
  std::vector<SweepDomainSpec> Domains = {
      {"box", AbstractDomainKind::Box, 0},
      {"disjuncts", AbstractDomainKind::Disjuncts, 0},
  };

  /// The poisoning threat model every probe quantifies over
  /// (abstract/ThreatModel.h). Specs whose domain the model does not
  /// support (flips run Disjuncts only) are skipped with an empty series
  /// so a mixed default domain list stays usable under either model.
  ThreatModelKind Threat = ThreatModelKind::Removal;

  /// Stop doubling once n would exceed this.
  uint32_t MaxPoisoning = 1u << 14;

  /// Per-instance resource budget: wall clock (the paper uses 3600 s) and
  /// the caps standing in for their 160 GB OOM bound.
  ResourceLimits InstanceLimits = {/*TimeoutSeconds=*/5.0,
                                   /*MaxDisjuncts=*/1u << 18,
                                   /*MaxStateBytes=*/1ull << 31};

  /// Worker threads for the per-instance fan-out. 1 = serial; 0 = one per
  /// hardware thread. Results are identical for every value.
  unsigned Jobs = 1;

  /// Executors for the frontier fan-out *within* each instance's DTrace#
  /// run (1 = serial, 0 = one per hardware thread); one pool is shared by
  /// every instance of the sweep. Orthogonal to `Jobs`: `Jobs` helps when
  /// a probe has many instances, `FrontierJobs` when a few hard instances
  /// with huge disjunctive frontiers dominate. Results are identical for
  /// every value (the wall-clock-timeout caveat above applies equally).
  unsigned FrontierJobs = 1;

  /// Optional shared stop lever: cancelling it ends the sweep early (the
  /// partial result is still well-formed).
  const CancellationToken *Cancel = nullptr;

  /// Optional certificate store every instance's query consults
  /// (serving/CertCache.h is the production implementation). A sweep's
  /// own probes rarely repeat a (x, n, config) triple — each doubling
  /// step uses a fresh n — so this mainly pays off when a long-lived
  /// cache is shared *across* sweeps or with a `CertServer` answering
  /// the same dataset's traffic. Must tolerate concurrent access from
  /// the `Jobs` batch workers.
  CertificateStore *Cache = nullptr;

  /// Passed through to every instance's `VerifierConfig::DeltaSlack`:
  /// with a `Cache` attached and the sweep's verifier armed with
  /// lineage, instances may be answered from a parent dataset's
  /// certificates (the CLI knob `--delta-slack 0` disables it for A/B
  /// runs). Inert without lineage.
  bool DeltaSlack = true;

  CprobTransformerKind Cprob = CprobTransformerKind::Optimal;
  GiniLiftingKind Gini = GiniLiftingKind::ExactTerm;

  /// Run the paper's binary search when all survivors fail at some n.
  bool BinarySearchOnFailure = true;
};

/// Aggregated outcomes of all attempts at one (depth, domain, n) cell.
struct SweepCell {
  unsigned Depth = 0;
  std::string DomainName;
  uint32_t Poisoning = 0;

  unsigned Attempted = 0;
  unsigned Verified = 0;
  unsigned Timeouts = 0;
  unsigned ResourceFailures = 0;
  unsigned Cancellations = 0; ///< Attempts cut short by the sweep's token.

  double TotalSeconds = 0.0;
  double TotalPeakStateBytes = 0.0;

  double avgSeconds() const {
    return Attempted ? TotalSeconds / Attempted : 0.0;
  }
  double avgPeakStateBytes() const {
    return Attempted ? TotalPeakStateBytes / Attempted : 0.0;
  }
};

/// All cells of one (depth, domain) protocol run, plus per-instance maxima.
struct SweepSeries {
  unsigned Depth = 0;
  std::string DomainName;
  std::vector<SweepCell> Cells; ///< Ascending n.

  /// For each verify instance (aligned with SweepResult::VerifyRows): the
  /// largest n at which it was proven robust; 0 if never.
  std::vector<uint32_t> MaxVerifiedN;
};

/// A full sweep over one dataset.
struct SweepResult {
  std::vector<uint32_t> VerifyRows; ///< Test-set rows that were verified.
  std::vector<SweepSeries> Series;  ///< One per (depth, domain).

  /// Fraction of instances for which *any* of the named domains proved
  /// robustness at poisoning \p N and depth \p Depth (Figure 6's curves,
  /// which treat box/disjuncts as run in parallel). Pass an empty name
  /// list to include every domain.
  double fractionVerified(unsigned Depth, uint32_t N,
                          const std::vector<std::string> &DomainNames =
                              {}) const;

  /// Distinct n values attempted at \p Depth across all domains, sorted.
  std::vector<uint32_t> attemptedPoisonings(unsigned Depth) const;
};

/// Runs the full protocol for every (depth, domain) in \p Config against
/// the test rows \p VerifyRows of \p Test, fanning per-instance
/// verification across `Config.Jobs` threads. Aggregates are
/// thread-count-independent.
SweepResult runPoisoningSweep(const Dataset &Train, const Dataset &Test,
                              const std::vector<uint32_t> &VerifyRows,
                              const SweepConfig &Config);

} // namespace antidote

#endif // ANTIDOTE_ANTIDOTE_SWEEP_H
