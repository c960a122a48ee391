//===- abstract/AbstractDTrace.h - The DTrace# abstract learner -*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `DTrace#` — the abstract interpretation of the trace-based learner
/// (§4.3-§4.7), in three domain configurations:
///
///  - **Box** (the paper's non-disjunctive domain): the learner state is a
///    single (⟨T,n⟩, Ψ) pair; `filter#` joins all per-predicate
///    restrictions, and the feasible `pure` restrictions of the
///    `ent(T) = 0` conditional are joined into one terminal.
///  - **Disjuncts** (§5.2): the state is a set of disjuncts; `filter#`
///    emits one disjunct per (predicate, side of x) and each feasible
///    `pure` restriction becomes its own terminal. Joins are set unions.
///  - **DisjunctsCapped** (our implementation of the future-work strategy
///    §6.3 sketches): like Disjuncts, but whenever the frontier exceeds a
///    cap the overflow disjuncts are joined into one, trading precision
///    for bounded memory.
///
/// Terminal abstract states arise from three places — feasible `ent = 0`
/// pure branches, ⋄ ∈ `bestSplit#` branches, and depth exhaustion — and are
/// streamed into a `DominationTracker` so verification can stop the moment
/// Corollary 4.12 becomes unsatisfiable.
///
/// The depth-exhaustion terminals are the last depth's `filter#` children,
/// by far the most numerous disjuncts of a hard query, and `cprob#` reads
/// only their size, budget and class counts. So at the last depth the
/// Disjuncts domain summarizes them (`summarizeRestrictions`,
/// abstract/AbstractFilter.h) instead of building them: it dedups the
/// summaries on those fields plus a 128-bit row-set hash, charges each
/// distinct child the bytes its built form would take, and folds them.
/// Only when that fold refutes under `StopOnRefutation` are the children
/// rebuilt, because where the fold stops, and so `NumTerminals`, follows
/// the built children's row order. Certificates and every counter are
/// the same as with the children built (`CollectTerminals`); a hash
/// collision could merge two children with equal `cprob#` and change a
/// counter, never a verdict.
///
/// The engine is generic over the poisoning **threat model**
/// (abstract/ThreatModel.h): every model-specific transformer — `cprob#`,
/// the pure-leaf conditional, the `bestSplit#` candidate/overlap rule —
/// is supplied by `Config.Threat`'s `ThreatModel`, so ∆n removal and
/// label-flip contamination share the frontier loop, its fan-out,
/// the resource accounting, and cancellation below.
///
/// Each depth iteration is split into two phases so one verification can
/// scale across cores (`FrontierJobs`): a pure per-disjunct *transfer*
/// phase (the `ent = 0` conditional, `bestSplit#`, and `filter#` for one
/// disjunct, producing that disjunct's terminals and children) that fans
/// out over a `ThreadPool`, and a sequential *merge* phase — the single
/// writer of the domination tracker, the dedup/overflow-join, and every
/// resource counter — that folds the per-disjunct results in disjunct-
/// index order. Because every merge replays exactly the serial order, the
/// result (terminals, certificates, `PeakDisjuncts`, `PeakStateBytes`,
/// `BestSplitCalls`) is bit-identical for every `FrontierJobs` value in
/// all three domains; only wall-clock time changes.
///
/// Runs of one verification batch may share a `BestSplitMemo`
/// (`Config.Memo`): the first run to reach the root or a depth-1 state
/// scores it, and the others take a copy of its Ψ. A memo hit still counts
/// as a `bestSplit#` application, so results are the same either way.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_ABSTRACT_ABSTRACTDTRACE_H
#define ANTIDOTE_ABSTRACT_ABSTRACTDTRACE_H

#include "abstract/AbstractBestSplit.h"
#include "abstract/AbstractDataset.h"
#include "abstract/AbstractFilter.h"
#include "abstract/Domination.h"
#include "abstract/ThreatModel.h"
#include "concrete/BestSplit.h"
#include "support/Budget.h"
#include "support/ThreadPool.h"

#include <optional>

namespace antidote {

/// Which abstract-state representation to run DTrace# with.
enum class AbstractDomainKind : uint8_t {
  Box,             ///< Single-element domain (§4.3).
  Disjuncts,       ///< Unbounded disjunctive domain (§5.2).
  DisjunctsCapped, ///< Disjunctive with join-on-overflow (§6.3).
};

const char *domainKindName(AbstractDomainKind Kind);

/// Knobs for one DTrace# run.
struct AbstractLearnerConfig {
  unsigned Depth = 1;
  AbstractDomainKind Domain = AbstractDomainKind::Box;

  /// Which perturbation set the budget n of the initial ⟨T, n⟩ ranges
  /// over (abstract/ThreatModel.h). The model must support `Domain`
  /// (flips run the Disjuncts domain only).
  ThreatModelKind Threat = ThreatModelKind::Removal;

  CprobTransformerKind Cprob = CprobTransformerKind::Optimal;
  GiniLiftingKind Gini = GiniLiftingKind::ExactTerm;

  /// DisjunctsCapped only: max disjuncts kept per iteration before the
  /// overflow is joined. (A precision knob, not a resource cap — the caps
  /// live in `Limits`.)
  size_t DisjunctCap = 64;

  /// The run's resource budget (timeout / disjunct cap / state-byte cap);
  /// see support/Budget.h, the single home of these knobs.
  ResourceLimits Limits;

  /// Optional shared cancellation token. The learner polls it inside each
  /// depth iteration (per disjunct and inside bestSplit#'s candidate
  /// enumeration), so a controller can stop an in-flight run cooperatively
  /// without waiting for the current depth level to finish.
  const CancellationToken *Cancel = nullptr;

  /// Stop as soon as domination becomes impossible (sound for
  /// verification; disable to obtain the complete terminal set in tests).
  bool StopOnRefutation = true;

  /// Keep every terminal abstract state in `Result.Terminals`. Off, the
  /// run keeps none, and the Disjuncts domain folds its last depth's
  /// children from summaries without building them; on, it builds them.
  /// Every other result field is identical either way. For tests.
  bool CollectTerminals = false;

  /// Executors for the per-frontier disjunct fan-out: 1 (default) keeps
  /// the whole run on the calling thread, 0 means one executor per
  /// hardware thread. Results are bit-identical for every value; this is
  /// purely a wall-clock knob for the huge-frontier regimes of the
  /// disjunctive domains (a Box run has a one-element frontier and never
  /// fans out).
  unsigned FrontierJobs = 1;

  /// Optional externally owned pool for the frontier fan-out; when set it
  /// is used as-is (a sweep shares one pool, built by
  /// `makeVerificationPool(FrontierJobs)`, across its instances instead
  /// of re-spawning threads per query). Null means the run spawns its own
  /// pool from `FrontierJobs`. The pool may be shared with other
  /// concurrent runs: every fan-out's consumer computes unclaimed work
  /// itself, so a starved fan-out degrades to serial instead of
  /// deadlocking.
  ThreadPool *FrontierPool = nullptr;

  /// Optional `bestSplit#` memo shared by the runs of one verification
  /// batch (`Verifier::verifyBatch` owns one per call; internal plumbing,
  /// not a knob). The run consults it for the root and its children only
  /// (the first two depth levels), which caps its entries at
  /// 1 + 2·|Ψ_root| per batch whatever the frontier size. Every run that
  /// shares it must use the same `SplitContext`. Results are identical
  /// with or without it.
  BestSplitMemo *Memo = nullptr;
};

/// Why the learner stopped.
enum class LearnerStatus : uint8_t {
  Completed,     ///< Fixed depth reached (or every path terminated early).
  Timeout,       ///< Wall-clock budget exhausted.
  ResourceLimit, ///< Disjunct/state-byte cap exceeded (the paper's OOM).
  Cancelled,     ///< Stopped via the shared CancellationToken.
};

/// Everything a DTrace# run produces.
struct AbstractLearnerResult {
  LearnerStatus Status = LearnerStatus::Completed;

  /// Terminal abstract training sets, kept only when
  /// `Config.CollectTerminals` is set (otherwise empty). Possibly
  /// truncated when the run stopped early (refutation, timeout, or
  /// resource limit).
  std::vector<AbstractDataset> Terminals;

  /// Total terminals folded into the domination check: the abstract-state
  /// terminals plus the forced probability-vector terminals some threat
  /// models emit (a flip attacker forcing a pure leaf) that have no
  /// abstract-state representation. With `CollectTerminals` set, that is
  /// `Terminals.size()` plus the forced ones, and equals
  /// `Terminals.size()` under Removal.
  size_t NumTerminals = 0;

  /// The Corollary 4.12 dominating class over all terminals, when it
  /// exists and Status == Completed.
  std::optional<unsigned> DominatingClass;

  /// True iff domination was conclusively refuted (some terminal has no
  /// dominator or two terminals disagree).
  bool Refuted = false;

  size_t PeakDisjuncts = 0;

  /// Peak live abstract-state bytes of the paper's memory model: what the
  /// frontier and the terminals would take with every disjunct built
  /// (§6's memory metric), including the last depth's children that the
  /// Disjuncts domain only summarizes. Not the process footprint.
  uint64_t PeakStateBytes = 0;

  /// `bestSplit#` applications the run merged, whether computed or served
  /// by `Config.Memo`.
  unsigned BestSplitCalls = 0;
  double Seconds = 0.0;
};

/// Runs DTrace#(⟨T,n⟩, x). \p Initial must be a non-empty abstract set over
/// `Ctx.base()`.
AbstractLearnerResult runAbstractDTrace(const SplitContext &Ctx,
                                        const AbstractDataset &Initial,
                                        const float *X,
                                        const AbstractLearnerConfig &Config);

} // namespace antidote

#endif // ANTIDOTE_ABSTRACT_ABSTRACTDTRACE_H
