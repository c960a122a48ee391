//===- abstract/AbstractDTrace.cpp - The DTrace# abstract learner -------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractDTrace.h"

#include "support/Timer.h"

#include <algorithm>

using namespace antidote;

const char *antidote::domainKindName(AbstractDomainKind Kind) {
  switch (Kind) {
  case AbstractDomainKind::Box:
    return "box";
  case AbstractDomainKind::Disjuncts:
    return "disjuncts";
  case AbstractDomainKind::DisjunctsCapped:
    return "disjuncts-capped";
  }
  assert(false && "unknown domain kind");
  return "?";
}

namespace {

/// Mutable run state threaded through the driver helpers.
///
/// Concurrency contract: every run is two alternating phases per depth
/// iteration. The *transfer* phase (`transferStep`) is const — it reads
/// Ctx/X/Config and polls the meter, but touches no mutable member — so
/// any number of pool workers may execute it on distinct disjuncts. The
/// *merge* phase runs on the calling thread only and is the single writer
/// of Tracker, Result, and the peak accounting.
class LearnerRun {
public:
  LearnerRun(const SplitContext &Ctx, const float *X,
             const AbstractLearnerConfig &Config)
      : Ctx(Ctx), X(X), Config(Config), Model(threatModel(Config.Threat)),
        Tracker(Config.Cprob), Meter(Config.Limits, Config.Cancel) {}

  AbstractLearnerResult run(const AbstractDataset &Initial);

private:
  /// Everything one disjunct's transfer step produces, in the order the
  /// serial learner would have emitted it: the forced probability-vector
  /// terminals (flip model only), then the feasible `pure` abstract-state
  /// terminals, then (when ⋄ ∈ Ψ) the disjunct itself, then the child
  /// disjuncts.
  struct DisjunctStep {
    std::vector<std::vector<Interval>> ForcedTerminals;
    std::vector<AbstractDataset> Terminals;
    std::vector<AbstractDataset> Children;
    bool CalledBestSplit = false;
  };

  /// Adds a terminal abstract state (a place where some concrete run of
  /// DTrace returns) and folds it into the domination check through the
  /// threat model's `cprob#`. Merge phase only.
  void addTerminal(AbstractDataset Terminal) {
    Tracker.addTerminal(Model.classProbabilities(Terminal, Config.Cprob));
    ++Result.NumTerminals;
    Result.Terminals.push_back(std::move(Terminal));
  }

  /// Adds a terminal known only as an exact probability vector (a forced
  /// pure leaf under the flip model). Merge phase only.
  void addForcedTerminal(const std::vector<Interval> &Probs) {
    Tracker.addTerminal(Probs);
    ++Result.NumTerminals;
  }

  /// True once the run should stop (cancellation, timeout, resource
  /// limit, or the refutation shortcut). Sets Result.Status accordingly.
  /// The budget is checked *before* the refutation shortcut so that an
  /// interrupted run always reports its interruption status.
  bool shouldAbort(size_t FrontierDisjuncts, uint64_t FrontierBytes) {
    switch (Meter.check(FrontierDisjuncts, FrontierBytes)) {
    case BudgetOutcome::Ok:
      break;
    case BudgetOutcome::Cancelled:
      Result.Status = LearnerStatus::Cancelled;
      return true;
    case BudgetOutcome::Timeout:
      Result.Status = LearnerStatus::Timeout;
      return true;
    case BudgetOutcome::ResourceLimit:
      Result.Status = LearnerStatus::ResourceLimit;
      return true;
    }
    return Config.StopOnRefutation && Tracker.failed();
  }

  /// The pure per-disjunct transfer step: the entropy conditional, then
  /// bestSplit# / the ⋄ conditional / filter#. Const — safe to run on any
  /// worker concurrently with other disjuncts' steps.
  DisjunctStep transferStep(const AbstractDataset &Cur) const;

  const SplitContext &Ctx;
  const float *X;
  const AbstractLearnerConfig &Config;
  const ThreatModel &Model;
  DominationTracker Tracker;
  ResourceMeter Meter;
  AbstractLearnerResult Result;

  /// The run's frontier fan-out pool. Set once in run() before any
  /// transfer step executes, then only read.
  ThreadPool *Pool = nullptr;
};

} // namespace

LearnerRun::DisjunctStep
LearnerRun::transferStep(const AbstractDataset &Cur) const {
  DisjunctStep Out;
  if (!Model.collectPureTerminals(Cur, Config.Domain, Out.Terminals,
                                  Out.ForcedTerminals))
    return Out;

  // An interruption inside bestSplit# yields nullopt (a truncated Ψ is
  // unrepresentable — it could fabricate terminals), and one in the
  // fan-out below leaves a truncated child list; both are sound because
  // the persistent meter trips the merge phase's very next shouldAbort()
  // poll — before the budget outcome could be masked — so a truncated
  // state never reaches a Completed verdict.
  std::optional<PredicateSet> Psi = Model.bestSplit(
      Ctx, Cur, Config.Cprob, Config.Gini, &Meter);
  Out.CalledBestSplit = true;
  if (!Psi)
    return Out;

  // The φ = ⋄ conditional (§4.7): if ⋄ ∈ Ψ, some concrete run returns here
  // with its training set unchanged.
  if (Psi->containsNull())
    Out.Terminals.push_back(Cur);
  if (Psi->predicates().empty())
    return Out;

  if (Config.Domain == AbstractDomainKind::Box) {
    Out.Children.push_back(abstractFilter(Cur, *Psi, X));
    return Out;
  }
  // Disjunctive filter#: one disjunct per (predicate, feasible side of x).
  for (const SplitPredicate &Pred : Psi->predicates()) {
    if (Meter.interrupted())
      return Out;
    ThreeValued V = Pred.evaluate(X);
    if (V != ThreeValued::False)
      Out.Children.push_back(Cur.restrict(Pred, /*Positive=*/true));
    if (V != ThreeValued::True)
      Out.Children.push_back(Cur.restrict(Pred, /*Positive=*/false));
  }
  return Out;
}

AbstractLearnerResult LearnerRun::run(const AbstractDataset &Initial) {
  assert(!Initial.isEmptySet() && "DTrace# needs a non-empty abstract set");
  assert(Model.supportsDomain(Config.Domain) &&
         "threat model does not support the requested abstract domain");
  Timer Elapsed;

  // The run's frontier fan-out pool: an externally owned one (shared
  // across a sweep's instances) wins; otherwise spawn one for
  // FrontierJobs. Null/empty means everything runs inline on this thread.
  std::unique_ptr<ThreadPool> OwnedPool;
  Pool = Config.FrontierPool;
  if (!Pool && Config.FrontierJobs != 1) {
    OwnedPool = makeVerificationPool(Config.FrontierJobs);
    Pool = OwnedPool.get();
  }

  std::vector<AbstractDataset> Frontier;
  Frontier.push_back(Initial);
  Result.PeakDisjuncts = 1;
  Result.PeakStateBytes = Initial.stateBytes();

  bool Aborted = false;
  for (unsigned Iter = 0; Iter < Config.Depth && !Frontier.empty(); ++Iter) {
    std::vector<AbstractDataset> Next;
    uint64_t FrontierBytes = 0;
    {
      // Transfer phase: the workers compute per-disjunct steps out of
      // order while the merge below consumes them strictly in disjunct-
      // index order — replaying exactly the serial emission order, so
      // terminals, counters, and abort points are identical for every
      // FrontierJobs value.
      // The claim window bounds how far the workers may run ahead of the
      // merge (a few chunks per executor): without it, a run that a
      // budget cap would stop mid-merge could first materialize the
      // whole next frontier in Steps — precisely the OOM the caps stand
      // in for. Run-ahead memory is limited to the window's steps.
      std::vector<DisjunctStep> Steps(Frontier.size());
      size_t Executors = Pool ? Pool->size() + 1 : 1;
      size_t WindowChunks = 4 * Executors;
      OrderedFanout Fanout(Pool, Frontier.size(), /*ChunkSize=*/0,
                           [this, &Steps, &Frontier](size_t I) {
                             Steps[I] = transferStep(Frontier[I]);
                           },
                           WindowChunks);

      // Merge phase: single writer of the tracker and every counter.
      for (size_t I = 0, E = Frontier.size(); I < E; ++I) {
        if ((Aborted = shouldAbort(Frontier.size() + Next.size(),
                                   FrontierBytes))) {
          // Refuted or over budget: the disjuncts past I will never be
          // merged, so tell the workers to stop paying for them.
          Fanout.cancelRemaining();
          break;
        }
        Fanout.awaitItem(I);
        DisjunctStep &Step = Steps[I];
        for (const std::vector<Interval> &Probs : Step.ForcedTerminals)
          addForcedTerminal(Probs);
        for (AbstractDataset &Terminal : Step.Terminals)
          addTerminal(std::move(Terminal));
        Result.BestSplitCalls += Step.CalledBestSplit;
        for (AbstractDataset &Child : Step.Children) {
          FrontierBytes += Child.stateBytes();
          Next.push_back(std::move(Child));
        }
        // Release the merged step's buffers now rather than at the end
        // of the iteration: with huge frontiers, Count moved-from shells
        // would otherwise accumulate alongside the live Next.
        Step = DisjunctStep();
      }
      // Fanout's destructor joins any worker still finishing a claimed
      // chunk before Steps/Frontier leave scope.
    }
    if (Aborted)
      break;

    if (Config.Domain != AbstractDomainKind::Box) {
      // Deduplicate structurally identical disjuncts; tied predicates often
      // induce the same restriction.
      std::sort(Next.begin(), Next.end(),
                [](const AbstractDataset &A, const AbstractDataset &B) {
                  if (A.budget() != B.budget())
                    return A.budget() < B.budget();
                  return A.rows() < B.rows();
                });
      Next.erase(std::unique(Next.begin(), Next.end()), Next.end());

      if (Config.Domain == AbstractDomainKind::DisjunctsCapped &&
          Config.DisjunctCap > 0) {
        // §6.3's precision-for-memory trade: collapse the frontier to the
        // cap by joining *adjacent* disjuncts. After the lexicographic
        // sort above, neighbours share most of their rows, so pairwise
        // halving loses far less precision than folding an arbitrary
        // overflow tail into one element.
        while (Next.size() > Config.DisjunctCap) {
          std::vector<AbstractDataset> Halved;
          Halved.reserve((Next.size() + 1) / 2);
          for (size_t I = 0; I + 1 < Next.size(); I += 2)
            Halved.push_back(AbstractDataset::join(Next[I], Next[I + 1]));
          if (Next.size() % 2)
            Halved.push_back(std::move(Next.back()));
          Next = std::move(Halved);
        }
      }
    }

    uint64_t LiveBytes = 0;
    for (const AbstractDataset &D : Next)
      LiveBytes += D.stateBytes();
    for (const AbstractDataset &D : Result.Terminals)
      LiveBytes += D.stateBytes();
    Result.PeakDisjuncts = std::max(Result.PeakDisjuncts, Next.size());
    Result.PeakStateBytes = std::max(Result.PeakStateBytes, LiveBytes);

    if ((Aborted = shouldAbort(Next.size(), LiveBytes)))
      break;
    Frontier = std::move(Next);
  }

  // Depth exhaustion: the surviving frontier states are terminal.
  if (!Aborted)
    for (AbstractDataset &D : Frontier) {
      addTerminal(std::move(D));
      if (Config.StopOnRefutation && Tracker.failed())
        break;
    }

  Result.Refuted = Tracker.failed();
  if (Result.Status == LearnerStatus::Completed && !Result.Refuted)
    Result.DominatingClass = Tracker.dominatingClass();
  Result.Seconds = Elapsed.seconds();
  return Result;
}

AbstractLearnerResult
antidote::runAbstractDTrace(const SplitContext &Ctx,
                            const AbstractDataset &Initial, const float *X,
                            const AbstractLearnerConfig &Config) {
  return LearnerRun(Ctx, X, Config).run(Initial);
}
