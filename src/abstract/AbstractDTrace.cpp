//===- abstract/AbstractDTrace.cpp - The DTrace# abstract learner -------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractDTrace.h"

#include "support/Timer.h"

#include <algorithm>
#include <tuple>

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
  /// disjuncts — built, or on a count-only level summarized, with the Ψ
  /// they came from kept for a rebuild.
  struct DisjunctStep {
    std::vector<std::vector<Interval>> ForcedTerminals;
    std::vector<AbstractDataset> Terminals;
    std::vector<AbstractDataset> Children;
    PredicateSet Psi;
    RestrictionSummaries Summaries;
    bool CalledBestSplit = false;
  };

  /// The children of a count-only level, merged in disjunct-index order:
  /// their summaries, the frontier index each came from, and each frontier
  /// disjunct's Ψ, which is what a rebuild of a child needs.
  struct SummarizedLevel {
    RestrictionSummaries Children;
    std::vector<uint32_t> Parents;
    std::vector<PredicateSet> Psi;

    size_t size() const { return Children.size(); }

    void append(uint32_t Parent, DisjunctStep &Step) {
      const RestrictionSummaries &From = Step.Summaries;
      Children.Items.insert(Children.Items.end(), From.Items.begin(),
                            From.Items.end());
      Children.Counts.insert(Children.Counts.end(), From.Counts.begin(),
                             From.Counts.end());
      Parents.insert(Parents.end(), From.size(), Parent);
      Psi[Parent] = std::move(Step.Psi);
    }
  };

  /// Adds a terminal abstract state (a place where some concrete run of
  /// DTrace returns) and folds it into the domination check through the
  /// threat model's `cprob#`. Merge phase only.
  void addTerminal(AbstractDataset Terminal) {
    Tracker.addTerminal(Model.classProbabilities(Terminal, Config.Cprob));
    ++Result.NumTerminals;
    TerminalBytes += Terminal.stateBytes();
    if (Config.CollectTerminals)
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
  /// bestSplit# / the ⋄ conditional / filter#, whose disjunctive children
  /// are summarized instead of built when \p CountOnly. bestSplit# goes
  /// through \p Memo when one is given. Const — safe to run on any worker
  /// concurrently with other disjuncts' steps.
  DisjunctStep transferStep(const AbstractDataset &Cur, bool CountOnly,
                            BestSplitMemo *Memo) const;

  /// Finishes a count-only level: dedups the summarized children, accounts
  /// for them, and folds them as terminals. Returns true iff the run
  /// aborted before the fold. Merge phase only.
  bool foldSummarizedLevel(const std::vector<AbstractDataset> &Frontier,
                           const SummarizedLevel &Level);

  const SplitContext &Ctx;
  const float *X;
  const AbstractLearnerConfig &Config;
  const ThreatModel &Model;
  DominationTracker Tracker;
  ResourceMeter Meter;
  AbstractLearnerResult Result;

  /// Sum of `stateBytes()` over every terminal added so far: the terminal
  /// share of the live-state accounting, kept whether or not the terminals
  /// themselves are.
  uint64_t TerminalBytes = 0;

  /// The run's frontier fan-out pool. Set once in run() before any
  /// transfer step executes, then only read.
  ThreadPool *Pool = nullptr;
};

} // namespace

/// Deduplicates structurally identical disjuncts, leaving them in
/// lexicographic (budget, rows) order; tied predicates often induce the
/// same restriction.
static void sortUniqueDisjuncts(std::vector<AbstractDataset> &Disjuncts) {
  std::sort(Disjuncts.begin(), Disjuncts.end(),
            [](const AbstractDataset &A, const AbstractDataset &B) {
              if (A.budget() != B.budget())
                return A.budget() < B.budget();
              return A.rows() < B.rows();
            });
  Disjuncts.erase(std::unique(Disjuncts.begin(), Disjuncts.end()),
                  Disjuncts.end());
}

LearnerRun::DisjunctStep
LearnerRun::transferStep(const AbstractDataset &Cur, bool CountOnly,
                         BestSplitMemo *Memo) const {
  DisjunctStep Out;
  if (!Model.collectPureTerminals(Cur, Config.Domain, Out.Terminals,
                                  Out.ForcedTerminals))
    return Out;

  // An interruption inside bestSplit# yields nullopt (a truncated Ψ is
  // unrepresentable — it could fabricate terminals), and one in the
  // fan-out below leaves a truncated child list; both are sound because
  // the persistent meter trips the merge phase's very next shouldAbort()
  // poll — before the budget outcome could be masked — so a truncated
  // state never reaches a Completed verdict. So only a complete Ψ is
  // memoized.
  std::optional<PredicateSet> Psi;
  if (Memo)
    Psi = Memo->find(Config.Threat, Config.Cprob, Config.Gini, Cur);
  if (!Psi) {
    Psi = Model.bestSplit(Ctx, Cur, Config.Cprob, Config.Gini, &Meter);
    if (Memo && Psi)
      Memo->insert(Config.Threat, Config.Cprob, Config.Gini, Cur, *Psi);
  }
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
  if (CountOnly) {
    summarizeRestrictions(Ctx, Cur, *Psi, X, Out.Summaries);
    Out.Psi = std::move(*Psi);
    return Out;
  }
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
    // The Disjuncts domain's last children are terminals that only
    // cprob# and the domination check read: summarize them rather than
    // build them, unless the caller collects the terminals themselves.
    // (Box has one child, and the capped domain's overflow join needs
    // rows.)
    const bool CountOnly = Iter + 1 == Config.Depth &&
                           Config.Domain == AbstractDomainKind::Disjuncts &&
                           !Config.CollectTerminals;
    // The root and its children recur across a batch's queries; deeper
    // states rarely do.
    BestSplitMemo *Memo = Iter <= 1 ? Config.Memo : nullptr;
    std::vector<AbstractDataset> Next;
    SummarizedLevel Level;
    if (CountOnly) {
      Level.Children.NumClasses = Ctx.base().numClasses();
      Level.Psi.resize(Frontier.size());
    }
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
      OrderedFanout Fanout(
          Pool, Frontier.size(), /*ChunkSize=*/0,
          [this, &Steps, &Frontier, CountOnly, Memo](size_t I) {
            Steps[I] = transferStep(Frontier[I], CountOnly, Memo);
          },
          WindowChunks);

      // Merge phase: single writer of the tracker and every counter.
      for (size_t I = 0, E = Frontier.size(); I < E; ++I) {
        if ((Aborted = shouldAbort(Frontier.size() + Next.size() +
                                       Level.size(),
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
        if (CountOnly) {
          for (size_t C = 0; C < Step.Summaries.size(); ++C)
            FrontierBytes += Step.Summaries.stateBytes(C);
          Level.append(static_cast<uint32_t>(I), Step);
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
    if (CountOnly) {
      Aborted = foldSummarizedLevel(Frontier, Level);
      Frontier.clear();
      break;
    }

    if (Config.Domain != AbstractDomainKind::Box) {
      sortUniqueDisjuncts(Next);

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

    uint64_t LiveBytes = TerminalBytes;
    for (const AbstractDataset &D : Next)
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

bool LearnerRun::foldSummarizedLevel(
    const std::vector<AbstractDataset> &Frontier,
    const SummarizedLevel &Level) {
  // Deduplicate on everything cprob# reads — budget, size, class counts —
  // plus the 128-bit row-set hash standing in for the rows. Two children
  // merged by a hash collision have equal cprob#, so a collision can change
  // a counter but never a verdict.
  const RestrictionSummaries &Children = Level.Children;
  const unsigned NumClasses = Children.NumClasses;
  struct Key {
    uint32_t Budget;
    uint32_t Size;
    RowSetHash Hash;
    uint32_t Index;
  };
  std::vector<Key> Keys;
  Keys.reserve(Children.size());
  for (size_t I = 0; I < Children.size(); ++I) {
    const RestrictionSummary &S = Children.Items[I];
    Keys.push_back({S.Budget, S.Size, S.Hash, static_cast<uint32_t>(I)});
  }
  auto Fields = [](const Key &K) {
    return std::tie(K.Budget, K.Size, K.Hash.H1, K.Hash.H2);
  };
  auto Counts = [&Children](const Key &K) { return Children.counts(K.Index); };
  std::sort(Keys.begin(), Keys.end(), [&](const Key &A, const Key &B) {
    if (Fields(A) != Fields(B))
      return Fields(A) < Fields(B);
    return std::lexicographical_compare(Counts(A), Counts(A) + NumClasses,
                                        Counts(B), Counts(B) + NumClasses);
  });
  Keys.erase(std::unique(Keys.begin(), Keys.end(),
                         [&](const Key &A, const Key &B) {
                           return Fields(A) == Fields(B) &&
                                  std::equal(Counts(A),
                                             Counts(A) + NumClasses,
                                             Counts(B));
                         }),
             Keys.end());

  uint64_t LiveBytes = TerminalBytes;
  for (const Key &K : Keys)
    LiveBytes += Children.stateBytes(K.Index);
  Result.PeakDisjuncts = std::max(Result.PeakDisjuncts, Keys.size());
  Result.PeakStateBytes = std::max(Result.PeakStateBytes, LiveBytes);
  if (shouldAbort(Keys.size(), LiveBytes))
    return true;

  // Without a refutation the fold's outcome does not depend on its order,
  // so fold into a copy of the tracker and commit it.
  DominationTracker Folded = Tracker;
  std::vector<uint32_t> ChildCounts(NumClasses);
  for (const Key &K : Keys) {
    ChildCounts.assign(Counts(K), Counts(K) + NumClasses);
    Folded.addTerminal(Model.classProbabilities(ChildCounts, K.Size,
                                                K.Budget, Config.Cprob));
    if (Config.StopOnRefutation && Folded.failed())
      break;
  }
  if (!Config.StopOnRefutation || !Folded.failed()) {
    Tracker = Folded;
    Result.NumTerminals += Keys.size();
    return false;
  }

  // A refutation stops the fold at the first failing terminal in the
  // materialized order, which sorts by rows: rebuild the children to find
  // it, so NumTerminals comes out as the materialized fold's.
  std::vector<AbstractDataset> Built;
  Built.reserve(Keys.size());
  for (const Key &K : Keys) {
    const RestrictionSummary &S = Children.Items[K.Index];
    uint32_t Parent = Level.Parents[K.Index];
    Built.push_back(Frontier[Parent].restrict(
        Level.Psi[Parent].predicates()[S.Pred], S.Positive));
  }
  sortUniqueDisjuncts(Built);
  for (AbstractDataset &D : Built) {
    addTerminal(std::move(D));
    if (Tracker.failed())
      break;
  }
  return false;
}

AbstractLearnerResult
antidote::runAbstractDTrace(const SplitContext &Ctx,
                            const AbstractDataset &Initial, const float *X,
                            const AbstractLearnerConfig &Config) {
  return LearnerRun(Ctx, X, Config).run(Initial);
}
