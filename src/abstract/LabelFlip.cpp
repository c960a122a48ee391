//===- abstract/LabelFlip.cpp - Label-flip robustness certification -----------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/LabelFlip.h"

#include "abstract/AbstractBestSplit.h"
#include "abstract/AbstractDTrace.h"
#include "abstract/AbstractGini.h"
#include "support/Timer.h"

#include <algorithm>

using namespace antidote;

std::vector<Interval>
antidote::flipClassProbabilities(const std::vector<uint32_t> &Counts,
                                 uint32_t Total, uint32_t Budget) {
  assert(Total > 0 && "flip cprob# of an empty training set");
  std::vector<Interval> Probs;
  Probs.reserve(Counts.size());
  double T = Total;
  for (uint32_t C : Counts) {
    double Lo = C > Budget ? (C - Budget) / T : 0.0;
    double Hi = std::min<uint64_t>(static_cast<uint64_t>(C) + Budget,
                                   Total) /
                T;
    Probs.emplace_back(Lo, Hi);
  }
  return Probs;
}

namespace {

/// Flip `ent#` of one side straight from its counts: `flipClassProbabilities`
/// composed with the exact-term `abstractGiniImpurity`, fused into one pass
/// with no interval objects. Every operation is the reference's:
///  - `max(c − b, 0) / t` equals the guarded `(c − b)/t : 0`, and
///    `min(c + b, t) / t` the uint64 clamp, since uint32 values, their sums
///    and their differences are exact in double;
///  - the term image and the class-order accumulation from 0 are those of
///    `abstractGiniTermRange` and interval `+`.
Interval fusedFlipGini(const std::vector<uint32_t> &Counts, uint32_t Total,
                       uint32_t Budget) {
  const double T = Total;
  const double B = Budget;
  double SumLo = 0.0;
  double SumHi = 0.0;
  for (uint32_t Count : Counts) {
    const double C = Count;
    const double PLo = std::max(C - B, 0.0) / T;
    const double PHi = std::min(C + B, T) / T;
    const double FLo = PLo * (1.0 - PLo);
    const double FHi = PHi * (1.0 - PHi);
    SumLo += std::min(FLo, FHi);
    SumHi += PLo <= 0.5 && 0.5 <= PHi ? 0.25 : std::max(FLo, FHi);
  }
  return Interval(SumLo, SumHi);
}

} // namespace

Interval antidote::flipSplitScore(const std::vector<uint32_t> &PosCounts,
                                  uint32_t PosTotal,
                                  const std::vector<uint32_t> &NegCounts,
                                  uint32_t NegTotal, uint32_t Budget) {
  assert(PosTotal > 0 && NegTotal > 0 && "score of a trivial split");
  // Side sizes are exact under flips; each side can absorb at most
  // min(n, |side|) of the flipped rows. Sizes and impurities are
  // non-negative, so the point-times-interval products reduce to
  // t·lo / t·hi and the sum is componentwise.
  const Interval PosEnt =
      fusedFlipGini(PosCounts, PosTotal, std::min(Budget, PosTotal));
  const Interval NegEnt =
      fusedFlipGini(NegCounts, NegTotal, std::min(Budget, NegTotal));
  const double PosT = PosTotal;
  const double NegT = NegTotal;
  return Interval(PosT * PosEnt.lb() + NegT * NegEnt.lb(),
                  PosT * PosEnt.ub() + NegT * NegEnt.ub());
}

void antidote::flipSplitScoreLowerBounds(const SplitBlock &Block,
                                         uint32_t Budget, double *Lb) {
  // `fusedFlipGini`'s lower half with side budget min(n, |side|), and
  // `flipSplitScore`'s combine |side↓|·lb↓ + |side¬|·lb¬.
  const double N = Budget;
  blockSideSums(
      Block,
      [N](double Count, double Side) {
        const double B = std::min(N, Side);
        const double PLo = std::max(Count - B, 0.0) / Side;
        const double PHi = std::min(Count + B, Side) / Side;
        return std::min(PLo * (1.0 - PLo), PHi * (1.0 - PHi));
      },
      [](double Side) { return Side; }, Lb);
}

std::optional<PredicateSet>
antidote::flipBestSplit(const SplitContext &Ctx, const AbstractDataset &State,
                        const ResourceMeter *Meter) {
  // Flips do not move feature values, so every candidate splits every
  // concretization identically: all candidates are universal.
  const uint32_t Budget = State.budget();
  std::vector<uint32_t> PosCounts, NegCounts;
  SplitScorer Scorer;
  Scorer.Mode = PredicateMode::ConcreteMidpoint;
  Scorer.LowerBounds = [Budget](const SplitBlock &Block, double *Lb) {
    flipSplitScoreLowerBounds(Block, Budget, Lb);
  };
  Scorer.UpperBound = [&](const SplitBlock &Block, size_t I) {
    const uint32_t PosTotal = Block.sideCounts(I, PosCounts, NegCounts);
    return flipSplitScore(PosCounts, PosTotal, NegCounts,
                          State.size() - PosTotal, Budget)
        .ub();
  };
  Scorer.IsUniversal = [](uint32_t, uint32_t) { return true; };
  return selectMinimalSplits(Ctx, State, Scorer, Meter);
}

LabelFlipResult
antidote::verifyLabelFlipRobustness(const SplitContext &Ctx,
                                    const RowIndexList &Rows, const float *X,
                                    uint32_t Budget,
                                    const LabelFlipConfig &Config) {
  assert(!Rows.empty() && "flip verification over an empty training set");
  Timer Elapsed;
  LabelFlipResult Result;
  Result.ConcretePrediction =
      runDTrace(Ctx, Rows, X, Config.Depth).PredictedClass;

  // The flip analysis is one instance of the shared DTrace# frontier
  // engine: the LabelFlip threat model supplies cprob#, the forced-pure
  // conditional, and the concrete-midpoint bestSplit#, and the engine
  // supplies the frontier loop, dedup, resource metering, cancellation,
  // and domination tracking.
  AbstractLearnerConfig Learner;
  Learner.Depth = Config.Depth;
  Learner.Domain = AbstractDomainKind::Disjuncts;
  Learner.Threat = ThreatModelKind::LabelFlip;
  Learner.Limits = Config.Limits;
  Learner.Cancel = Config.Cancel;
  AbstractLearnerResult Run = runAbstractDTrace(
      Ctx, AbstractDataset(Ctx.base(), Rows, Budget), X, Learner);

  switch (Run.Status) {
  case LearnerStatus::Completed:
    Result.RunStatus = LabelFlipResult::Status::Completed;
    break;
  case LearnerStatus::Timeout:
    Result.RunStatus = LabelFlipResult::Status::Timeout;
    break;
  case LearnerStatus::ResourceLimit:
    Result.RunStatus = LabelFlipResult::Status::ResourceLimit;
    break;
  case LearnerStatus::Cancelled:
    Result.RunStatus = LabelFlipResult::Status::Cancelled;
    break;
  }
  Result.NumTerminals = Run.NumTerminals;
  Result.PeakDisjuncts = Run.PeakDisjuncts;
  Result.Seconds = Elapsed.seconds();
  if (Result.RunStatus == LabelFlipResult::Status::Completed &&
      Run.DominatingClass) {
    assert(*Run.DominatingClass == Result.ConcretePrediction &&
           "dominating class contradicts the unflipped learner");
    Result.Robust = true;
    Result.DominatingClass = *Run.DominatingClass;
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Exhaustive flip oracle
//===----------------------------------------------------------------------===//

namespace {

/// Recursively enumerates every relabeling with at most the remaining
/// number of flips, retraining at each complete assignment.
class FlipEnumerator {
public:
  FlipEnumerator(const SplitContext &Ctx, const RowIndexList &Rows,
                 const float *X, unsigned Depth, uint64_t MaxSets,
                 FlipEnumerationResult &Result)
      : BaseCtx(Ctx), Rows(Rows), X(X), Depth(Depth), MaxSets(MaxSets),
        Result(Result),
        // Materialize the row subset once, column-by-column, and build the
        // split context over it once: flips only touch labels, and neither
        // the feature columns nor the cached sorted orders depend on them,
        // so each check() below patches labels in place instead of
        // re-copying the matrix and re-sorting every feature.
        Flipped(Dataset::gatherRows(Ctx.base(), Rows)),
        FlippedCtx(Flipped), FlippedRows(allRows(Flipped)) {
    Labels.reserve(Rows.size());
    for (uint32_t Row : Rows)
      Labels.push_back(Ctx.base().label(Row));
  }

  bool explore(size_t Index, uint32_t Remaining) {
    if (Index == Rows.size())
      return check();
    // Keep the base label.
    if (!explore(Index + 1, Remaining))
      return false;
    if (Remaining == 0)
      return true;
    unsigned BaseLabel = Labels[Index];
    for (unsigned C = 0; C < BaseCtx.base().numClasses(); ++C) {
      if (C == BaseLabel)
        continue;
      Labels[Index] = C;
      bool Continue = explore(Index + 1, Remaining - 1);
      Labels[Index] = BaseLabel;
      if (!Continue)
        return false;
    }
    return true;
  }

private:
  bool check() {
    if (Result.SetsChecked >= MaxSets) {
      Result.Exhausted = false;
      return false;
    }
    // Patch the current relabeling into the pre-gathered dataset and
    // retrain against the hoisted split context.
    for (size_t I = 0; I < Rows.size(); ++I)
      Flipped.setLabel(static_cast<unsigned>(I), Labels[I]);
    TraceResult Trace = runDTrace(FlippedCtx, FlippedRows, X, Depth);
    ++Result.SetsChecked;
    if (Trace.PredictedClass == Result.OriginalPrediction)
      return true;
    Result.Robust = false;
    return false;
  }

  const SplitContext &BaseCtx;
  const RowIndexList &Rows;
  const float *X;
  unsigned Depth;
  uint64_t MaxSets;
  FlipEnumerationResult &Result;
  Dataset Flipped;            ///< Row subset, gathered once per enumeration.
  SplitContext FlippedCtx;    ///< Label-independent; built once over Flipped.
  RowIndexList FlippedRows;   ///< allRows(Flipped), hoisted.
  std::vector<unsigned> Labels;
};

} // namespace

FlipEnumerationResult
antidote::verifyByFlipEnumeration(const SplitContext &Ctx,
                                  const RowIndexList &Rows, const float *X,
                                  uint32_t Budget, unsigned Depth,
                                  uint64_t MaxSets) {
  assert(!Rows.empty() && "flip enumeration over an empty training set");
  FlipEnumerationResult Result;
  Result.OriginalPrediction =
      runDTrace(Ctx, Rows, X, Depth).PredictedClass;
  FlipEnumerator Enumerator(Ctx, Rows, X, Depth, MaxSets, Result);
  Enumerator.explore(0, std::min<uint32_t>(
                            Budget, static_cast<uint32_t>(Rows.size())));
  return Result;
}
