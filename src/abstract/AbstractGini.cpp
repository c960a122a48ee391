//===- abstract/AbstractGini.cpp - cprob# / ent# / score# --------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractGini.h"

#include "concrete/BestSplit.h"

#include <algorithm>

using namespace antidote;

std::vector<Interval>
antidote::abstractClassProbabilities(const std::vector<uint32_t> &Counts,
                                     uint32_t Total, uint32_t Budget,
                                     CprobTransformerKind Kind) {
  assert(Total > 0 && "cprob# of the bottom element is undefined");
  assert(Budget <= Total && "budget exceeds the training-set size");
  std::vector<Interval> Probs;
  Probs.reserve(Counts.size());

  // Corner case n = |T|: the empty set is a possible concretization, where
  // cprob is undefined behaviour; the paper assigns [0, 1] to every class.
  if (Budget == Total) {
    Probs.assign(Counts.size(), Interval(0.0, 1.0));
    return Probs;
  }

  if (Kind == CprobTransformerKind::Optimal) {
    // Footnote 6: averaging the m = |T| − n least / greatest indicator
    // values gives the exact extremal probabilities.
    double M = static_cast<double>(Total - Budget);
    for (uint32_t C : Counts) {
      double Lo = C > Budget ? (C - Budget) / M : 0.0;
      double Hi = std::min<uint32_t>(C, Total - Budget) / M;
      Probs.emplace_back(Lo, Hi);
    }
    return Probs;
  }

  // Naive lifting: [max(0, c − n), c] / [|T| − n, |T|]. Both operands are
  // non-negative and the divisor excludes zero here, so the quotient is
  // [lo_num / hi_den, hi_num / lo_den].
  Interval Denominator(static_cast<double>(Total - Budget),
                       static_cast<double>(Total));
  for (uint32_t C : Counts) {
    Interval Numerator(C > Budget ? static_cast<double>(C - Budget) : 0.0,
                       static_cast<double>(C));
    Probs.push_back(Numerator / Denominator);
  }
  return Probs;
}

std::vector<Interval>
antidote::abstractClassProbabilities(const AbstractDataset &Data,
                                     CprobTransformerKind Kind) {
  return abstractClassProbabilities(Data.counts(), Data.size(), Data.budget(),
                                    Kind);
}

Interval antidote::abstractGiniTermRange(const Interval &Prob) {
  if (Prob.isEmpty())
    return Interval::makeEmpty();
  auto F = [](double X) { return X * (1.0 - X); };
  double Lo = std::min(F(Prob.lb()), F(Prob.ub()));
  double Hi = Prob.contains(0.5) ? 0.25
                                 : std::max(F(Prob.lb()), F(Prob.ub()));
  return Interval(Lo, Hi);
}

Interval antidote::abstractGiniImpurity(const std::vector<Interval> &Probs,
                                        GiniLiftingKind Lifting) {
  Interval Sum(0.0);
  Interval One(1.0);
  for (const Interval &P : Probs) {
    if (Lifting == GiniLiftingKind::ExactTerm)
      Sum = Sum + abstractGiniTermRange(P);
    else
      Sum = Sum + P * (One - P);
  }
  return Sum;
}

namespace {

/// Fused Optimal × ExactTerm `ent#` over a flat count slice: one pass that
/// folds cprob# (footnote 6's extremal averages) and the exact Gini term
/// image into straight-line min/max arithmetic — no interval objects, no
/// per-class branch. Every operation mirrors the reference composition
/// `abstractGiniImpurity(abstractClassProbabilities(...))` exactly:
///  - `max(c − n, 0) / m` equals the guarded `(c − n)/m : 0` since uint32
///    values and their differences are exactly representable in double;
///  - the 0.5-straddle select compiles to a branchless max/select;
///  - the accumulation is componentwise in class order, as interval `+` is.
/// Requires Budget < Total (the n = |T| corner keeps the reference path).
Interval fusedOptimalExactGini(const uint32_t *Counts, size_t NumClasses,
                               uint32_t Total, uint32_t Budget) {
  const double M = static_cast<double>(Total - Budget);
  const double B = static_cast<double>(Budget);
  double SumLo = 0.0;
  double SumHi = 0.0;
  for (size_t C = 0; C < NumClasses; ++C) {
    const double Count = static_cast<double>(Counts[C]);
    const double PLo = std::max(Count - B, 0.0) / M;
    const double PHi = std::min(Count, M) / M;
    const double FLo = PLo * (1.0 - PLo);
    const double FHi = PHi * (1.0 - PHi);
    const double TermLo = std::min(FLo, FHi);
    const double TermHi =
        PLo <= 0.5 && 0.5 <= PHi ? 0.25 : std::max(FLo, FHi);
    SumLo += TermLo;
    SumHi += TermHi;
  }
  return Interval(SumLo, SumHi);
}

} // namespace

Interval antidote::abstractGiniImpurityFromCounts(
    const std::vector<uint32_t> &Counts, uint32_t Total, uint32_t Budget,
    CprobTransformerKind Kind, GiniLiftingKind Lifting) {
  assert(Total > 0 && "ent# of the bottom element is undefined");
  assert(Budget <= Total && "budget exceeds the training-set size");
  // Hot path: the paper's evaluation configuration. The ablation kinds and
  // the n = |T| corner (whose division by m = 0 the fused loop cannot
  // express) stay on the reference composition, which doubles as the naive
  // implementation the property tests compare against.
  if (Kind == CprobTransformerKind::Optimal &&
      Lifting == GiniLiftingKind::ExactTerm && Budget < Total)
    return fusedOptimalExactGini(Counts.data(), Counts.size(), Total, Budget);
  return abstractGiniImpurity(
      abstractClassProbabilities(Counts, Total, Budget, Kind), Lifting);
}

Interval antidote::abstractSplitScore(
    const std::vector<uint32_t> &PosCounts, uint32_t PosTotal,
    uint32_t PosBudget, const std::vector<uint32_t> &NegCounts,
    uint32_t NegTotal, uint32_t NegBudget, CprobTransformerKind Kind,
    GiniLiftingKind Lifting) {
  if (Kind == CprobTransformerKind::Optimal &&
      Lifting == GiniLiftingKind::ExactTerm) {
    // Fused combine: sizes and impurities are non-negative, so the generic
    // four-product interval multiply reduces to lo·lo / hi·hi and the sum
    // is componentwise — the same doubles the reference expression below
    // produces, without materializing the intermediate intervals.
    const Interval PosEnt = abstractGiniImpurityFromCounts(
        PosCounts, PosTotal, PosBudget, Kind, Lifting);
    const Interval NegEnt = abstractGiniImpurityFromCounts(
        NegCounts, NegTotal, NegBudget, Kind, Lifting);
    const double Lo =
        static_cast<double>(PosTotal - PosBudget) * PosEnt.lb() +
        static_cast<double>(NegTotal - NegBudget) * NegEnt.lb();
    const double Hi = static_cast<double>(PosTotal) * PosEnt.ub() +
                      static_cast<double>(NegTotal) * NegEnt.ub();
    return Interval(Lo, Hi);
  }
  Interval PosSize(static_cast<double>(PosTotal - PosBudget),
                   static_cast<double>(PosTotal));
  Interval NegSize(static_cast<double>(NegTotal - NegBudget),
                   static_cast<double>(NegTotal));
  return PosSize * abstractGiniImpurityFromCounts(PosCounts, PosTotal,
                                                  PosBudget, Kind, Lifting) +
         NegSize * abstractGiniImpurityFromCounts(NegCounts, NegTotal,
                                                  NegBudget, Kind, Lifting);
}

void antidote::optimalExactScoreLowerBounds(const SplitBlock &Block,
                                            uint32_t Budget, double *Lb) {
  // `fusedOptimalExactGini`'s lower half, Σ_C min(f(lo), f(hi)) with side
  // budget b = min(n, |side|) and m = |side| − b, and the fused combine
  // m↓·lb↓ + m¬·lb¬. A side whose budget covers it (m = 0) takes the
  // reference's n = |T| corner, probabilities [0, 1] and lower bound 0;
  // dividing by max(m, 1) instead of m gives that side all-zero terms too,
  // so no branch guards the division.
  const double N = Budget;
  blockSideSums(
      Block,
      [N](double Count, double Side) {
        const double B = std::min(N, Side);
        const double M = Side - B;
        const double Div = std::max(M, 1.0);
        const double PLo = std::max(Count - B, 0.0) / Div;
        const double PHi = std::min(Count, M) / Div;
        return std::min(PLo * (1.0 - PLo), PHi * (1.0 - PHi));
      },
      [N](double Side) { return Side - std::min(N, Side); }, Lb);
}

Interval antidote::abstractSplitScore(const AbstractDataset &Pos,
                                      const AbstractDataset &Neg,
                                      CprobTransformerKind Kind,
                                      GiniLiftingKind Lifting) {
  return abstractSplitScore(Pos.counts(), Pos.size(), Pos.budget(),
                            Neg.counts(), Neg.size(), Neg.budget(), Kind,
                            Lifting);
}
