//===- abstract/AbstractGini.h - cprob# / ent# / score# ---------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract versions of the Figure 5 auxiliary operators (paper §4.4, §4.6).
///
/// `cprob#(⟨T,n⟩)` returns one probability interval per class. Two sound
/// transformers are provided:
///
///  - `Optimal` — the closed form of footnote 6 based on extremal averages:
///    with m = |T| − n, class i gets [max(0, c_i − n)/m, min(c_i, m)/m].
///    This is the transformer the paper's evaluation uses.
///  - `NaiveInterval` — the "natural lifting" [max(0, c_i − n), c_i] /
///    [|T| − n, |T|] via interval division, which footnote 6 notes is not
///    even guaranteed to stay within [0, 1]. Kept for the ablation bench.
///
/// `ent#` is Gini impurity through interval arithmetic, and `score#` is
/// `|⟨T,n⟩↓φ|·ent#(↓φ) + |⟨T,n⟩↓¬φ|·ent#(↓¬φ)` with `|⟨T,n⟩| = [|T|−n, |T|]`.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_ABSTRACT_ABSTRACTGINI_H
#define ANTIDOTE_ABSTRACT_ABSTRACTGINI_H

#include "abstract/AbstractDataset.h"
#include "support/Interval.h"

#include <vector>

namespace antidote {

class SplitBlock;

/// Which sound `cprob#` transformer to apply (footnote 6).
enum class CprobTransformerKind : uint8_t {
  Optimal,       ///< Extremal-average closed form (paper's implementation).
  NaiveInterval, ///< Interval-division lifting (for ablation).
};

/// How each Gini term f(ι) = ι(1 − ι) of `ent#` is evaluated (see
/// `abstractGiniImpurity` below and DESIGN.md §5).
enum class GiniLiftingKind : uint8_t {
  ExactTerm,      ///< Optimal unary image of x(1 − x) (default).
  NaturalLifting, ///< Literal ι([1,1] − ι) interval arithmetic (ablation).
};

/// `cprob#` from class counts: \p Counts sums to \p Total; \p Budget is n.
/// In the corner case n = |T| every class gets [0, 1] (§4.4).
std::vector<Interval>
abstractClassProbabilities(const std::vector<uint32_t> &Counts,
                           uint32_t Total, uint32_t Budget,
                           CprobTransformerKind Kind);

/// `cprob#(⟨T,n⟩)`. Requires a non-empty abstract set.
std::vector<Interval> abstractClassProbabilities(const AbstractDataset &Data,
                                                 CprobTransformerKind Kind);

/// The exact image of the Gini term f(x) = x(1 − x) over an interval —
/// the optimal unary transformer for each summand of `ent#`. f is concave
/// with its maximum at 1/2, so the image is
/// [min(f(lo), f(hi)), 0.25 if 1/2 ∈ ι else max(f(lo), f(hi))].
Interval abstractGiniTermRange(const Interval &Prob);

/// `ent#`: Σ f(ι_i) using the exact per-term image above.
///
/// The paper's §4.4 text writes the term as `ι([1,1] − ι)`, whose plain
/// interval-arithmetic evaluation treats the two occurrences of ι
/// independently and is dramatically looser (e.g. ub 4/7 instead of the
/// attainable 0.408 for ⟨{7w,2b}, 2⟩) — loose enough that `bestSplit#`
/// keeps almost every candidate and even the §2 running example becomes
/// unprovable. We therefore default to the exact unary image (sound, and
/// required to reproduce the paper's verified fractions) and keep the
/// literal lifting below for the ablation bench. See DESIGN.md §5.
Interval abstractGiniImpurity(
    const std::vector<Interval> &Probs,
    GiniLiftingKind Lifting = GiniLiftingKind::ExactTerm);

/// `ent#` straight from counts. For the paper's evaluation configuration
/// (Optimal × ExactTerm, n < |T|) this runs a fused branch-free kernel over
/// the flat count slice — bit-identical to, but much faster than, composing
/// `abstractClassProbabilities` + `abstractGiniImpurity`, which remain the
/// retained naive reference (and serve the ablation kinds).
Interval abstractGiniImpurityFromCounts(
    const std::vector<uint32_t> &Counts, uint32_t Total, uint32_t Budget,
    CprobTransformerKind Kind,
    GiniLiftingKind Lifting = GiniLiftingKind::ExactTerm);

/// `score#(⟨T,n⟩, φ)` from the counts of the two sides; the side budgets
/// must already be `min(n, |side|)` as `↓#` produces.
Interval abstractSplitScore(
    const std::vector<uint32_t> &PosCounts, uint32_t PosTotal,
    uint32_t PosBudget, const std::vector<uint32_t> &NegCounts,
    uint32_t NegTotal, uint32_t NegBudget, CprobTransformerKind Kind,
    GiniLiftingKind Lifting = GiniLiftingKind::ExactTerm);

/// The `score#` lower bound, Optimal × ExactTerm, of every candidate of
/// \p Block into \p Lb (one per candidate), with side budgets
/// min(\p Budget, |side|): bit for bit the lower bound `abstractSplitScore`
/// gives each candidate's sides, computed as straight-line loops over the
/// whole block.
void optimalExactScoreLowerBounds(const SplitBlock &Block, uint32_t Budget,
                                  double *Lb);

/// `score#` over materialized abstract datasets.
Interval abstractSplitScore(
    const AbstractDataset &Pos, const AbstractDataset &Neg,
    CprobTransformerKind Kind,
    GiniLiftingKind Lifting = GiniLiftingKind::ExactTerm);

} // namespace antidote

#endif // ANTIDOTE_ABSTRACT_ABSTRACTGINI_H
