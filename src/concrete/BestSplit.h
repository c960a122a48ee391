//===- concrete/BestSplit.h - Split candidate enumeration -------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Candidate split enumeration and the concrete `bestSplit` (paper §3.3,
/// §5.1).
///
/// For a real-valued feature the learner considers one threshold per pair of
/// adjacent distinct values occurring in the current training set, namely
/// the midpoint (a+b)/2 (`DTraceR`, §5.1); the abstract learner considers
/// the symbolic interval [a, b) for the same pairs (Appendix B.2). Both the
/// concrete and abstract `bestSplit` operators therefore share one
/// enumerator, `forEachSplitBlock`, which hands out every candidate in
/// ascending (feature, threshold) order, one feature's `SplitBlock` at a
/// time. The concrete `bestSplit` scores each block with `splitScores` and
/// keeps a running argmin; `bestSplit#` scores each block's lower bounds and
/// keeps a running lub (abstract/AbstractBestSplit.h). The enumerator has
/// two layers:
///
///  - `SplitEnumerationPrepass` — the state every feature's pass needs
///    (the row-membership mask, the class counts and, for boolean features,
///    the class counts of each feature's `value == 0` side), built in one
///    row-major pass.
///  - `SplitBlock::assign` — fills one feature's block.
///
/// `forEachCandidateSplit` is the per-candidate view of the same blocks,
/// which the tests compare the block kernels against; the ablation
/// configurations score a block's candidates one by one through
/// `SplitBlock::sideCounts`.
///
/// `SplitContext` caches, per base dataset, the per-feature value-sorted row
/// orders that make each enumeration a single filtered pass (O(|features| ×
/// |base rows|)) instead of a fresh sort per tree node — plus, aligned with
/// each order, the sorted column values themselves, so the enumeration scans
/// two dense arrays instead of gathering values row-by-row.
///
/// Kernel shape: filling a block first *compacts* the in-set entries of the
/// sorted order into dense (value, label) scratch with an
/// always-write/conditionally-advance loop (no data-dependent branch; the
/// full row set skips this), then finds the value boundaries and the class
/// counts before each in one more such pass, keeping the running counts
/// packed in 32-bit lanes of one register. The block stores sizes and
/// counts as class-major double columns, so a score kernel is a
/// straight-line loop per class over the block's candidates, with
/// `__restrict` slices and no branch around a division: the shape the
/// compiler vectorizes. Every kernel is `blockSideSums` given the per-class
/// term and per-side weight of the per-candidate score it replaces, doing
/// that score's arithmetic in the same order, and the library is built
/// with `-ffp-contract=off`, so the doubles agree bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_CONCRETE_BESTSPLIT_H
#define ANTIDOTE_CONCRETE_BESTSPLIT_H

#include "concrete/Gini.h"
#include "concrete/Predicate.h"
#include "data/Dataset.h"

#include <optional>
#include <utility>
#include <vector>

namespace antidote {

/// Whether the enumerator should emit the concrete midpoint threshold or
/// the symbolic interval predicate for each adjacent value pair.
enum class PredicateMode : uint8_t {
  ConcreteMidpoint, ///< `x ≤ (a+b)/2` — used by DTrace / DTraceR.
  SymbolicInterval, ///< `x ≤ [a, b)` — used by DTrace#_R (Appendix B.2).
};

/// Immutable per-dataset acceleration structure for split enumeration.
class SplitContext {
public:
  explicit SplitContext(const Dataset &Base);

  const Dataset &base() const { return *Base; }

  /// Row ids of the base dataset sorted by (value of \p Feature, row id).
  /// Only available for Real features.
  const RowIndexList &sortedOrder(unsigned Feature) const {
    assert(Base->schema().FeatureKinds[Feature] == FeatureKind::Real &&
           "sorted order is only built for real features");
    return Orders[Feature];
  }

  /// Column values of \p Feature aligned with `sortedOrder(Feature)`:
  /// `sortedValues(F)[I] == column(F)[sortedOrder(F)[I]]`. Lets the
  /// enumeration read the sorted values with unit stride instead of
  /// gathering through the row ids. Only available for Real features.
  const float *sortedValues(unsigned Feature) const {
    assert(Base->schema().FeatureKinds[Feature] == FeatureKind::Real &&
           "sorted values are only built for real features");
    return Values[Feature].data();
  }

private:
  const Dataset *Base;
  std::vector<RowIndexList> Orders; ///< Indexed by feature; empty if Boolean.
  std::vector<std::vector<float>> Values; ///< Aligned with Orders.
};

/// Read-only state shared by every per-feature enumeration pass over one
/// row set: the base-row membership mask, the row set's class counts, and
/// (when the schema has boolean features) the per-feature class counts of
/// the `value == 0` side. Building it is the one row-major pass of the
/// enumeration. The referenced context and row list must outlive the
/// prepass.
class SplitEnumerationPrepass {
public:
  SplitEnumerationPrepass(const SplitContext &Ctx, const RowIndexList &Rows);

  const SplitContext &context() const { return *Ctx; }
  const RowIndexList &rows() const { return *Rows; }
  uint32_t total() const { return static_cast<uint32_t>(Rows->size()); }

  bool contains(uint32_t Row) const { return InRows[Row]; }

  /// Class counts of the row set, as doubles (the score kernels' form).
  const double *classTotals() const { return Totals.data(); }

  /// Class counts of boolean feature \p Feature's `value == 0` side (null
  /// when the schema has no boolean features).
  const uint32_t *zeroCounts(unsigned Feature) const {
    assert(!ZeroCounts.empty() && "no boolean feature in the schema");
    return ZeroCounts.data() +
           static_cast<size_t>(Feature) * Ctx->base().numClasses();
  }

private:
  const SplitContext *Ctx;
  const RowIndexList *Rows;
  std::vector<uint8_t> InRows;      ///< Membership mask over the base rows.
  std::vector<double> Totals;       ///< Class counts of the row set.
  std::vector<uint32_t> ZeroCounts; ///< feature-major; empty if no booleans.
};

/// One feature's candidate splits of a row set, in ascending threshold
/// order, as struct-of-arrays columns: per candidate the positive side's
/// size and (class-major) class counts, plus where in the sorted values it
/// cuts, which gives its predicate. Sizes and counts are stored as
/// doubles — integers far below 2^53, so exact — which is the form every
/// score kernel reads.
/// Candidates whose positive side would be empty or the whole set are not
/// in the block (trivial for every consumer).
///
/// A block is scratch that `assign` refills, one feature at a time, so a
/// whole enumeration allocates nothing once the storage has grown.
class SplitBlock {
public:
  /// Refills the block with feature \p Feature's candidates of
  /// `Pre.rows()`. Returns false when the feature has no candidate.
  bool assign(const SplitEnumerationPrepass &Pre, unsigned Feature);

  unsigned feature() const { return Feature; }
  size_t size() const { return Size; }
  unsigned numClasses() const { return NumClasses; }

  /// |T|, the size of the whole row set.
  double total() const { return Total; }
  /// Class counts of the whole row set; the negative side of candidate I
  /// has `classTotals()[C] - posCounts(C)[I]` rows of class C.
  const double *classTotals() const { return Totals; }
  /// |T↓φ| of each candidate.
  const double *posTotals() const { return PosTotals.data(); }
  /// Class \p C's count on the positive side of each candidate.
  const double *posCounts(unsigned C) const {
    return Counts.data() + static_cast<size_t>(C) * Stride;
  }

  /// Candidate \p I's predicate: `x ≤ 0.5` on a boolean feature, else the
  /// midpoint `x ≤ (a+b)/2` or the symbolic `x ≤ [a, b)` per \p Mode,
  /// where a < b are the adjacent values the candidate cuts between.
  SplitPredicate predicate(size_t I, PredicateMode Mode) const {
    if (Boolean)
      return SplitPredicate::threshold(Feature, 0.5);
    const double A = Values[Cuts[I] - 1];
    const double B = Values[Cuts[I]];
    if (Mode == PredicateMode::ConcreteMidpoint)
      return SplitPredicate::threshold(Feature, (A + B) / 2.0);
    return SplitPredicate::symbolic(Feature, A, B);
  }

  /// Candidate \p I's sides as integer counts, the form the per-candidate
  /// reference scores take: \p Pos and \p Neg are resized to the classes.
  /// Returns |T↓φ|.
  uint32_t sideCounts(size_t I, std::vector<uint32_t> &Pos,
                      std::vector<uint32_t> &Neg) const;

private:
  /// Makes room for \p Candidates candidates of \p Classes classes.
  void reserve(size_t Candidates, unsigned Classes);

  unsigned Feature = 0;
  bool Boolean = false;
  size_t Size = 0;
  unsigned NumClasses = 0;
  double Total = 0.0;
  const double *Totals = nullptr;
  size_t Stride = 0; ///< Candidates per class row of Counts.
  /// The row set's values of a real feature in sorted order; candidate I
  /// cuts between positions Cuts[I] - 1 and Cuts[I].
  const float *Values = nullptr;
  std::vector<uint32_t> Cuts;
  std::vector<double> PosTotals;
  std::vector<double> Counts; ///< Class-major, NumClasses × Stride.
};

/// Streams the candidate splits of \p Rows (which must be a canonical row
/// set over `Ctx.base()`) one feature block at a time: one prepass, then
/// `Consume(const SplitBlock &)` for each feature with a candidate, in
/// ascending feature order. \p Consume returns false to stop the
/// enumeration early. The block is per-thread scratch, valid only during
/// the call; a consumer must not start another enumeration on the same
/// thread from inside it.
template <typename Consumer>
void forEachSplitBlock(const SplitContext &Ctx, const RowIndexList &Rows,
                       Consumer &&Consume) {
  SplitEnumerationPrepass Pre(Ctx, Rows);
  thread_local SplitBlock Block;
  const SplitBlock &View = Block;
  for (unsigned F = 0; F < Ctx.base().numFeatures(); ++F)
    if (Block.assign(Pre, F) && !Consume(View))
      return;
}

/// Streams every candidate split of \p Rows one at a time, in ascending
/// (feature, threshold) order: the per-candidate view of
/// `forEachSplitBlock`, for consumers that score candidates one by one.
///
/// For each candidate, invokes
///   `Cb(const SplitPredicate &P, const std::vector<uint32_t> &PosCounts,
///       uint32_t PosTotal)`
/// where PosCounts/PosTotal describe `T↓P` (rows satisfying the predicate).
/// The negative side is `Totals - PosCounts`. Candidates whose positive
/// side would be empty or the whole set are skipped: they are trivial for
/// the concrete learner (Φ' in §3.3) and excluded from both Φ∃ and Φ∀ in
/// the abstract learner (§4.6), so no consumer wants them.
template <typename Callback>
void forEachCandidateSplit(const SplitContext &Ctx, const RowIndexList &Rows,
                           PredicateMode Mode, Callback &&Cb) {
  std::vector<uint32_t> PosCounts, NegCounts;
  forEachSplitBlock(Ctx, Rows, [&](const SplitBlock &Block) {
    for (size_t I = 0; I < Block.size(); ++I) {
      uint32_t PosTotal = Block.sideCounts(I, PosCounts, NegCounts);
      Cb(Block.predicate(I, Mode), std::as_const(PosCounts), PosTotal);
    }
    return true;
  });
}

/// The loop every block score kernel runs. For each candidate I of
/// \p Block, with side sizes t↓ = |T↓φ|, t¬ = |T↓¬φ| and class counts
/// c↓_C, c¬_C:
///   Out[I] = Weight(t↓) · Σ_C Term(c↓_C, t↓) + Weight(t¬) · Σ_C Term(c¬_C, t¬)
/// where each side's sum accumulates from 0 in class order, the order the
/// per-candidate scores sum in, so a kernel whose Term and Weight do its
/// reference's arithmetic gives the reference's doubles. The sums run one
/// class at a time across the block: straight-line loops over contiguous
/// `__restrict` slices, which vectorize when Term and Weight are
/// branch-free.
template <typename TermFn, typename WeightFn>
void blockSideSums(const SplitBlock &Block, TermFn &&Term, WeightFn &&Weight,
                   double *__restrict Out) {
  const size_t S = Block.size();
  const double T = Block.total();
  const double *__restrict PT = Block.posTotals();
  // The positive side's sum accumulates in Out itself.
  thread_local std::vector<double> NegScratch;
  NegScratch.resize(S);
  double *__restrict NegSum = NegScratch.data();
  for (size_t I = 0; I < S; ++I) {
    Out[I] = 0.0;
    NegSum[I] = 0.0;
  }
  for (unsigned C = 0; C < Block.numClasses(); ++C) {
    const double *__restrict PC = Block.posCounts(C);
    const double TC = Block.classTotals()[C];
    for (size_t I = 0; I < S; ++I) {
      Out[I] += Term(PC[I], PT[I]);
      NegSum[I] += Term(TC - PC[I], T - PT[I]);
    }
  }
  for (size_t I = 0; I < S; ++I)
    Out[I] = Weight(PT[I]) * Out[I] + Weight(T - PT[I]) * NegSum[I];
}

/// `score(T, φ)` of every candidate of \p Block into \p Scores (one per
/// candidate): the same doubles `splitScore` gives each candidate's sides,
/// computed as straight-line loops over the whole block.
void splitScores(const SplitBlock &Block, double *Scores);

/// The concrete `bestSplit(T)` of §3.3 (with §5.1's dynamic thresholds for
/// real features): the non-trivially-splitting predicate minimizing
/// `score`, or `std::nullopt` for ⋄ when no such predicate exists. Ties are
/// broken toward the smallest (feature, threshold); the paper leaves them
/// nondeterministic (see DESIGN.md §5).
std::optional<SplitPredicate> bestSplit(const SplitContext &Ctx,
                                        const RowIndexList &Rows);

/// Rows of \p Rows on the requested side of a concrete predicate. The
/// predicate must not be symbolic.
RowIndexList filterRows(const Dataset &Base, const RowIndexList &Rows,
                        const SplitPredicate &Pred, bool Positive);

} // namespace antidote

#endif // ANTIDOTE_CONCRETE_BESTSPLIT_H
