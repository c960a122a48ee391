//===- abstract/AbstractDataset.h - The <T,n> training-set domain *- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract training-set domain `⟨T, n⟩` — the paper's core novelty
/// (§4.2).
///
/// An element `⟨T, n⟩` concretizes to `∆n(T) = {T' ⊆ T : |T \ T'| ≤ n}`:
/// every training set obtainable by deleting at most n rows from T. The
/// n-poisoning verification problem starts from `α(∆n(T)) = ⟨T, n⟩`
/// (which is precise) and pushes elements of this domain through the
/// abstract learner's transformers. Implemented operations:
///
///  - join `⊔` (Definition 4.1) and meet `⊓` (footnote 4),
///  - the partial order `⊑` (footnote 4),
///  - `↓#ρ` restriction by a (possibly symbolic) predicate — equation (1)
///    of §4.4 generalized per Appendix B.1 to symbolic predicates,
///  - `pure(⟨T,n⟩, i)` (§4.7) for the `ent(T) = 0` conditional,
///  - membership `T' ∈ γ(⟨T,n⟩)` for the soundness property tests.
///
/// Elements hold a sorted row-index view into an immutable base dataset
/// plus cached class counts, so all of the above are linear merges.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_ABSTRACT_ABSTRACTDATASET_H
#define ANTIDOTE_ABSTRACT_ABSTRACTDATASET_H

#include "concrete/Predicate.h"
#include "data/Dataset.h"
#include "support/Interval.h"

#include <algorithm>
#include <optional>

namespace antidote {

/// An element `⟨T, n⟩` of the abstract training-set domain.
class AbstractDataset {
public:
  /// Wraps the rows \p Rows (canonical row set over \p Base) with poisoning
  /// budget \p Budget. The budget is clamped to |Rows| (as every transformer
  /// in the paper maintains n ≤ |T|).
  AbstractDataset(const Dataset &Base, RowIndexList Rows, uint32_t Budget);

  /// The initial abstraction `α(∆n(T)) = ⟨T, n⟩` over the whole dataset.
  static AbstractDataset entire(const Dataset &Base, uint32_t Budget);

  const Dataset &base() const { return *Base; }
  const RowIndexList &rows() const { return Rows; }
  uint32_t size() const { return static_cast<uint32_t>(Rows.size()); }
  uint32_t budget() const { return Budget; }

  /// Cached per-class row counts (the c_i of §4.4).
  const std::vector<uint32_t> &counts() const { return Counts; }

  /// `⟨∅, ·⟩` — no concretization has any rows. This is the bottom-ness
  /// test used by Φ∃ in `bestSplit#` (§4.6).
  bool isEmptySet() const { return Rows.empty(); }

  /// True iff ∅ ∈ γ(⟨T,n⟩), i.e. n = |T| (footnote 7). Used by Φ∀.
  bool emptySetPossible() const { return Budget >= size(); }

  /// True iff every row has the same label (then ent(T') = 0 for every
  /// concretization, making the `ent ≠ 0` branch infeasible; DESIGN.md §6).
  bool isSingleClass() const;

  /// `|⟨T,n⟩| = [|T| − n, |T|]` (§4.6).
  Interval sizeInterval() const {
    return Interval(static_cast<double>(size() - Budget),
                    static_cast<double>(size()));
  }

  /// The domain's partial order (footnote 4):
  /// `⟨T1,n1⟩ ⊑ ⟨T2,n2⟩ ⇔ T1 ⊆ T2 ∧ n1 ≤ n2 − |T2 \ T1|`.
  bool leq(const AbstractDataset &Other) const;

  /// Structural equality (same rows and budget).
  bool operator==(const AbstractDataset &Other) const {
    return Budget == Other.Budget && Rows == Other.Rows;
  }
  bool operator!=(const AbstractDataset &Other) const {
    return !(*this == Other);
  }

  /// Join `⊔` (Definition 4.1): `⟨T1 ∪ T2, max(|T1\T2| + n2, |T2\T1| + n1)⟩`.
  static AbstractDataset join(const AbstractDataset &A,
                              const AbstractDataset &B);

  /// Meet `⊓` (footnote 4); std::nullopt is ⊥.
  static std::optional<AbstractDataset> meet(const AbstractDataset &A,
                                             const AbstractDataset &B);

  /// True iff the concrete training set \p Candidate (canonical row set) is
  /// in γ(⟨T,n⟩), i.e. Candidate ⊆ T and |T \ Candidate| ≤ n.
  bool concretizationContains(const RowIndexList &Candidate) const;

  /// `⟨T,n⟩ ↓#ρ` / `⟨T,n⟩ ↓#¬ρ` — restriction to one side of a predicate.
  ///
  /// For a concrete predicate this is equation (1) of §4.4:
  /// `⟨T↓φ, min(n, |T↓φ|)⟩`. For a symbolic predicate ρ = `x ≤ [a,b)` it is
  /// the Appendix B.1 definition `⟨T,n⟩↓#φa ⊔ ⟨T,n⟩↓#φb`, computed directly:
  /// the kept rows are those *possibly* on the requested side, and the
  /// budget additionally absorbs the rows that are only possibly there.
  AbstractDataset restrict(const SplitPredicate &Pred, bool Positive) const;

  /// The budget `restrict` charges a child of \p Possible rows, \p Definite
  /// of them definitely on the requested side, before the constructor's
  /// clamp to the child's size.
  static uint32_t restrictedBudget(uint32_t Budget, uint32_t Possible,
                                   uint32_t Definite) {
    return std::max(std::min(Budget, Possible),
                    (Possible - Definite) + std::min(Budget, Definite));
  }

  /// `pure(⟨T,n⟩, i)` (§4.7): restricts to concretizations containing only
  /// class-\p Class rows; std::nullopt is ⊥ (more than n rows of other
  /// classes would have to be dropped).
  std::optional<AbstractDataset> restrictToPureClass(unsigned Class) const;

  /// Heap bytes attributable to this element (for the Figure 7-11 memory
  /// metric).
  uint64_t stateBytes() const {
    return Rows.capacity() * sizeof(uint32_t) +
           Counts.capacity() * sizeof(uint32_t) + sizeof(*this);
  }

  /// `stateBytes()` of an element of \p Size rows whose vectors are at
  /// exact capacity, as every `restrict` child's are. Lets the last
  /// frontier level charge a child it only summarized (abstract/
  /// AbstractFilter.h) exactly what the built child would have cost.
  static uint64_t exactStateBytes(uint32_t Size, unsigned NumClasses) {
    return (static_cast<uint64_t>(Size) + NumClasses) * sizeof(uint32_t) +
           sizeof(AbstractDataset);
  }

  /// Renders "<|T|=…, n=…>" for diagnostics.
  std::string str() const;

private:
  const Dataset *Base;
  RowIndexList Rows;
  uint32_t Budget;
  std::vector<uint32_t> Counts;
};

} // namespace antidote

#endif // ANTIDOTE_ABSTRACT_ABSTRACTDATASET_H
