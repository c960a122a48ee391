//===- abstract/PredicateSet.h - Abstract predicate domain ------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract domain of predicate sets Ψ (§4.2).
///
/// A set of (possibly symbolic) predicates is abstracted *precisely* as
/// itself; joins are set unions. The set may contain the distinguished null
/// predicate ⋄, which `bestSplit#` emits when some concretization might
/// admit no non-trivial split (§4.6) and which the `φ = ⋄` conditional of
/// `DTrace#` branches on (§4.7).
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_ABSTRACT_PREDICATESET_H
#define ANTIDOTE_ABSTRACT_PREDICATESET_H

#include "concrete/Predicate.h"

#include <vector>

namespace antidote {

/// A finite set of predicates, possibly including ⋄.
class PredicateSet {
public:
  PredicateSet() = default;

  /// The initial learner state {⋄} (§4.3).
  static PredicateSet nullOnly() {
    PredicateSet Set;
    Set.HasNull = true;
    return Set;
  }

  void add(const SplitPredicate &Pred) { Preds.push_back(Pred); }
  void addNull() { HasNull = true; }

  /// Pre-sizes for \p Count bulk adds (bestSplit# knows how many
  /// candidates it kept).
  void reserve(size_t Count) { Preds.reserve(Count); }

  /// Restores the canonical sorted/unique representation after bulk adds;
  /// O(n) when the adds were already strictly ascending.
  void canonicalize();

  const std::vector<SplitPredicate> &predicates() const { return Preds; }
  bool containsNull() const { return HasNull; }

  /// Number of predicates, not counting ⋄.
  size_t size() const { return Preds.size(); }
  bool empty() const { return Preds.empty() && !HasNull; }

  /// Ψ1 ⊔ Ψ2 = Ψ1 ∪ Ψ2 (§4.2).
  static PredicateSet join(const PredicateSet &A, const PredicateSet &B);

  /// True iff the concrete predicate `x_Feature ≤ Threshold` belongs to the
  /// concretization γ(Ψ) = ∪_ρ γ(ρ) (used by the soundness tests to check
  /// Lemma 4.10 / B.5).
  bool concretizationContains(uint32_t Feature, double Threshold) const;

  bool operator==(const PredicateSet &Other) const {
    return HasNull == Other.HasNull && Preds == Other.Preds;
  }

  uint64_t stateBytes() const {
    return Preds.capacity() * sizeof(SplitPredicate) + sizeof(*this);
  }

private:
  std::vector<SplitPredicate> Preds;
  bool HasNull = false;
};

} // namespace antidote

#endif // ANTIDOTE_ABSTRACT_PREDICATESET_H
