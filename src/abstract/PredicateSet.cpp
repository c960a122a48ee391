//===- abstract/PredicateSet.cpp - Abstract predicate domain -----------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/PredicateSet.h"

#include <algorithm>

using namespace antidote;

void PredicateSet::canonicalize() {
  // bestSplit# adds its predicates in (feature, lo, hi) order already;
  // strictly ascending is canonical, so one O(n) check skips the sort.
  if (std::adjacent_find(Preds.begin(), Preds.end(),
                         [](const SplitPredicate &A, const SplitPredicate &B) {
                           return !(A < B);
                         }) == Preds.end())
    return;
  std::sort(Preds.begin(), Preds.end());
  Preds.erase(std::unique(Preds.begin(), Preds.end()), Preds.end());
}

PredicateSet PredicateSet::join(const PredicateSet &A, const PredicateSet &B) {
  PredicateSet Result;
  Result.Preds.reserve(A.Preds.size() + B.Preds.size());
  Result.Preds = A.Preds;
  Result.Preds.insert(Result.Preds.end(), B.Preds.begin(), B.Preds.end());
  Result.HasNull = A.HasNull || B.HasNull;
  Result.canonicalize();
  return Result;
}

bool PredicateSet::concretizationContains(uint32_t Feature,
                                          double Threshold) const {
  for (const SplitPredicate &Pred : Preds)
    if (Pred.concretizationContains(Feature, Threshold))
      return true;
  return false;
}
