//===- abstract/AbstractFilter.cpp - filter# ----------------------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractFilter.h"

#include "support/BitHash.h"

#include <algorithm>
#include <numeric>
#include <optional>

using namespace antidote;

AbstractDataset antidote::abstractFilter(const AbstractDataset &Data,
                                         const PredicateSet &Preds,
                                         const float *X) {
  assert(!Preds.predicates().empty() &&
         "filter# requires at least one predicate");
  // ⟨∅, 0⟩ is the identity of ⊔ (Example 4.8); starting from "nothing yet"
  // is equivalent.
  std::optional<AbstractDataset> Acc;
  auto Include = [&Acc](AbstractDataset Part) {
    if (!Acc)
      Acc = std::move(Part);
    else
      Acc = AbstractDataset::join(*Acc, Part);
  };
  for (const SplitPredicate &Pred : Preds.predicates()) {
    ThreeValued V = Pred.evaluate(X);
    if (V != ThreeValued::False) // ρ ∈ Ψx
      Include(Data.restrict(Pred, /*Positive=*/true));
    if (V != ThreeValued::True) // ρ ∈ Ψ¬x
      Include(Data.restrict(Pred, /*Positive=*/false));
  }
  return *Acc;
}

namespace {

/// The fixed per-row keys behind `RowSetHash`: splitmix64 of the row id
/// under two seeds.
uint64_t rowKey1(uint32_t Row) {
  return splitmix64(Row + 0x243f6a8885a308d3ULL);
}
uint64_t rowKey2(uint32_t Row) {
  return splitmix64(Row + 0x13198a2e03707344ULL);
}

/// What a sorted-order walk adds when it passes one base row: the row's
/// hash keys and its class, or zero keys and the discard slot `NumClasses`
/// for a row outside the parent.
struct WalkRow {
  uint64_t Key1;
  uint64_t Key2;
  uint32_t Slot;
};

/// A prefix query of one feature's sorted order — the rows with
/// `v ≤ Threshold`, or `v < Threshold` when \p Strict — answered into
/// prefix slot \p Slot. Values compare in double, as `restrict` compares.
struct PrefixQuery {
  double Threshold;
  bool Strict;
  uint32_t Slot;

  bool covers(double V) const {
    return Strict ? V < Threshold : V <= Threshold;
  }
  /// Prefix order: by threshold, the strict (smaller) prefix first.
  bool operator<(const PrefixQuery &Other) const {
    if (Threshold != Other.Threshold)
      return Threshold < Other.Threshold;
    return Strict > Other.Strict;
  }
};

/// Sizes, hashes and class counts of the prefix sets of the parent's rows:
/// slot 2P is `{v ≤ lo}` and slot 2P + 1 is `{v < hi}` of predicate P.
struct PrefixTable {
  unsigned NumClasses = 0;
  std::vector<uint32_t> Size;
  std::vector<RowSetHash> Hash;
  std::vector<uint32_t> Counts; ///< NumClasses per slot.

  void reset(size_t Slots, unsigned K) {
    NumClasses = K;
    Size.assign(Slots, 0);
    Hash.assign(Slots, RowSetHash());
    Counts.assign(Slots * K, 0);
  }
  uint32_t *counts(uint32_t Slot) {
    return Counts.data() + static_cast<size_t>(Slot) * NumClasses;
  }
  /// Records a running walk state (\p Run has the discard slot last).
  void record(uint32_t Slot, const std::vector<uint32_t> &Run,
              const RowSetHash &H) {
    std::copy(Run.begin(), Run.begin() + NumClasses, counts(Slot));
    Size[Slot] = 0;
    for (unsigned C = 0; C < NumClasses; ++C)
      Size[Slot] += Run[C];
    Hash[Slot] = H;
  }
};

/// Answers every prefix query of the real feature \p F in one walk of its
/// sorted order, up to the longest prefix asked for: in prefix order, each
/// query extends the previous one's prefix.
void walkRealFeature(const SplitContext &Ctx, unsigned F,
                     const std::vector<WalkRow> &Walk,
                     std::vector<PrefixQuery> &Queries, PrefixTable &Table) {
  const RowIndexList &Order = Ctx.sortedOrder(F);
  const float *Vals = Ctx.sortedValues(F);
  const size_t N = Order.size();
  if (!std::is_sorted(Queries.begin(), Queries.end()))
    std::sort(Queries.begin(), Queries.end());
  thread_local std::vector<uint32_t> Run;
  Run.assign(Table.NumClasses + 1, 0);
  RowSetHash H;
  size_t At = 0;
  for (const PrefixQuery &Q : Queries) {
    for (; At < N && Q.covers(Vals[At]); ++At) {
      const WalkRow &R = Walk[Order[At]];
      ++Run[R.Slot];
      H.H1 += R.Key1;
      H.H2 += R.Key2;
    }
    Table.record(Q.Slot, Run, H);
  }
}

/// Answers the prefix queries of the boolean feature \p F. Its values are
/// 0 and 1, so every prefix is empty, the `value == 0` rows, or all rows;
/// one scan of the parent finds the middle one.
void scanBooleanFeature(const AbstractDataset &Cur, unsigned F,
                        const std::vector<WalkRow> &Walk,
                        const std::vector<PrefixQuery> &Queries,
                        const std::vector<uint32_t> &AllRun,
                        const RowSetHash &All, PrefixTable &Table) {
  const unsigned K = Table.NumClasses;
  const float *Col = Cur.base().column(F);
  thread_local std::vector<uint32_t> ZeroRun, EmptyRun;
  ZeroRun.assign(K + 1, 0);
  EmptyRun.assign(K + 1, 0);
  RowSetHash Zero;
  for (uint32_t Row : Cur.rows()) {
    const WalkRow &R = Walk[Row];
    const uint64_t IsZero = Col[Row] == 0.0f;
    ++ZeroRun[IsZero ? R.Slot : K];
    Zero.H1 += R.Key1 & -IsZero;
    Zero.H2 += R.Key2 & -IsZero;
  }
  for (const PrefixQuery &Q : Queries) {
    if (Q.covers(1.0))
      Table.record(Q.Slot, AllRun, All);
    else if (Q.covers(0.0))
      Table.record(Q.Slot, ZeroRun, Zero);
    else
      Table.record(Q.Slot, EmptyRun, RowSetHash());
  }
}

} // namespace

RowSetHash antidote::rowSetHash(const RowIndexList &Rows) {
  RowSetHash H;
  for (uint32_t Row : Rows) {
    H.H1 += rowKey1(Row);
    H.H2 += rowKey2(Row);
  }
  return H;
}

void antidote::summarizeRestrictions(const SplitContext &Ctx,
                                     const AbstractDataset &Cur,
                                     const PredicateSet &Preds, const float *X,
                                     RestrictionSummaries &Out) {
  const Dataset &Base = Cur.base();
  assert(&Ctx.base() == &Base && "context built over another dataset");
  const unsigned K = Base.numClasses();
  const std::vector<SplitPredicate> &Ps = Preds.predicates();
  Out.NumClasses = K;

  // One membership pass: rows outside Cur walk into the discard slot with
  // zero keys, so the walks below need no membership test.
  thread_local std::vector<WalkRow> Walk;
  Walk.assign(Base.numRows(), WalkRow{0, 0, K});
  const uint32_t *Labels = Base.labels();
  RowSetHash All;
  for (uint32_t Row : Cur.rows()) {
    Walk[Row] = WalkRow{rowKey1(Row), rowKey2(Row), Labels[Row]};
    All.H1 += Walk[Row].Key1;
    All.H2 += Walk[Row].Key2;
  }
  std::vector<uint32_t> AllRun(Cur.counts());
  AllRun.push_back(0);

  // Answer both prefix queries of every predicate, one feature at a time.
  thread_local PrefixTable Table;
  Table.reset(2 * Ps.size(), K);
  thread_local std::vector<uint32_t> ByFeature;
  ByFeature.resize(Ps.size());
  std::iota(ByFeature.begin(), ByFeature.end(), 0u);
  auto FeatureLess = [&Ps](uint32_t A, uint32_t B) {
    return Ps[A].feature() < Ps[B].feature();
  };
  if (!std::is_sorted(ByFeature.begin(), ByFeature.end(), FeatureLess))
    std::stable_sort(ByFeature.begin(), ByFeature.end(), FeatureLess);
  thread_local std::vector<PrefixQuery> Queries;
  for (size_t Begin = 0, End; Begin < ByFeature.size(); Begin = End) {
    const unsigned F = Ps[ByFeature[Begin]].feature();
    End = Begin + 1;
    while (End < ByFeature.size() && Ps[ByFeature[End]].feature() == F)
      ++End;
    Queries.clear();
    for (size_t I = Begin; I < End; ++I) {
      const uint32_t P = ByFeature[I];
      Queries.push_back({Ps[P].lo(), /*Strict=*/false, 2 * P});
      Queries.push_back({Ps[P].hi(), /*Strict=*/true, 2 * P + 1});
    }
    if (Base.schema().FeatureKinds[F] == FeatureKind::Boolean)
      scanBooleanFeature(Cur, F, Walk, Queries, AllRun, All, Table);
    else
      walkRealFeature(Ctx, F, Walk, Queries, Table);
  }

  // Emit the children in filter#'s order. Per predicate, with
  // Le = {v ≤ lo} and Lt = {v < hi} (both prefixes of the parent):
  //   positive possible = Le ∪ Lt, the longer prefix (Le when concrete),
  //   positive definite = Le,
  //   negative possible = parent \ Le,
  //   negative definite = parent \ positive possible.
  const uint32_t Total = Cur.size();
  Out.Items.reserve(Out.Items.size() + 2 * Ps.size());
  Out.Counts.reserve(Out.Counts.size() + 2 * Ps.size() * K);
  auto Emit = [&](uint32_t P, bool Positive, uint32_t Possible,
                  uint32_t Definite, const RowSetHash &Hash) {
    RestrictionSummary S;
    S.Budget = std::min(
        AbstractDataset::restrictedBudget(Cur.budget(), Possible, Definite),
        Possible);
    S.Size = Possible;
    S.Hash = Hash;
    S.Pred = P;
    S.Positive = Positive;
    Out.Items.push_back(S);
  };
  for (uint32_t P = 0; P < Ps.size(); ++P) {
    const ThreeValued V = Ps[P].evaluate(X);
    const uint32_t Le = 2 * P;
    const uint32_t Pos = Table.Size[2 * P + 1] > Table.Size[Le] ? Le + 1 : Le;
    if (V != ThreeValued::False) {
      Emit(P, true, Table.Size[Pos], Table.Size[Le], Table.Hash[Pos]);
      const uint32_t *C = Table.counts(Pos);
      Out.Counts.insert(Out.Counts.end(), C, C + K);
    }
    if (V != ThreeValued::True) {
      Emit(P, false, Total - Table.Size[Le], Total - Table.Size[Pos],
           All - Table.Hash[Le]);
      const uint32_t *C = Table.counts(Le);
      for (unsigned I = 0; I < K; ++I)
        Out.Counts.push_back(AllRun[I] - C[I]);
    }
  }
}
