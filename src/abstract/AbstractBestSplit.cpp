//===- abstract/AbstractBestSplit.cpp - bestSplit# ----------------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractBestSplit.h"

#include "abstract/AbstractFilter.h"

#include <limits>

using namespace antidote;

std::optional<PredicateSet>
antidote::selectMinimalSplits(const SplitContext &Ctx,
                              const AbstractDataset &State,
                              const SplitScorer &Scorer,
                              const ResourceMeter *Meter) {
  assert(!State.isEmptySet() && "bestSplit# of the empty abstract set");
  if (Meter && Meter->interrupted())
    return std::nullopt;
  const uint32_t Total = State.size();

  struct Candidate {
    SplitPredicate Pred;
    double ScoreLb;
  };
  std::vector<Candidate> Kept;
  std::vector<double> Lb;
  double Lub = std::numeric_limits<double>::infinity();
  bool AnyUniversal = false;
  bool Interrupted = false;
  forEachSplitBlock(Ctx, State.rows(), [&](const SplitBlock &Block) {
    if (Meter && Meter->interrupted()) {
      Interrupted = true;
      return false;
    }
    Lb.resize(Block.size());
    Scorer.LowerBounds(Block, Lb.data());
    const double *PosTotals = Block.posTotals();
    for (size_t I = 0; I < Block.size(); ++I) {
      // Past the running lub: never kept, and its ub ≥ lb cannot lower
      // the lub (which is finite once any Φ∀ candidate was seen).
      if (!(Lb[I] <= Lub))
        continue;
      const uint32_t PosTotal = static_cast<uint32_t>(PosTotals[I]);
      if (Scorer.IsUniversal(PosTotal, Total - PosTotal)) {
        AnyUniversal = true;
        Lub = std::min(Lub, Scorer.UpperBound(Block, I));
      }
      Kept.push_back({Block.predicate(I, Scorer.Mode), Lb[I]});
    }
    return true;
  });
  if (Interrupted)
    return std::nullopt;

  PredicateSet Psi;
  Psi.reserve(Kept.size());
  for (const Candidate &C : Kept)
    if (C.ScoreLb <= Lub)
      Psi.add(C.Pred);
  // No predicate is guaranteed non-trivial for every concretization, so
  // some concretization may make bestSplit return ⋄ (§4.6).
  if (!AnyUniversal)
    Psi.addNull();
  Psi.canonicalize();
  return Psi;
}

std::optional<PredicateSet>
antidote::abstractBestSplit(const SplitContext &Ctx,
                            const AbstractDataset &Data,
                            CprobTransformerKind Kind,
                            GiniLiftingKind Lifting,
                            const ResourceMeter *Meter) {
  // The symbolic thresholds come from adjacent values of this very row
  // set, so each side's rows are exact (DESIGN.md §5) and only its budget
  // is clamped.
  const uint32_t N = Data.budget();
  std::vector<uint32_t> PosCounts, NegCounts;
  auto Score = [&](const SplitBlock &Block, size_t I) {
    const uint32_t PosTotal = Block.sideCounts(I, PosCounts, NegCounts);
    const uint32_t NegTotal = Data.size() - PosTotal;
    return abstractSplitScore(PosCounts, PosTotal, std::min(N, PosTotal),
                              NegCounts, NegTotal, std::min(N, NegTotal),
                              Kind, Lifting);
  };
  SplitScorer Scorer;
  Scorer.Mode = PredicateMode::SymbolicInterval;
  if (Kind == CprobTransformerKind::Optimal &&
      Lifting == GiniLiftingKind::ExactTerm)
    Scorer.LowerBounds = [N](const SplitBlock &Block, double *Lb) {
      optimalExactScoreLowerBounds(Block, N, Lb);
    };
  else
    Scorer.LowerBounds = [&](const SplitBlock &Block, double *Lb) {
      for (size_t I = 0; I < Block.size(); ++I)
        Lb[I] = Score(Block, I).lb();
    };
  Scorer.UpperBound = [&](const SplitBlock &Block, size_t I) {
    return Score(Block, I).ub();
  };
  Scorer.IsUniversal = [N](uint32_t PosTotal, uint32_t NegTotal) {
    return PosTotal > N && NegTotal > N;
  };
  return selectMinimalSplits(Ctx, Data, Scorer, Meter);
}

/// The memo's bucket hash: the row-set hash mixed with the small key
/// fields. `lookup` tells the entries of one bucket apart exactly.
static uint64_t memoHash(ThreatModelKind Threat, CprobTransformerKind Cprob,
                         GiniLiftingKind Gini, const AbstractDataset &State) {
  RowSetHash Rows = rowSetHash(State.rows());
  uint64_t Fields = (static_cast<uint64_t>(State.budget()) << 24) |
                    (static_cast<uint64_t>(Threat) << 16) |
                    (static_cast<uint64_t>(Cprob) << 8) |
                    static_cast<uint64_t>(Gini);
  return Rows.H1 ^ (Rows.H2 + Fields * 0x9E3779B97F4A7C15ull);
}

const BestSplitMemo::Entry *
BestSplitMemo::lookup(uint64_t Hash, ThreatModelKind Threat,
                      CprobTransformerKind Cprob, GiniLiftingKind Gini,
                      const AbstractDataset &State) const {
  auto [Begin, End] = Entries.equal_range(Hash);
  for (auto It = Begin; It != End; ++It) {
    const Entry &E = It->second;
    if (E.Threat == Threat && E.Cprob == Cprob && E.Gini == Gini &&
        E.Budget == State.budget() && E.Rows == State.rows())
      return &E;
  }
  return nullptr;
}

std::optional<PredicateSet>
BestSplitMemo::find(ThreatModelKind Threat, CprobTransformerKind Cprob,
                    GiniLiftingKind Gini, const AbstractDataset &State) const {
  uint64_t Hash = memoHash(Threat, Cprob, Gini, State);
  std::lock_guard<std::mutex> Lock(Mutex);
  if (const Entry *Hit = lookup(Hash, Threat, Cprob, Gini, State))
    return Hit->Psi;
  return std::nullopt;
}

void BestSplitMemo::insert(ThreatModelKind Threat, CprobTransformerKind Cprob,
                           GiniLiftingKind Gini, const AbstractDataset &State,
                           const PredicateSet &Psi) {
  uint64_t Hash = memoHash(Threat, Cprob, Gini, State);
  Entry New{Threat, Cprob, Gini, State.budget(), State.rows(), Psi};
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!lookup(Hash, Threat, Cprob, Gini, State))
    Entries.emplace(Hash, std::move(New));
}

size_t BestSplitMemo::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}
