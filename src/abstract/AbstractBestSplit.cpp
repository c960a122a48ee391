//===- abstract/AbstractBestSplit.cpp - bestSplit# ----------------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractBestSplit.h"

#include "abstract/AbstractFilter.h"

using namespace antidote;

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
  return selectMinimalSplits(
      Ctx, Data, PredicateMode::SymbolicInterval, Meter,
      [&](const std::vector<uint32_t> &PosCounts, uint32_t PosTotal,
          const std::vector<uint32_t> &NegCounts, uint32_t NegTotal) {
        return abstractSplitScore(PosCounts, PosTotal, std::min(N, PosTotal),
                                  NegCounts, NegTotal, std::min(N, NegTotal),
                                  Kind, Lifting);
      },
      [N](uint32_t PosTotal, uint32_t NegTotal) {
        return PosTotal > N && NegTotal > N;
      });
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
