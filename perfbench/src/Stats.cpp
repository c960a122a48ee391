//===- perfbench/src/Stats.cpp - Sample statistics for the benchmark ------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>

namespace perfbench {

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  Q = std::min(1.0, std::max(0.0, Q));
  size_t Rank = static_cast<size_t>(std::ceil(Q * Values.size()));
  size_t Index = Rank ? Rank - 1 : 0;
  std::nth_element(Values.begin(), Values.begin() + Index, Values.end());
  return Values[Index];
}

double tailPercentile(size_t Count) {
  static const double Ladder[] = {0.99999, 0.9999, 0.999, 0.99, 0.9, 0.5};
  for (double P : Ladder)
    // Samples strictly above the nearest-rank quantile.
    if (Count - static_cast<size_t>(std::ceil(P * Count)) >= 10)
      return P;
  return 0.0;
}

OpenLoopSummary summarizeOpenLoop(const std::vector<OpenLoopRecord> &Records) {
  OpenLoopSummary S;
  std::vector<double> Late;
  for (const OpenLoopRecord &R : Records) {
    if (R.Sent < 0)
      continue;
    ++S.Sent;
    Late.push_back(std::max(0.0, R.Sent - R.Due));
    if (R.Ok && R.Done >= 0) {
      ++S.Answered;
      S.Latencies.push_back(R.Done - R.Due);
    } else {
      ++S.Failed;
    }
  }
  if (!Late.empty()) {
    S.MaxLate = *std::max_element(Late.begin(), Late.end());
    S.P99Late = quantile(std::move(Late), 0.99);
  }
  return S;
}

std::vector<long> matchFifo(const std::vector<uint64_t> &RequestKeys,
                            const std::vector<uint64_t> &EventKeys) {
  std::unordered_map<uint64_t, std::deque<long>> Open;
  for (size_t I = 0; I < RequestKeys.size(); ++I)
    Open[RequestKeys[I]].push_back(static_cast<long>(I));
  std::vector<long> Match(EventKeys.size(), -1);
  for (size_t I = 0; I < EventKeys.size(); ++I) {
    auto It = Open.find(EventKeys[I]);
    if (It == Open.end() || It->second.empty())
      continue;
    Match[I] = It->second.front();
    It->second.pop_front();
  }
  return Match;
}

} // namespace perfbench
