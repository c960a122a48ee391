//===- serving/StoreKey.cpp - Normalized certificate-store keys ---------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "serving/StoreKey.h"

#include "support/BitHash.h"

#include <cstring>

using namespace antidote;

bool StoreKey::operator==(const StoreKey &O) const {
  if (!(Data == O.Data) || PoisoningBudget != O.PoisoningBudget ||
      Depth != O.Depth || Domain != O.Domain || Threat != O.Threat ||
      Cprob != O.Cprob || Gini != O.Gini || DisjunctCap != O.DisjunctCap ||
      doubleBits(TimeoutSeconds) != doubleBits(O.TimeoutSeconds) ||
      MaxDisjuncts != O.MaxDisjuncts || MaxStateBytes != O.MaxStateBytes ||
      Query.size() != O.Query.size())
    return false;
  return std::memcmp(Query.data(), O.Query.data(),
                     Query.size() * sizeof(float)) == 0;
}

size_t StoreKeyHash::operator()(const StoreKey &K) const {
  uint64_t H = 0;
  H = mixBits(H, K.Data.Hi);
  H = mixBits(H, K.Data.Lo);
  H = mixBits(H, K.PoisoningBudget);
  H = mixBits(H, K.Depth);
  H = mixBits(H, static_cast<uint64_t>(K.Domain) |
                     static_cast<uint64_t>(K.Cprob) << 8 |
                     static_cast<uint64_t>(K.Gini) << 16 |
                     static_cast<uint64_t>(K.Threat) << 24);
  H = mixBits(H, K.DisjunctCap);
  H = mixBits(H, doubleBits(K.TimeoutSeconds));
  H = mixBits(H, K.MaxDisjuncts);
  H = mixBits(H, K.MaxStateBytes);
  H = mixBits(H, K.Query.size());
  for (float V : K.Query)
    H = mixBits(H, floatBits(V));
  return static_cast<size_t>(H);
}

StoreKey antidote::makeStoreKey(const DatasetFingerprint &Data,
                                const float *X, unsigned NumFeatures,
                                uint32_t PoisoningBudget,
                                const VerifierConfig &Config) {
  StoreKey K;
  K.Data = Data;
  K.Query.assign(X, X + NumFeatures);
  K.PoisoningBudget = PoisoningBudget;
  K.Depth = Config.Depth;
  K.Domain = Config.Domain;
  K.Threat = Config.Threat;
  K.Cprob = Config.Cprob;
  K.Gini = Config.Gini;
  // Normalization: only the capped domain reads DisjunctCap, so zeroing
  // it elsewhere lets Box/Disjuncts queries hit across clients that set
  // different (ignored) caps.
  K.DisjunctCap = Config.Domain == AbstractDomainKind::DisjunctsCapped
                      ? Config.DisjunctCap
                      : 0;
  K.TimeoutSeconds = Config.Limits.TimeoutSeconds;
  K.MaxDisjuncts = Config.Limits.MaxDisjuncts;
  K.MaxStateBytes = Config.Limits.MaxStateBytes;
  return K;
}

StoreKey antidote::rangeBaseKey(const StoreKey &K) {
  StoreKey Base = K;
  Base.PoisoningBudget = 0;
  return Base;
}

bool antidote::rangeServes(VerdictKind Kind, uint32_t CertifiedRadius,
                          uint32_t QueryBudget) {
  switch (Kind) {
  case VerdictKind::Robust:
    return CertifiedRadius >= QueryBudget;
  case VerdictKind::Unknown:
    return CertifiedRadius <= QueryBudget;
  case VerdictKind::Timeout:
  case VerdictKind::ResourceLimit:
  case VerdictKind::Cancelled:
    return false; // Exact-match only (and Timeout/Cancelled never stored).
  }
  return false;
}

void RadiusIndex::add(const StoreKey &K, VerdictKind Kind, uint32_t Radius) {
  if (Radius != K.PoisoningBudget)
    return;
  if (Kind == VerdictKind::Robust)
    Slots[rangeBaseKey(K)].Robust.emplace(Radius, &K);
  else if (Kind == VerdictKind::Unknown)
    Slots[rangeBaseKey(K)].Unknown.emplace(Radius, &K);
}

void RadiusIndex::remove(const StoreKey &K, VerdictKind Kind,
                         uint32_t Radius) {
  if (Radius != K.PoisoningBudget)
    return;
  auto It = Slots.find(rangeBaseKey(K));
  if (It == Slots.end())
    return;
  if (Kind == VerdictKind::Robust)
    It->second.Robust.erase(Radius);
  else if (Kind == VerdictKind::Unknown)
    It->second.Unknown.erase(Radius);
  if (It->second.Robust.empty() && It->second.Unknown.empty())
    Slots.erase(It);
}

const StoreKey *RadiusIndex::find(const StoreKey &K, uint32_t N) const {
  auto It = Slots.find(rangeBaseKey(K));
  if (It == Slots.end())
    return nullptr;
  auto Rob = It->second.Robust.lower_bound(N);
  if (Rob != It->second.Robust.end())
    return Rob->second;
  auto Unk = It->second.Unknown.upper_bound(N);
  if (Unk != It->second.Unknown.begin())
    return std::prev(Unk)->second;
  return nullptr;
}
