//===- antidote/Verifier.cpp - Poisoning-robustness verifier ------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "antidote/Verifier.h"

#include "serving/CertificateStore.h"

#include <cstdio>

using namespace antidote;

const char *antidote::verdictKindName(VerdictKind Kind) {
  switch (Kind) {
  case VerdictKind::Robust:
    return "robust";
  case VerdictKind::Unknown:
    return "unknown";
  case VerdictKind::Timeout:
    return "timeout";
  case VerdictKind::ResourceLimit:
    return "resource-limit";
  case VerdictKind::Cancelled:
    return "cancelled";
  }
  assert(false && "unknown verdict kind");
  return "?";
}

std::string Certificate::summary() const {
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "%s (n=%u, depth=%u, %s, %s): prediction %u, %zu terminals, "
                "%zu peak disjuncts, %.3fs",
                verdictKindName(Kind), PoisoningBudget, Depth,
                domainKindName(Domain), threatModelName(Threat),
                ConcretePrediction, NumTerminals, PeakDisjuncts, Seconds);
  return Buf;
}

unsigned Verifier::predict(const float *X, unsigned Depth) const {
  return trace(X, Depth).PredictedClass;
}

TraceResult Verifier::trace(const float *X, unsigned Depth) const {
  return runDTrace(Ctx, AllTrainRows, X, Depth);
}

namespace {

/// Only verdicts a fresh run is guaranteed to reproduce may be cached.
/// Robust/Unknown are pure functions of (training set, x, n, config);
/// ResourceLimit is too (disjunct and state-byte accounting is
/// bit-identical across thread counts). Timeout depends on wall clock
/// and Cancelled on an external controller, so caching either could
/// serve a verdict a re-run would contradict.
bool isCacheableVerdict(VerdictKind Kind) {
  return Kind == VerdictKind::Robust || Kind == VerdictKind::Unknown ||
         Kind == VerdictKind::ResourceLimit;
}

} // namespace

Certificate Verifier::verify(const float *X, uint32_t PoisoningBudget,
                             const VerifierConfig &Config) const {
  return verifyWith(X, PoisoningBudget, Config, /*Memo=*/nullptr);
}

Certificate Verifier::verifyWith(const float *X, uint32_t PoisoningBudget,
                                 const VerifierConfig &Config,
                                 BestSplitMemo *Memo) const {
  if (Config.Cache) {
    Certificate Cached;
    if (Config.Cache->lookup(Fingerprint, X, Train->numFeatures(),
                             PoisoningBudget, Config, Cached))
      return Cached;

    // Delta-tolerant serving: the store has nothing under this
    // dataset's own fingerprint, but when the dataset is a
    // pure-removal delta of a parent (|T0 \ T| <= RowsRemoved, no
    // additions), a parent certificate Robust at n + RowsRemoved is a
    // sound answer at n: every T' ∈ ∆n(T) is also a subset of T0 with
    // |T0 \ T'| <= n + RowsRemoved, so the parent proof covers it. Any
    // *added* row voids the argument (subsets of T need not be subsets
    // of T0), so the slack path stays dark then — the randomized
    // property tests pin both directions. Only Robust transfers:
    // serving a parent Unknown would trade a possibly-provable child
    // query for a vacuous answer. The whole argument is about *removed
    // rows*, so it exists only under the Removal threat model: a flip
    // child T (missing rows of T0) has relabelings that are not
    // relabelings of T0, and no removal budget widening bridges the
    // two perturbation sets.
    if (Config.DeltaSlack && Config.Threat == ThreatModelKind::Removal &&
        HasLineage && Lineage.RowsAdded == 0) {
      uint64_t Slack = static_cast<uint64_t>(PoisoningBudget) +
                       Lineage.RowsRemoved;
      Certificate Parent;
      if (Slack <= UINT32_MAX &&
          Config.Cache->lookup(Lineage.Parent, X, Train->numFeatures(),
                               static_cast<uint32_t>(Slack), Config,
                               Parent) &&
          Parent.Kind == VerdictKind::Robust &&
          Parent.CertifiedRadius >= Slack) {
        Certificate Served = Parent;
        Served.PoisoningBudget = PoisoningBudget;
        // The served answer is sound but rests on the parent's proof;
        // an exact certificate for this dataset should land in the
        // background (never stored here — the fresh one must not be
        // shadowed by a duplicate-decline).
        if (Config.Reverify)
          Config.Reverify->scheduleReverify(X, Train->numFeatures(),
                                            PoisoningBudget);
        return Served;
      }
    }
  }

  Certificate Cert;
  Cert.PoisoningBudget = PoisoningBudget;
  Cert.CertifiedRadius = PoisoningBudget;
  Cert.Depth = Config.Depth;
  Cert.Domain = Config.Domain;
  Cert.Threat = Config.Threat;
  Cert.ConcretePrediction = predict(X, Config.Depth);

  AbstractLearnerConfig LearnerConfig;
  LearnerConfig.Depth = Config.Depth;
  LearnerConfig.Domain = Config.Domain;
  LearnerConfig.Threat = Config.Threat;
  LearnerConfig.Cprob = Config.Cprob;
  LearnerConfig.Gini = Config.Gini;
  LearnerConfig.DisjunctCap = Config.DisjunctCap;
  LearnerConfig.Limits = Config.Limits;
  LearnerConfig.Cancel = Config.Cancel;
  LearnerConfig.FrontierJobs = Config.FrontierJobs;
  LearnerConfig.FrontierPool = Config.FrontierPool;
  LearnerConfig.Memo = Memo;

  AbstractDataset Initial = AbstractDataset::entire(*Train, PoisoningBudget);
  AbstractLearnerResult Run = runAbstractDTrace(Ctx, Initial, X,
                                                LearnerConfig);

  Cert.NumTerminals = Run.NumTerminals;
  Cert.PeakDisjuncts = Run.PeakDisjuncts;
  Cert.PeakStateBytes = Run.PeakStateBytes;
  Cert.BestSplitCalls = Run.BestSplitCalls;
  Cert.Seconds = Run.Seconds;
  Cert.DominatingClass = Run.DominatingClass;

  switch (Run.Status) {
  case LearnerStatus::Timeout:
    Cert.Kind = VerdictKind::Timeout;
    break;
  case LearnerStatus::ResourceLimit:
    Cert.Kind = VerdictKind::ResourceLimit;
    break;
  case LearnerStatus::Cancelled:
    Cert.Kind = VerdictKind::Cancelled;
    break;
  case LearnerStatus::Completed:
    if (!Run.DominatingClass) {
      Cert.Kind = VerdictKind::Unknown;
      break;
    }
    // The unpoisoned set T is itself in ∆n(T), so a dominating class must
    // be the concrete prediction.
    assert(*Run.DominatingClass == Cert.ConcretePrediction &&
           "dominating class contradicts the concrete learner");
    Cert.Kind = VerdictKind::Robust;
    break;
  }

  if (Config.Cache && isCacheableVerdict(Cert.Kind))
    Config.Cache->store(Fingerprint, X, Train->numFeatures(),
                        PoisoningBudget, Config, Cert);
  return Cert;
}

std::vector<Certificate>
Verifier::verifyBatch(const std::vector<const float *> &Inputs,
                      uint32_t PoisoningBudget, const VerifierConfig &Config,
                      ThreadPool *Pool) const {
  std::vector<Certificate> Certs(Inputs.size());
  BestSplitMemo Memo;
  parallelFor(Pool, Inputs.size(), [&](size_t I) {
    Certs[I] = verifyWith(Inputs[I], PoisoningBudget, Config, &Memo);
  });
  return Certs;
}
