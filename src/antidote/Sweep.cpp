//===- antidote/Sweep.cpp - The paper's experiment protocol -------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "antidote/Sweep.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <memory>

using namespace antidote;

namespace {

/// Executes the doubling/binary-search protocol for one (depth, domain).
/// The control loop is sequential; the per-instance fan-out within each
/// probe runs on \p Pool via `Verifier::verifyBatch`.
class ProtocolRun {
public:
  ProtocolRun(const Verifier &V, const Dataset &Test,
              const std::vector<uint32_t> &VerifyRows,
              const SweepConfig &Config, const SweepDomainSpec &Spec,
              unsigned Depth, ThreadPool *Pool, ThreadPool *FrontierPool)
      : V(V), Test(Test), VerifyRows(VerifyRows), Config(Config),
        Pool(Pool) {
    Series.Depth = Depth;
    Series.DomainName = Spec.Name;
    Series.MaxVerifiedN.assign(VerifyRows.size(), 0);
    QueryConfig.Depth = Depth;
    QueryConfig.Domain = Spec.Domain;
    QueryConfig.Threat = Config.Threat;
    QueryConfig.Cprob = Config.Cprob;
    QueryConfig.Gini = Config.Gini;
    QueryConfig.DisjunctCap = Spec.DisjunctCap;
    QueryConfig.Limits = Config.InstanceLimits;
    QueryConfig.Cancel = Config.Cancel;
    QueryConfig.FrontierJobs = Config.FrontierJobs;
    QueryConfig.FrontierPool = FrontierPool;
    QueryConfig.Cache = Config.Cache;
    QueryConfig.DeltaSlack = Config.DeltaSlack;
  }

  SweepSeries run() {
    // Instances still in play, as indices into VerifyRows.
    std::vector<size_t> Survivors(VerifyRows.size());
    for (size_t I = 0; I < VerifyRows.size(); ++I)
      Survivors[I] = I;

    uint32_t N = 1;
    while (!Survivors.empty() && N <= Config.MaxPoisoning && !cancelled()) {
      std::vector<size_t> Next = attempt(N, Survivors);
      if (Next.empty()) {
        if (Config.BinarySearchOnFailure && !cancelled())
          binarySearch(N / 2, N, Survivors);
        break;
      }
      Survivors = std::move(Next);
      if (N > Config.MaxPoisoning / 2)
        break;
      N *= 2;
    }
    std::sort(Series.Cells.begin(), Series.Cells.end(),
              [](const SweepCell &A, const SweepCell &B) {
                return A.Poisoning < B.Poisoning;
              });
    return std::move(Series);
  }

private:
  bool cancelled() const {
    return Config.Cancel && Config.Cancel->cancelled();
  }

  /// Attempts every instance in \p Candidates at poisoning \p N, records
  /// the cell, and returns the verified survivors. The queries run
  /// concurrently; the fold below runs on this thread in candidate order,
  /// so the cell and survivor list are deterministic whatever the
  /// scheduling.
  std::vector<size_t> attempt(uint32_t N,
                              const std::vector<size_t> &Candidates) {
    std::vector<const float *> Inputs;
    Inputs.reserve(Candidates.size());
    for (size_t Index : Candidates)
      Inputs.push_back(Test.row(VerifyRows[Index]));
    std::vector<Certificate> Certs =
        V.verifyBatch(Inputs, N, QueryConfig, Pool);

    SweepCell Cell;
    Cell.Depth = Series.Depth;
    Cell.DomainName = Series.DomainName;
    Cell.Poisoning = N;
    std::vector<size_t> Verified;
    for (size_t I = 0; I < Candidates.size(); ++I) {
      size_t Index = Candidates[I];
      const Certificate &Cert = Certs[I];
      ++Cell.Attempted;
      Cell.TotalSeconds += Cert.Seconds;
      Cell.TotalPeakStateBytes += static_cast<double>(Cert.PeakStateBytes);
      switch (Cert.Kind) {
      case VerdictKind::Robust:
        ++Cell.Verified;
        Series.MaxVerifiedN[Index] =
            std::max(Series.MaxVerifiedN[Index], N);
        Verified.push_back(Index);
        break;
      case VerdictKind::Timeout:
        ++Cell.Timeouts;
        break;
      case VerdictKind::ResourceLimit:
        ++Cell.ResourceFailures;
        break;
      case VerdictKind::Cancelled:
        ++Cell.Cancellations;
        break;
      case VerdictKind::Unknown:
        break;
      }
    }
    Series.Cells.push_back(std::move(Cell));
    return Verified;
  }

  /// All survivors of \p Lo failed at \p Hi: find the largest n in (Lo, Hi)
  /// at which at least one instance verifies, recording every probe.
  void binarySearch(uint32_t Lo, uint32_t Hi,
                    std::vector<size_t> Candidates) {
    while (Hi - Lo > 1 && !cancelled()) {
      uint32_t Mid = Lo + (Hi - Lo) / 2;
      std::vector<size_t> Verified = attempt(Mid, Candidates);
      if (Verified.empty()) {
        Hi = Mid;
      } else {
        Lo = Mid;
        Candidates = std::move(Verified);
      }
    }
  }

  const Verifier &V;
  const Dataset &Test;
  const std::vector<uint32_t> &VerifyRows;
  const SweepConfig &Config;
  ThreadPool *Pool;
  VerifierConfig QueryConfig;
  SweepSeries Series;
};

} // namespace

double SweepResult::fractionVerified(
    unsigned Depth, uint32_t N,
    const std::vector<std::string> &DomainNames) const {
  if (VerifyRows.empty())
    return 0.0;
  unsigned Count = 0;
  for (size_t I = 0; I < VerifyRows.size(); ++I) {
    bool Verified = false;
    for (const SweepSeries &S : Series) {
      if (S.Depth != Depth)
        continue;
      if (!DomainNames.empty() &&
          std::find(DomainNames.begin(), DomainNames.end(), S.DomainName) ==
              DomainNames.end())
        continue;
      if (S.MaxVerifiedN[I] >= N) {
        Verified = true;
        break;
      }
    }
    Count += Verified;
  }
  return static_cast<double>(Count) / VerifyRows.size();
}

std::vector<uint32_t> SweepResult::attemptedPoisonings(unsigned Depth) const {
  std::vector<uint32_t> Ns;
  for (const SweepSeries &S : Series) {
    if (S.Depth != Depth)
      continue;
    for (const SweepCell &Cell : S.Cells)
      Ns.push_back(Cell.Poisoning);
  }
  std::sort(Ns.begin(), Ns.end());
  Ns.erase(std::unique(Ns.begin(), Ns.end()), Ns.end());
  return Ns;
}

SweepResult antidote::runPoisoningSweep(
    const Dataset &Train, const Dataset &Test,
    const std::vector<uint32_t> &VerifyRows, const SweepConfig &Config) {
  Verifier V(Train);
  SweepResult Result;
  Result.VerifyRows = VerifyRows;

  // One pool per axis for the whole sweep; all-1 knobs stay strictly
  // serial (the caller's thread does all the work inside verifyBatch /
  // the frontier merge). The frontier pool serves every instance's
  // fan-out — concurrent queries interleave their chunk tasks on it
  // safely, and each fan-out's consumer picks up unclaimed work itself,
  // so contention degrades toward serial rather than deadlocking.
  std::unique_ptr<ThreadPool> Pool = makeVerificationPool(Config.Jobs);
  std::unique_ptr<ThreadPool> FrontierPool =
      makeVerificationPool(Config.FrontierJobs);

  for (unsigned Depth : Config.Depths)
    for (const SweepDomainSpec &Spec : Config.Domains) {
      if (!threatModel(Config.Threat).supportsDomain(Spec.Domain))
        continue;
      if (Config.Cancel && Config.Cancel->cancelled())
        return Result;
      ProtocolRun Run(V, Test, VerifyRows, Config, Spec, Depth, Pool.get(),
                      FrontierPool.get());
      Result.Series.push_back(Run.run());
    }
  return Result;
}
