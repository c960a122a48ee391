//===- tests/SoAKernelTests.cpp - SoA layout + vectorized kernel pins --------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// Two layers of protection for the struct-of-arrays dataset layout and the
// branch-free kernels built on it:
//
//  - Golden tests pin verifier certificates for the Figure 2 example to
//    hardcoded values captured from the pre-refactor scalar implementation
//    (checked bit-identical against a build of the scalar seed across the
//    full domain x budget x depth grid), and assert the pinned values hold
//    for every Jobs / FrontierJobs value. A vectorization
//    or layout change that perturbs any observable — verdict, prediction,
//    dominating class, terminal count, peak disjuncts, bestSplit calls —
//    fails here, pointing straight at the kernel that drifted.
//
//  - Property tests compare each branch-free kernel against a naive
//    reference implementation on random inputs: the fused ent#/score#
//    against the interval composition they replaced, the dense candidate
//    enumeration against a fresh sort-and-walk, filterRows/restrict#
//    against explicit three-valued predicate loops, and the slice-wise
//    interval join/meet against the scalar lattice ops.
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractGini.h"
#include "antidote/Verifier.h"
#include "concrete/BestSplit.h"
#include "support/Rng.h"

#include "TestUtil.h"

#include <gtest/gtest.h>
#include <algorithm>

using namespace antidote;
using namespace antidote::testutil;

namespace {

//===----------------------------------------------------------------------===//
// Golden certificates (captured from the scalar seed)
//===----------------------------------------------------------------------===//

const float kGoldenQueries[] = {0.5f, 2.5f, 5.0f, 8.5f, 11.5f, 13.0f};

const AbstractDomainKind kGoldenDomains[] = {AbstractDomainKind::Box,
                                             AbstractDomainKind::Disjuncts,
                                             AbstractDomainKind::DisjunctsCapped};

struct GoldenCert {
  unsigned Query;   ///< Index into kGoldenQueries.
  unsigned Domain;  ///< Index into kGoldenDomains.
  uint32_t Budget;
  unsigned Depth;
  VerdictKind Kind;
  unsigned ConcretePrediction;
  bool HasDominating;
  unsigned DominatingClass;
  size_t NumTerminals;
  size_t PeakDisjuncts;
  uint32_t BestSplitCalls;
};

// Captured from the pre-SoA scalar implementation (DisjunctCap = 4) and
// verified bit-identical against the refactored kernels. PeakStateBytes is
// deliberately not pinned: the restrict# rewrite stores row vectors at
// exact capacity where the scalar code's push_back left pow2 slack, so the
// byte *counter* differs while every semantic observable is unchanged (the
// serial-vs-parallel equality of the counter is pinned elsewhere).
const GoldenCert kGoldenCerts[] = {
    {0, 0, 0, 1, VerdictKind::Robust, 0, true, 0, 1, 1, 1},
    {0, 0, 0, 2, VerdictKind::Unknown, 1, false, 0, 1, 1, 2},
    {0, 0, 1, 1, VerdictKind::Unknown, 0, false, 0, 1, 1, 1},
    {0, 0, 1, 2, VerdictKind::Unknown, 1, false, 0, 2, 1, 2},
    {0, 0, 2, 1, VerdictKind::Unknown, 0, false, 0, 1, 1, 1},
    {0, 0, 2, 2, VerdictKind::Unknown, 1, false, 0, 2, 1, 2},
    {0, 0, 3, 1, VerdictKind::Unknown, 0, false, 0, 1, 1, 1},
    {0, 0, 3, 2, VerdictKind::Unknown, 1, false, 0, 2, 1, 2},
    {0, 1, 0, 1, VerdictKind::Robust, 0, true, 0, 1, 1, 1},
    {0, 1, 0, 2, VerdictKind::Unknown, 1, false, 0, 2, 2, 2},
    {0, 1, 1, 1, VerdictKind::Robust, 0, true, 0, 4, 4, 1},
    {0, 1, 1, 2, VerdictKind::Unknown, 1, false, 0, 1, 13, 5},
    {0, 1, 2, 1, VerdictKind::Unknown, 0, false, 0, 1, 8, 1},
    {0, 1, 2, 2, VerdictKind::Unknown, 1, false, 0, 2, 8, 2},
    {0, 1, 3, 1, VerdictKind::Unknown, 0, false, 0, 1, 13, 1},
    {0, 1, 3, 2, VerdictKind::Unknown, 1, false, 0, 1, 13, 1},
    {0, 2, 0, 1, VerdictKind::Robust, 0, true, 0, 1, 1, 1},
    {0, 2, 0, 2, VerdictKind::Unknown, 1, false, 0, 2, 2, 2},
    {0, 2, 1, 1, VerdictKind::Robust, 0, true, 0, 4, 4, 1},
    {0, 2, 1, 2, VerdictKind::Unknown, 1, false, 0, 1, 4, 5},
    {0, 2, 2, 1, VerdictKind::Unknown, 0, false, 0, 1, 4, 1},
    {0, 2, 2, 2, VerdictKind::Unknown, 1, false, 0, 3, 4, 2},
    {0, 2, 3, 1, VerdictKind::Unknown, 0, false, 0, 1, 4, 1},
    {0, 2, 3, 2, VerdictKind::Unknown, 1, false, 0, 3, 4, 2},
    {1, 0, 0, 1, VerdictKind::Robust, 0, true, 0, 1, 1, 1},
    {1, 0, 0, 2, VerdictKind::Robust, 0, true, 0, 1, 1, 2},
    {1, 0, 1, 1, VerdictKind::Unknown, 0, false, 0, 1, 1, 1},
    {1, 0, 1, 2, VerdictKind::Unknown, 0, false, 0, 2, 1, 2},
    {1, 0, 2, 1, VerdictKind::Unknown, 0, false, 0, 1, 1, 1},
    {1, 0, 2, 2, VerdictKind::Unknown, 0, false, 0, 2, 1, 2},
    {1, 0, 3, 1, VerdictKind::Unknown, 0, false, 0, 1, 1, 1},
    {1, 0, 3, 2, VerdictKind::Unknown, 0, false, 0, 2, 1, 2},
    {1, 1, 0, 1, VerdictKind::Robust, 0, true, 0, 1, 1, 1},
    {1, 1, 0, 2, VerdictKind::Robust, 0, true, 0, 1, 1, 2},
    {1, 1, 1, 1, VerdictKind::Robust, 0, true, 0, 4, 4, 1},
    {1, 1, 1, 2, VerdictKind::Unknown, 0, false, 0, 1, 19, 5},
    {1, 1, 2, 1, VerdictKind::Unknown, 0, false, 0, 1, 8, 1},
    {1, 1, 2, 2, VerdictKind::Unknown, 0, false, 0, 2, 8, 2},
    {1, 1, 3, 1, VerdictKind::Unknown, 0, false, 0, 1, 13, 1},
    {1, 1, 3, 2, VerdictKind::Unknown, 0, false, 0, 3, 13, 2},
    {1, 2, 0, 1, VerdictKind::Robust, 0, true, 0, 1, 1, 1},
    {1, 2, 0, 2, VerdictKind::Robust, 0, true, 0, 1, 1, 2},
    {1, 2, 1, 1, VerdictKind::Robust, 0, true, 0, 4, 4, 1},
    {1, 2, 1, 2, VerdictKind::Unknown, 0, false, 0, 1, 4, 5},
    {1, 2, 2, 1, VerdictKind::Unknown, 0, false, 0, 1, 4, 1},
    {1, 2, 2, 2, VerdictKind::Unknown, 0, false, 0, 3, 4, 2},
    {1, 2, 3, 1, VerdictKind::Unknown, 0, false, 0, 1, 4, 1},
    {1, 2, 3, 2, VerdictKind::Unknown, 0, false, 0, 3, 4, 2},
    {2, 0, 0, 1, VerdictKind::Robust, 0, true, 0, 1, 1, 1},
    {2, 0, 0, 2, VerdictKind::Robust, 0, true, 0, 1, 1, 2},
    {2, 0, 1, 1, VerdictKind::Unknown, 0, false, 0, 1, 1, 1},
    {2, 0, 1, 2, VerdictKind::Unknown, 0, false, 0, 2, 1, 2},
    {2, 0, 2, 1, VerdictKind::Unknown, 0, false, 0, 1, 1, 1},
    {2, 0, 2, 2, VerdictKind::Unknown, 0, false, 0, 2, 1, 2},
    {2, 0, 3, 1, VerdictKind::Unknown, 0, false, 0, 1, 1, 1},
    {2, 0, 3, 2, VerdictKind::Unknown, 0, false, 0, 2, 1, 2},
    {2, 1, 0, 1, VerdictKind::Robust, 0, true, 0, 1, 1, 1},
    {2, 1, 0, 2, VerdictKind::Robust, 0, true, 0, 1, 1, 2},
    {2, 1, 1, 1, VerdictKind::Robust, 0, true, 0, 4, 4, 1},
    {2, 1, 1, 2, VerdictKind::Unknown, 0, false, 0, 1, 25, 5},
    {2, 1, 2, 1, VerdictKind::Unknown, 0, false, 0, 1, 9, 1},
    {2, 1, 2, 2, VerdictKind::Unknown, 0, false, 0, 2, 9, 2},
    {2, 1, 3, 1, VerdictKind::Unknown, 0, false, 0, 1, 13, 1},
    {2, 1, 3, 2, VerdictKind::Unknown, 0, false, 0, 3, 13, 2},
    {2, 2, 0, 1, VerdictKind::Robust, 0, true, 0, 1, 1, 1},
    {2, 2, 0, 2, VerdictKind::Robust, 0, true, 0, 1, 1, 2},
    {2, 2, 1, 1, VerdictKind::Robust, 0, true, 0, 4, 4, 1},
    {2, 2, 1, 2, VerdictKind::Unknown, 0, false, 0, 1, 4, 5},
    {2, 2, 2, 1, VerdictKind::Unknown, 0, false, 0, 1, 3, 1},
    {2, 2, 2, 2, VerdictKind::Unknown, 0, false, 0, 2, 3, 2},
    {2, 2, 3, 1, VerdictKind::Unknown, 0, false, 0, 1, 4, 1},
    {2, 2, 3, 2, VerdictKind::Unknown, 0, false, 0, 3, 4, 2},
    {3, 0, 0, 1, VerdictKind::Robust, 0, true, 0, 1, 1, 1},
    {3, 0, 0, 2, VerdictKind::Robust, 0, true, 0, 1, 1, 2},
    {3, 0, 1, 1, VerdictKind::Unknown, 0, false, 0, 1, 1, 1},
    {3, 0, 1, 2, VerdictKind::Unknown, 0, false, 0, 2, 1, 2},
    {3, 0, 2, 1, VerdictKind::Unknown, 0, false, 0, 1, 1, 1},
    {3, 0, 2, 2, VerdictKind::Unknown, 0, false, 0, 2, 1, 2},
    {3, 0, 3, 1, VerdictKind::Unknown, 0, false, 0, 1, 1, 1},
    {3, 0, 3, 2, VerdictKind::Unknown, 0, false, 0, 2, 1, 2},
    {3, 1, 0, 1, VerdictKind::Robust, 0, true, 0, 1, 1, 1},
    {3, 1, 0, 2, VerdictKind::Robust, 0, true, 0, 1, 1, 2},
    {3, 1, 1, 1, VerdictKind::Unknown, 0, false, 0, 5, 5, 1},
    {3, 1, 1, 2, VerdictKind::Unknown, 0, false, 0, 16, 30, 6},
    {3, 1, 2, 1, VerdictKind::Unknown, 0, false, 0, 6, 9, 1},
    {3, 1, 2, 2, VerdictKind::Unknown, 0, false, 0, 4, 41, 10},
    {3, 1, 3, 1, VerdictKind::Unknown, 0, false, 0, 1, 13, 1},
    {3, 1, 3, 2, VerdictKind::Unknown, 0, false, 0, 2, 13, 2},
    {3, 2, 0, 1, VerdictKind::Robust, 0, true, 0, 1, 1, 1},
    {3, 2, 0, 2, VerdictKind::Robust, 0, true, 0, 1, 1, 2},
    {3, 2, 1, 1, VerdictKind::Unknown, 0, false, 0, 3, 3, 1},
    {3, 2, 1, 2, VerdictKind::Unknown, 0, false, 0, 2, 3, 4},
    {3, 2, 2, 1, VerdictKind::Unknown, 0, false, 0, 1, 3, 1},
    {3, 2, 2, 2, VerdictKind::Unknown, 0, false, 0, 2, 3, 2},
    {3, 2, 3, 1, VerdictKind::Unknown, 0, false, 0, 1, 4, 1},
    {3, 2, 3, 2, VerdictKind::Unknown, 0, false, 0, 2, 4, 2},
    {4, 0, 0, 1, VerdictKind::Robust, 1, true, 1, 1, 1, 1},
    {4, 0, 0, 2, VerdictKind::Robust, 1, true, 1, 1, 1, 1},
    {4, 0, 1, 1, VerdictKind::Unknown, 1, false, 0, 1, 1, 1},
    {4, 0, 1, 2, VerdictKind::Unknown, 1, false, 0, 2, 1, 2},
    {4, 0, 2, 1, VerdictKind::Unknown, 1, false, 0, 1, 1, 1},
    {4, 0, 2, 2, VerdictKind::Unknown, 1, false, 0, 2, 1, 2},
    {4, 0, 3, 1, VerdictKind::Unknown, 1, false, 0, 1, 1, 1},
    {4, 0, 3, 2, VerdictKind::Unknown, 1, false, 0, 2, 1, 2},
    {4, 1, 0, 1, VerdictKind::Robust, 1, true, 1, 1, 1, 1},
    {4, 1, 0, 2, VerdictKind::Robust, 1, true, 1, 1, 1, 1},
    {4, 1, 1, 1, VerdictKind::Unknown, 1, false, 0, 2, 5, 1},
    {4, 1, 1, 2, VerdictKind::Unknown, 1, false, 0, 4, 14, 4},
    {4, 1, 2, 1, VerdictKind::Unknown, 1, false, 0, 3, 9, 1},
    {4, 1, 2, 2, VerdictKind::Unknown, 1, false, 0, 6, 27, 8},
    {4, 1, 3, 1, VerdictKind::Unknown, 1, false, 0, 2, 13, 1},
    {4, 1, 3, 2, VerdictKind::Unknown, 1, false, 0, 3, 13, 10},
    {4, 2, 0, 1, VerdictKind::Robust, 1, true, 1, 1, 1, 1},
    {4, 2, 0, 2, VerdictKind::Robust, 1, true, 1, 1, 1, 1},
    {4, 2, 1, 1, VerdictKind::Unknown, 1, false, 0, 1, 3, 1},
    {4, 2, 1, 2, VerdictKind::Unknown, 1, false, 0, 3, 3, 2},
    {4, 2, 2, 1, VerdictKind::Unknown, 1, false, 0, 1, 3, 1},
    {4, 2, 2, 2, VerdictKind::Unknown, 1, false, 0, 3, 3, 2},
    {4, 2, 3, 1, VerdictKind::Unknown, 1, false, 0, 1, 4, 1},
    {4, 2, 3, 2, VerdictKind::Unknown, 1, false, 0, 2, 4, 2},
    {5, 0, 0, 1, VerdictKind::Robust, 1, true, 1, 1, 1, 1},
    {5, 0, 0, 2, VerdictKind::Robust, 1, true, 1, 1, 1, 1},
    {5, 0, 1, 1, VerdictKind::Unknown, 1, false, 0, 1, 1, 1},
    {5, 0, 1, 2, VerdictKind::Unknown, 1, false, 0, 2, 1, 2},
    {5, 0, 2, 1, VerdictKind::Unknown, 1, false, 0, 1, 1, 1},
    {5, 0, 2, 2, VerdictKind::Unknown, 1, false, 0, 2, 1, 2},
    {5, 0, 3, 1, VerdictKind::Unknown, 1, false, 0, 1, 1, 1},
    {5, 0, 3, 2, VerdictKind::Unknown, 1, false, 0, 2, 1, 2},
    {5, 1, 0, 1, VerdictKind::Robust, 1, true, 1, 1, 1, 1},
    {5, 1, 0, 2, VerdictKind::Robust, 1, true, 1, 1, 1, 1},
    {5, 1, 1, 1, VerdictKind::Robust, 1, true, 1, 4, 4, 1},
    {5, 1, 1, 2, VerdictKind::Robust, 1, true, 1, 8, 5, 3},
    {5, 1, 2, 1, VerdictKind::Unknown, 1, false, 0, 1, 8, 1},
    {5, 1, 2, 2, VerdictKind::Unknown, 1, false, 0, 6, 8, 6},
    {5, 1, 3, 1, VerdictKind::Unknown, 1, false, 0, 1, 12, 1},
    {5, 1, 3, 2, VerdictKind::Unknown, 1, false, 0, 1, 12, 1},
    {5, 2, 0, 1, VerdictKind::Robust, 1, true, 1, 1, 1, 1},
    {5, 2, 0, 2, VerdictKind::Robust, 1, true, 1, 1, 1, 1},
    {5, 2, 1, 1, VerdictKind::Robust, 1, true, 1, 4, 4, 1},
    {5, 2, 1, 2, VerdictKind::Robust, 1, true, 1, 6, 4, 3},
    {5, 2, 2, 1, VerdictKind::Unknown, 1, false, 0, 1, 4, 1},
    {5, 2, 2, 2, VerdictKind::Unknown, 1, false, 0, 2, 4, 3},
    {5, 2, 3, 1, VerdictKind::Unknown, 1, false, 0, 1, 3, 1},
    {5, 2, 3, 2, VerdictKind::Unknown, 1, false, 0, 3, 3, 2},
};

void expectGolden(const GoldenCert &G, const Certificate &C,
                  const char *Label) {
  EXPECT_EQ(C.Kind, G.Kind) << Label;
  EXPECT_EQ(C.ConcretePrediction, G.ConcretePrediction) << Label;
  EXPECT_EQ(C.DominatingClass.has_value(), G.HasDominating) << Label;
  if (C.DominatingClass && G.HasDominating) {
    EXPECT_EQ(*C.DominatingClass, G.DominatingClass) << Label;
  }
  EXPECT_EQ(C.NumTerminals, G.NumTerminals) << Label;
  EXPECT_EQ(C.PeakDisjuncts, G.PeakDisjuncts) << Label;
  EXPECT_EQ(C.BestSplitCalls, G.BestSplitCalls) << Label;
}

std::string goldenLabel(const GoldenCert &G, const char *Knobs) {
  return std::string("q") + std::to_string(G.Query) + " " +
         domainKindName(kGoldenDomains[G.Domain]) + " n=" +
         std::to_string(G.Budget) + " depth=" + std::to_string(G.Depth) +
         " " + Knobs;
}

} // namespace

TEST(SoAGoldenTest, CertificatesMatchScalarSeedAcrossKnobGrid) {
  Dataset Data = figure2Dataset();
  Verifier V(Data);
  const unsigned KnobGrid[] = {1, 2, 0};
  for (const GoldenCert &G : kGoldenCerts) {
    for (unsigned FrontierJobs : KnobGrid) {
      VerifierConfig Config;
      Config.Depth = G.Depth;
      Config.Domain = kGoldenDomains[G.Domain];
      Config.DisjunctCap = 4;
      Config.FrontierJobs = FrontierJobs;
      std::string Knobs = "fj=" + std::to_string(FrontierJobs);
      expectGolden(G, V.verify(&kGoldenQueries[G.Query], G.Budget, Config),
                   goldenLabel(G, Knobs.c_str()).c_str());
    }
  }
}

TEST(SoAGoldenTest, BatchCertificatesMatchGoldenAcrossJobs) {
  // The batch-level Jobs axis: one pool fans independent queries out; each
  // certificate must still equal its pinned golden row for every pool size
  // (including the serial null pool).
  Dataset Data = figure2Dataset();
  Verifier V(Data);
  std::vector<const float *> Inputs;
  for (const float &Q : kGoldenQueries)
    Inputs.push_back(&Q);

  for (unsigned Jobs : {1u, 2u, 4u}) {
    std::unique_ptr<ThreadPool> Pool = makeVerificationPool(Jobs);
    for (unsigned D = 0; D < 3; ++D)
      for (uint32_t Budget = 0; Budget <= 3; ++Budget)
        for (unsigned Depth = 1; Depth <= 2; ++Depth) {
          VerifierConfig Config;
          Config.Depth = Depth;
          Config.Domain = kGoldenDomains[D];
          Config.DisjunctCap = 4;
          std::vector<Certificate> Certs =
              V.verifyBatch(Inputs, Budget, Config, Pool.get());
          ASSERT_EQ(Certs.size(), Inputs.size());
          for (const GoldenCert &G : kGoldenCerts) {
            if (G.Domain != D || G.Budget != Budget || G.Depth != Depth)
              continue;
            std::string Knobs = "jobs=" + std::to_string(Jobs);
            expectGolden(G, Certs[G.Query],
                         goldenLabel(G, Knobs.c_str()).c_str());
          }
        }
  }
}

//===----------------------------------------------------------------------===//
// Property tests: branch-free kernels vs naive references
//===----------------------------------------------------------------------===//

TEST(SoAKernelPropertyTest, FusedGiniMatchesReferenceComposition) {
  // The fused Optimal x ExactTerm ent# must produce the same doubles as
  // the retained composition cprob# |> ent# it replaced — including the
  // Budget == Total corner (which stays on the reference path) and counts
  // of zero (where max(c - n, 0)/m must reproduce the guarded 0.0).
  Rng R(20260808);
  for (int Trial = 0; Trial < 5000; ++Trial) {
    unsigned K = 2 + static_cast<unsigned>(R.uniformInt(5));
    std::vector<uint32_t> Counts(K);
    uint32_t Total = 0;
    for (uint32_t &C : Counts) {
      C = static_cast<uint32_t>(R.uniformInt(20));
      Total += C;
    }
    if (Total == 0)
      continue;
    uint32_t Budget = static_cast<uint32_t>(R.uniformInt(Total + 1));
    Interval Fused = abstractGiniImpurityFromCounts(
        Counts, Total, Budget, CprobTransformerKind::Optimal,
        GiniLiftingKind::ExactTerm);
    Interval Reference = abstractGiniImpurity(
        abstractClassProbabilities(Counts, Total, Budget,
                                   CprobTransformerKind::Optimal),
        GiniLiftingKind::ExactTerm);
    EXPECT_EQ(Fused.lb(), Reference.lb()) << "trial " << Trial;
    EXPECT_EQ(Fused.ub(), Reference.ub()) << "trial " << Trial;
  }
}

TEST(SoAKernelPropertyTest, FusedScoreMatchesReferenceIntervalExpression) {
  // score# = |pos| * ent#(pos) + |neg| * ent#(neg): the fused combine skips
  // the interval objects but must land on the same doubles the interval
  // expression produces (sizes and impurities are non-negative, so the
  // 4-product multiply degenerates to lo*lo / hi*hi).
  Rng R(987654);
  for (int Trial = 0; Trial < 5000; ++Trial) {
    unsigned K = 2 + static_cast<unsigned>(R.uniformInt(4));
    std::vector<uint32_t> Pos(K), Neg(K);
    uint32_t PosTotal = 0, NegTotal = 0;
    for (unsigned C = 0; C < K; ++C) {
      Pos[C] = static_cast<uint32_t>(R.uniformInt(25));
      Neg[C] = static_cast<uint32_t>(R.uniformInt(25));
      PosTotal += Pos[C];
      NegTotal += Neg[C];
    }
    if (PosTotal == 0 || NegTotal == 0)
      continue;
    uint32_t PosBudget = static_cast<uint32_t>(R.uniformInt(PosTotal + 1));
    uint32_t NegBudget = static_cast<uint32_t>(R.uniformInt(NegTotal + 1));
    Interval Fused = abstractSplitScore(Pos, PosTotal, PosBudget, Neg,
                                        NegTotal, NegBudget,
                                        CprobTransformerKind::Optimal,
                                        GiniLiftingKind::ExactTerm);
    Interval PosSize(static_cast<double>(PosTotal - PosBudget),
                     static_cast<double>(PosTotal));
    Interval NegSize(static_cast<double>(NegTotal - NegBudget),
                     static_cast<double>(NegTotal));
    Interval Reference =
        PosSize * abstractGiniImpurity(
                      abstractClassProbabilities(
                          Pos, PosTotal, PosBudget,
                          CprobTransformerKind::Optimal),
                      GiniLiftingKind::ExactTerm) +
        NegSize * abstractGiniImpurity(
                      abstractClassProbabilities(
                          Neg, NegTotal, NegBudget,
                          CprobTransformerKind::Optimal),
                      GiniLiftingKind::ExactTerm);
    EXPECT_EQ(Fused.lb(), Reference.lb()) << "trial " << Trial;
    EXPECT_EQ(Fused.ub(), Reference.ub()) << "trial " << Trial;
  }
}

namespace {

/// A naive row-walk reimplementation of one feature's candidate stream:
/// gather the in-set (value, label) pairs, sort by (value, row id) — the
/// SplitContext order — and emit a candidate at each distinct-value
/// boundary. The dense compaction kernel must replay this exactly.
struct NaiveCandidate {
  SplitPredicate Pred;
  std::vector<uint32_t> PosCounts;
  uint32_t PosTotal;
};

std::vector<NaiveCandidate> naiveCandidates(const Dataset &Base,
                                            const RowIndexList &Rows,
                                            PredicateMode Mode) {
  std::vector<NaiveCandidate> Out;
  uint32_t Total = static_cast<uint32_t>(Rows.size());
  for (unsigned F = 0; F < Base.numFeatures(); ++F) {
    if (Base.schema().FeatureKinds[F] == FeatureKind::Boolean) {
      std::vector<uint32_t> Zero(Base.numClasses(), 0);
      uint32_t ZeroTotal = 0;
      for (uint32_t Row : Rows)
        if (Base.value(Row, F) == 0.0) {
          ++Zero[Base.label(Row)];
          ++ZeroTotal;
        }
      if (ZeroTotal > 0 && ZeroTotal < Total)
        Out.push_back({SplitPredicate::threshold(F, 0.5), Zero, ZeroTotal});
      continue;
    }
    std::vector<std::pair<float, uint32_t>> Sorted;
    for (uint32_t Row : Rows)
      Sorted.emplace_back(static_cast<float>(Base.value(Row, F)), Row);
    std::sort(Sorted.begin(), Sorted.end());
    std::vector<uint32_t> PosCounts(Base.numClasses(), 0);
    uint32_t PosTotal = 0;
    for (size_t I = 0; I < Sorted.size(); ++I) {
      double V = Sorted[I].first;
      if (I > 0 && V != static_cast<double>(Sorted[I - 1].first)) {
        double Prev = Sorted[I - 1].first;
        SplitPredicate Pred =
            Mode == PredicateMode::ConcreteMidpoint
                ? SplitPredicate::threshold(F, (Prev + V) / 2.0)
                : SplitPredicate::symbolic(F, Prev, V);
        Out.push_back({Pred, PosCounts, PosTotal});
      }
      ++PosCounts[Base.label(Sorted[I].second)];
      ++PosTotal;
    }
  }
  return Out;
}

RowIndexList randomSubset(Rng &R, unsigned NumRows) {
  RowIndexList Rows;
  for (uint32_t Row = 0; Row < NumRows; ++Row)
    if (R.bernoulli(0.7))
      Rows.push_back(Row);
  return Rows;
}

} // namespace

TEST(SoAKernelPropertyTest, CandidateEnumerationMatchesNaiveRowWalk) {
  Rng R(13579);
  for (int Trial = 0; Trial < 300; ++Trial) {
    RandomDatasetSpec Spec;
    Spec.MinRows = 4;
    Spec.MaxRows = 16;
    Spec.NumFeatures = 3;
    Spec.NumClasses = 2 + static_cast<unsigned>(R.uniformInt(2));
    Spec.BooleanFeatures = Trial % 3 == 0;
    Dataset Data = makeRandomDataset(R, Spec);
    SplitContext Ctx(Data);
    RowIndexList Rows = randomSubset(R, Data.numRows());
    if (Rows.empty())
      continue;
    for (PredicateMode Mode : {PredicateMode::ConcreteMidpoint,
                               PredicateMode::SymbolicInterval}) {
      std::vector<NaiveCandidate> Expected =
          naiveCandidates(Data, Rows, Mode);
      std::vector<NaiveCandidate> Actual;
      forEachCandidateSplit(Ctx, Rows, Mode,
                            [&](const SplitPredicate &P,
                                const std::vector<uint32_t> &PosCounts,
                                uint32_t PosTotal) {
                              Actual.push_back({P, PosCounts, PosTotal});
                            });
      ASSERT_EQ(Actual.size(), Expected.size()) << "trial " << Trial;
      for (size_t I = 0; I < Actual.size(); ++I) {
        EXPECT_TRUE(Actual[I].Pred == Expected[I].Pred)
            << "trial " << Trial << " candidate " << I;
        EXPECT_EQ(Actual[I].PosCounts, Expected[I].PosCounts)
            << "trial " << Trial << " candidate " << I;
        EXPECT_EQ(Actual[I].PosTotal, Expected[I].PosTotal)
            << "trial " << Trial << " candidate " << I;
      }
    }
  }
}

TEST(SoAKernelPropertyTest, FilterRowsMatchesNaivePredicateLoop) {
  Rng R(24680);
  for (int Trial = 0; Trial < 500; ++Trial) {
    RandomDatasetSpec Spec;
    Spec.MinRows = 4;
    Spec.MaxRows = 20;
    Spec.NumFeatures = 2;
    Dataset Data = makeRandomDataset(R, Spec);
    RowIndexList Rows = randomSubset(R, Data.numRows());
    unsigned F = static_cast<unsigned>(R.uniformInt(Spec.NumFeatures));
    // Half-integer thresholds land between values; integers land on them.
    double Threshold = static_cast<double>(R.uniformInt(2 * 5)) / 2.0;
    SplitPredicate Pred = SplitPredicate::threshold(F, Threshold);
    for (bool Positive : {true, false}) {
      RowIndexList Expected;
      for (uint32_t Row : Rows)
        if ((Data.value(Row, F) <= Threshold) == Positive)
          Expected.push_back(Row);
      EXPECT_EQ(filterRows(Data, Rows, Pred, Positive), Expected)
          << "trial " << Trial << " positive=" << Positive;
    }
  }
}

TEST(SoAKernelPropertyTest, RestrictMatchesNaiveThreeValuedLoop) {
  // restrict# rewritten as compare-into-mask passes must keep exactly the
  // possible rows and charge exactly the maybe rows, per the Appendix B.1
  // closed form — checked against an explicit three-valued evaluation.
  Rng R(112358);
  for (int Trial = 0; Trial < 500; ++Trial) {
    RandomDatasetSpec Spec;
    Spec.MinRows = 4;
    Spec.MaxRows = 20;
    Spec.NumFeatures = 2;
    Dataset Data = makeRandomDataset(R, Spec);
    RowIndexList Rows = randomSubset(R, Data.numRows());
    if (Rows.empty())
      continue;
    uint32_t Budget =
        static_cast<uint32_t>(R.uniformInt(Rows.size() + 1));
    AbstractDataset Abstract(Data, Rows, Budget);
    unsigned F = static_cast<unsigned>(R.uniformInt(Spec.NumFeatures));
    double Lo = static_cast<double>(R.uniformInt(4));
    double Hi = Lo + 1.0 + static_cast<double>(R.uniformInt(2));
    SplitPredicate Pred = R.bernoulli(0.3)
                              ? SplitPredicate::threshold(F, Lo)
                              : SplitPredicate::symbolic(F, Lo, Hi);
    for (bool Positive : {true, false}) {
      RowIndexList Possible;
      uint32_t Definite = 0;
      for (uint32_t Row : Rows) {
        ThreeValued E = Pred.evaluate(Data.value(Row, F));
        bool MayKeep = Positive ? E != ThreeValued::False
                                : E != ThreeValued::True;
        bool MustKeep = Positive ? E == ThreeValued::True
                                 : E == ThreeValued::False;
        if (MayKeep)
          Possible.push_back(Row);
        Definite += MustKeep;
      }
      uint32_t PossibleSize = static_cast<uint32_t>(Possible.size());
      uint32_t ExpectedBudget =
          std::max(std::min(Budget, PossibleSize),
                   (PossibleSize - Definite) + std::min(Budget, Definite));
      AbstractDataset Restricted = Abstract.restrict(Pred, Positive);
      EXPECT_EQ(Restricted.rows(), Possible)
          << "trial " << Trial << " positive=" << Positive;
      EXPECT_EQ(Restricted.budget(), std::min(ExpectedBudget, PossibleSize))
          << "trial " << Trial << " positive=" << Positive;
    }
  }
}

TEST(SoAKernelPropertyTest, SliceJoinMeetMatchScalarLatticeOps) {
  Rng R(31415);
  for (int Trial = 0; Trial < 200; ++Trial) {
    size_t N = 1 + static_cast<size_t>(R.uniformInt(64));
    std::vector<double> ALo(N), AHi(N), BLo(N), BHi(N), OutLo(N), OutHi(N);
    for (size_t I = 0; I < N; ++I) {
      double A0 = R.uniform(-10.0, 10.0);
      double A1 = R.uniform(-10.0, 10.0);
      ALo[I] = std::min(A0, A1);
      AHi[I] = std::max(A0, A1);
      double B0 = R.uniform(-10.0, 10.0);
      double B1 = R.uniform(-10.0, 10.0);
      BLo[I] = std::min(B0, B1);
      BHi[I] = std::max(B0, B1);
    }
    joinSlices(ALo.data(), AHi.data(), BLo.data(), BHi.data(), OutLo.data(),
               OutHi.data(), N);
    for (size_t I = 0; I < N; ++I) {
      Interval J = Interval(ALo[I], AHi[I]).join(Interval(BLo[I], BHi[I]));
      EXPECT_EQ(OutLo[I], J.lb()) << "trial " << Trial << " slot " << I;
      EXPECT_EQ(OutHi[I], J.ub()) << "trial " << Trial << " slot " << I;
    }
    meetSlices(ALo.data(), AHi.data(), BLo.data(), BHi.data(), OutLo.data(),
               OutHi.data(), N);
    for (size_t I = 0; I < N; ++I) {
      Interval M = Interval(ALo[I], AHi[I]).meet(Interval(BLo[I], BHi[I]));
      if (M.isEmpty()) {
        EXPECT_GT(OutLo[I], OutHi[I]) << "trial " << Trial << " slot " << I;
      } else {
        EXPECT_EQ(OutLo[I], M.lb()) << "trial " << Trial << " slot " << I;
        EXPECT_EQ(OutHi[I], M.ub()) << "trial " << Trial << " slot " << I;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// SoA dataset invariants
//===----------------------------------------------------------------------===//

TEST(SoADatasetTest, ColumnSlicesMatchScalarAccessors) {
  Dataset Data = figure2Dataset();
  for (unsigned F = 0; F < Data.numFeatures(); ++F) {
    const float *Col = Data.column(F);
    for (unsigned Row = 0; Row < Data.numRows(); ++Row)
      EXPECT_EQ(static_cast<double>(Col[Row]), Data.value(Row, F));
  }
  const uint32_t *Labels = Data.labels();
  for (unsigned Row = 0; Row < Data.numRows(); ++Row)
    EXPECT_EQ(Labels[Row], Data.label(Row));
}

TEST(SoADatasetTest, RowMirrorTransposesColumns) {
  Rng R(777);
  RandomDatasetSpec Spec;
  Spec.MinRows = 5;
  Spec.MaxRows = 12;
  Spec.NumFeatures = 4;
  Dataset Data = makeRandomDataset(R, Spec);
  for (unsigned Row = 0; Row < Data.numRows(); ++Row) {
    const float *RowSlice = Data.row(Row);
    for (unsigned F = 0; F < Data.numFeatures(); ++F)
      EXPECT_EQ(static_cast<double>(RowSlice[F]), Data.value(Row, F))
          << "row " << Row << " feature " << F;
  }
  // The mirror must track later mutation (addRow invalidates it).
  std::vector<float> Extra(Data.numFeatures(), 3.0f);
  Data.addRow(Extra, 0);
  const float *Last = Data.row(Data.numRows() - 1);
  for (unsigned F = 0; F < Data.numFeatures(); ++F)
    EXPECT_EQ(Last[F], 3.0f);
}

TEST(SoADatasetTest, GatherRowsSelectsAndBulkCopies) {
  Dataset Base = figure2Dataset();
  // Strict subset: per-column gather.
  RowIndexList Subset = {1, 4, 7, 12};
  Dataset Gathered = Dataset::gatherRows(Base, Subset);
  ASSERT_EQ(Gathered.numRows(), Subset.size());
  for (size_t I = 0; I < Subset.size(); ++I) {
    EXPECT_EQ(Gathered.value(static_cast<unsigned>(I), 0),
              Base.value(Subset[I], 0));
    EXPECT_EQ(Gathered.label(static_cast<unsigned>(I)),
              Base.label(Subset[I]));
  }
  // Full range: the bulk-copy fast path must be an identity.
  Dataset Copy = Dataset::gatherRows(Base, allRows(Base));
  ASSERT_EQ(Copy.numRows(), Base.numRows());
  for (unsigned Row = 0; Row < Base.numRows(); ++Row) {
    EXPECT_EQ(Copy.value(Row, 0), Base.value(Row, 0));
    EXPECT_EQ(Copy.label(Row), Base.label(Row));
  }
}

TEST(SoADatasetTest, SetLabelPatchesLabelsWithoutTouchingColumns) {
  Dataset Data = figure2Dataset();
  std::vector<float> Before(Data.column(0), Data.column(0) + Data.numRows());
  unsigned Old = Data.label(3);
  Data.setLabel(3, 1 - Old);
  EXPECT_EQ(Data.label(3), 1 - Old);
  EXPECT_EQ(Data.labels()[3], 1 - Old);
  for (unsigned Row = 0; Row < Data.numRows(); ++Row)
    EXPECT_EQ(static_cast<double>(Data.column(0)[Row]), Before[Row]);
  std::vector<uint32_t> Counts = classCounts(Data, allRows(Data));
  EXPECT_EQ(Counts[0] + Counts[1], Data.numRows());
}
