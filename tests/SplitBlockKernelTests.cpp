//===- tests/SplitBlockKernelTests.cpp - Block kernels vs scalar scores ----===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// Pins every split-scoring block kernel to the per-candidate score it
// replaces, bit for bit, on every candidate of every block:
//  - `optimalExactScoreLowerBounds` against `abstractSplitScore`
//    (Optimal × ExactTerm), including sides whose budget covers them
//    (m = 0), whose reference takes the n = |T| corner;
//  - `flipSplitScoreLowerBounds` and the fused `flipSplitScore` against the
//    composition of `flipClassProbabilities` and `abstractGiniImpurity`;
//  - `splitScores` against `splitScore`, and `bestSplit` against a scalar
//    strict-`<` argmin.
// Each candidate's side counts are recounted from the rows its predicate
// selects, so the block's counts are checked too. The data are random with
// K ∈ {2, 3, 7} classes, few distinct values (many duplicates), and real
// and boolean features mixed; each row set runs both the full-set path and
// the compaction path of the enumerator. A block over 100,000 rows, one
// class holding more than 2^16 of a prefix, checks that the packed running
// counts of the enumerator do not overflow. Last, `bestSplit#` under both
// threat models is checked against the Ψ-selection rule applied to
// per-candidate scores with no skipping at all.
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractBestSplit.h"
#include "abstract/LabelFlip.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

using namespace antidote;

namespace {

uint64_t bits(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

/// A random dataset with \p NumClasses classes: real features drawing from
/// a handful of values, and every third feature boolean.
Dataset makeMixedDataset(Rng &R, unsigned NumRows, unsigned NumClasses) {
  DatasetSchema Schema;
  Schema.NumClasses = NumClasses;
  for (unsigned F = 0; F < 6; ++F)
    Schema.FeatureKinds.push_back(F % 3 == 2 ? FeatureKind::Boolean
                                             : FeatureKind::Real);
  Dataset Data(Schema);
  std::vector<float> Features(Schema.numFeatures());
  for (unsigned Row = 0; Row < NumRows; ++Row) {
    for (unsigned F = 0; F < Schema.numFeatures(); ++F)
      Features[F] =
          Schema.FeatureKinds[F] == FeatureKind::Boolean
              ? static_cast<float>(R.uniformInt(2))
              : static_cast<float>(R.uniformInt(2 + F)) * 0.75f - 1.0f;
    Data.addRow(Features, static_cast<unsigned>(R.uniformInt(NumClasses)));
  }
  return Data;
}

/// The full row set and a random proper subset of it.
std::vector<RowIndexList> rowSets(Rng &R, const Dataset &Data) {
  RowIndexList Subset;
  for (uint32_t Row = 0; Row < Data.numRows(); ++Row)
    if (R.bernoulli(0.6))
      Subset.push_back(Row);
  if (Subset.size() == Data.numRows())
    Subset.pop_back();
  return {allRows(Data), Subset};
}

/// The class counts of the rows of \p Rows that \p Pred selects (value ≤
/// its lower threshold) and of the rest. Returns the selected size.
uint32_t recountSides(const Dataset &Data, const RowIndexList &Rows,
                      const SplitPredicate &Pred, std::vector<uint32_t> &Pos,
                      std::vector<uint32_t> &Neg) {
  Pos.assign(Data.numClasses(), 0);
  Neg.assign(Data.numClasses(), 0);
  uint32_t PosTotal = 0;
  for (uint32_t Row : Rows) {
    bool Selected = Data.value(Row, Pred.feature()) <= Pred.lo();
    ++(Selected ? Pos : Neg)[Data.label(Row)];
    PosTotal += Selected;
  }
  return PosTotal;
}

/// The flip score# as the interval composition the fused kernel replaced.
Interval flipScoreReference(const std::vector<uint32_t> &Pos,
                            uint32_t PosTotal, const std::vector<uint32_t> &Neg,
                            uint32_t NegTotal, uint32_t Budget) {
  Interval PosEnt = abstractGiniImpurity(
      flipClassProbabilities(Pos, PosTotal, std::min(Budget, PosTotal)));
  Interval NegEnt = abstractGiniImpurity(
      flipClassProbabilities(Neg, NegTotal, std::min(Budget, NegTotal)));
  return Interval(static_cast<double>(PosTotal)) * PosEnt +
         Interval(static_cast<double>(NegTotal)) * NegEnt;
}

struct KernelCase {
  unsigned NumClasses;
  uint64_t Seed;
};

void PrintTo(const KernelCase &Case, std::ostream *OS) {
  *OS << "K=" << Case.NumClasses << " seed=" << Case.Seed;
}

class SplitBlockKernelTest : public ::testing::TestWithParam<KernelCase> {
protected:
  /// Runs \p Check on (data, rows, block) for every block of every row
  /// set of several random datasets.
  template <typename CheckFn> void forEachBlock(CheckFn &&Check) {
    Rng R(GetParam().Seed);
    for (int Trial = 0; Trial < 12; ++Trial) {
      Dataset Data = makeMixedDataset(
          R, 6 + static_cast<unsigned>(R.uniformInt(40)),
          GetParam().NumClasses);
      SplitContext Ctx(Data);
      for (const RowIndexList &Rows : rowSets(R, Data)) {
        if (Rows.empty())
          continue;
        forEachSplitBlock(Ctx, Rows, [&](const SplitBlock &Block) {
          Check(Data, Rows, Block);
          ++Blocks;
          return true;
        });
      }
    }
    EXPECT_GT(Blocks, 0u);
  }

  /// Budgets 0 and 1, one that covers many sides, and one that covers
  /// every side (the m = 0 corner on both sides).
  static std::vector<uint32_t> budgets(const RowIndexList &Rows) {
    uint32_t Size = static_cast<uint32_t>(Rows.size());
    return {0, 1, Size / 2, Size};
  }

  size_t Blocks = 0;
};

} // namespace

TEST_P(SplitBlockKernelTest, RemovalLowerBoundsMatchAbstractSplitScore) {
  std::vector<uint32_t> Pos, Neg, BlockPos, BlockNeg;
  std::vector<double> Lb;
  forEachBlock([&](const Dataset &Data, const RowIndexList &Rows,
                   const SplitBlock &Block) {
    for (uint32_t N : budgets(Rows)) {
      Lb.assign(Block.size(), std::numeric_limits<double>::quiet_NaN());
      optimalExactScoreLowerBounds(Block, N, Lb.data());
      for (size_t I = 0; I < Block.size(); ++I) {
        SplitPredicate Pred =
            Block.predicate(I, PredicateMode::SymbolicInterval);
        uint32_t PosTotal = recountSides(Data, Rows, Pred, Pos, Neg);
        uint32_t NegTotal = static_cast<uint32_t>(Rows.size()) - PosTotal;
        ASSERT_EQ(PosTotal, Block.sideCounts(I, BlockPos, BlockNeg))
            << Pred.str();
        ASSERT_EQ(Pos, BlockPos) << Pred.str();
        ASSERT_EQ(Neg, BlockNeg) << Pred.str();
        Interval Ref = abstractSplitScore(
            Pos, PosTotal, std::min(N, PosTotal), Neg, NegTotal,
            std::min(N, NegTotal), CprobTransformerKind::Optimal,
            GiniLiftingKind::ExactTerm);
        EXPECT_EQ(bits(Ref.lb()), bits(Lb[I]))
            << Pred.str() << " n=" << N << ": " << Ref.lb() << " vs "
            << Lb[I];
        // The ub skip in selectMinimalSplits relies on ub >= lb.
        EXPECT_GE(Ref.ub(), Lb[I]) << Pred.str() << " n=" << N;
      }
    }
  });
}

TEST_P(SplitBlockKernelTest, FlipScoresMatchTheReferenceComposition) {
  std::vector<uint32_t> Pos, Neg;
  std::vector<double> Lb;
  forEachBlock([&](const Dataset &Data, const RowIndexList &Rows,
                   const SplitBlock &Block) {
    for (uint32_t N : budgets(Rows)) {
      Lb.assign(Block.size(), std::numeric_limits<double>::quiet_NaN());
      flipSplitScoreLowerBounds(Block, N, Lb.data());
      for (size_t I = 0; I < Block.size(); ++I) {
        SplitPredicate Pred =
            Block.predicate(I, PredicateMode::ConcreteMidpoint);
        uint32_t PosTotal = recountSides(Data, Rows, Pred, Pos, Neg);
        uint32_t NegTotal = static_cast<uint32_t>(Rows.size()) - PosTotal;
        Interval Ref = flipScoreReference(Pos, PosTotal, Neg, NegTotal, N);
        Interval Fused = flipSplitScore(Pos, PosTotal, Neg, NegTotal, N);
        EXPECT_EQ(bits(Ref.lb()), bits(Fused.lb())) << Pred.str();
        EXPECT_EQ(bits(Ref.ub()), bits(Fused.ub())) << Pred.str();
        EXPECT_EQ(bits(Ref.lb()), bits(Lb[I])) << Pred.str() << " n=" << N;
      }
    }
  });
}

TEST_P(SplitBlockKernelTest, ConcreteScoresAndArgminMatchSplitScore) {
  std::vector<uint32_t> Pos, Neg;
  std::vector<double> Scores;
  forEachBlock([&](const Dataset &Data, const RowIndexList &Rows,
                   const SplitBlock &Block) {
    Scores.assign(Block.size(), std::numeric_limits<double>::quiet_NaN());
    splitScores(Block, Scores.data());
    for (size_t I = 0; I < Block.size(); ++I) {
      SplitPredicate Pred =
          Block.predicate(I, PredicateMode::ConcreteMidpoint);
      uint32_t PosTotal = recountSides(Data, Rows, Pred, Pos, Neg);
      double Ref = splitScore(Pos, PosTotal, Neg,
                              static_cast<uint32_t>(Rows.size()) - PosTotal);
      EXPECT_EQ(bits(Ref), bits(Scores[I])) << Pred.str();
    }
  });

  // The block argmin is the first candidate, in (feature, threshold)
  // order, of least splitScore.
  Rng R(GetParam().Seed + 1);
  for (int Trial = 0; Trial < 12; ++Trial) {
    Dataset Data = makeMixedDataset(
        R, 6 + static_cast<unsigned>(R.uniformInt(40)),
        GetParam().NumClasses);
    SplitContext Ctx(Data);
    for (const RowIndexList &Rows : rowSets(R, Data)) {
      if (Rows.empty())
        continue;
      std::optional<SplitPredicate> Expected;
      double BestScore = 0.0;
      std::vector<uint32_t> Totals = classCounts(Data, Rows);
      std::vector<uint32_t> NegCounts(Totals.size());
      forEachCandidateSplit(
          Ctx, Rows, PredicateMode::ConcreteMidpoint,
          [&](const SplitPredicate &P, const std::vector<uint32_t> &PosCounts,
              uint32_t PosTotal) {
            for (size_t C = 0; C < Totals.size(); ++C)
              NegCounts[C] = Totals[C] - PosCounts[C];
            double Score =
                splitScore(PosCounts, PosTotal, NegCounts,
                           static_cast<uint32_t>(Rows.size()) - PosTotal);
            if (!Expected || Score < BestScore) {
              Expected = P;
              BestScore = Score;
            }
          });
      std::optional<SplitPredicate> Actual = bestSplit(Ctx, Rows);
      ASSERT_EQ(Expected.has_value(), Actual.has_value());
      if (Expected) {
        EXPECT_TRUE(*Expected == *Actual)
            << Expected->str() << " vs " << Actual->str();
      }
    }
  }
}

TEST_P(SplitBlockKernelTest, BestSplitMatchesUnskippedSelection) {
  // §4.6 applied literally: score every candidate, take lubΦ∀ over the
  // universal ones, keep every candidate whose lb is at most it.
  auto Reference = [](const SplitContext &Ctx, const AbstractDataset &State,
                      bool Flip, CprobTransformerKind Kind,
                      GiniLiftingKind Lifting) {
    struct Scored {
      SplitPredicate Pred;
      Interval Score;
      bool Universal;
    };
    std::vector<Scored> All;
    const uint32_t N = State.budget();
    const uint32_t Total = State.size();
    std::vector<uint32_t> Neg;
    forEachCandidateSplit(
        Ctx, State.rows(),
        Flip ? PredicateMode::ConcreteMidpoint
             : PredicateMode::SymbolicInterval,
        [&](const SplitPredicate &P, const std::vector<uint32_t> &Pos,
            uint32_t PosTotal) {
          Neg.resize(Pos.size());
          for (size_t C = 0; C < Pos.size(); ++C)
            Neg[C] = State.counts()[C] - Pos[C];
          uint32_t NegTotal = Total - PosTotal;
          if (Flip)
            All.push_back({P, flipSplitScore(Pos, PosTotal, Neg, NegTotal, N),
                           true});
          else
            All.push_back({P,
                           abstractSplitScore(Pos, PosTotal,
                                              std::min(N, PosTotal), Neg,
                                              NegTotal, std::min(N, NegTotal),
                                              Kind, Lifting),
                           PosTotal > N && NegTotal > N});
        });
    double Lub = std::numeric_limits<double>::infinity();
    bool AnyUniversal = false;
    for (const Scored &S : All)
      if (S.Universal) {
        AnyUniversal = true;
        Lub = std::min(Lub, S.Score.ub());
      }
    PredicateSet Psi;
    for (const Scored &S : All)
      if (S.Score.lb() <= Lub)
        Psi.add(S.Pred);
    if (!AnyUniversal)
      Psi.addNull();
    Psi.canonicalize();
    return Psi;
  };

  Rng R(GetParam().Seed + 2);
  for (int Trial = 0; Trial < 8; ++Trial) {
    Dataset Data = makeMixedDataset(
        R, 6 + static_cast<unsigned>(R.uniformInt(40)),
        GetParam().NumClasses);
    SplitContext Ctx(Data);
    for (const RowIndexList &Rows : rowSets(R, Data)) {
      if (Rows.empty())
        continue;
      for (uint32_t N : budgets(Rows)) {
        AbstractDataset State(Data, Rows, N);
        for (CprobTransformerKind Kind : {CprobTransformerKind::Optimal,
                                          CprobTransformerKind::NaiveInterval})
          for (GiniLiftingKind Lifting : {GiniLiftingKind::ExactTerm,
                                          GiniLiftingKind::NaturalLifting}) {
            EXPECT_TRUE(*abstractBestSplit(Ctx, State, Kind, Lifting) ==
                        Reference(Ctx, State, false, Kind, Lifting))
                << "removal, n=" << N << " kind " << static_cast<int>(Kind)
                << " lifting " << static_cast<int>(Lifting);
          }
        EXPECT_TRUE(*flipBestSplit(Ctx, State) ==
                    Reference(Ctx, State, true, CprobTransformerKind::Optimal,
                              GiniLiftingKind::ExactTerm))
            << "flip, n=" << N;
      }
    }
  }
}

TEST(SplitBlockKernel, CountsPastSixteenBitsAreExact) {
  // Filling a block packs the running class counts into lanes of one
  // register; a class with more than 2^16 rows before a cut must still
  // count exactly. Value 0 of the real feature holds 7/8 of the rows and
  // class 0 about 95% of them, so the first cut of the full row set has
  // some 83,000 class-0 rows on its positive side.
  Rng R(4242);
  for (unsigned NumClasses : {2u, 3u}) {
    DatasetSchema Schema;
    Schema.NumClasses = NumClasses;
    Schema.FeatureKinds = {FeatureKind::Real, FeatureKind::Boolean};
    Dataset Data(Schema);
    std::vector<float> Features(2);
    for (unsigned Row = 0; Row < 100000; ++Row) {
      Features[0] = R.uniformInt(8) == 0
                        ? static_cast<float>(1 + R.uniformInt(4))
                        : 0.0f;
      Features[1] = static_cast<float>(R.uniformInt(2));
      unsigned Label =
          R.uniformInt(20) == 0
              ? 1 + static_cast<unsigned>(R.uniformInt(NumClasses - 1))
              : 0;
      Data.addRow(Features, Label);
    }
    SplitContext Ctx(Data);
    std::vector<uint32_t> Pos, Neg, BlockPos, BlockNeg;
    for (const RowIndexList &Rows : rowSets(R, Data)) {
      size_t Candidates = 0;
      forEachSplitBlock(Ctx, Rows, [&](const SplitBlock &Block) {
        for (size_t I = 0; I < Block.size(); ++I) {
          SplitPredicate Pred =
              Block.predicate(I, PredicateMode::ConcreteMidpoint);
          uint32_t PosTotal = recountSides(Data, Rows, Pred, Pos, Neg);
          EXPECT_EQ(PosTotal, Block.sideCounts(I, BlockPos, BlockNeg))
              << Pred.str();
          EXPECT_EQ(Pos, BlockPos) << Pred.str();
          EXPECT_EQ(Neg, BlockNeg) << Pred.str();
          ++Candidates;
        }
        return true;
      });
      // Four cuts between the real feature's five values, one boolean.
      EXPECT_EQ(Candidates, 5u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Classes, SplitBlockKernelTest,
    ::testing::Values(KernelCase{2, 101}, KernelCase{2, 102},
                      KernelCase{3, 301}, KernelCase{7, 701}),
    [](const ::testing::TestParamInfo<KernelCase> &Info) {
      return "K" + std::to_string(Info.param.NumClasses) + "_seed" +
             std::to_string(Info.param.Seed);
    });
