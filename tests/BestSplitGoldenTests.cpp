//===- tests/BestSplitGoldenTests.cpp - Pinned Ψ of every bestSplit ---------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// Pins the exact output of every split-selection transformer: removal
// `bestSplit#` in its three `cprob#` / `ent#` configurations, flip
// `bestSplit#`, and the concrete `bestSplit`. Each runs on the root and on
// the depth-1 children (both sides of each root Ψ predicate, under removal
// and under flip) of four benchmark datasets at n ∈ {0, 1, 4, 16}. A
// state's Ψ is reduced to a digest of (|Ψ|, ⋄ ∈ Ψ, FNV-1a over each
// predicate's feature and lo/hi bit patterns); the digests of one
// (dataset, n, transformer) cell fold into one pinned value. Any change to
// which predicates a transformer keeps, or to their order, shows here.
//
// On iris and mammography every root predicate spawns children. On wdbc
// and mnist17-binary only a few evenly spaced ones do: wdbc's Ψ holds
// thousands of predicates at n = 16, and one mnist17-binary bestSplit#
// costs about 0.1 s under ThreadSanitizer. mnist17-real, the hard-mnist
// benchmark's dataset with over 300k candidates per call, pins its root
// alone at n ∈ {1, 8}. Each (dataset, n) pair is its own test so the suite
// can run them side by side.
//
//===----------------------------------------------------------------------===//

#include "abstract/AbstractBestSplit.h"

#include "data/Registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

using namespace antidote;

namespace {

/// 64-bit FNV-1a.
class Fnv1a {
public:
  template <typename T> void add(const T &Value) {
    unsigned char Bytes[sizeof(T)];
    std::memcpy(Bytes, &Value, sizeof(T));
    for (unsigned char B : Bytes) {
      Hash ^= B;
      Hash *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return Hash; }

private:
  uint64_t Hash = 0xcbf29ce484222325ull;
};

/// The digest of one state's Ψ.
uint64_t digest(const std::vector<SplitPredicate> &Preds, bool HasNull) {
  Fnv1a Preds64;
  for (const SplitPredicate &P : Preds) {
    Preds64.add(P.feature());
    Preds64.add(P.lo());
    Preds64.add(P.hi());
  }
  Fnv1a State;
  State.add(static_cast<uint64_t>(Preds.size()));
  State.add(static_cast<uint8_t>(HasNull));
  State.add(Preds64.value());
  return State.value();
}

uint64_t digest(const PredicateSet &Psi) {
  return digest(Psi.predicates(), Psi.containsNull());
}

enum Transformer : unsigned {
  RemovalOptimalExact,
  RemovalNaiveExact,
  RemovalOptimalNatural,
  Flip,
  Concrete,
  NumTransformers,
};

const char *const TransformerNames[NumTransformers] = {
    "RemovalOptimalExact", "RemovalNaiveExact", "RemovalOptimalNatural",
    "Flip", "Concrete"};

struct GoldenCell {
  const char *Dataset;
  uint32_t Budget;
  unsigned Transformer;
  size_t States;
  uint64_t Digest;
};

// Generated from the per-feature scoring loops that preceded the shared
// Ψ-selection pass (the mnist17-real rows from the per-candidate scan that
// preceded the block kernels); the current code must reproduce them bit
// for bit.
const GoldenCell Goldens[] = {
    {"iris", 0, RemovalOptimalExact, 9, 0x6baf6bd70e7016e2ull},
    {"iris", 0, RemovalNaiveExact, 9, 0x6baf6bd70e7016e2ull},
    {"iris", 0, RemovalOptimalNatural, 9, 0x6baf6bd70e7016e2ull},
    {"iris", 0, Flip, 9, 0xb1c0e44a3e59250cull},
    {"iris", 0, Concrete, 9, 0x5560c6b97d2edcc9ull},
    {"iris", 1, RemovalOptimalExact, 27, 0xbc531e6e9a243986ull},
    {"iris", 1, RemovalNaiveExact, 27, 0x5bd105bc9462c88eull},
    {"iris", 1, RemovalOptimalNatural, 27, 0xd8caa049347ec5b5ull},
    {"iris", 1, Flip, 27, 0xe4d01f3c690cd26cull},
    {"iris", 1, Concrete, 27, 0xec351f4302e4872bull},
    {"iris", 4, RemovalOptimalExact, 123, 0x403e9a4908590404ull},
    {"iris", 4, RemovalNaiveExact, 123, 0xb394d122731f3197ull},
    {"iris", 4, RemovalOptimalNatural, 123, 0xeb6f216f59d41f91ull},
    {"iris", 4, Flip, 123, 0xb025858f0a62132bull},
    {"iris", 4, Concrete, 123, 0x6de7e381069dcf04ull},
    {"iris", 16, RemovalOptimalExact, 351, 0xebebde2fdaf463e1ull},
    {"iris", 16, RemovalNaiveExact, 351, 0x148d3f576dc50903ull},
    {"iris", 16, RemovalOptimalNatural, 351, 0xbb5b1c3ceeb66493ull},
    {"iris", 16, Flip, 351, 0x868c67e766ea5fabull},
    {"iris", 16, Concrete, 351, 0xcc97da810c000a77ull},
    {"wdbc", 0, RemovalOptimalExact, 5, 0x40e3b3759818bf84ull},
    {"wdbc", 0, RemovalNaiveExact, 5, 0x40e3b3759818bf84ull},
    {"wdbc", 0, RemovalOptimalNatural, 5, 0x40e3b3759818bf84ull},
    {"wdbc", 0, Flip, 5, 0xb7a9f5656e6c7faaull},
    {"wdbc", 0, Concrete, 5, 0xb7a9f5656e6c7faaull},
    {"wdbc", 1, RemovalOptimalExact, 9, 0x7cd6c2bfcab7b867ull},
    {"wdbc", 1, RemovalNaiveExact, 9, 0xbc246c5c039e03e7ull},
    {"wdbc", 1, RemovalOptimalNatural, 9, 0xb538e9713e95e91full},
    {"wdbc", 1, Flip, 9, 0x07c8803c1e444d7aull},
    {"wdbc", 1, Concrete, 9, 0x8004da649c5056c8ull},
    {"wdbc", 4, RemovalOptimalExact, 9, 0x77273b19269d5f5bull},
    {"wdbc", 4, RemovalNaiveExact, 9, 0x82d52e36662c3edeull},
    {"wdbc", 4, RemovalOptimalNatural, 9, 0x2fffbbe33bdc1e44ull},
    {"wdbc", 4, Flip, 9, 0xf29e2cacf2caf3e5ull},
    {"wdbc", 4, Concrete, 9, 0x053e2aabe26d561dull},
    {"wdbc", 16, RemovalOptimalExact, 9, 0xcfbe96b93db41c9eull},
    {"wdbc", 16, RemovalNaiveExact, 9, 0x281daea87b636789ull},
    {"wdbc", 16, RemovalOptimalNatural, 9, 0x85aa4aaf54f7d53eull},
    {"wdbc", 16, Flip, 9, 0xc3b8613932d2ef3dull},
    {"wdbc", 16, Concrete, 9, 0xb3d5247047bdfc97ull},
    {"mammography", 0, RemovalOptimalExact, 5, 0xc1674ffa204816d2ull},
    {"mammography", 0, RemovalNaiveExact, 5, 0xc1674ffa204816d2ull},
    {"mammography", 0, RemovalOptimalNatural, 5, 0xc1674ffa204816d2ull},
    {"mammography", 0, Flip, 5, 0x033a6f1f7f5a7325ull},
    {"mammography", 0, Concrete, 5, 0x033a6f1f7f5a7325ull},
    {"mammography", 1, RemovalOptimalExact, 5, 0xc1674ffa204816d2ull},
    {"mammography", 1, RemovalNaiveExact, 5, 0xc808833daccfa43aull},
    {"mammography", 1, RemovalOptimalNatural, 5, 0xb7c22483c7741fcaull},
    {"mammography", 1, Flip, 5, 0xb690bf67e051df35ull},
    {"mammography", 1, Concrete, 5, 0x033a6f1f7f5a7325ull},
    {"mammography", 4, RemovalOptimalExact, 5, 0x1aaf750e2aa1cfb6ull},
    {"mammography", 4, RemovalNaiveExact, 5, 0xa941e6f0fcaab6aaull},
    {"mammography", 4, RemovalOptimalNatural, 5, 0xa2828317630df7c2ull},
    {"mammography", 4, Flip, 5, 0x2126f47c960b9009ull},
    {"mammography", 4, Concrete, 5, 0x033a6f1f7f5a7325ull},
    {"mammography", 16, RemovalOptimalExact, 13, 0x2c7c49365b302f2full},
    {"mammography", 16, RemovalNaiveExact, 13, 0x2fef1e589ff2d9eaull},
    {"mammography", 16, RemovalOptimalNatural, 13, 0xb1223e976362176dull},
    {"mammography", 16, Flip, 13, 0x64f5ad52da5e2710ull},
    {"mammography", 16, Concrete, 13, 0xe6b71956ac437adbull},
    {"mnist17-binary", 0, RemovalOptimalExact, 5, 0xba9df20e904b5a40ull},
    {"mnist17-binary", 0, RemovalNaiveExact, 5, 0xba9df20e904b5a40ull},
    {"mnist17-binary", 0, RemovalOptimalNatural, 5, 0xba9df20e904b5a40ull},
    {"mnist17-binary", 0, Flip, 5, 0xba9df20e904b5a40ull},
    {"mnist17-binary", 0, Concrete, 5, 0xba9df20e904b5a40ull},
    {"mnist17-binary", 1, RemovalOptimalExact, 5, 0x14cc8153b5d4ddbcull},
    {"mnist17-binary", 1, RemovalNaiveExact, 5, 0x057da180dd0bb160ull},
    {"mnist17-binary", 1, RemovalOptimalNatural, 5, 0x14cc8153b5d4ddbcull},
    {"mnist17-binary", 1, Flip, 5, 0xfefce5e7b15bc440ull},
    {"mnist17-binary", 1, Concrete, 5, 0xba9df20e904b5a40ull},
    {"mnist17-binary", 4, RemovalOptimalExact, 7, 0xadd8ff6845c0b722ull},
    {"mnist17-binary", 4, RemovalNaiveExact, 7, 0xcdcf8f6fdfd10b62ull},
    {"mnist17-binary", 4, RemovalOptimalNatural, 7, 0x8e81e368844b79feull},
    {"mnist17-binary", 4, Flip, 7, 0x779b19c5a7f2b02cull},
    {"mnist17-binary", 4, Concrete, 7, 0x35f17e0a8e8185e4ull},
    {"mnist17-binary", 16, RemovalOptimalExact, 9, 0x21af886abd5e9fe6ull},
    {"mnist17-binary", 16, RemovalNaiveExact, 9, 0x39c6ff78d89989a2ull},
    {"mnist17-binary", 16, RemovalOptimalNatural, 9, 0xf55bf4c9674531a1ull},
    {"mnist17-binary", 16, Flip, 9, 0xcbd31a841e7e3425ull},
    {"mnist17-binary", 16, Concrete, 9, 0x29e83cd9a298e9b4ull},
    {"mnist17-real", 1, RemovalOptimalExact, 1, 0x3f43770f178bec0bull},
    {"mnist17-real", 1, RemovalNaiveExact, 1, 0x31ebdeb58d9ae58cull},
    {"mnist17-real", 1, RemovalOptimalNatural, 1, 0x9c9747cc75232f45ull},
    {"mnist17-real", 1, Flip, 1, 0xf2ac7cfb3bf69977ull},
    {"mnist17-real", 1, Concrete, 1, 0x9623c183a9044b70ull},
    {"mnist17-real", 8, RemovalOptimalExact, 1, 0xdb5a0f2107e45bd2ull},
    {"mnist17-real", 8, RemovalNaiveExact, 1, 0x19c805451e079e9aull},
    {"mnist17-real", 8, RemovalOptimalNatural, 1, 0xdb5a0f2107e45bd2ull},
    {"mnist17-real", 8, Flip, 1, 0x1f0bb70daf61f3c6ull},
    {"mnist17-real", 8, Concrete, 1, 0x9623c183a9044b70ull},
};

/// The root of \p Data at budget \p N followed, unless \p RootOnly, by its
/// depth-1 children: both non-empty sides of each of at most \p MaxParents
/// predicates of each root Ψ, evenly spaced through it (0 = every
/// predicate).
std::vector<AbstractDataset> rootAndChildren(const SplitContext &Ctx,
                                             const Dataset &Data, uint32_t N,
                                             size_t MaxParents,
                                             bool RootOnly) {
  std::vector<AbstractDataset> States{AbstractDataset::entire(Data, N)};
  if (RootOnly)
    return States;
  const AbstractDataset &Root = States.front();
  PredicateSet Removal =
      *abstractBestSplit(Ctx, Root, CprobTransformerKind::Optimal);
  PredicateSet Flipped =
      *threatModel(ThreatModelKind::LabelFlip)
           .bestSplit(Ctx, Root, CprobTransformerKind::Optimal,
                      GiniLiftingKind::ExactTerm, nullptr);
  std::vector<AbstractDataset> Children;
  for (const PredicateSet *Psi : {&Removal, &Flipped}) {
    const std::vector<SplitPredicate> &Preds = Psi->predicates();
    size_t Parents = MaxParents ? std::min(Preds.size(), MaxParents)
                                : Preds.size();
    for (size_t I = 0; I < Parents; ++I)
      for (bool Positive : {true, false}) {
        AbstractDataset Child =
            Root.restrict(Preds[I * Preds.size() / Parents], Positive);
        if (!Child.isEmptySet())
          Children.push_back(std::move(Child));
      }
  }
  for (AbstractDataset &Child : Children)
    States.push_back(std::move(Child));
  return States;
}

uint64_t transformerDigest(unsigned Which, const SplitContext &Ctx,
                           const AbstractDataset &State) {
  switch (Which) {
  case RemovalOptimalExact:
    return digest(*abstractBestSplit(Ctx, State,
                                     CprobTransformerKind::Optimal,
                                     GiniLiftingKind::ExactTerm));
  case RemovalNaiveExact:
    return digest(*abstractBestSplit(Ctx, State,
                                     CprobTransformerKind::NaiveInterval,
                                     GiniLiftingKind::ExactTerm));
  case RemovalOptimalNatural:
    return digest(*abstractBestSplit(Ctx, State,
                                     CprobTransformerKind::Optimal,
                                     GiniLiftingKind::NaturalLifting));
  case Flip:
    return digest(*threatModel(ThreatModelKind::LabelFlip)
                       .bestSplit(Ctx, State, CprobTransformerKind::Optimal,
                                  GiniLiftingKind::ExactTerm, nullptr));
  default: {
    std::optional<SplitPredicate> Best = bestSplit(Ctx, State.rows());
    std::vector<SplitPredicate> Preds;
    if (Best)
      Preds.push_back(*Best);
    return digest(Preds, !Best);
  }
  }
}

struct GoldenCase {
  const char *Dataset;
  size_t MaxParents;
  uint32_t Budget;
  bool RootOnly = false;
};

void PrintTo(const GoldenCase &Case, std::ostream *OS) {
  *OS << Case.Dataset << " n=" << Case.Budget;
}

class BestSplitGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

std::vector<GoldenCase> goldenCases() {
  std::vector<GoldenCase> Cases;
  for (GoldenCase Dataset : {GoldenCase{"iris", 0, 0},
                             GoldenCase{"wdbc", 2, 0},
                             GoldenCase{"mammography", 0, 0},
                             GoldenCase{"mnist17-binary", 2, 0}})
    for (uint32_t N : {0u, 1u, 4u, 16u}) {
      Dataset.Budget = N;
      Cases.push_back(Dataset);
    }
  for (uint32_t N : {1u, 8u})
    Cases.push_back(GoldenCase{"mnist17-real", 0, N, /*RootOnly=*/true});
  return Cases;
}

} // namespace

TEST_P(BestSplitGoldenTest, EveryTransformerMatchesItsPinnedDigests) {
  const GoldenCase &Case = GetParam();
  BenchmarkDataset Bench =
      loadBenchmarkDataset(Case.Dataset, BenchScale::Scaled);
  const Dataset &Data = Bench.Split.Train;
  SplitContext Ctx(Data);
  std::vector<AbstractDataset> States =
      rootAndChildren(Ctx, Data, Case.Budget, Case.MaxParents,
                      Case.RootOnly);
  for (unsigned T = 0; T < NumTransformers; ++T) {
    Fnv1a Cell;
    for (const AbstractDataset &State : States)
      Cell.add(transformerDigest(T, Ctx, State));
    char Actual[160];
    std::snprintf(Actual, sizeof(Actual),
                  "{\"%s\", %u, %s, %zu, 0x%016" PRIx64 "ull},", Case.Dataset,
                  Case.Budget, TransformerNames[T], States.size(),
                  Cell.value());
    const GoldenCell *Golden = nullptr;
    for (const GoldenCell &G : Goldens)
      if (std::strcmp(G.Dataset, Case.Dataset) == 0 &&
          G.Budget == Case.Budget && G.Transformer == T)
        Golden = &G;
    if (!Golden) {
      ADD_FAILURE() << "no golden for " << Actual;
      continue;
    }
    EXPECT_EQ(Golden->States, States.size()) << Actual;
    EXPECT_EQ(Golden->Digest, Cell.value()) << Actual;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, BestSplitGoldenTest, ::testing::ValuesIn(goldenCases()),
    [](const ::testing::TestParamInfo<GoldenCase> &Info) {
      std::string Name = Info.param.Dataset;
      std::replace(Name.begin(), Name.end(), '-', '_');
      return Name + "_n" + std::to_string(Info.param.Budget);
    });
