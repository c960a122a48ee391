//===- abstract/ThreatModel.cpp - First-class poisoning threat models ---------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "abstract/ThreatModel.h"

#include "abstract/AbstractBestSplit.h"
#include "abstract/AbstractDTrace.h"
#include "abstract/LabelFlip.h"

using namespace antidote;

const char *antidote::threatModelName(ThreatModelKind Kind) {
  switch (Kind) {
  case ThreatModelKind::Removal:
    return "removal";
  case ThreatModelKind::LabelFlip:
    return "flip";
  }
  assert(false && "unknown threat model kind");
  return "?";
}

std::optional<ThreatModelKind>
antidote::parseThreatModelName(const std::string &Name) {
  if (Name == "removal")
    return ThreatModelKind::Removal;
  if (Name == "flip")
    return ThreatModelKind::LabelFlip;
  return std::nullopt;
}

namespace {

/// The paper's ∆n removal model (§4): everything the engine needs is the
/// pre-existing removal transformer stack, re-exposed behind the interface.
class RemovalThreatModel final : public ThreatModel {
public:
  ThreatModelKind kind() const override { return ThreatModelKind::Removal; }

  bool supportsDomain(AbstractDomainKind) const override { return true; }

  std::vector<Interval>
  classProbabilities(const std::vector<uint32_t> &Counts, uint32_t Total,
                     uint32_t Budget,
                     CprobTransformerKind Kind) const override {
    return abstractClassProbabilities(Counts, Total, Budget, Kind);
  }

  Interval sizeInterval(const AbstractDataset &State) const override {
    return State.sizeInterval();
  }

  bool collectPureTerminals(
      const AbstractDataset &Cur, AbstractDomainKind Domain,
      std::vector<AbstractDataset> &States,
      std::vector<std::vector<Interval>> &) const override {
    // Then-branch: restrict to single-class concretizations. A pure
    // restriction with no rows corresponds only to the empty training set,
    // which no concrete DTrace state can be (the initial set is non-empty
    // and filter keeps the non-empty side x lies on), so it is skipped.
    if (Domain == AbstractDomainKind::Box) {
      std::optional<AbstractDataset> Joined;
      for (unsigned C = 0; C < Cur.base().numClasses(); ++C) {
        std::optional<AbstractDataset> Pure = Cur.restrictToPureClass(C);
        if (!Pure || Pure->isEmptySet())
          continue;
        Joined = Joined ? AbstractDataset::join(*Joined, std::move(*Pure))
                        : std::move(*Pure);
      }
      if (Joined)
        States.push_back(std::move(*Joined));
    } else {
      for (unsigned C = 0; C < Cur.base().numClasses(); ++C) {
        std::optional<AbstractDataset> Pure = Cur.restrictToPureClass(C);
        if (Pure && !Pure->isEmptySet())
          States.push_back(std::move(*Pure));
      }
    }
    // Else-branch feasibility: if the whole abstract set is single-class,
    // every concretization has zero entropy and no concrete run continues.
    return !Cur.isSingleClass();
  }

  std::optional<PredicateSet>
  bestSplit(const SplitContext &Ctx, const AbstractDataset &Cur,
            CprobTransformerKind Cprob, GiniLiftingKind Gini,
            const ResourceMeter *Meter) const override {
    return abstractBestSplit(Ctx, Cur, Cprob, Gini, Meter);
  }
};

/// Exact unit probability vector for a forced-pure terminal of \p Class.
std::vector<Interval> unitProbabilities(unsigned NumClasses, unsigned Class) {
  std::vector<Interval> Probs(NumClasses, Interval(0.0));
  Probs[Class] = Interval(1.0);
  return Probs;
}

/// Label contamination (§7, Xiao et al.): ⟨T, n⟩ is read as "exactly the
/// rows T, at most n of them relabeled". Feature vectors never move, so
/// predicates are concrete midpoints, `restrict` is equation (1) verbatim
/// (exact row side, budget clamped to the side), and only the class counts
/// are abstract.
class LabelFlipThreatModel final : public ThreatModel {
public:
  ThreatModelKind kind() const override { return ThreatModelKind::LabelFlip; }

  bool supportsDomain(AbstractDomainKind Domain) const override {
    // A box join of two exact row sets has no sound flip reading, and the
    // capped domain joins on overflow; only the pure disjunctive domain is
    // supported.
    return Domain == AbstractDomainKind::Disjuncts;
  }

  std::vector<Interval>
  classProbabilities(const std::vector<uint32_t> &Counts, uint32_t Total,
                     uint32_t Budget, CprobTransformerKind) const override {
    return flipClassProbabilities(Counts, Total, Budget);
  }

  Interval sizeInterval(const AbstractDataset &State) const override {
    // Relabeling never removes rows: the size is exact.
    return Interval(static_cast<double>(State.size()));
  }

  bool collectPureTerminals(
      const AbstractDataset &Cur, AbstractDomainKind,
      std::vector<AbstractDataset> &,
      std::vector<std::vector<Interval>> &Forced) const override {
    // ent(T_L) = 0 conditional: the attacker may be able to force a pure
    // leaf of class i by flipping every other-class row.
    const std::vector<uint32_t> &Counts = Cur.counts();
    uint32_t Total = Cur.size();
    for (unsigned C = 0; C < Cur.base().numClasses(); ++C)
      if (Total - Counts[C] <= Cur.budget())
        Forced.push_back(unitProbabilities(Cur.base().numClasses(), C));
    // The ent != 0 branch needs some *mixed* labeling: impossible for a
    // singleton, and for n = 0 it needs mixed base labels.
    return !(Total < 2 || (Cur.budget() == 0 && Cur.isSingleClass()));
  }

  std::optional<PredicateSet>
  bestSplit(const SplitContext &Ctx, const AbstractDataset &Cur,
            CprobTransformerKind, GiniLiftingKind,
            const ResourceMeter *Meter) const override {
    return flipBestSplit(Ctx, Cur, Meter);
  }
};

} // namespace

const ThreatModel &antidote::threatModel(ThreatModelKind Kind) {
  static const RemovalThreatModel Removal;
  static const LabelFlipThreatModel LabelFlip;
  switch (Kind) {
  case ThreatModelKind::Removal:
    return Removal;
  case ThreatModelKind::LabelFlip:
    return LabelFlip;
  }
  assert(false && "unknown threat model kind");
  return Removal;
}
