//===- abstract/ThreatModel.h - First-class poisoning threat models -*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper defines poisoning robustness generically over a perturbation
/// set ∆(T) and instantiates ∆n removal; §7 names label contamination
/// (Xiao et al.) as the modification-style sibling. This file makes the
/// choice of ∆ a first-class value: a `ThreatModel` supplies every
/// model-specific transformer the shared `DTrace#` frontier engine needs —
///
///   - `cprob#` over a terminal abstract state (`classProbabilities`),
///   - the abstract set-size interval (`sizeInterval`),
///   - the `ent(T) = 0` pure-leaf conditional (`collectPureTerminals`),
///     including terminals only expressible as probability vectors
///     (a flip attacker forcing a pure leaf of an arbitrary class),
///   - the `bestSplit#` candidate/overlap rule (`bestSplit`), whose
///     `restrict` semantics ride on the returned predicates: symbolic
///     interval predicates for removal, concrete midpoints for flips
///     (so `AbstractDataset::restrict`'s equation (1) applies verbatim),
///
/// so `AbstractDTrace`'s engine — FrontierJobs fan-out,
/// ResourceMeter accounting, cooperative cancellation, domination
/// tracking — is shared by every model. Both models share the abstract
/// state ⟨T, n⟩ (`AbstractDataset`): removal reads it as "any subset
/// missing ≤ n rows", flips read it as "exactly these rows, ≤ n of them
/// relabeled"; `restrict` on a concrete predicate computes the correct
/// child under either reading.
///
/// Serving-rule applicability (see serving/StoreKey.h and
/// antidote/Verifier.cpp): the radius-range rule (Robust@N ⇒ n ≤ N,
/// Unknown@N ⇒ n ≥ N) holds for every model whose budgets nest
/// (∆a(T) ⊆ ∆b(T) for a ≤ b) — true for removal and flips. The
/// delta-slack rule additionally needs removal's containment argument
/// ∆n(T') ⊆ ∆(n+k)(T) for a child T' missing k rows of T; a flipped
/// child is *not* contained in any parent flip set, so slack serving is
/// gated to `ThreatModelKind::Removal`.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_ABSTRACT_THREATMODEL_H
#define ANTIDOTE_ABSTRACT_THREATMODEL_H

#include "abstract/AbstractDataset.h"
#include "abstract/AbstractGini.h"
#include "abstract/PredicateSet.h"
#include "concrete/BestSplit.h"
#include "support/Budget.h"

#include <optional>

namespace antidote {

enum class AbstractDomainKind : uint8_t;

/// Which perturbation set ∆n(T) the budget n ranges over.
enum class ThreatModelKind : uint8_t {
  Removal,   ///< ∆n(T) = {T' ⊆ T : |T \ T'| ≤ n} (the paper's model).
  LabelFlip, ///< ∆flip_n(T) = {T_L : L relabels ≤ n rows} (Xiao et al.).
};

/// Stable lowercase names ("removal", "flip") for CLI flags, stats lines,
/// and reports.
const char *threatModelName(ThreatModelKind Kind);

/// Parses a `threatModelName` string; std::nullopt for anything else.
std::optional<ThreatModelKind> parseThreatModelName(const std::string &Name);

/// The per-model transformer bundle consumed by `runAbstractDTrace`.
/// Implementations are stateless singletons (`threatModel`); every method
/// is const and thread-safe, matching the engine's concurrent transfer
/// phase.
class ThreatModel {
public:
  virtual ~ThreatModel() = default;

  virtual ThreatModelKind kind() const = 0;
  const char *name() const { return threatModelName(kind()); }

  /// Whether the engine may run this model under \p Domain. Removal
  /// supports all three domains; flips support Disjuncts only (a box join
  /// of exact row sets is unsound under flip semantics, and the capped
  /// domain joins too).
  virtual bool supportsDomain(AbstractDomainKind Domain) const = 0;

  /// `cprob#` of a terminal ⟨T, n⟩ with class counts \p Counts (summing
  /// to \p Total = |T|) and budget \p Budget = n, under this model's
  /// reading of ⟨T, n⟩. It reads nothing else of the state, which is what
  /// lets the last frontier level fold children it never built. Removal
  /// dispatches on \p Kind (Optimal / NaiveInterval); flips use the
  /// count-interval transformer, which is already optimal.
  virtual std::vector<Interval>
  classProbabilities(const std::vector<uint32_t> &Counts, uint32_t Total,
                     uint32_t Budget, CprobTransformerKind Kind) const = 0;

  /// `cprob#` of the terminal abstract state \p State.
  std::vector<Interval> classProbabilities(const AbstractDataset &State,
                                           CprobTransformerKind Kind) const {
    return classProbabilities(State.counts(), State.size(), State.budget(),
                              Kind);
  }

  /// `|⟨T,n⟩|` under this model: [|T| − n, |T|] for removal (§4.6),
  /// the exact point |T| for flips (relabeling never changes the size).
  virtual Interval sizeInterval(const AbstractDataset &State) const = 0;

  /// The `ent(T) = 0` conditional (§4.7) for one disjunct. Appends the
  /// feasible pure terminals: abstract-state terminals to \p States
  /// (removal's `pure(⟨T,n⟩, i)` restrictions, joined under Box), exact
  /// probability-vector terminals to \p Forced (a flip attacker forcing a
  /// pure leaf of class i when |T| − c_i ≤ n). Returns false iff the
  /// `ent ≠ 0` else-branch is infeasible for every concretization.
  virtual bool
  collectPureTerminals(const AbstractDataset &Cur, AbstractDomainKind Domain,
                       std::vector<AbstractDataset> &States,
                       std::vector<std::vector<Interval>> &Forced) const = 0;

  /// `bestSplit#(⟨T,n⟩)` — the model's candidate/overlap rule (§4.6 for
  /// removal, the concrete-midpoint variant for flips). Both models run
  /// the one `selectMinimalSplits` scan (abstract/AbstractBestSplit.h):
  /// an interrupted run returns std::nullopt, never a truncated set;
  /// ⋄ ∈ result marks concretizations that return here.
  /// The engine restricts the current state by each returned predicate via
  /// `AbstractDataset::restrict`, which is exact for both models' predicate
  /// kinds.
  virtual std::optional<PredicateSet>
  bestSplit(const SplitContext &Ctx, const AbstractDataset &Cur,
            CprobTransformerKind Cprob, GiniLiftingKind Gini,
            const ResourceMeter *Meter) const = 0;
};

/// The process-wide singleton for \p Kind.
const ThreatModel &threatModel(ThreatModelKind Kind);

} // namespace antidote

#endif // ANTIDOTE_ABSTRACT_THREATMODEL_H
