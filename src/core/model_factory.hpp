#pragma once

#include <optional>
#include <vector>

#include "src/core/params.hpp"
#include "src/petri/net.hpp"

namespace nvp::core {

/// A perception-system DSPN plus handles to its places, so rewards and
/// diagnostics can read module counts out of markings.
struct BuiltModel {
  petri::PetriNet net;
  // Group 1's life-cycle places: the whole module pool of a one-group net.
  petri::PlaceId pmh{0};  ///< healthy ML modules
  petri::PlaceId pmc{0};  ///< compromised ML modules
  petri::PlaceId pmf{0};  ///< non-operational (crashed) ML modules
  // Rejuvenation-only places (Fig. 2(b, c)); unset for the Fig. 2(a) model.
  // prc/ptr belong to the deterministic clock and are unset for the
  // Erlang one.
  std::optional<petri::PlaceId> pmr;  ///< rejuvenating ML modules
  std::optional<petri::PlaceId> pac;  ///< activated rejuvenation credits
  std::optional<petri::PlaceId> prc;  ///< rejuvenation clock armed
  std::optional<petri::PlaceId> ptr;  ///< rejuvenation clock expired
  // Voter-failure extension places (params.voter_can_fail).
  std::optional<petri::PlaceId> pvu;  ///< voter up
  std::optional<petri::PlaceId> pvd;  ///< voter down

  /// Per-group place handles, one entry per module group (one for a scalar
  /// configuration). `pmd` (imperfect-repair degraded modules) exists only
  /// for groups with repair_degradation > 0; `pmr` only with rejuvenation.
  struct GroupPlaces {
    petri::PlaceId pmh{0};
    petri::PlaceId pmc{0};
    petri::PlaceId pmf{0};
    std::optional<petri::PlaceId> pmd;
    std::optional<petri::PlaceId> pmr;
  };
  std::vector<GroupPlaces> groups;

  /// Healthy count of group g (degraded modules vote like healthy ones and
  /// are counted here; only their compromise rate differs).
  int group_healthy(std::size_t g, const petri::Marking& m) const {
    const GroupPlaces& gp = groups[g];
    int i = m[gp.pmh.index];
    if (gp.pmd) i += m[gp.pmd->index];
    return i;
  }
  /// Compromised count of group g.
  int group_compromised(std::size_t g, const petri::Marking& m) const {
    return m[groups[g].pmc.index];
  }
  /// Down-or-rejuvenating count of group g.
  int group_down(std::size_t g, const petri::Marking& m) const {
    const GroupPlaces& gp = groups[g];
    int k = m[gp.pmf.index];
    if (gp.pmr) k += m[gp.pmr->index];
    return k;
  }
  /// Flattened (healthy, compromised, down) triples, group by group —
  /// the layout GroupReliabilityModel::state_reliability_flat expects.
  std::vector<int> group_counts(const petri::Marking& m) const {
    std::vector<int> flat;
    flat.reserve(3 * groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      flat.push_back(group_healthy(g, m));
      flat.push_back(group_compromised(g, m));
      flat.push_back(group_down(g, m));
    }
    return flat;
  }

  /// Healthy module count i in a marking, summed over the groups.
  int healthy(const petri::Marking& m) const {
    int i = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) i += group_healthy(g, m);
    return i;
  }
  /// Compromised module count j in a marking.
  int compromised(const petri::Marking& m) const {
    int j = 0;
    for (std::size_t g = 0; g < groups.size(); ++g)
      j += group_compromised(g, m);
    return j;
  }
  /// Down-or-rejuvenating count k in a marking (#Pmf + #Pmr).
  int down(const petri::Marking& m) const {
    int k = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) k += group_down(g, m);
    return k;
  }
  /// True when the voter is operational in this marking (always true
  /// unless the voter-failure extension is enabled).
  bool voter_up(const petri::Marking& m) const {
    return !pvd || m[pvd->index] == 0;
  }
};

/// Builds the paper's DSPNs, generalized to module groups:
///  * without rejuvenation — Fig. 2(a): per group Pmh --Tc--> Pmc --Tf-->
///    Pmf --Tr--> Pmh, the group's modules initially healthy;
///  * with rejuvenation — Fig. 2(b, c): the same life-cycle plus the
///    deterministic clock (Prc --Trc--> Ptr, reset by immediate Trt) and the
///    rejuvenation mechanism (immediate Tac emits r credits into Pac;
///    immediates Trj1/Trj2 move a compromised/healthy module into Pmr with
///    probability proportional to its share of the operational modules;
///    exponential Trj returns all rejuvenating modules to Pmh), with the
///    guard functions and marking-dependent arc weights of Table I.
///
/// A scalar configuration is the one-group case: its net carries the
/// Fig. 2 / Table I names (Pmh Pmc Pmf Pmr, Tc Tf Tr Td, Trj1 Trj2 Trj) and
/// is named perception_no_rejuvenation / perception_rejuvenation. From two
/// groups on, every per-group place and transition carries its group number
/// (Pmh2, Tc2, Trj1_2) and the net is named perception_groups. Each group
/// has its own life-cycle rates; the rejuvenation clock and credit pool
/// stay global with guards over group sums, and a single Trj completes the
/// batch through marking-dependent per-group arcs. Imperfect repair is the
/// competing-exponential branch Tr_g ((1-q) mu_g, good-as-new) vs Trd_g
/// (q mu_g, degraded): degraded modules vote like healthy ones but
/// compromise at the inflated rate lambda_c,g / (1 - q). The voter-failure
/// places and transitions come last. See DESIGN.md §15.
///
/// Guard g1 is implemented as (#Ptr >= 1) && (#Pac + #Pmr == 0) — see
/// DESIGN.md §2 ("Guard note") for why the paper's printed "= 1" cannot be
/// literal.
class PerceptionModelFactory {
 public:
  /// Builds the model matching `params` (validated and canonicalized
  /// first, so a single perfect-repair group builds the scalar net).
  static BuiltModel build(const SystemParameters& params);

  /// Erlangized variant of the rejuvenating model: the deterministic clock
  /// is replaced by `stages` exponential stages (Pstage and Tstage, rate
  /// stages/interval, inhibited at `stages` tokens), and Tac/Trt each
  /// consume the `stages` tokens, so the whole model becomes a plain CTMC.
  /// As stages grows the Erlang(k) period converges to the deterministic
  /// interval, which gives
  ///  (a) an independent validation path for the MRGP solver, and
  ///  (b) analytic *transient* solutions for the rejuvenating system
  ///      (uniformization applies to CTMCs only).
  /// State-space cost is roughly x(stages+1); keep stages <= ~32 for the
  /// dense solvers. Scalar configurations only; the returned model has no
  /// prc/ptr places.
  static BuiltModel with_rejuvenation_erlang(const SystemParameters& params,
                                             int stages);
};

}  // namespace nvp::core
