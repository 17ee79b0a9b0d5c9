#include "src/core/model_factory.hpp"

#include <memory>
#include <string>

#include "src/util/contracts.hpp"
#include "src/util/string_util.hpp"

namespace nvp::core {

using petri::Marking;
using petri::PetriNet;
using petri::PlaceId;
using petri::TokenCount;
using petri::TransitionId;

namespace {

/// The name of group g's copy of a per-group place or transition: the
/// Fig. 2 / Table I name itself in a one-group net, suffixed with the
/// 1-based group number from two groups on ("Pmh2"; "Trj1_2" where the
/// name already ends in a digit).
std::string group_name(const char* base, std::size_t g, bool suffixed) {
  if (!suffixed) return base;
  const char last = base[std::char_traits<char>::length(base) - 1];
  return util::format("%s%s%zu", base, last >= '0' && last <= '9' ? "_" : "",
                      g + 1);
}

/// The places Table I's guards and weights sum over the groups — #Pmr,
/// #Pmf and the operational modules (#Pmh + #Pmc, plus #Pmd) — in one
/// array: [pmr of every group | pmf of every group | operational].
struct GroupSums {
  std::vector<std::size_t> places;
  std::size_t groups = 0;

  TokenCount sum(const Marking& m, std::size_t from, std::size_t to) const {
    TokenCount total = 0;
    for (std::size_t i = from; i < to; ++i) total += m[places[i]];
    return total;
  }
  TokenCount pmr_sum(const Marking& m) const { return sum(m, 0, groups); }
  TokenCount pmf_sum(const Marking& m) const {
    return sum(m, groups, 2 * groups);
  }
  TokenCount operational_sum(const Marking& m) const {
    return sum(m, 2 * groups, places.size());
  }
};

/// Extension: voter up/down life-cycle (relaxes assumption A.4).
void add_voter_lifecycle(PetriNet& net, const SystemParameters& params,
                         BuiltModel& model) {
  if (!params.voter_can_fail) return;
  const PlaceId pvu = net.add_place("Pvu", 1);
  const PlaceId pvd = net.add_place("Pvd", 0);
  model.pvu = pvu;
  model.pvd = pvd;
  const TransitionId tvf =
      net.add_exponential("Tvf", 1.0 / params.voter_mtbf);
  net.add_input_arc(tvf, pvu);
  net.add_output_arc(tvf, pvd);
  const TransitionId tvr =
      net.add_exponential("Tvr", 1.0 / params.voter_mttr);
  net.add_input_arc(tvr, pvd);
  net.add_output_arc(tvr, pvu);
}

/// The one net builder: the module-group life-cycles, then (with
/// rejuvenation) the global credit pool, the clock — the deterministic Trc
/// of Fig. 2(b) when `erlang_stages` is 0, its Erlang(k) approximation
/// otherwise — and the rejuvenation mechanism, then the voter extension.
/// `params` must be validated and canonicalized.
BuiltModel build_net(const SystemParameters& params, int erlang_stages) {
  const std::vector<ModuleGroup> groups = params.effective_groups();
  const bool suffixed = groups.size() > 1;
  const bool infinite =
      params.semantics == FiringSemantics::kInfiniteServer;

  BuiltModel model;
  model.net = PetriNet(suffixed                 ? "perception_groups"
                       : !params.rejuvenation   ? "perception_no_rejuvenation"
                       : erlang_stages > 0      ? "perception_rejuvenation_erlang"
                                                : "perception_rejuvenation");
  PetriNet& net = model.net;

  // --- Per-group life-cycle places ---------------------------------------
  model.groups.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const ModuleGroup& spec = groups[g];
    BuiltModel::GroupPlaces gp;
    gp.pmh = net.add_place(group_name("Pmh", g, suffixed),
                           static_cast<TokenCount>(spec.count));
    gp.pmc = net.add_place(group_name("Pmc", g, suffixed), 0);
    gp.pmf = net.add_place(group_name("Pmf", g, suffixed), 0);
    if (spec.repair_degradation > 0.0)
      gp.pmd = net.add_place(group_name("Pmd", g, suffixed), 0);
    if (params.rejuvenation)
      gp.pmr = net.add_place(group_name("Pmr", g, suffixed), 0);
    model.groups.push_back(gp);
  }
  model.pmh = model.groups.front().pmh;
  model.pmc = model.groups.front().pmc;
  model.pmf = model.groups.front().pmf;
  model.pmr = model.groups.front().pmr;

  // --- Per-group life-cycle transitions ----------------------------------
  // Single-server semantics uses the constant rates of Table II;
  // infinite-server scales each rate by the tokens in the input place.
  // Imperfect repair (q > 0) replaces the single repair Tr_g by competing
  // exponentials: Tr_g at (1-q) mu_g returns the module good-as-new, Trd_g
  // at q mu_g leaves it degraded (Pmd_g); the race realizes the branch
  // probability q. Degraded modules vote like healthy ones but compromise
  // at the inflated rate lambda_c,g / (1-q). Detection-based recovery
  // (extension: Td, C -> H) is a repair action too, so it branches the
  // same way.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const ModuleGroup& spec = groups[g];
    const BuiltModel::GroupPlaces& gp = model.groups[g];
    const double lambda_c = 1.0 / spec.mean_time_to_compromise;
    const double lambda = 1.0 / spec.mean_time_to_failure;
    const double mu = 1.0 / spec.mean_time_to_repair;
    const double q = spec.repair_degradation;
    const PlaceId pmh = gp.pmh, pmc = gp.pmc, pmf = gp.pmf;

    const auto add_exp = [&](const char* name, double rate, PlaceId from,
                             PlaceId to) {
      const TransitionId t =
          net.add_exponential(group_name(name, g, suffixed), rate);
      net.add_input_arc(t, from);
      net.add_output_arc(t, to);
      if (infinite) {
        net.set_rate_fn(t, [rate, from](const Marking& m) {
          return rate * static_cast<double>(m[from.index]);
        });
      }
    };

    add_exp("Tc", lambda_c, pmh, pmc);
    add_exp("Tf", lambda, pmc, pmf);
    if (q == 0.0) {
      add_exp("Tr", mu, pmf, pmh);
    } else {
      add_exp("Tr", (1.0 - q) * mu, pmf, pmh);
      add_exp("Trd", q * mu, pmf, *gp.pmd);
      add_exp("Tcd", lambda_c / (1.0 - q), *gp.pmd, pmc);
    }
    if (params.detection_rate > 0.0) {
      const double delta = params.detection_rate;
      if (q == 0.0) {
        add_exp("Td", delta, pmc, pmh);
      } else {
        add_exp("Td", (1.0 - q) * delta, pmc, pmh);
        add_exp("Tdd", q * delta, pmc, *gp.pmd);
      }
    }
  }

  if (params.rejuvenation) {
    // --- Global rejuvenation clock and credit pool -----------------------
    // One clock and one batch of r credits serve all groups; the guards of
    // Table I read #Pmc/#Pmh/#Pmr/#Pmf as sums over the groups.
    const TokenCount r = static_cast<TokenCount>(params.max_rejuvenating);
    const PlaceId pac = net.add_place("Pac", 0);
    model.pac = pac;

    // One shared copy of the summed places for every guard and weight.
    auto sums = std::make_shared<GroupSums>();
    sums->groups = groups.size();
    sums->places.reserve(5 * groups.size());
    for (const BuiltModel::GroupPlaces& gp : model.groups)
      sums->places.push_back(gp.pmr->index);
    for (const BuiltModel::GroupPlaces& gp : model.groups)
      sums->places.push_back(gp.pmf.index);
    for (const BuiltModel::GroupPlaces& gp : model.groups) {
      sums->places.push_back(gp.pmh.index);
      sums->places.push_back(gp.pmc.index);
      if (gp.pmd) sums->places.push_back(gp.pmd->index);
    }
    const std::shared_ptr<const GroupSums> at = std::move(sums);

    if (erlang_stages == 0) {
      // Trc: deterministic interval 1/gamma; Prc -> Ptr. Trt resets the
      // clock once the batch is activated (guard g3: #Pmr + #Pac > 0). Tac
      // activates a batch of r credits when the clock has expired and the
      // previous batch is fully drained (guard g1, see DESIGN.md §2; output
      // weight w3 = r); it runs at higher priority than Trt so activation
      // precedes the clock reset within the same vanishing chain (same net
      // effect either way; this makes the intermediate markings
      // deterministic).
      const PlaceId prc = net.add_place("Prc", 1);
      const PlaceId ptr = net.add_place("Ptr", 0);
      model.prc = prc;
      model.ptr = ptr;

      const TransitionId trc =
          net.add_deterministic("Trc", params.rejuvenation_interval);
      net.add_input_arc(trc, prc);
      net.add_output_arc(trc, ptr);

      const TransitionId trt = net.add_immediate("Trt", 1.0, /*priority=*/1);
      net.add_input_arc(trt, ptr);
      net.add_output_arc(trt, prc);
      net.set_guard(trt, [pac, at](const Marking& m) {
        return at->pmr_sum(m) + m[pac.index] > 0;  // g3
      });

      const TransitionId tac = net.add_immediate("Tac", 1.0, /*priority=*/2);
      net.add_output_arc(tac, pac, r);  // w3
      net.set_guard(tac, [ptr, pac, at](const Marking& m) {
        return m[ptr.index] >= 1 && m[pac.index] + at->pmr_sum(m) == 0;  // g1
      });
    } else {
      // Erlang clock: `stages` exponential stage completions per period.
      // The stage transition keeps running regardless of the rejuvenation
      // state, mirroring the deterministic clock's always-enabled timer.
      // When all stages have accumulated, Tac activates a new batch (guard
      // g1) or Trt just resets the clock (guard g3); both consume the
      // stage tokens.
      const auto k = static_cast<TokenCount>(erlang_stages);
      const PlaceId pstage = net.add_place("Pstage", 0);
      const TransitionId tstage = net.add_exponential(
          "Tstage", static_cast<double>(erlang_stages) /
                        params.rejuvenation_interval);
      net.add_output_arc(tstage, pstage);
      net.add_inhibitor_arc(tstage, pstage, k);

      const TransitionId tac = net.add_immediate("Tac", 1.0, /*priority=*/2);
      net.add_input_arc(tac, pstage, k);
      net.add_output_arc(tac, pac, r);  // w3
      net.set_guard(tac, [pac, at](const Marking& m) {
        return m[pac.index] + at->pmr_sum(m) == 0;  // g1
      });
      const TransitionId trt = net.add_immediate("Trt", 1.0, /*priority=*/1);
      net.add_input_arc(trt, pstage, k);
      net.set_guard(trt, [pac, at](const Marking& m) {
        return m[pac.index] + at->pmr_sum(m) > 0;  // g3
      });
    }

    // --- Target selection --------------------------------------------------
    // Trj1_g/Trj2_g/Trj3_g pick a compromised/healthy/degraded module of
    // group g with probability proportional to its share of all operational
    // modules (w1/w2 = #Pmc : #Pmh in one group; tiny when the source is
    // empty, where its input arc keeps the pick disabled anyway). Guard g2:
    // #Pmf + #Pmr < r.
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const BuiltModel::GroupPlaces& gp = model.groups[g];
      const auto add_pick = [&](const char* name, PlaceId source) {
        const TransitionId t = net.add_immediate(
            group_name(name, g, suffixed), 1.0, /*priority=*/1);
        net.add_input_arc(t, source);
        net.add_input_arc(t, pac);
        net.add_output_arc(t, *gp.pmr);
        net.set_guard(t, [at, r](const Marking& m) {
          return at->pmf_sum(m) + at->pmr_sum(m) < r;  // g2
        });
        net.set_rate_fn(t, [source, at](const Marking& m) {
          const double share = static_cast<double>(m[source.index]);
          const double total = static_cast<double>(at->operational_sum(m));
          return share == 0.0 ? 1e-5 : share / total;  // w1, w2
        });
      };
      add_pick("Trj1", gp.pmc);
      add_pick("Trj2", gp.pmh);
      if (gp.pmd) add_pick("Trj3", *gp.pmd);
    }

    // --- Batch completion --------------------------------------------------
    // Trj completes the rejuvenation of the whole batch: exponential with
    // marking-dependent mean 1/mu_r = #Pmr * rejuvenation_duration, guarded
    // on #Pmr >= 1 so the expression is well-defined. It returns every
    // rejuvenating module to its own group's healthy place (rejuvenation
    // reinstalls from a clean image, so it is good-as-new even under
    // imperfect repair) through per-group arcs of weight #Pmr_g (w5, w6 of
    // Table I; g2 keeps #Pmr <= r) — a weight of 0 moves nothing, which
    // keeps one transition sufficient.
    const TransitionId trj = net.add_exponential("Trj", 1.0);
    const double duration = params.rejuvenation_duration;
    net.set_rate_fn(trj, [at, duration](const Marking& m) {
      return 1.0 / (static_cast<double>(at->pmr_sum(m)) * duration);
    });
    net.set_guard(trj, [at](const Marking& m) { return at->pmr_sum(m) >= 1; });
    for (const BuiltModel::GroupPlaces& gp : model.groups) {
      const PlaceId pmr = *gp.pmr;
      net.add_input_arc(trj, pmr, [pmr](const Marking& m) {
        return m[pmr.index];  // w5
      });
      net.add_output_arc(trj, gp.pmh, [pmr](const Marking& m) {
        return m[pmr.index];  // w6
      });
    }
  }

  add_voter_lifecycle(net, params, model);
  net.validate();
  return model;
}

}  // namespace

BuiltModel PerceptionModelFactory::build(const SystemParameters& params) {
  params.validate();
  return build_net(params.canonicalized(), /*erlang_stages=*/0);
}

BuiltModel PerceptionModelFactory::with_rejuvenation_erlang(
    const SystemParameters& params, int stages) {
  params.validate();
  NVP_EXPECTS(params.rejuvenation);
  const SystemParameters canon = params.canonicalized();
  NVP_EXPECTS_MSG(canon.groups.empty(),
                  "Erlangization is not supported for module-group models");
  NVP_EXPECTS_MSG(stages >= 1, "Erlangization needs at least one stage");
  return build_net(canon, stages);
}

}  // namespace nvp::core
