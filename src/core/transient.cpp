#include "src/core/transient.hpp"

#include <memory>

#include "src/core/model_factory.hpp"
#include "src/core/reliability.hpp"
#include "src/core/staged.hpp"
#include "src/markov/absorption.hpp"
#include "src/markov/ctmc.hpp"
#include "src/markov/transient.hpp"
#include "src/util/contracts.hpp"

namespace nvp::core {

namespace {

/// The CTMC of a non-rejuvenating configuration: staged_structure's graph
/// repoured with the point's rates, as staged_rates does.
struct CtmcModel {
  std::shared_ptr<const StructureArtifact> structure;
  markov::Ctmc chain;

  /// Expectation of a per-state value under the all-healthy start.
  double from_start(const std::vector<double>& value) const {
    double out = 0.0;
    for (const auto& e : structure->graph.initial_distribution())
      out += e.prob * value[e.target];
    return out;
  }
};

CtmcModel build_ctmc(const SystemParameters& raw) {
  raw.validate();
  NVP_EXPECTS_MSG(!raw.rejuvenation,
                  "transient analysis is analytic only for models without "
                  "the deterministic rejuvenation clock; simulate the "
                  "rejuvenating model instead (sim::DspnSimulator)");
  const SystemParameters params = raw.canonicalized();
  auto structure = staged_structure(params, /*use_cache=*/true);
  const BuiltModel model = PerceptionModelFactory::build(params);
  auto chain = markov::Ctmc::from_graph(structure->graph.repoured(model.net));
  return {std::move(structure), std::move(chain)};
}

/// Target set of the unavailability statistics: the states whose
/// responding module weight misses the voter's quota — the decidability
/// test the reward applies.
std::vector<bool> undecidable_states(const SystemParameters& params,
                                     const StructureArtifact& structure) {
  const auto rewards = make_group_reliability_model(params.canonicalized());
  std::vector<bool> undecidable_class(structure.classes.size());
  for (std::size_t ci = 0; ci < structure.classes.size(); ++ci)
    undecidable_class[ci] = !rewards->decidable_flat(structure.classes[ci]);
  std::vector<bool> target(structure.graph.size());
  for (std::size_t s = 0; s < target.size(); ++s)
    target[s] = undecidable_class[structure.class_of_state[s]];
  return target;
}

/// The gated state reward (state_rewards) under the analyzer's options.
std::vector<double> state_reward(
    const SystemParameters& params, const StructureArtifact& structure,
    const TransientReliabilityAnalyzer::Options& options) {
  const auto table =
      staged_reward_table(params.canonicalized(), options.convention,
                          structure, /*use_cache=*/true);
  return state_rewards(structure, *table, options.attachment);
}

}  // namespace

std::vector<TransientPoint>
TransientReliabilityAnalyzer::reliability_curve(
    const SystemParameters& params,
    const std::vector<double>& times) const {
  const auto ctmc = build_ctmc(params);
  const std::vector<double> reward = state_reward(params, *ctmc.structure, options_);

  std::vector<TransientPoint> curve;
  curve.reserve(times.size());
  for (double t : times) {
    NVP_EXPECTS(t >= 0.0);
    const auto pi =
        markov::ctmc_transient(ctmc.chain.generator, ctmc.chain.initial, t);
    double value = 0.0;
    for (std::size_t s = 0; s < pi.size(); ++s) value += pi[s] * reward[s];
    curve.push_back({t, value});
  }
  return curve;
}

double TransientReliabilityAnalyzer::mean_time_to_unavailability(
    const SystemParameters& params) const {
  const auto ctmc = build_ctmc(params);
  const auto result = markov::mean_time_to_absorption(
      ctmc.chain.generator, undecidable_states(params, *ctmc.structure));
  return ctmc.from_start(result.expected_time);
}

double TransientReliabilityAnalyzer::average_reliability_over(
    const SystemParameters& params, double horizon) const {
  NVP_EXPECTS(horizon > 0.0);
  const auto ctmc = build_ctmc(params);
  const std::vector<double> reward = state_reward(params, *ctmc.structure, options_);
  const auto sojourn = markov::ctmc_accumulated_sojourn(
      ctmc.chain.generator, ctmc.chain.initial, horizon);
  double accumulated = 0.0;
  for (std::size_t s = 0; s < sojourn.size(); ++s)
    accumulated += sojourn[s] * reward[s];
  return accumulated / horizon;
}

double TransientReliabilityAnalyzer::unavailability_probability_by(
    const SystemParameters& params, double deadline) const {
  NVP_EXPECTS(deadline >= 0.0);
  const auto ctmc = build_ctmc(params);
  return ctmc.from_start(markov::absorption_probability_by(
      ctmc.chain.generator, undecidable_states(params, *ctmc.structure),
      deadline));
}

}  // namespace nvp::core
