#include "src/core/params.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "src/util/contracts.hpp"
#include "src/util/string_util.hpp"

namespace nvp::core {

namespace {

/// Indexed by RewardConvention.
constexpr const char* kConventionNames[] = {"verbatim", "generalized",
                                            "strict"};

}  // namespace

const char* to_string(RewardConvention convention) {
  return kConventionNames[static_cast<std::size_t>(convention)];
}

std::optional<RewardConvention> parse_convention(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kConventionNames); ++i)
    if (name == kConventionNames[i]) return static_cast<RewardConvention>(i);
  return std::nullopt;
}

std::string convention_names() {
  return util::join({std::begin(kConventionNames), std::end(kConventionNames)},
                    "|");
}

bool SystemParameters::heterogeneous() const {
  return !canonicalized().groups.empty();
}

SystemParameters SystemParameters::canonicalized() const {
  if (groups.empty()) return *this;
  if (groups.size() > 1) return *this;
  const ModuleGroup& g = groups.front();
  // A single group with perfect repair is the scalar form: uniform weights
  // never change a verdict (the quota scales with them), so the weight
  // folds away too. Imperfect repair adds the degraded place and cannot
  // fold.
  if (g.repair_degradation != 0.0) return *this;
  SystemParameters folded = *this;
  folded.groups.clear();
  for (const ParameterField& field : parameter_fields())
    if (field.system != nullptr && field.group != nullptr)
      folded.*field.system = g.*field.group;
  return folded;
}

std::vector<ModuleGroup> SystemParameters::effective_groups() const {
  if (!groups.empty()) return groups;
  return {inherited_group(n_versions)};
}

ModuleGroup SystemParameters::inherited_group(int count) const {
  ModuleGroup g;
  g.count = count;
  for (const ParameterField& field : parameter_fields())
    if (field.system != nullptr && field.group != nullptr)
      g.*field.group = this->*field.system;
  return g;
}

std::vector<double> SystemParameters::module_weights() const {
  std::vector<double> weights;
  weights.reserve(static_cast<std::size_t>(n_versions));
  if (groups.empty()) {
    weights.assign(static_cast<std::size_t>(n_versions), 1.0);
    return weights;
  }
  for (const ModuleGroup& g : groups)
    weights.insert(weights.end(), static_cast<std::size_t>(g.count),
                   g.weight);
  return weights;
}

double SystemParameters::weighted_quota() const {
  std::vector<double> weights = module_weights();
  std::sort(weights.begin(), weights.end(), std::greater<double>());
  const int f = max_faulty;
  const int r = rejuvenation ? max_rejuvenating : 0;
  double wf = 0.0;
  for (int i = 0; i < f && i < static_cast<int>(weights.size()); ++i)
    wf += weights[static_cast<std::size_t>(i)];
  double wr = 0.0;
  for (int i = 0; i < r && i < static_cast<int>(weights.size()); ++i)
    wr += weights[static_cast<std::size_t>(i)];
  const double w_min = weights.empty() ? 1.0 : weights.back();
  return 2.0 * wf + wr + w_min;
}

bool SystemParameters::weighted_feasible() const {
  std::vector<double> weights = module_weights();
  std::sort(weights.begin(), weights.end(), std::greater<double>());
  const double w_total = std::accumulate(weights.begin(), weights.end(), 0.0);
  double wf = 0.0;
  for (int i = 0; i < max_faulty && i < static_cast<int>(weights.size()); ++i)
    wf += weights[static_cast<std::size_t>(i)];
  double wr = 0.0;
  const int r = rejuvenation ? max_rejuvenating : 0;
  for (int i = 0; i < r && i < static_cast<int>(weights.size()); ++i)
    wr += weights[static_cast<std::size_t>(i)];
  return w_total + 1e-12 >= 3.0 * wf + 2.0 * wr + weights.back();
}

int SystemParameters::voting_threshold() const {
  return rejuvenation ? 2 * max_faulty + max_rejuvenating + 1
                      : 2 * max_faulty + 1;
}

int SystemParameters::max_tolerable_down() const {
  return n_versions - voting_threshold();
}

void SystemParameters::validate() const {
  NVP_EXPECTS_MSG(n_versions >= 1, "N must be at least 1");
  NVP_EXPECTS_MSG(max_faulty >= 0, "f must be non-negative");
  NVP_EXPECTS_MSG(max_rejuvenating >= 0, "r must be non-negative");
  if (rejuvenation) {
    NVP_EXPECTS_MSG(max_rejuvenating >= 1,
                    "rejuvenation requires r >= 1");
    NVP_EXPECTS_MSG(n_versions >= 3 * max_faulty + 2 * max_rejuvenating + 1,
                    "rejuvenating BFT voting requires n >= 3f + 2r + 1");
    NVP_EXPECTS_MSG(rejuvenation_interval > 0.0,
                    "rejuvenation interval must be positive");
    NVP_EXPECTS_MSG(rejuvenation_duration > 0.0,
                    "rejuvenation duration must be positive");
  } else {
    NVP_EXPECTS_MSG(n_versions >= 3 * max_faulty + 1,
                    "BFT voting requires n >= 3f + 1");
  }
  NVP_EXPECTS_MSG(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0, 1]");
  NVP_EXPECTS_MSG(p >= 0.0 && p <= 1.0, "p must be in [0, 1]");
  NVP_EXPECTS_MSG(p_prime >= 0.0 && p_prime <= 1.0,
                  "p' must be in [0, 1]");
  NVP_EXPECTS_MSG(mean_time_to_compromise > 0.0,
                  "1/lambda_c must be positive");
  NVP_EXPECTS_MSG(mean_time_to_failure > 0.0, "1/lambda must be positive");
  NVP_EXPECTS_MSG(mean_time_to_repair > 0.0, "1/mu must be positive");
  NVP_EXPECTS_MSG(detection_rate >= 0.0,
                  "detection rate must be non-negative");
  if (voter_can_fail) {
    NVP_EXPECTS_MSG(voter_mtbf > 0.0, "voter MTBF must be positive");
    NVP_EXPECTS_MSG(voter_mttr > 0.0, "voter MTTR must be positive");
  }
  if (!groups.empty()) {
    int total = 0;
    for (const ModuleGroup& g : groups) {
      NVP_EXPECTS_MSG(g.count >= 1, "each module group needs count >= 1");
      NVP_EXPECTS_MSG(g.mean_time_to_compromise > 0.0,
                      "group 1/lambda_c must be positive");
      NVP_EXPECTS_MSG(g.mean_time_to_failure > 0.0,
                      "group 1/lambda must be positive");
      NVP_EXPECTS_MSG(g.mean_time_to_repair > 0.0,
                      "group 1/mu must be positive");
      NVP_EXPECTS_MSG(g.p >= 0.0 && g.p <= 1.0,
                      "group p must be in [0, 1]");
      NVP_EXPECTS_MSG(g.p_prime >= 0.0 && g.p_prime <= 1.0,
                      "group p' must be in [0, 1]");
      NVP_EXPECTS_MSG(g.weight > 0.0, "group weight must be positive");
      NVP_EXPECTS_MSG(g.repair_degradation >= 0.0 &&
                          g.repair_degradation < 1.0,
                      "repair degradation must be in [0, 1)");
      total += g.count;
    }
    NVP_EXPECTS_MSG(total == n_versions,
                    "module group counts must sum to n_versions");
    NVP_EXPECTS_MSG(weighted_feasible(),
                    "weighted voting requires total weight >= "
                    "3 W_f + 2 W_r + w_min");
  }
}

std::string SystemParameters::describe() const {
  std::string base = util::format(
      "N=%d f=%d r=%d alpha=%.3g p=%.3g p'=%.3g 1/lc=%.6g 1/l=%.6g "
      "1/mu=%.6g rejuv=%s interval=%.6g duration=%.6g semantics=%s",
      n_versions, max_faulty, max_rejuvenating, alpha, p, p_prime,
      mean_time_to_compromise, mean_time_to_failure, mean_time_to_repair,
      rejuvenation ? "on" : "off", rejuvenation_interval,
      rejuvenation_duration,
      semantics == FiringSemantics::kSingleServer ? "single-server"
                                                  : "infinite-server");
  for (const ModuleGroup& g : groups)
    base += util::format(
        " group{%dx 1/lc=%.6g 1/l=%.6g 1/mu=%.6g p=%.3g p'=%.3g w=%.3g "
        "q=%.3g}",
        g.count, g.mean_time_to_compromise, g.mean_time_to_failure,
        g.mean_time_to_repair, g.p, g.p_prime, g.weight,
        g.repair_degradation);
  return base;
}

SystemParameters SystemParameters::paper_four_version() {
  SystemParameters params;
  params.n_versions = 4;
  params.rejuvenation = false;
  return params;
}

SystemParameters SystemParameters::paper_six_version() {
  SystemParameters params;
  params.n_versions = 6;
  params.rejuvenation = true;
  return params;
}

namespace {

using SP = SystemParameters;
using MG = ModuleGroup;
constexpr ParameterStage kRates = ParameterStage::kRates;
constexpr ParameterStage kRewards = ParameterStage::kRewards;

constexpr ParameterField kParameterFields[] = {
    {"mttc", kRates, &SP::mean_time_to_compromise,
     &MG::mean_time_to_compromise},
    {"mttf", kRates, &SP::mean_time_to_failure, &MG::mean_time_to_failure},
    {"mttr", kRates, &SP::mean_time_to_repair, &MG::mean_time_to_repair},
    {"p", kRewards, &SP::p, &MG::p},
    {"p-prime", kRewards, &SP::p_prime, &MG::p_prime},
    {"weight", kRewards, nullptr, &MG::weight},
    {"repair-degradation", kRates, nullptr, &MG::repair_degradation},
    {"alpha", kRewards, &SP::alpha, nullptr},
    {"interval", kRates, &SP::rejuvenation_interval, nullptr},
    {"duration", kRates, &SP::rejuvenation_duration, nullptr},
    {"detection-rate", kRates, &SP::detection_rate, nullptr},
};

}  // namespace

std::span<const ParameterField> parameter_fields() {
  return kParameterFields;
}

const ParameterField* find_parameter_field(std::string_view name) {
  for (const ParameterField& field : kParameterFields)
    if (name == field.name) return &field;
  return nullptr;
}

}  // namespace nvp::core
