#include "src/core/sensitivity.hpp"

#include <algorithm>
#include <cmath>

#include "src/core/sweep.hpp"
#include "src/obs/trace.hpp"
#include "src/util/contracts.hpp"
#include "src/util/string_util.hpp"
#include "src/util/table.hpp"

namespace nvp::core {

double SensitivityEntry::swing() const {
  return std::fabs(value_up - value_down);
}

namespace {

struct Knob {
  const char* name;
  double SystemParameters::*field;
  bool rejuvenation_only;
  bool is_probability;
};

using SP = SystemParameters;
const Knob kKnobs[] = {
    {"alpha", &SP::alpha, false, true},
    {"p", &SP::p, false, true},
    {"p'", &SP::p_prime, false, true},
    {"1/lambda_c", &SP::mean_time_to_compromise, false, false},
    {"1/lambda", &SP::mean_time_to_failure, false, false},
    {"1/mu", &SP::mean_time_to_repair, false, false},
    {"1/gamma", &SP::rejuvenation_interval, true, false},
    {"rejuv duration", &SP::rejuvenation_duration, true, false},
};

}  // namespace

std::vector<SensitivityEntry> sensitivity_report(
    const ReliabilityAnalyzer& analyzer, const SystemParameters& base,
    double relative_step) {
  NVP_EXPECTS(relative_step > 0.0 && relative_step < 1.0);
  const obs::ScopedSpan span("core.sensitivity");
  base.validate();
  // One strict batch [center, down_1, up_1, ...] (a SensitivityEntry has no
  // error envelope). The center runs first and warms the staged structure
  // cache: every knob perturbs a timing or reward parameter, so all the
  // perturbed points reuse the explored reachability structure.
  struct Perturbation {
    const Knob* knob;
    double theta, lo, hi;
  };
  std::vector<Perturbation> work;
  std::vector<SystemParameters> points{base};
  for (const Knob& knob : kKnobs) {
    if (knob.rejuvenation_only && !base.rejuvenation) continue;
    const double theta = base.*knob.field;
    if (theta == 0.0) continue;  // relative perturbation undefined

    Perturbation p{&knob, theta, theta * (1.0 - relative_step),
                   theta * (1.0 + relative_step)};
    if (knob.is_probability) p.hi = std::min(p.hi, 1.0);
    points.emplace_back(base).*knob.field = p.lo;
    points.emplace_back(base).*knob.field = p.hi;
    work.push_back(p);
  }
  const std::vector<PointResult> values =
      analyze_points(analyzer, points, fault::Policy{true});
  const double center = values[0].expected_reliability;
  NVP_EXPECTS_MSG(center > 0.0, "sensitivity needs a nonzero baseline");

  std::vector<SensitivityEntry> report(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    const Perturbation& p = work[i];
    SensitivityEntry& entry = report[i];
    entry.parameter = p.knob->name;
    entry.base_value = p.theta;
    entry.value_down = values[2 * i + 1].expected_reliability;
    entry.value_up = values[2 * i + 2].expected_reliability;
    const double dtheta = (p.hi - p.lo) / p.theta;
    entry.elasticity =
        dtheta > 0.0
            ? ((entry.value_up - entry.value_down) / center) / dtheta
            : 0.0;
  }
  std::sort(report.begin(), report.end(),
            [](const SensitivityEntry& a, const SensitivityEntry& b) {
              return a.swing() > b.swing();
            });
  return report;
}

std::string render_tornado(const std::vector<SensitivityEntry>& report) {
  util::TextTable table({"parameter", "base", "E[R] at -10%", "E[R] at +10%",
                         "elasticity"});
  for (const auto& entry : report)
    table.row({entry.parameter, util::format("%.4g", entry.base_value),
               util::format("%.6f", entry.value_down),
               util::format("%.6f", entry.value_up),
               util::format("%+.4f", entry.elasticity)});
  return table.render();
}

}  // namespace nvp::core
