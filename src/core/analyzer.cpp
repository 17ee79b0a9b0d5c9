#include "src/core/analyzer.hpp"

#include "src/core/staged.hpp"

namespace nvp::core {

AnalysisResult ReliabilityAnalyzer::analyze(
    const SystemParameters& params) const {
  return staged_analyze(params, options_);
}

AnalysisResult ReliabilityAnalyzer::analyze(
    const SystemParameters& params, const ReliabilityModel& rewards) const {
  return staged_analyze(params, options_, rewards);
}

}  // namespace nvp::core
