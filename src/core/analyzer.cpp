#include "src/core/analyzer.hpp"

#include <iterator>

#include "src/core/staged.hpp"
#include "src/util/string_util.hpp"

namespace nvp::core {

namespace {

/// Indexed by RewardAttachment.
constexpr const char* kAttachmentNames[] = {"operational", "appendix"};

}  // namespace

std::optional<RewardAttachment> parse_attachment(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kAttachmentNames); ++i)
    if (name == kAttachmentNames[i]) return static_cast<RewardAttachment>(i);
  return std::nullopt;
}

std::string attachment_names() {
  return util::join({std::begin(kAttachmentNames), std::end(kAttachmentNames)},
                    "|");
}

AnalysisResult ReliabilityAnalyzer::analyze(
    const SystemParameters& params) const {
  return staged_analyze(params, options_);
}

AnalysisResult ReliabilityAnalyzer::analyze(
    const SystemParameters& params, const ReliabilityModel& rewards) const {
  return staged_analyze(params, options_, rewards);
}

}  // namespace nvp::core
