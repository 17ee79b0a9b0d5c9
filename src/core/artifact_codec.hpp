#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/analyzer.hpp"
#include "src/core/params.hpp"
#include "src/core/staged.hpp"

namespace nvp::core {

/// Byte codecs between the staged pipeline's artifacts and the persistent
/// solve store's payloads (src/store/). Each payload opens with a per-kind
/// schema tag; decoders throw store::SerializationError on any tag, bound,
/// or cross-field-consistency violation and the disk tier recomputes —
/// exactly like a checksum failure, a payload is either fully trusted or
/// not used at all.
///
/// Bit-identity with cold: rates / reward-table / rewards payloads carry
/// their doubles as exact IEEE-754 bytes, and the structure payload carries
/// only the *symbolic* exploration skeleton — the decoder
/// rebuilds the net from the (key-pinned) parameters and re-pours the rates
/// through TangibleReachabilityGraph::from_structure, the same arithmetic a
/// fresh build() runs.

std::vector<std::uint8_t> encode_structure_artifact(
    const StructureArtifact& artifact);
/// `params` must be the parameter point the store key was derived from; the
/// decoder rebuilds the concrete net from them (structural agreement is
/// fingerprint-checked, throws petri::NetError on mismatch).
std::shared_ptr<const StructureArtifact> decode_structure_artifact(
    const void* data, std::size_t size, const SystemParameters& params);

std::vector<std::uint8_t> encode_rates_artifact(const RatesArtifact& artifact);
std::shared_ptr<const RatesArtifact> decode_rates_artifact(const void* data,
                                                           std::size_t size);

std::vector<std::uint8_t> encode_reward_table(const std::vector<double>& table);
std::shared_ptr<const std::vector<double>> decode_reward_table(
    const void* data, std::size_t size);

std::vector<std::uint8_t> encode_analysis_result(const AnalysisResult& result);
AnalysisResult decode_analysis_result(const void* data, std::size_t size);

}  // namespace nvp::core
