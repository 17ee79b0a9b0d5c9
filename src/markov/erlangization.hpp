#pragma once

#include <cstddef>

#include "src/linalg/dense_matrix.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/petri/reachability.hpp"

namespace nvp::markov {

/// Erlangization reference for an MRGP stationary solve: replace each
/// deterministic delay tau by an Erlang(k, k / tau) phase clock, which
/// turns the whole model into a plain CTMC over (state, phase) pairs, and
/// solve that CTMC's stationary distribution through the standard sparse
/// path. Phase bookkeeping:
///
///  * exponential moves inside the enabling set keep the running phase
///    (enabling memory: the clock does not reset while d stays enabled);
///  * any move out of the set — and any entry into a deterministic group —
///    lands in phase 0 (the clock starts fresh on enabling);
///  * completing phase k-1 fires d through its firing distribution.
///
/// As k grows the Erlang clock concentrates on tau and the marginal over
/// phases converges to the subordinated-MRGP answer at O(1/k). The point
/// is INDEPENDENCE, not accuracy: this path shares no code with the
/// uniformization-based embedded-chain construction (no omega rows, no
/// conversion factors, no Poisson tables at horizon tau), so agreement
/// within the O(1/k) envelope is strong evidence against a systematic bug
/// in either. A test reference (ErlangizationTest); far too expensive (k
/// times the states) to be a production backend.
///
/// `stages` is k (>= 1); the inner CTMC solve runs the default fallback
/// chain. Returns the stationary distribution marginalized back onto the
/// tangible states.
linalg::Vector erlangization_stationary(
    const petri::TangibleReachabilityGraph& g, const AssemblyPlan& plan,
    std::size_t stages);

}  // namespace nvp::markov
