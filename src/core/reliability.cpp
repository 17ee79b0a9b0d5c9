#include "src/core/reliability.hpp"

#include <cmath>
#include <functional>

#include "src/util/contracts.hpp"

namespace nvp::core {

void ReliabilityModel::check_state(int i, int j, int k) const {
  NVP_EXPECTS(i >= 0 && j >= 0 && k >= 0);
  NVP_EXPECTS_MSG(i + j + k == versions(),
                  "state (i, j, k) must sum to the number of versions");
}

double binomial_coefficient(int n, int k) {
  NVP_EXPECTS(n >= 0);
  if (k < 0 || k > n) return 0.0;
  double acc = 1.0;
  // Multiplicative form keeps intermediate values small for our n <= ~60.
  for (int t = 1; t <= k; ++t)
    acc = acc * static_cast<double>(n - k + t) / static_cast<double>(t);
  return acc;
}

// ---------------------------------------------------------------------------
// Paper Appendix A — four-version system, threshold 3 (f = 1), no
// rejuvenation. Reliability defined only for k <= 1.
// ---------------------------------------------------------------------------

PaperFourVersionReliability::PaperFourVersionReliability(double p,
                                                         double p_prime,
                                                         double alpha)
    : p_(p), pp_(p_prime), a_(alpha) {
  NVP_EXPECTS(p >= 0.0 && p <= 1.0);
  NVP_EXPECTS(p_prime >= 0.0 && p_prime <= 1.0);
  NVP_EXPECTS(alpha >= 0.0 && alpha <= 1.0);
}

double PaperFourVersionReliability::state_reliability(int i, int j,
                                                      int k) const {
  check_state(i, j, k);
  if (k > 1) return 0.0;
  const double p = p_, pp = pp_, a = a_;
  // Transcribed verbatim from the paper's Appendix A. Note two expressions
  // that deviate from the rigorous combinatorial count (kept deliberately;
  // they are what produced the paper's numbers):
  //  * R_{2,2,0}: first term p*p'^2 marginalizes the healthy-module error
  //    as p instead of p(2 - alpha);
  //  * R_{0,4,0}: the 3-of-4 coefficient is 3 where C(4,3) = 4.
  if (i == 4 && j == 0) return 1.0 - (p * a * a * a + 4 * p * a * a * (1 - a));
  if (i == 3 && j == 1) return 1.0 - (p * a * a + 3 * p * a * (1 - a) * pp);
  if (i == 3 && j == 0) return 1.0 - p * a * a;
  if (i == 2 && j == 2) return 1.0 - (p * pp * pp + 2 * p * a * pp * (1 - pp));
  if (i == 2 && j == 1) return 1.0 - p * a * pp;
  if (i == 1 && j == 3)
    return 1.0 - (pp * pp * pp + 3 * p * pp * pp * (1 - pp));
  if (i == 1 && j == 2) return 1.0 - p * pp * pp;
  if (i == 0 && j == 4)
    return 1.0 - (pp * pp * pp * pp + 3 * pp * pp * pp * (1 - pp));
  if (i == 0 && j == 3) return 1.0 - pp * pp * pp;
  NVP_ASSERT(false);  // all (i, j) with k <= 1 are covered above
  return 0.0;
}

// ---------------------------------------------------------------------------
// Paper Appendix B — six-version system with rejuvenation, threshold 4
// (f = 1, r = 1). Reliability defined only for k <= 2.
// ---------------------------------------------------------------------------

PaperSixVersionReliability::PaperSixVersionReliability(double p,
                                                       double p_prime,
                                                       double alpha)
    : p_(p), pp_(p_prime), a_(alpha) {
  NVP_EXPECTS(p >= 0.0 && p <= 1.0);
  NVP_EXPECTS(p_prime >= 0.0 && p_prime <= 1.0);
  NVP_EXPECTS(alpha >= 0.0 && alpha <= 1.0);
}

double PaperSixVersionReliability::state_reliability(int i, int j,
                                                     int k) const {
  check_state(i, j, k);
  if (k > 2) return 0.0;
  const double p = p_, pp = pp_, a = a_;
  auto pw = [](double x, int e) { return std::pow(x, e); };
  // Transcribed verbatim from the paper's Appendix B. Expressions deviating
  // from the rigorous count (kept deliberately):
  //  * R_{4,2,0}: first two terms marginalize inconsistently;
  //  * R_{2,4,0}: the term 2p(1-a)p'^4 appears twice and the he[0] branch is
  //    missing;
  //  * R_{2,3,1}: first term uses p'^4 where only three compromised modules
  //    exist (suspected typo for p'^3).
  if (i == 6 && j == 0)
    return 1.0 - (p * pw(a, 5) + 6 * p * pw(a, 4) * (1 - a) +
                  15 * p * pw(a, 3) * pw(1 - a, 2));
  if (i == 5 && j == 1)
    return 1.0 - (p * pw(a, 4) + 5 * p * pw(a, 3) * (1 - a) +
                  10 * p * pw(a, 2) * pw(1 - a, 2) * pp);
  if (i == 5 && j == 0)
    return 1.0 - (p * pw(a, 4) + 5 * p * pw(a, 3) * (1 - a));
  if (i == 4 && j == 2)
    return 1.0 - (p * pw(a, 3) * pw(pp, 2) +
                  2 * p * pw(a, 3) * pp * (1 - pp) +
                  4 * p * pw(a, 2) * (1 - a) * pw(pp, 2) +
                  8 * p * pw(a, 2) * (1 - a) * pp * (1 - pp) +
                  6 * p * a * pw(1 - a, 2) * pw(pp, 2));
  if (i == 4 && j == 1)
    return 1.0 - (p * pw(a, 3) + 4 * p * pw(a, 2) * (1 - a) * pp);
  if (i == 4 && j == 0) return 1.0 - p * pw(a, 3);
  if (i == 3 && j == 3)
    return 1.0 - (p * pw(a, 2) * pw(pp, 3) +
                  3 * p * pw(a, 2) * pw(pp, 2) * (1 - pp) +
                  3 * p * a * (1 - a) * pw(pp, 3) +
                  3 * p * pw(a, 2) * pp * pw(1 - pp, 2) +
                  9 * p * a * (1 - a) * pw(pp, 2) * (1 - pp) +
                  3 * p * pw(1 - a, 2) * pw(pp, 3));
  if (i == 3 && j == 2)
    return 1.0 - (p * pw(a, 2) * pw(pp, 2) +
                  2 * p * pw(a, 2) * pp * (1 - pp) +
                  3 * p * a * (1 - a) * pw(pp, 2));
  if (i == 3 && j == 1) return 1.0 - p * pw(a, 2) * pp;
  if (i == 2 && j == 4)
    return 1.0 - (p * a * pw(pp, 4) + 4 * p * a * pw(pp, 3) * (1 - pp) +
                  2 * p * (1 - a) * pw(pp, 4) +
                  6 * p * a * pw(pp, 2) * pw(1 - pp, 2) +
                  8 * p * (1 - a) * pw(pp, 3) * (1 - pp) +
                  2 * p * (1 - a) * pw(pp, 4));
  if (i == 2 && j == 3)
    return 1.0 - (p * a * pw(pp, 4) + 3 * p * a * pw(pp, 2) * (1 - pp) +
                  2 * p * (1 - a) * pw(pp, 3));
  if (i == 2 && j == 2) return 1.0 - p * a * pw(pp, 2);
  if (i == 1 && j == 5)
    return 1.0 - (pw(pp, 5) + 5 * pw(pp, 4) * (1 - pp) +
                  10 * p * pw(pp, 3) * pw(1 - pp, 2));
  if (i == 1 && j == 4)
    return 1.0 - (pw(pp, 4) + 4 * p * pw(pp, 3) * (1 - pp));
  if (i == 1 && j == 3) return 1.0 - p * pw(pp, 3);
  if (i == 0 && j == 6)
    return 1.0 - (pw(pp, 6) + 6 * pw(pp, 5) * (1 - pp) +
                  15 * pw(pp, 4) * pw(1 - pp, 2));
  if (i == 0 && j == 5)
    return 1.0 - (pw(pp, 5) + 5 * pw(pp, 4) * (1 - pp));
  if (i == 0 && j == 4) return 1.0 - pw(pp, 4);
  NVP_ASSERT(false);  // all (i, j) with k <= 2 are covered above
  return 0.0;
}

// ---------------------------------------------------------------------------
// Generalized model.
// ---------------------------------------------------------------------------

GeneralizedReliability::GeneralizedReliability(int n, VotingScheme voting,
                                               double p, double p_prime,
                                               double alpha, bool strict)
    : n_(n), voting_(voting), p_(p), pp_(p_prime), a_(alpha),
      strict_(strict) {
  NVP_EXPECTS(n >= 1);
  NVP_EXPECTS(voting.n() == n);
  NVP_EXPECTS(p >= 0.0 && p <= 1.0);
  NVP_EXPECTS(p_prime >= 0.0 && p_prime <= 1.0);
  NVP_EXPECTS(alpha >= 0.0 && alpha <= 1.0);
  // The common-cause pmf must be a proper distribution for every i <= n:
  // P(some healthy error) = p (1 - (1-a)^i) / a <= 1 (for a > 0); the
  // worst case is i = n.
  if (alpha > 0.0) {
    const double total =
        p / alpha * (1.0 - std::pow(1.0 - alpha, n));
    NVP_EXPECTS_MSG(total <= 1.0 + 1e-12,
                    "common-cause model needs p(1-(1-a)^n)/a <= 1 "
                    "(p too large for this alpha)");
  } else {
    NVP_EXPECTS_MSG(p * n <= 1.0 + 1e-12,
                    "common-cause model with alpha = 0 needs n p <= 1");
  }
}

double GeneralizedReliability::healthy_error_pmf(int i, int h) const {
  NVP_EXPECTS(i >= 0 && i <= n_);
  NVP_EXPECTS(h >= 0);
  if (h > i) return 0.0;
  if (i == 0) return h == 0 ? 1.0 : 0.0;
  if (h == 0) {
    double some = 0.0;
    for (int m = 1; m <= i; ++m) some += healthy_error_pmf(i, m);
    return std::max(0.0, 1.0 - some);
  }
  // P(a specific subset of size h errs and the others do not) is
  // p a^(h-1) (1-a)^(i-h); multiply by the number of subsets.
  return binomial_coefficient(i, h) * p_ * std::pow(a_, h - 1) *
         std::pow(1.0 - a_, i - h);
}

double GeneralizedReliability::compromised_error_pmf(int j, int c) const {
  NVP_EXPECTS(j >= 0 && j <= n_);
  NVP_EXPECTS(c >= 0);
  if (c > j) return 0.0;
  return binomial_coefficient(j, c) * std::pow(pp_, c) *
         std::pow(1.0 - pp_, j - c);
}

double GeneralizedReliability::state_reliability(int i, int j, int k) const {
  check_state(i, j, k);
  const int t = voting_.threshold();
  if (k > n_ - t) return 0.0;  // the voter can never decide in this state

  if (!strict_) {
    // 1 - P(at least t modules err).
    double p_error = 0.0;
    for (int h = 0; h <= i; ++h) {
      const double ph = healthy_error_pmf(i, h);
      if (ph == 0.0) continue;
      for (int c = std::max(0, t - h); c <= j; ++c)
        p_error += ph * compromised_error_pmf(j, c);
    }
    return 1.0 - p_error;
  }

  // Strict: P(at least t modules answer correctly). Operational modules
  // i + j answer; a module is correct when it does not err.
  double p_correct = 0.0;
  for (int h = 0; h <= i; ++h) {
    const double ph = healthy_error_pmf(i, h);
    if (ph == 0.0) continue;
    for (int c = 0; c <= j; ++c) {
      const int correct = (i - h) + (j - c);
      if (correct >= t) p_correct += ph * compromised_error_pmf(j, c);
    }
  }
  return p_correct;
}

// ---------------------------------------------------------------------------
// Group model: heterogeneous rates/inaccuracies with weighted voting.
// ---------------------------------------------------------------------------

namespace {

/// Slack of the weighted-quota comparisons (weights are arbitrary doubles).
constexpr double kQuotaEps = 1e-9;

}  // namespace

GroupReliabilityModel::GroupReliabilityModel(const SystemParameters& params,
                                             bool strict)
    : alpha_(params.alpha), strict_(strict) {
  params.validate();
  quota_ = params.weighted_quota();
  for (const ModuleGroup& g : params.effective_groups()) {
    Group group;
    group.count = g.count;
    group.p = g.p;
    group.p_prime = g.p_prime;
    group.weight = g.weight;
    // Same properness condition as GeneralizedReliability, per group: the
    // within-group common-cause pmf must be a distribution for every
    // sub-pool size up to the group's count.
    if (alpha_ > 0.0) {
      const double total =
          g.p / alpha_ * (1.0 - std::pow(1.0 - alpha_, g.count));
      NVP_EXPECTS_MSG(total <= 1.0 + 1e-12,
                      "common-cause model needs p(1-(1-a)^n)/a <= 1 per "
                      "group (p too large for this alpha)");
    } else {
      NVP_EXPECTS_MSG(g.p * g.count <= 1.0 + 1e-12,
                      "common-cause model with alpha = 0 needs n p <= 1");
    }
    groups_.push_back(group);
    n_ += g.count;
  }
}

double GroupReliabilityModel::healthy_error_pmf(std::size_t g, int i,
                                                int h) const {
  NVP_EXPECTS(g < groups_.size());
  const Group& group = groups_[g];
  NVP_EXPECTS(i >= 0 && i <= group.count);
  NVP_EXPECTS(h >= 0);
  if (h > i) return 0.0;
  if (i == 0) return h == 0 ? 1.0 : 0.0;
  if (h == 0) {
    double some = 0.0;
    for (int m = 1; m <= i; ++m) some += healthy_error_pmf(g, i, m);
    return std::max(0.0, 1.0 - some);
  }
  return binomial_coefficient(i, h) * group.p * std::pow(alpha_, h - 1) *
         std::pow(1.0 - alpha_, i - h);
}

double GroupReliabilityModel::compromised_error_pmf(std::size_t g, int j,
                                                    int c) const {
  NVP_EXPECTS(g < groups_.size());
  const Group& group = groups_[g];
  NVP_EXPECTS(j >= 0 && j <= group.count);
  NVP_EXPECTS(c >= 0);
  if (c > j) return 0.0;
  return binomial_coefficient(j, c) * std::pow(group.p_prime, c) *
         std::pow(1.0 - group.p_prime, j - c);
}

bool GroupReliabilityModel::decidable(
    const std::vector<GroupState>& state) const {
  NVP_EXPECTS_MSG(state.size() == groups_.size(),
                  "one GroupState per module group required");
  double responding_mass = 0.0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const GroupState& s = state[g];
    NVP_EXPECTS(s.healthy >= 0 && s.compromised >= 0 && s.down >= 0);
    NVP_EXPECTS_MSG(s.healthy + s.compromised + s.down == groups_[g].count,
                    "group state must sum to the group's module count");
    responding_mass += groups_[g].weight * (s.healthy + s.compromised);
  }
  return responding_mass >= quota_ - kQuotaEps;
}

double GroupReliabilityModel::state_reliability(
    const std::vector<GroupState>& state) const {
  // The voter can never decide: too much weight is silent.
  if (!decidable(state)) return 0.0;

  // Exact enumeration of the joint per-group error counts. Groups err
  // independently, so the joint pmf is the product of the per-group pmfs;
  // the recursion accumulates P(wrong weight >= Q) (paper convention) or
  // P(correct weight >= Q) (strict). Group sizes are small (tangible
  // classes of the DSPN), so the product of (i_g+1)(j_g+1) terms stays
  // tiny; iteration order is fixed for bit-reproducible sums.
  double decided = 0.0;
  // Recursive lambda over groups with running probability and mass.
  const std::function<void(std::size_t, double, double)> walk =
      [&](std::size_t g, double prob, double mass) {
        if (prob == 0.0) return;
        if (g == groups_.size()) {
          if (mass >= quota_ - kQuotaEps) decided += prob;
          return;
        }
        const GroupState& s = state[g];
        const double w = groups_[g].weight;
        for (int h = 0; h <= s.healthy; ++h) {
          const double ph = healthy_error_pmf(g, s.healthy, h);
          if (ph == 0.0) continue;
          for (int c = 0; c <= s.compromised; ++c) {
            const double pc = compromised_error_pmf(g, s.compromised, c);
            if (pc == 0.0) continue;
            const double group_mass =
                strict_ ? w * ((s.healthy - h) + (s.compromised - c))
                        : w * (h + c);
            walk(g + 1, prob * ph * pc, mass + group_mass);
          }
        }
      };
  walk(0, 1.0, 0.0);
  return strict_ ? decided : 1.0 - decided;
}

std::vector<GroupState> GroupReliabilityModel::unflatten(
    const std::vector<int>& flat) const {
  NVP_EXPECTS_MSG(flat.size() == 3 * groups_.size(),
                  "flattened group state must carry 3 ints per group");
  std::vector<GroupState> state(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    state[g].healthy = flat[3 * g];
    state[g].compromised = flat[3 * g + 1];
    state[g].down = flat[3 * g + 2];
  }
  return state;
}

double GroupReliabilityModel::state_reliability_flat(
    const std::vector<int>& flat) const {
  return state_reliability(unflatten(flat));
}

bool GroupReliabilityModel::decidable_flat(
    const std::vector<int>& flat) const {
  return decidable(unflatten(flat));
}

std::unique_ptr<GroupReliabilityModel> make_group_reliability_model(
    const SystemParameters& params, RewardConvention convention) {
  return std::make_unique<GroupReliabilityModel>(
      params, convention == RewardConvention::kStrict);
}

std::unique_ptr<ReliabilityModel> paper_verbatim_model(
    const SystemParameters& params, RewardConvention convention) {
  if (convention != RewardConvention::kPaperVerbatim || !params.groups.empty())
    return nullptr;
  if (!params.rejuvenation && params.n_versions == 4 &&
      params.max_faulty == 1)
    return std::make_unique<PaperFourVersionReliability>(
        params.p, params.p_prime, params.alpha);
  if (params.rejuvenation && params.n_versions == 6 &&
      params.max_faulty == 1 && params.max_rejuvenating == 1)
    return std::make_unique<PaperSixVersionReliability>(
        params.p, params.p_prime, params.alpha);
  // No verbatim functions were published for other configurations.
  return nullptr;
}

std::unique_ptr<ReliabilityModel> make_reliability_model(
    const SystemParameters& params, RewardConvention convention) {
  params.validate();
  if (auto verbatim = paper_verbatim_model(params, convention))
    return verbatim;
  const VotingScheme voting =
      params.rejuvenation
          ? VotingScheme::bft_rejuvenating(params.n_versions,
                                           params.max_faulty,
                                           params.max_rejuvenating)
          : VotingScheme::bft(params.n_versions, params.max_faulty);
  return std::make_unique<GeneralizedReliability>(
      params.n_versions, voting, params.p, params.p_prime, params.alpha,
      convention == RewardConvention::kStrict);
}

}  // namespace nvp::core
