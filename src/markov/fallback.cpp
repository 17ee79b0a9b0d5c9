#include "src/markov/fallback.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/fault/error.hpp"
#include "src/fault/injector.hpp"
#include "src/linalg/dense_matrix.hpp"
#include "src/linalg/iterative.hpp"
#include "src/linalg/lu.hpp"
#include "src/linalg/operator.hpp"
#include "src/markov/ctmc.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/contracts.hpp"

namespace nvp::markov {

using linalg::Vector;

namespace {

constexpr std::size_t kStageCount = 5;
constexpr const char* kStageNames[kStageCount] = {
    "gmres-ilu0", "gmres-jacobi", "power", "dense", "mfree"};
constexpr const char* kStageSpans[kStageCount] = {
    "markov.fallback.gmres_ilu0", "markov.fallback.gmres_jacobi",
    "markov.fallback.power", "markov.fallback.dense",
    "markov.fallback.mfree"};

obs::Counter& stage_attempts(FallbackStage stage) {
  static obs::Counter* counters[kStageCount] = {
      &obs::Registry::global().counter(
          "markov.fallback.attempts.gmres_ilu0"),
      &obs::Registry::global().counter(
          "markov.fallback.attempts.gmres_jacobi"),
      &obs::Registry::global().counter("markov.fallback.attempts.power"),
      &obs::Registry::global().counter("markov.fallback.attempts.dense"),
      &obs::Registry::global().counter("markov.fallback.attempts.mfree")};
  return *counters[static_cast<std::size_t>(stage)];
}

obs::Counter& stage_successes(FallbackStage stage) {
  static obs::Counter* counters[kStageCount] = {
      &obs::Registry::global().counter(
          "markov.fallback.success.gmres_ilu0"),
      &obs::Registry::global().counter(
          "markov.fallback.success.gmres_jacobi"),
      &obs::Registry::global().counter("markov.fallback.success.power"),
      &obs::Registry::global().counter("markov.fallback.success.dense"),
      &obs::Registry::global().counter("markov.fallback.success.mfree")};
  return *counters[static_cast<std::size_t>(stage)];
}

/// A stationary vector is plausible when it is finite and free of
/// significantly negative entries — the acceptance test the historic GMRES
/// path applied before trusting a converged Krylov solution.
bool plausible(const Vector& x) {
  for (double v : x)
    if (!std::isfinite(v) || v < -1e-8) return false;
  return true;
}

Vector clamp_and_normalize(Vector x) {
  for (double& v : x) v = std::max(v, 0.0);
  linalg::normalize_l1(x);
  return x;
}

struct Attempt {
  std::optional<Vector> x;   ///< set on success
  std::string failure;       ///< set on failure
  bool deadline = false;     ///< the failure was the attempt deadline
};

/// Renders the shared Krylov failure modes of a gmres() result.
Attempt gmres_failure(const linalg::IterativeResult& res) {
  Attempt attempt;
  attempt.deadline = res.deadline_exceeded;
  attempt.failure =
      res.deadline_exceeded
          ? "deadline exceeded after " + std::to_string(res.iterations) +
                " iterations (residual " + std::to_string(res.residual) +
                ")"
      : res.converged
          ? "implausible solution (residual " +
                std::to_string(res.residual) + ")"
          : "stalled at residual " + std::to_string(res.residual) +
                " after " + std::to_string(res.iterations) + " iterations";
  return attempt;
}

Attempt run_stage(FallbackStage stage, const StationaryProblem& problem,
                  double deadline_seconds) {
  Attempt attempt;
  switch (stage) {
    case FallbackStage::kGmresIlu0:
    case FallbackStage::kGmresJacobi: {
      if (problem.balance == nullptr || problem.rhs == nullptr) {
        // Matrix-free problem: no entries to precondition on. Hand the
        // chain to the next rung rather than refusing the whole solve.
        attempt.failure = "no assembled balance system (matrix-free problem)";
        return attempt;
      }
      linalg::GmresOptions opts;
      opts.preconditioner = stage == FallbackStage::kGmresIlu0
                                ? linalg::PreconditionerKind::kIlu0
                                : linalg::PreconditionerKind::kJacobi;
      opts.deadline_seconds = deadline_seconds;
      auto res = linalg::gmres(*problem.balance, *problem.rhs, opts);
      if (res.converged && plausible(res.x)) {
        attempt.x = clamp_and_normalize(std::move(res.x));
        return attempt;
      }
      return gmres_failure(res);
    }
    case FallbackStage::kMatrixFree: {
      if (problem.rhs == nullptr ||
          (problem.balance_op == nullptr && problem.balance == nullptr)) {
        attempt.failure = "no balance operator or assembled system";
        return attempt;
      }
      if (fault::fire(fault::Site::kMatrixFree)) {
        // Injected operator failure: the same observable outcome as a
        // stalled matrix-free Krylov solve.
        attempt.failure = "injected operator failure";
        return attempt;
      }
      // Prefer the problem's native operator; wrap the assembled matrix
      // when only that exists so `mfree` is a valid rung everywhere.
      std::optional<linalg::CsrOperator> wrapped;
      const linalg::LinearOperator* op = problem.balance_op;
      if (op == nullptr) {
        wrapped.emplace(*problem.balance);
        op = &*wrapped;
      }
      linalg::GmresOptions opts;
      opts.deadline_seconds = deadline_seconds;
      auto res = linalg::gmres(*op, *problem.rhs, opts);
      if (res.converged && plausible(res.x)) {
        attempt.x = clamp_and_normalize(std::move(res.x));
        return attempt;
      }
      return gmres_failure(res);
    }
    case FallbackStage::kPowerIteration: {
      linalg::IterativeOptions opts;
      opts.tolerance = 1e-14;
      opts.deadline_seconds = deadline_seconds;
      linalg::IterativeResult res;
      if (problem.stochastic != nullptr) {
        const linalg::SparseMatrixCsr p = problem.stochastic();
        res = linalg::stationary_power_iteration(p, opts);
      } else if (problem.transfer_op != nullptr) {
        res = linalg::stationary_power_iteration(*problem.transfer_op, opts);
      } else {
        attempt.failure = "no stochastic matrix or transfer operator";
        return attempt;
      }
      if (res.converged) {
        attempt.x = std::move(res.x);
        return attempt;
      }
      attempt.deadline = res.deadline_exceeded;
      attempt.failure =
          res.deadline_exceeded
              ? "deadline exceeded after " + std::to_string(res.iterations) +
                    " iterations"
              : "stalled at drift " + std::to_string(res.residual) +
                    " after " + std::to_string(res.iterations) + " iterations";
      return attempt;
    }
    case FallbackStage::kDenseLu: {
      if (problem.balance == nullptr || problem.rhs == nullptr) {
        attempt.failure = "no assembled balance system (matrix-free problem)";
        return attempt;
      }
      // The oracle: densify the balance system and LU-solve it — the same
      // arithmetic as the dense backend's direct method.
      const std::size_t n = problem.states;
      linalg::DenseMatrix a(n, n, 0.0);
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t k = problem.balance->row_begin(r);
             k < problem.balance->row_end(r); ++k)
          a(r, problem.balance->col_index(k)) += problem.balance->value(k);
      Vector x = linalg::LuDecomposition(std::move(a)).solve(*problem.rhs);
      if (plausible(x)) {
        attempt.x = clamp_and_normalize(std::move(x));
        return attempt;
      }
      attempt.failure = "implausible dense LU solution";
      return attempt;
    }
  }
  attempt.failure = "unknown fallback stage";
  return attempt;
}

}  // namespace

const char* to_string(FallbackStage stage) {
  const std::size_t i = static_cast<std::size_t>(stage);
  return i < kStageCount ? kStageNames[i] : "?";
}

std::vector<FallbackStage> FallbackOptions::default_stages() {
  return {FallbackStage::kGmresIlu0, FallbackStage::kGmresJacobi,
          FallbackStage::kPowerIteration, FallbackStage::kDenseLu};
}

std::vector<FallbackStage> parse_fallback_stages(std::string_view spec) {
  std::vector<FallbackStage> stages;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view name = spec.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    pos = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (name.empty()) continue;
    bool found = false;
    for (std::size_t i = 0; i < kStageCount; ++i) {
      if (name == kStageNames[i]) {
        stages.push_back(static_cast<FallbackStage>(i));
        found = true;
        break;
      }
    }
    if (!found)
      throw std::invalid_argument(
          "unknown fallback stage '" + std::string(name) +
          "' (expected gmres-ilu0|gmres-jacobi|power|dense|mfree)");
  }
  if (stages.empty())
    throw std::invalid_argument("empty fallback chain");
  return stages;
}

std::string to_string(const std::vector<FallbackStage>& stages) {
  std::string out;
  for (const FallbackStage stage : stages) {
    if (!out.empty()) out += ',';
    out += to_string(stage);
  }
  return out;
}

Vector solve_stationary_chain(const StationaryProblem& problem,
                              const FallbackOptions& options) {
  NVP_EXPECTS_MSG(problem.balance != nullptr || problem.balance_op != nullptr ||
                      problem.stochastic != nullptr ||
                      problem.transfer_op != nullptr,
                  "stationary problem has no system representation");
  NVP_EXPECTS(problem.balance == nullptr ||
              (problem.rhs != nullptr &&
               problem.states == problem.balance->rows()));
  NVP_EXPECTS(problem.balance_op == nullptr ||
              (problem.rhs != nullptr &&
               problem.states == problem.balance_op->rows()));
  NVP_EXPECTS_MSG(!options.stages.empty(), "empty fallback chain");

  static obs::Counter& recovered =
      obs::Registry::global().counter("markov.fallback.recovered");
  static obs::Counter& exhausted =
      obs::Registry::global().counter("markov.fallback.exhausted");

  std::vector<std::string> causes;
  bool all_deadline = true;
  for (std::size_t i = 0; i < options.stages.size(); ++i) {
    const FallbackStage stage = options.stages[i];
    stage_attempts(stage).add();
    const obs::ScopedSpan span(
        kStageSpans[static_cast<std::size_t>(stage)]);
    Attempt attempt;
    try {
      attempt = run_stage(stage, problem, options.attempt_deadline_seconds);
    } catch (const std::exception& e) {
      attempt.failure = e.what();
    }
    if (attempt.x) {
      stage_successes(stage).add();
      if (i > 0) recovered.add();
      return std::move(*attempt.x);
    }
    all_deadline = all_deadline && attempt.deadline;
    causes.push_back(std::string(to_string(stage)) + ": " + attempt.failure);
  }

  exhausted.add();
  fault::Context context;
  context.site = "markov.fallback";
  // A problem that holds only operators came from the matrix-free backend.
  context.backend =
      problem.balance == nullptr && problem.stochastic == nullptr ? "mfree"
                                                                  : "sparse";
  context.states = problem.states;
  context.causes = std::move(causes);
  throw SolverError(
      std::string(problem.what) + ": all " +
          std::to_string(options.stages.size()) + " fallback stages failed",
      all_deadline ? fault::Category::kDeadlineExceeded
                   : fault::Category::kNoConvergence,
      std::move(context));
}

}  // namespace nvp::markov
