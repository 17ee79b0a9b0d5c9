#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace nvp::fault {

/// Failure taxonomy shared by every layer of the analysis stack. Each
/// category maps to a distinct recovery policy: singular-matrix and
/// no-convergence failures are retryable through the solver fallback chain,
/// deadline-exceeded means the attempt was cut off (retry with a cheaper
/// stage), invalid-model is a caller error no retry can fix, and resource
/// covers allocation / task-dispatch failures outside the numerics.
enum class Category {
  kSingularMatrix,    ///< direct factorization hit a (numerically) singular pivot
  kNoConvergence,     ///< an iterative method exhausted its budget or stalled
  kDeadlineExceeded,  ///< an attempt overran its wall-clock bound
  kInvalidModel,      ///< the input model violates a solver precondition
  kResource,          ///< allocation / dispatch / capacity failure
  kInternal,          ///< anything else (contract violations, unknown throws)
};

/// "singular-matrix" / "no-convergence" / "deadline-exceeded" /
/// "invalid-model" / "resource" / "internal".
const char* to_string(Category category);

/// Structured context attached to an Error: where the failure happened and
/// the numeric state of the computation at the time. Every field is
/// optional; unset numeric fields keep their sentinel.
struct Context {
  std::string site;           ///< code site, e.g. "linalg.lu", "markov.gmres"
  std::string backend;        ///< "dense" / "sparse"; empty = not solver-bound
  std::size_t states = 0;     ///< problem size (tangible states / rows)
  std::size_t iteration = 0;  ///< iterations completed when the attempt died
  double residual = -1.0;     ///< last residual; < 0 = unknown
  std::string detail;         ///< free-form ("injected", parameter point, ...)
  /// Messages of aggregated sub-failures — exhausted fallback stages or
  /// the exceptions of several pool workers — in occurrence order.
  std::vector<std::string> causes;
};

/// The structured exception of the stack. what() renders the message plus
/// the category tag and any populated context fields, so an unhandled Error
/// is diagnosable from the terminating message alone; handlers branch on
/// category() instead of parsing strings.
class Error : public std::runtime_error {
 public:
  Error(Category category, const std::string& message, Context context = {});

  Category category() const noexcept { return category_; }
  const Context& context() const noexcept { return context_; }

 private:
  Category category_;
  Context context_;
};

/// Closest category for an arbitrary exception: an Error reports its own,
/// known legacy types (std::bad_alloc, std::invalid_argument, ...) map to
/// the obvious bucket, everything else is kInternal.
Category category_of(const std::exception& e) noexcept;

/// Value-type snapshot of a failure for per-point result envelopes:
/// copyable, default-constructible, no exception semantics. A degraded
/// sweep/optimizer point carries one of these instead of aborting the run.
struct ErrorInfo {
  Category category = Category::kInternal;
  std::string message;             ///< the exception's what()
  std::string site;                ///< Error context site when available
  std::size_t states = 0;          ///< Error context states when available
  std::vector<std::string> causes; ///< Error context causes when available

  static ErrorInfo from(const std::exception& e);
  /// Snapshot of the in-flight exception; call from inside a catch block.
  static ErrorInfo from_current_exception();

  /// "<category>: <message>" one-liner for tables / CLI output.
  std::string summary() const;
};

/// How batch drivers react to a failing point. The default (graceful)
/// records an ErrorInfo envelope on the failed point and keeps going;
/// strict restores fail-fast by rethrowing the first failure.
struct Policy {
  bool strict = false;
};

}  // namespace nvp::fault
