#include "src/fault/error.hpp"

#include <new>
#include <sstream>

#include "src/obs/metrics.hpp"

namespace nvp::fault {

namespace {

std::string render_what(Category category, const std::string& message,
                        const Context& context) {
  std::ostringstream out;
  out << message << " [" << to_string(category);
  if (!context.site.empty()) out << " at " << context.site;
  if (!context.backend.empty()) out << ", backend=" << context.backend;
  if (context.states > 0) out << ", states=" << context.states;
  if (context.iteration > 0) out << ", iteration=" << context.iteration;
  if (context.residual >= 0.0) out << ", residual=" << context.residual;
  if (!context.detail.empty()) out << ", " << context.detail;
  out << "]";
  for (const std::string& cause : context.causes)
    out << "\n  caused by: " << cause;
  return out.str();
}

obs::Counter& category_counter(Category category) {
  // One counter per category so manifests report the failure mix.
  auto& registry = obs::Registry::global();
  switch (category) {
    case Category::kSingularMatrix: {
      static obs::Counter& c = registry.counter("fault.errors.singular_matrix");
      return c;
    }
    case Category::kNoConvergence: {
      static obs::Counter& c = registry.counter("fault.errors.no_convergence");
      return c;
    }
    case Category::kDeadlineExceeded: {
      static obs::Counter& c =
          registry.counter("fault.errors.deadline_exceeded");
      return c;
    }
    case Category::kInvalidModel: {
      static obs::Counter& c = registry.counter("fault.errors.invalid_model");
      return c;
    }
    case Category::kResource: {
      static obs::Counter& c = registry.counter("fault.errors.resource");
      return c;
    }
    case Category::kInternal:
      break;
  }
  static obs::Counter& c = registry.counter("fault.errors.internal");
  return c;
}

}  // namespace

const char* to_string(Category category) {
  switch (category) {
    case Category::kSingularMatrix:
      return "singular-matrix";
    case Category::kNoConvergence:
      return "no-convergence";
    case Category::kDeadlineExceeded:
      return "deadline-exceeded";
    case Category::kInvalidModel:
      return "invalid-model";
    case Category::kResource:
      return "resource";
    case Category::kInternal:
      return "internal";
  }
  return "?";
}

Error::Error(Category category, const std::string& message, Context context)
    : std::runtime_error(render_what(category, message, context)),
      category_(category),
      context_(std::move(context)) {
  category_counter(category_).add();
}

Category category_of(const std::exception& e) noexcept {
  if (const auto* err = dynamic_cast<const Error*>(&e)) return err->category();
  if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr)
    return Category::kResource;
  if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr ||
      dynamic_cast<const std::domain_error*>(&e) != nullptr)
    return Category::kInvalidModel;
  return Category::kInternal;
}

ErrorInfo ErrorInfo::from(const std::exception& e) {
  ErrorInfo info;
  info.category = category_of(e);
  info.message = e.what();
  if (const auto* err = dynamic_cast<const Error*>(&e)) {
    info.site = err->context().site;
    info.states = err->context().states;
    info.causes = err->context().causes;
  }
  return info;
}

ErrorInfo ErrorInfo::from_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return from(e);
  } catch (...) {
    ErrorInfo info;
    info.category = Category::kInternal;
    info.message = "non-standard exception";
    return info;
  }
}

std::string ErrorInfo::summary() const {
  std::string out = to_string(category);
  out += ": ";
  // Keep the one-liner to the first line of a multi-line what().
  const std::size_t eol = message.find('\n');
  out += eol == std::string::npos ? message : message.substr(0, eol);
  return out;
}

}  // namespace nvp::fault
