#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nvp::service::wire {

/// Parsed JSON value for the service protocol: the read-side counterpart of
/// obs::JsonWriter. A deliberately small recursive-descent parser — objects,
/// arrays, strings (with the RFC 8259 escapes), doubles, bools, null —
/// sufficient for protocol requests and for tools that re-read their own
/// JSON output (loadgen merging BENCH_service.json sections). Object member
/// order is preserved so re-emission is stable.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member by key; nullptr when absent or not an object.
  const Value* get(std::string_view key) const;

  /// Typed accessor with a fallback.
  bool as_bool(bool fallback = false) const {
    return is_bool() ? boolean : fallback;
  }

  /// Member lookup + typed access in one step.
  double number_or(std::string_view key, double fallback) const;
  std::uint64_t u64_or(std::string_view key, std::uint64_t fallback) const;
  std::string string_or(std::string_view key,
                        const std::string& fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;
};

/// Parses one JSON document (the whole input must be consumed apart from
/// trailing whitespace). Returns nullopt and fills `*error` (when non-null)
/// with a one-line position-tagged message on malformed input. Nesting depth
/// is bounded so hostile input cannot overflow the stack.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

/// Re-emits a Value as compact JSON (object member order preserved). Numbers
/// round-trip through obs::JsonWriter's shortest-representation formatting.
std::string dump(const Value& value);

}  // namespace nvp::service::wire
