#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nvp::obs {

/// Streaming JSON writer: no DOM, no allocation beyond the output string.
/// The caller drives the structure (begin/end object/array, key, value);
/// commas are inserted automatically. Doubles are emitted with round-trip
/// precision; NaN/Inf (not representable in JSON) become null.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits `"name":` — must be followed by a value or container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& null();

  /// Shorthand for key(name).value(v).
  template <typename T>
  JsonWriter& kv(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  /// The document built so far. Valid JSON once every container is closed.
  const std::string& str() const { return out_; }

  static std::string escape(std::string_view raw);

 private:
  void comma();

  std::string out_;
  std::vector<bool> need_comma_;  // per open container
  bool after_key_ = false;
};

}  // namespace nvp::obs
