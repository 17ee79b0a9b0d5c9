#include "src/obs/json.hpp"

#include <cmath>
#include <cstdio>

namespace nvp::obs {

void JsonWriter::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (need_comma_.empty()) return;
  if (need_comma_.back()) out_ += ',';
  need_comma_.back() = true;
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  need_comma_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  need_comma_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  comma();
  out_ += escape(name);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();
  comma();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma();
  out_ += escape(v);
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  return *this;
}

std::string JsonWriter::escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  out += '"';
  for (unsigned char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace nvp::obs
