#include "src/service/wire.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "src/obs/json.hpp"
#include "src/util/string_util.hpp"

namespace nvp::service::wire {

const Value* Value::get(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : object)
    if (name == key) return &value;
  return nullptr;
}

double Value::number_or(std::string_view key, double fallback) const {
  const Value* v = get(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::uint64_t Value::u64_or(std::string_view key,
                            std::uint64_t fallback) const {
  const Value* v = get(key);
  if (v == nullptr || !v->is_number() || v->number < 0.0) return fallback;
  return static_cast<std::uint64_t>(v->number);
}

std::string Value::string_or(std::string_view key,
                             const std::string& fallback) const {
  const Value* v = get(key);
  return v != nullptr && v->is_string() ? v->string : fallback;
}

bool Value::bool_or(std::string_view key, bool fallback) const {
  const Value* v = get(key);
  return v != nullptr && v->is_bool() ? v->boolean : fallback;
}

namespace {

/// Nesting bound: protocol requests are a few levels deep; anything deeper
/// is hostile or broken input, and a fixed cap keeps the recursive parser
/// safe from stack exhaustion.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(std::string* error) {
    Value value;
    if (!parse_value(value, 0)) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    return value;
  }

 private:
  bool fail(const std::string& what) {
    if (error_.empty())
      error_ = util::format("json: %s at offset %zu", what.c_str(), pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      return fail(util::format("expected '%.*s'",
                               static_cast<int>(word.size()), word.data()));
    pos_ += word.size();
    return true;
  }

  bool parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out.type = Value::Type::kString;
        return parse_string(out.string);
      case 't':
        out.type = Value::Type::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.type = Value::Type::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.type = Value::Type::kNull;
        return literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(Value& out, int depth) {
    out.type = Value::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected object key string");
      if (!parse_string(key)) return false;
      skip_ws();
      if (!eat(':')) return fail("expected ':' after object key");
      Value value;
      if (!parse_value(value, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(Value& out, int depth) {
    out.type = Value::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      Value value;
      if (!parse_value(value, depth + 1)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (!append_unicode_escape(out)) return false;
          break;
        }
        default:
          return fail("invalid escape sequence");
      }
    }
    return fail("unterminated string");
  }

  /// \uXXXX (with surrogate pairs) encoded back to UTF-8.
  bool append_unicode_escape(std::string& out) {
    std::uint32_t code = 0;
    if (!read_hex4(code)) return false;
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: require the paired low surrogate.
      if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u')
        return fail("unpaired surrogate in \\u escape");
      pos_ += 2;
      std::uint32_t low = 0;
      if (!read_hex4(low)) return false;
      if (low < 0xDC00 || low > 0xDFFF)
        return fail("invalid low surrogate in \\u escape");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      return fail("unpaired surrogate in \\u escape");
    }
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return true;
  }

  bool read_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9')
        out |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        return fail("invalid hex digit in \\u escape");
    }
    return true;
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (eat('-')) {
    }
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      return fail("invalid value");
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (eat('.')) {
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        return fail("digit required after decimal point");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        return fail("digit required in exponent");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    out.type = Value::Type::kNumber;
    out.number = std::strtod(token.c_str(), nullptr);
    // A literal like 1e999 reads as inf, which no protocol field can use
    // and which JsonWriter could not write back.
    if (!std::isfinite(out.number)) {
      pos_ = start;
      return fail("number out of range");
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

namespace {

void dump_into(const Value& value, obs::JsonWriter& json) {
  switch (value.type) {
    case Value::Type::kNull:
      json.null();
      return;
    case Value::Type::kBool:
      json.value(value.boolean);
      return;
    case Value::Type::kNumber:
      json.value(value.number);
      return;
    case Value::Type::kString:
      json.value(value.string);
      return;
    case Value::Type::kArray:
      json.begin_array();
      for (const Value& element : value.array) dump_into(element, json);
      json.end_array();
      return;
    case Value::Type::kObject:
      json.begin_object();
      for (const auto& [key, member] : value.object) {
        json.key(key);
        dump_into(member, json);
      }
      json.end_object();
      return;
  }
}

}  // namespace

std::string dump(const Value& value) {
  obs::JsonWriter json;
  dump_into(value, json);
  return json.str();
}

}  // namespace nvp::service::wire
