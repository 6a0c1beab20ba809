#include "obs/json.h"

#include <cctype>
#include <sstream>

namespace spire::obs {

namespace {

/// Recursive-descent parser over one string_view. Depth-limited so a
/// corrupt file cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    auto value = ParseValue(0);
    if (!value.ok()) return value.status();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& message) const {
    return Status::Corruption("json: " + message + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"':
        return ParseString();
      case 't':
      case 'f':
        return ParseBool();
      case 'n':
        return ParseNull();
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
        return Error(std::string("unexpected character '") + c + "'");
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return value;
    for (;;) {
      SkipWhitespace();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' in object");
      auto member = ParseValue(depth + 1);
      if (!member.ok()) return member.status();
      value.object.emplace_back(std::move(key.value().text),
                                std::move(member).value());
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return value;
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return value;
    for (;;) {
      auto element = ParseValue(depth + 1);
      if (!element.ok()) return element.status();
      value.array.push_back(std::move(element).value());
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return value;
      return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    JsonValue value;
    value.type = JsonValue::Type::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return value;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        value.text.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': value.text.push_back('"'); break;
        case '\\': value.text.push_back('\\'); break;
        case '/': value.text.push_back('/'); break;
        case 'b': value.text.push_back('\b'); break;
        case 'f': value.text.push_back('\f'); break;
        case 'n': value.text.push_back('\n'); break;
        case 'r': value.text.push_back('\r'); break;
        case 't': value.text.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return Error("bad \\u escape");
            }
          }
          // The checkers only need validity, not codepoint decoding: keep
          // the escape verbatim so serialization reproduces it.
          value.text.append("\\u");
          value.text.append(text_.substr(pos_, 4));
          pos_ += 4;
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    const std::size_t start = pos_;
    if (Consume('-')) {
    }
    if (!ConsumeDigits()) return Error("expected digits in number");
    if (Consume('.')) {
      if (!ConsumeDigits()) return Error("expected fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!ConsumeDigits()) return Error("expected exponent digits");
    }
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.text = std::string(text_.substr(start, pos_ - start));
    return value;
  }

  bool ConsumeDigits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  Result<JsonValue> ParseBool() {
    JsonValue value;
    value.type = JsonValue::Type::kBool;
    if (text_.substr(pos_, 4) == "true") {
      value.bool_value = true;
      pos_ += 4;
      return value;
    }
    if (text_.substr(pos_, 5) == "false") {
      value.bool_value = false;
      pos_ += 5;
      return value;
    }
    return Error("expected 'true' or 'false'");
  }

  Result<JsonValue> ParseNull() {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return JsonValue{};
    }
    return Error("expected 'null'");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void SerializeInto(std::ostream& out, const JsonValue& value) {
  switch (value.type) {
    case JsonValue::Type::kNull:
      out << "null";
      break;
    case JsonValue::Type::kBool:
      out << (value.bool_value ? "true" : "false");
      break;
    case JsonValue::Type::kNumber:
      out << value.text;
      break;
    case JsonValue::Type::kString:
      out << '"';
      EscapeInto(out, value.text);
      out << '"';
      break;
    case JsonValue::Type::kArray: {
      out << '[';
      for (std::size_t i = 0; i < value.array.size(); ++i) {
        if (i > 0) out << ',';
        SerializeInto(out, value.array[i]);
      }
      out << ']';
      break;
    }
    case JsonValue::Type::kObject: {
      out << '{';
      for (std::size_t i = 0; i < value.object.size(); ++i) {
        if (i > 0) out << ',';
        out << '"';
        EscapeInto(out, value.object[i].first);
        out << "\":";
        SerializeInto(out, value.object[i].second);
      }
      out << '}';
      break;
    }
  }
}

}  // namespace

void EscapeInto(std::ostream& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\b': out << "\\b"; break;
      case '\f': out << "\\f"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default: out << c;
    }
  }
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, member] : object) {
    if (name == key) return &member;
  }
  return nullptr;
}

std::string JsonValue::Serialize() const {
  std::ostringstream out;
  SerializeInto(out, *this);
  return out.str();
}

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace spire::obs
