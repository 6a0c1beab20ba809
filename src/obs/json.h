// A minimal JSON reader for the observability self-checks.
//
// Parses a full JSON document into a small DOM. Numbers keep their raw
// source text (ids in this codebase exceed 2^53, so a double would corrupt
// them); serialization re-emits exactly that text, which makes
// parse -> serialize -> parse a faithful round-trip test. Used by
// tests/obs_test.cc (trace-file well-formedness), `spire_cli obscheck`
// (the CI obs smoke step), and nothing on any hot path. Its string escaper,
// EscapeInto, is shared with the explain log's JSONL writer (obs/explain).
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace spire::obs {

/// One parsed JSON value. Object member order is preserved.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  /// Raw number text for kNumber; decoded string value for kString.
  std::string text;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool operator==(const JsonValue&) const = default;

  /// First member with `key`, or nullptr (objects only).
  const JsonValue* Find(std::string_view key) const;

  /// Re-renders the value as compact JSON (numbers verbatim).
  std::string Serialize() const;
};

/// Parses one complete JSON document; trailing non-whitespace is an error.
Result<JsonValue> ParseJson(std::string_view text);

/// Writes `text` as the body of a JSON string literal (no quotes), escaping
/// `"`, `\`, and the \b \f \n \r \t control characters.
void EscapeInto(std::ostream& out, std::string_view text);

}  // namespace spire::obs
