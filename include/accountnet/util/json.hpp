// Minimal recursive-descent JSON parser for the repo's own artifacts.
//
// Consumers: tools/benchdiff (BENCH_*.json rows), tools/accountnet-top
// (daemon /status and /timeseries responses), obs::TimeSeriesScraper
// (reloading dumped trajectories) and obs::load_spans_jsonl (span dumps).
// The grammar is full JSON; the
// implementation is deliberately small and fail-closed:
//
//   * parse() returns nullopt on ANY malformed input — no partial values,
//     no exceptions on hostile bytes (daemon responses cross a real socket).
//   * Depth is bounded (kMaxDepth) so a hostile "[[[[..." cannot blow the
//     stack.
//   * Numbers are doubles (the artifacts never need 64-bit-exact integers
//     above 2^53; timestamps in µs fit until year ~2255).
//
// This is a parsing utility, not a serializer: writers in this repo compose
// JSON by hand (obs/sink.hpp) so field order stays a stable, diffable part
// of the format.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace accountnet::util {

class JsonValue;
using JsonObject = std::map<std::string, JsonValue>;  // sorted, deterministic
using JsonArray = std::vector<JsonValue>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const JsonArray& as_array() const { return *array_; }
  const JsonObject& as_object() const { return *object_; }
  /// Object member names in document order (as_object() iterates them
  /// name-sorted). A repeated name keeps its first position; like
  /// as_object(), it holds the last value.
  const std::vector<std::string>& keys() const { return *keys_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* get(std::string_view key) const;
  /// Typed conveniences over get(); fall back to `def` on absence/mismatch.
  double get_number(std::string_view key, double def = 0.0) const;
  std::string get_string(std::string_view key, const std::string& def = "") const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(JsonArray a);
  static JsonValue make_object(JsonObject o, std::vector<std::string> keys);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
  std::shared_ptr<std::vector<std::string>> keys_;
};

/// Parses one complete JSON document (leading/trailing whitespace allowed);
/// nullopt on any syntax error, trailing garbage, or depth > kMaxDepth.
std::optional<JsonValue> json_parse(std::string_view text);

inline constexpr std::size_t kJsonMaxDepth = 64;

}  // namespace accountnet::util
