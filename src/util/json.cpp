#include "accountnet/util/json.hpp"

#include <cmath>
#include <cstdlib>

namespace accountnet::util {

const JsonValue* JsonValue::get(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_->find(std::string(key));
  return it == object_->end() ? nullptr : &it->second;
}

double JsonValue::get_number(std::string_view key, double def) const {
  const JsonValue* v = get(key);
  return v != nullptr && v->is_number() ? v->as_number() : def;
}

std::string JsonValue::get_string(std::string_view key, const std::string& def) const {
  const JsonValue* v = get(key);
  return v != nullptr && v->is_string() ? v->as_string() : def;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(JsonArray a) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.array_ = std::make_shared<JsonArray>(std::move(a));
  return v;
}

JsonValue JsonValue::make_object(JsonObject o, std::vector<std::string> keys) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.object_ = std::make_shared<JsonObject>(std::move(o));
  v.keys_ = std::make_shared<std::vector<std::string>>(std::move(keys));
  return v;
}

namespace {

struct Parser {
  const char* p;
  const char* end;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  }

  bool eat(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }

  bool literal(const char* lit) {
    const char* q = p;
    while (*lit != '\0') {
      if (q >= end || *q != *lit) return false;
      ++q;
      ++lit;
    }
    p = q;
    return true;
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (p >= end || *p != '"') return false;
    ++p;
    out.clear();
    while (p < end) {
      const unsigned char c = static_cast<unsigned char>(*p);
      if (c == '"') {
        ++p;
        return true;
      }
      if (c == '\\') {
        ++p;
        if (p >= end) return false;
        switch (*p) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            // \uXXXX: decode to UTF-8; surrogate pairs are passed through as
            // two 3-byte sequences (artifacts never carry astral planes).
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              ++p;
              if (p >= end) return false;
              const char h = *p;
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            if (cp < 0x80) {
              out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
              out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default: return false;
        }
        ++p;
      } else if (c < 0x20) {
        return false;  // raw control characters are invalid in JSON strings
      } else {
        out.push_back(static_cast<char>(c));
        ++p;
      }
    }
    return false;  // unterminated
  }

  bool parse_number(double& out) {
    const char* start = p;
    if (p < end && *p == '-') ++p;
    if (p >= end) return false;
    if (*p == '0') {
      ++p;
    } else if (*p >= '1' && *p <= '9') {
      while (p < end && *p >= '0' && *p <= '9') ++p;
    } else {
      return false;
    }
    if (p < end && *p == '.') {
      ++p;
      if (p >= end || *p < '0' || *p > '9') return false;
      while (p < end && *p >= '0' && *p <= '9') ++p;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
      ++p;
      if (p < end && (*p == '+' || *p == '-')) ++p;
      if (p >= end || *p < '0' || *p > '9') return false;
      while (p < end && *p >= '0' && *p <= '9') ++p;
    }
    const std::string num(start, p);
    char* parsed_end = nullptr;
    out = std::strtod(num.c_str(), &parsed_end);
    return parsed_end == num.c_str() + num.size() && std::isfinite(out);
  }

  bool parse_value(JsonValue& out, std::size_t depth) {
    if (depth > kJsonMaxDepth) return false;
    skip_ws();
    if (p >= end) return false;
    switch (*p) {
      case '{': {
        ++p;
        JsonObject obj;
        std::vector<std::string> keys;
        skip_ws();
        if (eat('}')) {
          out = JsonValue::make_object(std::move(obj), std::move(keys));
          return true;
        }
        do {
          std::string key;
          if (!parse_string(key)) return false;
          if (!eat(':')) return false;
          JsonValue v;
          if (!parse_value(v, depth + 1)) return false;
          if (obj.insert_or_assign(key, std::move(v)).second) {
            keys.push_back(std::move(key));
          }
        } while (eat(','));
        if (!eat('}')) return false;
        out = JsonValue::make_object(std::move(obj), std::move(keys));
        return true;
      }
      case '[': {
        ++p;
        JsonArray arr;
        skip_ws();
        if (eat(']')) {
          out = JsonValue::make_array(std::move(arr));
          return true;
        }
        do {
          JsonValue v;
          if (!parse_value(v, depth + 1)) return false;
          arr.push_back(std::move(v));
        } while (eat(','));
        if (!eat(']')) return false;
        out = JsonValue::make_array(std::move(arr));
        return true;
      }
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue::make_string(std::move(s));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        out = JsonValue::make_bool(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        out = JsonValue::make_bool(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        out = JsonValue::make_null();
        return true;
      default: {
        double d = 0;
        if (!parse_number(d)) return false;
        out = JsonValue::make_number(d);
        return true;
      }
    }
  }
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text) {
  Parser parser{text.data(), text.data() + text.size()};
  JsonValue v;
  if (!parser.parse_value(v, 0)) return std::nullopt;
  parser.skip_ws();
  if (parser.p != parser.end) return std::nullopt;  // trailing garbage
  return v;
}

}  // namespace accountnet::util
