// One-line JSON objects for the benchmark's stdout protocol.
//
// Doubles print with 17 significant digits so a value read back by run.py
// is bit-identical to the one computed here; the traced-run equivalence
// check compares them with ==.
#pragma once

#include <cstdio>
#include <string>
#include <type_traits>

namespace dcpim::perfbench {

class JsonObject {
 public:
  template <typename T>
    requires std::is_arithmetic_v<T>
  JsonObject& add(const char* key, T value) {
    char buf[64];
    if constexpr (std::is_floating_point_v<T>) {
      std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(value));
    } else if constexpr (std::is_signed_v<T>) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    } else {
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(value));
    }
    return add_raw(key, buf);
  }

  JsonObject& add(const char* key, const std::string& value) {
    return add_raw(key, "\"" + value + "\"");  // keys and values are plain
  }

  JsonObject& add(const char* key, const JsonObject& value) {
    return add_raw(key, value.str());
  }

  /// Tag for a value that is already JSON text (e.g. an array).
  struct Raw {};
  JsonObject& add(const char* key, const std::string& json, Raw /*tag*/) {
    return add_raw(key, json);
  }

  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& add_raw(const char* key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }

  std::string body_;
};

}  // namespace dcpim::perfbench
