// Minimal self-contained JSON value, parser and serializer.
//
// Calculon (like the original tool) describes applications, systems and
// execution strategies in JSON specification files; this module is the
// substrate that loads and saves them. It supports the full JSON grammar
// plus two conveniences used by hand-written spec files: '//' line comments
// and trailing commas.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace calculon::json {

class Value;

using Array = std::vector<Value>;
// std::map keeps serialization deterministic (sorted keys).
using Object = std::map<std::string, Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

[[nodiscard]] const char* ToString(Type type);

// A JSON document node with value semantics.
class Value {
 public:
  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}             // NOLINT
  Value(bool b) : type_(Type::kBool), bool_(b) {}           // NOLINT
  Value(double d) : type_(Type::kNumber), num_(d) {}        // NOLINT
  Value(int i) : type_(Type::kNumber), num_(i) {}           // NOLINT
  Value(std::int64_t i)                                     // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Value(const char* s) : type_(Type::kString), str_(s) {}   // NOLINT
  Value(std::string s)                                      // NOLINT
      : type_(Type::kString), str_(std::move(s)) {}
  Value(Array a);                                           // NOLINT
  Value(Object o);                                          // NOLINT

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors; throw ConfigError on type mismatch.
  [[nodiscard]] bool AsBool() const;
  [[nodiscard]] double AsDouble() const;
  [[nodiscard]] std::int64_t AsInt() const;
  [[nodiscard]] const std::string& AsString() const;
  [[nodiscard]] const Array& AsArray() const;
  [[nodiscard]] const Object& AsObject() const;
  [[nodiscard]] Array& AsArray();
  [[nodiscard]] Object& AsObject();

  // Object field access. `at` throws on a missing key; the `Get*` helpers
  // return the provided default when the key is absent (but still throw on a
  // present key of the wrong type, to catch config typos loudly).
  [[nodiscard]] const Value& at(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] bool GetBool(const std::string& key, bool def) const;
  [[nodiscard]] double GetDouble(const std::string& key, double def) const;
  [[nodiscard]] std::int64_t GetInt(const std::string& key,
                                    std::int64_t def) const;
  [[nodiscard]] std::string GetString(const std::string& key,
                                      std::string def) const;

  Value& operator[](const std::string& key);  // object auto-vivification

  [[nodiscard]] std::string Dump(int indent = 0) const;

  friend bool operator==(const Value& a, const Value& b);

 private:
  void AppendTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  // Indirection keeps Value small and allows the recursive type.
  std::shared_ptr<Array> arr_;
  std::shared_ptr<Object> obj_;
};

// `n`, the decoded value of `field`, as a count or index: a ConfigError
// names the field when `n` is negative or above `max`.
[[nodiscard]] std::uint64_t CountIn(std::int64_t n, const char* field,
                                    std::uint64_t max = INT64_MAX);

// Appends `s` as a JSON string literal, exactly as Dump renders a string
// value: '"', '\\', control bytes and nothing else escaped.
void AppendEscaped(std::string& out, std::string_view s);

// Parses a complete JSON document. Throws ConfigError with a line/column
// message on malformed input.
[[nodiscard]] Value Parse(std::string_view text);

// File helpers.
[[nodiscard]] Value ParseFile(const std::string& path);
void WriteFile(const std::string& path, const Value& value, int indent = 2);

}  // namespace calculon::json
