#include "json/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <system_error>

#include "util/fileio.h"
#include "util/strings.h"

namespace calculon::json {

const char* ToString(Type type) {
  switch (type) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

Value::Value(Array a)
    : type_(Type::kArray), arr_(std::make_shared<Array>(std::move(a))) {}
Value::Value(Object o)
    : type_(Type::kObject), obj_(std::make_shared<Object>(std::move(o))) {}

namespace {
[[noreturn]] void TypeMismatch(Type want, Type got) {
  throw ConfigError(StrFormat("json: expected %s, got %s", ToString(want),
                              ToString(got)));
}
[[noreturn]] void NotAnInt64(double d, const char* why) {
  throw ConfigError(StrFormat("json: %g is %s", d, why));
}
}  // namespace

std::uint64_t CountIn(std::int64_t n, const char* field, std::uint64_t max) {
  const auto count = static_cast<std::uint64_t>(n);
  if (n >= 0 && count <= max) return count;
  throw ConfigError(StrFormat("json: %s %lld is outside [0, %llu]", field,
                              static_cast<long long>(n),
                              static_cast<unsigned long long>(max)));
}

bool Value::AsBool() const {
  if (type_ != Type::kBool) TypeMismatch(Type::kBool, type_);
  return bool_;
}

double Value::AsDouble() const {
  if (type_ != Type::kNumber) TypeMismatch(Type::kNumber, type_);
  return num_;
}

std::int64_t Value::AsInt() const {
  if (type_ != Type::kNumber) TypeMismatch(Type::kNumber, type_);
  // The cast is defined only for values inside int64's range, which runs
  // from -2^63 (a double) to just below 2^63: check before casting.
  if (!(num_ >= -0x1p63 && num_ < 0x1p63)) {
    NotAnInt64(num_, "outside the int64 range");
  }
  const auto i = static_cast<std::int64_t>(num_);
  if (static_cast<double>(i) != num_) NotAnInt64(num_, "not an integer");
  return i;
}

const std::string& Value::AsString() const {
  if (type_ != Type::kString) TypeMismatch(Type::kString, type_);
  return str_;
}

const Array& Value::AsArray() const {
  if (type_ != Type::kArray) TypeMismatch(Type::kArray, type_);
  return *arr_;
}

const Object& Value::AsObject() const {
  if (type_ != Type::kObject) TypeMismatch(Type::kObject, type_);
  return *obj_;
}

Array& Value::AsArray() {
  if (type_ != Type::kArray) TypeMismatch(Type::kArray, type_);
  if (arr_.use_count() > 1) arr_ = std::make_shared<Array>(*arr_);
  return *arr_;
}

Object& Value::AsObject() {
  if (type_ != Type::kObject) TypeMismatch(Type::kObject, type_);
  if (obj_.use_count() > 1) obj_ = std::make_shared<Object>(*obj_);
  return *obj_;
}

const Value& Value::at(const std::string& key) const {
  const Object& obj = AsObject();
  auto it = obj.find(key);
  if (it == obj.end()) {
    throw ConfigError(StrFormat("json: missing key '%s'", key.c_str()));
  }
  return it->second;
}

bool Value::contains(const std::string& key) const {
  return is_object() && obj_->count(key) > 0;
}

bool Value::GetBool(const std::string& key, bool def) const {
  return contains(key) ? at(key).AsBool() : def;
}
double Value::GetDouble(const std::string& key, double def) const {
  return contains(key) ? at(key).AsDouble() : def;
}
std::int64_t Value::GetInt(const std::string& key, std::int64_t def) const {
  return contains(key) ? at(key).AsInt() : def;
}
std::string Value::GetString(const std::string& key, std::string def) const {
  return contains(key) ? at(key).AsString() : def;
}

Value& Value::operator[](const std::string& key) {
  if (type_ == Type::kNull) {
    type_ = Type::kObject;
    obj_ = std::make_shared<Object>();
  }
  return AsObject()[key];
}

bool operator==(const Value& a, const Value& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Type::kNull: return true;
    case Type::kBool: return a.bool_ == b.bool_;
    case Type::kNumber: return a.num_ == b.num_;
    case Type::kString: return a.str_ == b.str_;
    case Type::kArray: return *a.arr_ == *b.arr_;
    case Type::kObject: return *a.obj_ == *b.obj_;
  }
  return false;
}

// Runs of bytes that need no escape are copied in one append each.
void AppendEscaped(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // start of the pending run of plain bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xf]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

namespace {

// Integral values below 1e15 print as integers, everything else as %.17g
// (lossless). The range is checked before the cast, which is undefined for
// values an int64 cannot hold.
void AppendNumber(std::string& out, double d) {
  if (!std::isfinite(d)) {
    throw ConfigError(
        StrFormat("json: cannot serialize the non-finite number %g", d));
  }
  char buf[32];  // "-1.2345678901234567e-308" is 24 characters
  const std::to_chars_result r =
      std::fabs(d) < 1e15 && d == std::trunc(d)
          ? std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(d))
          : std::to_chars(buf, buf + sizeof buf, d,
                          std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

// "\n" followed by `indent * depth` spaces: the line break before a
// container element (depth + 1) or its closing bracket (depth).
void AppendNewline(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

void Value::AppendTo(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: AppendNumber(out, num_); break;
    case Type::kString: AppendEscaped(out, str_); break;
    case Type::kArray: {
      if (arr_->empty()) {
        out += "[]";
        break;
      }
      out += '[';
      bool first = true;
      for (const Value& v : *arr_) {
        if (!first) out += ',';
        if (indent > 0) {
          AppendNewline(out, indent, depth + 1);
        } else if (!first) {
          out += ' ';
        }
        v.AppendTo(out, indent, depth + 1);
        first = false;
      }
      if (indent > 0) AppendNewline(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (obj_->empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : *obj_) {
        if (!first) out += ',';
        if (indent > 0) {
          AppendNewline(out, indent, depth + 1);
        } else if (!first) {
          out += ' ';
        }
        AppendEscaped(out, k);
        out += ": ";
        v.AppendTo(out, indent, depth + 1);
        first = false;
      }
      if (indent > 0) AppendNewline(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Value::Dump(int indent) const {
  std::string out;
  AppendTo(out, indent, 0);
  return out;
}

namespace {

// Containers deeper than this are rejected. The parser recurses per nesting
// level, so unbounded depth would let a hostile spec file overflow the
// stack; real Calculon configs nest three or four levels.
constexpr int kMaxDepth = 128;

// Recursive-descent parser with line/column error reporting.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value ParseDocument() {
    Value v = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& msg) const {
    int line = 1;
    int col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw ConfigError(
        StrFormat("json parse error at %d:%d: %s", line, col, msg.c_str()));
  }

  [[nodiscard]] bool AtEnd() const { return pos_ >= text_.size(); }
  [[nodiscard]] char Peek() const { return AtEnd() ? '\0' : text_[pos_]; }
  char Next() {
    if (AtEnd()) Fail("unexpected end of input");
    return text_[pos_++];
  }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (!AtEnd() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  void Expect(char c) {
    if (Peek() != c) Fail(StrFormat("expected '%c'", c));
    ++pos_;
  }

  Value ParseValue() {
    SkipWhitespace();
    switch (Peek()) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '\0':
        if (AtEnd()) Fail("unexpected end of input");
        [[fallthrough]];
      case '"': return Value(ParseString());
      case 't': ParseLiteral("true"); return Value(true);
      case 'f': ParseLiteral("false"); return Value(false);
      case 'n': ParseLiteral("null"); return Value(nullptr);
      default: return ParseNumber();
    }
  }

  void ParseLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      Fail(StrFormat("expected '%.*s'", static_cast<int>(lit.size()),
                     lit.data()));
    }
    pos_ += lit.size();
  }

  Value ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-' || Peek() == '+') ++pos_;
    bool has_digits = false;
    auto eat_digits = [&] {
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
        has_digits = true;
      }
    };
    eat_digits();
    if (Peek() == '.') {
      ++pos_;
      eat_digits();
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '-' || Peek() == '+') ++pos_;
      has_digits = false;  // the exponent needs its own digits
      eat_digits();
    }
    if (!has_digits) Fail("invalid number");
    // from_chars takes no '+'. On overflow or underflow it reports
    // out-of-range and leaves the value alone; strtod then rounds the token
    // to +-HUGE_VAL, zero or a subnormal, as the parser always has.
    const char* first = text_.data() + start + (text_[start] == '+' ? 1 : 0);
    const char* last = text_.data() + pos_;
    double d = 0.0;
    const std::from_chars_result r = std::from_chars(first, last, d);
    if (r.ec != std::errc() || r.ptr != last) {
      d = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    return Value(d);
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote or backslash in one append.
      std::size_t end = pos_;
      while (end < text_.size() && text_[end] != '"' && text_[end] != '\\') {
        ++end;
      }
      out.append(text_.data() + pos_, end - pos_);
      pos_ = end;
      if (Next() == '"') break;
      // A backslash: one escape sequence.
      switch (Next()) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = Next();
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else Fail("invalid \\u escape");
          }
          // Encode the code point as UTF-8 (BMP only; surrogate pairs are
          // passed through as replacement bytes, which spec files never use).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: Fail("invalid escape");
      }
    }
    return out;
  }

  Value ParseArray() {
    Expect('[');
    if (++depth_ > kMaxDepth) Fail("nesting too deep");
    Array arr;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      --depth_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        SkipWhitespace();
        if (Peek() == ']') {  // trailing comma
          ++pos_;
          break;
        }
        continue;
      }
      Expect(']');
      break;
    }
    --depth_;
    return Value(std::move(arr));
  }

  Value ParseObject() {
    Expect('{');
    if (++depth_ > kMaxDepth) Fail("nesting too deep");
    Object obj;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      --depth_;
      return Value(std::move(obj));
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      // Duplicate keys are almost always a config-file editing mistake;
      // last-one-wins would silently drop the earlier value.
      if (obj.count(key) > 0) Fail("duplicate key '" + key + "'");
      obj[std::move(key)] = ParseValue();
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        SkipWhitespace();
        if (Peek() == '}') {  // trailing comma
          ++pos_;
          break;
        }
        continue;
      }
      Expect('}');
      break;
    }
    --depth_;
    return Value(std::move(obj));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value Parse(std::string_view text) { return Parser(text).ParseDocument(); }

Value ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return Parse(ss.str());
}

void WriteFile(const std::string& path, const Value& value, int indent) {
  // Atomic (temp + rename): a crash mid-write never leaves a torn
  // document at `path`, which checkpoint journals rely on.
  WriteFileAtomic(path, value.Dump(indent) + '\n');
}

}  // namespace calculon::json
