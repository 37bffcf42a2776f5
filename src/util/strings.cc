#include "util/strings.h"

#include <cstdarg>
#include <cstdio>
#include <exception>

#include "util/error.h"

namespace calculon {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t end = s.find(sep, start);
    if (end == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  const char* ws = " \t\r\n";
  const std::size_t b = s.find_first_not_of(ws);
  if (b == std::string_view::npos) return {};
  const std::size_t e = s.find_last_not_of(ws);
  return s.substr(b, e - b + 1);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::uint64_t Fnv1a(std::uint64_t h, std::string_view s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

long long ParseIntFlag(const std::string& flag, const std::string& value,
                       long long min, long long max) {
  long long n = 0;
  std::size_t used = 0;  // stays 0 when stoll throws
  try {
    n = std::stoll(value, &used);
  } catch (const std::exception&) {
  }
  if (used == 0 || used != value.size()) {
    throw UsageError(flag + " expects an integer, got '" + value + "'");
  }
  if (n < min || n > max) {
    throw UsageError(StrFormat("%s must be in [%lld, %lld], got %lld",
                               flag.c_str(), min, max, n));
  }
  return n;
}

double ParseSecondsFlag(const std::string& flag, const std::string& value) {
  try {
    std::size_t used = 0;
    const double secs = std::stod(value, &used);
    if (used == value.size() && secs > 0.0 && secs <= kMaxSeconds) {
      return secs;
    }
  } catch (const std::exception&) {
  }
  throw UsageError(flag + " expects seconds in (0, 1e9], got '" + value +
                   "'");
}

}  // namespace calculon
