// String helpers shared by the JSON parser and report printers.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace calculon {

[[nodiscard]] std::vector<std::string> Split(std::string_view s, char sep);
[[nodiscard]] std::string_view Trim(std::string_view s);
[[nodiscard]] std::string ToLower(std::string_view s);
[[nodiscard]] bool StartsWith(std::string_view s, std::string_view prefix);

// 64-bit FNV-1a: folds `s` into the running hash `h`; start from
// kFnv1aOffsetBasis. Study and audit checkpoint fingerprints and
// calculon-lint's finding fingerprints are built on it, so its values are
// part of the on-disk formats.
inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;
[[nodiscard]] std::uint64_t Fnv1a(std::uint64_t h, std::string_view s);

// printf-style formatting into a std::string.
[[nodiscard]] std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Whole-string parsers for command-line flag values, shared by
// calculon_cli and calculon-audit: "2x", "" or "abc" throw UsageError
// (util/error.h) naming `flag`, never a silently parsed prefix. So does an
// integer outside [min, max], never a value narrowed to its destination.
[[nodiscard]] long long ParseIntFlag(
    const std::string& flag, const std::string& value,
    long long min = std::numeric_limits<long long>::min(),
    long long max = std::numeric_limits<long long>::max());
// The most seconds a deadline, timeout or injected hang may last: 1e9 s
// is 1e18 ns, which every clock here holds, so nothing built from it
// overflows.
inline constexpr double kMaxSeconds = 1e9;
// Seconds in (0, kMaxSeconds]; anything else, "inf" included, is a
// UsageError too.
[[nodiscard]] double ParseSecondsFlag(const std::string& flag,
                                      const std::string& value);

}  // namespace calculon
