// String helpers shared by the JSON parser and report printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace calculon {

[[nodiscard]] std::vector<std::string> Split(std::string_view s, char sep);
[[nodiscard]] std::string_view Trim(std::string_view s);
[[nodiscard]] std::string ToLower(std::string_view s);
[[nodiscard]] bool StartsWith(std::string_view s, std::string_view prefix);

// printf-style formatting into a std::string.
[[nodiscard]] std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Whole-string parsers for command-line flag values, shared by
// calculon_cli and calculon-audit: "2x", "" or "abc" throw UsageError
// (util/error.h) naming `flag`, never a silently parsed prefix.
[[nodiscard]] long long ParseIntFlag(const std::string& flag,
                                     const std::string& value);
// Seconds; a value <= 0 is a UsageError too.
[[nodiscard]] double ParseSecondsFlag(const std::string& flag,
                                      const std::string& value);

}  // namespace calculon
