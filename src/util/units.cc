#include "util/units.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace calculon {
namespace {

using Suffixes = std::array<const char*, 6>;
constexpr Suffixes kBinarySuffixes = {"", "Ki", "Mi", "Gi", "Ti", "Pi"};
constexpr Suffixes kDecimalSuffixes = {"", "K", "M", "G", "T", "P"};

// Appends `value` in the largest unit that keeps it below `base` (or in the
// last one), as printf's "%.4g <suffix><unit>": the standard defines
// to_chars with chars_format::general and precision 4 as %.4g in the "C"
// locale. The one formatter of every scaled quantity.
void AppendScaled(std::string& out, double value, double base,
                  const Suffixes& suffixes, const char* unit) {
  double scaled = value;
  std::size_t idx = 0;
  while (std::fabs(scaled) >= base && idx + 1 < suffixes.size()) {
    scaled /= base;
    ++idx;
  }
  char buf[32];  // "-1.234e+308" is 11 characters
  out.append(buf, std::to_chars(buf, buf + sizeof buf, scaled,
                                std::chars_format::general, 4)
                      .ptr);
  out += ' ';
  out += suffixes[idx];
  out += unit;
}

std::string FormatScaled(double value, double base, const Suffixes& suffixes,
                         const char* unit) {
  std::string out;
  AppendScaled(out, value, base, suffixes, unit);
  return out;
}

}  // namespace

std::string FormatBytes(double bytes) {
  return FormatScaled(bytes, 1024.0, kBinarySuffixes, "B");
}

void AppendBytes(std::string& out, Bytes bytes) {
  AppendScaled(out, bytes.raw(), 1024.0, kBinarySuffixes, "B");
}

std::string FormatBandwidth(double bytes_per_s) {
  return FormatScaled(bytes_per_s, 1000.0, kDecimalSuffixes, "B/s");
}

std::string FormatFlops(double flops_per_s) {
  return FormatScaled(flops_per_s, 1000.0, kDecimalSuffixes, "flop/s");
}

std::string FormatFlopCount(double flops) {
  return FormatScaled(flops, 1000.0, kDecimalSuffixes, "flop");
}

std::string FormatTime(double seconds) {
  char buf[64];
  const double abs = std::fabs(seconds);
  if (abs >= 1.0 || abs == 0.0) {
    std::snprintf(buf, sizeof(buf), "%.4g s", seconds);
  } else if (abs >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.4g ms", seconds * 1e3);
  } else if (abs >= 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.4g us", seconds * 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g ns", seconds * 1e9);
  }
  return buf;
}

std::string FormatBytes(Bytes bytes) { return FormatBytes(bytes.raw()); }

std::string FormatBandwidth(BytesPerSecond rate) {
  return FormatBandwidth(rate.raw());
}

std::string FormatFlops(FlopsPerSecond rate) { return FormatFlops(rate.raw()); }

std::string FormatFlopCount(Flops flops) { return FormatFlopCount(flops.raw()); }

std::string FormatTime(Seconds seconds) { return FormatTime(seconds.raw()); }

std::string FormatNumber(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits + 3, value);
  // %.Ng already trims trailing zeros in most cases; re-format via %f when
  // the value is in a "plain" range for stable table output.
  if (std::fabs(value) >= 1e-3 && std::fabs(value) < 1e7) {
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    std::string s = buf;
    if (s.find('.') != std::string::npos) {
      while (!s.empty() && s.back() == '0') s.pop_back();
      if (!s.empty() && s.back() == '.') s.pop_back();
    }
    return s;
  }
  return buf;
}

std::string FormatPercent(double fraction, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", digits, fraction * 100.0);
  return buf;
}

}  // namespace calculon
