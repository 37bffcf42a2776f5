// Unit helpers: byte quantities (IEC and SI), rates, and human-readable
// formatting used throughout the model and its report printers.
//
// The formatters are a report-format boundary of the dimensional-safety
// policy (util/quantity.h): the typed overloads are the preferred entry
// points; the raw-double overloads remain for values that are already
// outside the type system (JSON round-trips, table cells).
#pragma once

#include <cstdint>
#include <string>

#include "util/quantity.h"

namespace calculon {

// IEC (binary) byte units.
constexpr double kKiB = 1024.0;
constexpr double kMiB = 1024.0 * kKiB;
constexpr double kGiB = 1024.0 * kMiB;
constexpr double kTiB = 1024.0 * kGiB;

// SI (decimal) units, used for bandwidths and FLOP rates.
constexpr double kKilo = 1e3;
constexpr double kMega = 1e6;
constexpr double kGiga = 1e9;
constexpr double kTera = 1e12;
constexpr double kPeta = 1e15;

// Formats a byte count with a binary suffix, e.g. "17.4 GiB".
[[nodiscard]] std::string FormatBytes(double bytes);  // unit-ok: format boundary
[[nodiscard]] std::string FormatBytes(Bytes bytes);
// Appends FormatBytes(bytes) to `out`, for text built in place
// (ErrorDetail::AppendTo).
void AppendBytes(std::string& out, Bytes bytes);

// Formats a bytes-per-second rate with a decimal suffix, e.g. "593 GB/s".
[[nodiscard]] std::string FormatBandwidth(double bytes_per_s);  // unit-ok: format boundary
[[nodiscard]] std::string FormatBandwidth(BytesPerSecond rate);

// Formats a FLOP/s rate, e.g. "312 Tflop/s".
[[nodiscard]] std::string FormatFlops(double flops_per_s);  // unit-ok: format boundary
[[nodiscard]] std::string FormatFlops(FlopsPerSecond rate);

// Formats a FLOP count, e.g. "232 Gflop".
[[nodiscard]] std::string FormatFlopCount(double flops);  // unit-ok: format boundary
[[nodiscard]] std::string FormatFlopCount(Flops flops);

// Formats a duration in seconds with an adaptive unit, e.g. "16.7 s",
// "231 ms", "4.2 us".
[[nodiscard]] std::string FormatTime(double seconds);  // unit-ok: format boundary
[[nodiscard]] std::string FormatTime(Seconds seconds);

// Formats a plain double with `digits` significant decimals, trimming
// trailing zeros ("16.70" -> "16.7").
[[nodiscard]] std::string FormatNumber(double value, int digits = 3);

// Formats a ratio as a percentage, e.g. 0.2934 -> "29.3%".
[[nodiscard]] std::string FormatPercent(double fraction, int digits = 1);

}  // namespace calculon
