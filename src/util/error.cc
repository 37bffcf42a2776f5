#include "util/error.h"

#include <charconv>
#include <string_view>

#include "util/check.h"
#include "util/units.h"

namespace calculon {

const char* ToString(Infeasible reason) {
  switch (reason) {
    case Infeasible::kNone: return "ok";
    case Infeasible::kBadPartition: return "bad partition";
    case Infeasible::kIndivisibleHeads: return "tp does not divide heads";
    case Infeasible::kIndivisibleBlocks: return "pp does not divide blocks";
    case Infeasible::kIndivisibleBatch: return "dp*microbatch does not divide batch";
    case Infeasible::kIncompatibleOptions: return "incompatible options";
    case Infeasible::kMemoryCapacity: return "insufficient memory capacity";
    case Infeasible::kOffloadCapacity: return "insufficient offload capacity";
    case Infeasible::kNetworkSize: return "communicator exceeds network size";
    case Infeasible::kBadConfig: return "bad configuration";
  }
  return "unknown";
}

void ErrorDetail::AppendTo(std::string& out) const {
  if (format_ == nullptr) {
    out += text_;
    return;
  }
  if (operands_ == Operands::kNone) {
    out += format_;
    return;
  }
  // The constructors take exactly two "%lld" or two "%s" operands; "%s"
  // prints a byte count as FormatBytes does.
  const std::string_view conversion =
      operands_ == Operands::kInts ? "%lld" : "%s";
  std::string_view rest = format_;
  for (int i = 0; i < 2; ++i) {
    const std::size_t at = rest.find('%');
    const bool found = at != std::string_view::npos &&
                       rest.compare(at, conversion.size(), conversion) == 0;
    CALC_DCHECK(found, "ErrorDetail format '%s' needs %s for operand %d",
                format_, conversion.data(), i);
    if (!found) break;
    out += rest.substr(0, at);
    if (operands_ == Operands::kInts) {
      char buf[24];  // "-9223372036854775808" is 20 characters
      out.append(buf, std::to_chars(buf, buf + sizeof buf, ints_[i]).ptr);
    } else {
      AppendBytes(out, bytes_[i]);
    }
    rest.remove_prefix(at + conversion.size());
  }
  CALC_DCHECK(rest.find('%') == std::string_view::npos,
              "ErrorDetail format '%s' has a third conversion", format_);
  out += rest;
}

std::string ErrorDetail::Text() const {
  std::string s;
  AppendTo(s);
  return s;
}

void InfeasibleError::AppendTo(std::string& out) const {
  for (int i = 0; i < restated; ++i) {
    out += ToString(reason);
    out += ": ";
  }
  out += ToString(reason);
  if (detail.empty()) return;
  out += ": ";
  detail.AppendTo(out);
}

std::string InfeasibleError::Text() const {
  std::string s;
  AppendTo(s);
  return s;
}

Infeasible InfeasibleFromString(const std::string& s) {
  static constexpr Infeasible kAll[] = {
      Infeasible::kNone,
      Infeasible::kBadPartition,
      Infeasible::kIndivisibleHeads,
      Infeasible::kIndivisibleBlocks,
      Infeasible::kIndivisibleBatch,
      Infeasible::kIncompatibleOptions,
      Infeasible::kMemoryCapacity,
      Infeasible::kOffloadCapacity,
      Infeasible::kNetworkSize,
      Infeasible::kBadConfig,
  };
  for (Infeasible reason : kAll) {
    if (s == ToString(reason)) return reason;
  }
  throw ConfigError("unknown Infeasible string: '" + s + "'");
}

}  // namespace calculon
