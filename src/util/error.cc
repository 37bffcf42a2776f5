#include "util/error.h"

#include "util/strings.h"
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

std::string ErrorDetail::Text() const {
  if (format_ == nullptr) return text_;
  switch (operands_) {
    case Operands::kNone: return format_;
    case Operands::kInts: return StrFormat(format_, ints_[0], ints_[1]);
    case Operands::kBytes:
      return StrFormat(format_, FormatBytes(bytes_[0]).c_str(),
                       FormatBytes(bytes_[1]).c_str());
  }
  return format_;
}

std::string InfeasibleError::Text() const {
  std::string s;
  for (int i = 0; i < restated; ++i) {
    s += ToString(reason);
    s += ": ";
  }
  s += ToString(reason);
  const std::string text = detail.Text();
  if (!text.empty()) s += ": " + text;
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
