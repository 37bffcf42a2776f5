// Lightweight status/result types.
//
// Infeasible configurations are the common case when sweeping the execution
// space (the paper reports only ~18% of GPT-3 strategies are feasible), so
// the model reports them through a cheap status value instead of exceptions.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace calculon {

// Why a configuration cannot run. Order matters only for reporting.
enum class Infeasible {
  kNone = 0,
  kBadPartition,      // t*p*d != processor count, or degrees out of range
  kIndivisibleHeads,  // tensor parallelism does not divide attention heads
  kIndivisibleBlocks, // pipeline parallelism / interleaving does not divide
                      // the transformer block count
  kIndivisibleBatch,  // batch not divisible by data parallelism * microbatch
  kIncompatibleOptions, // mutually exclusive execution options
  kMemoryCapacity,    // tier-1 memory requirement exceeds capacity
  kOffloadCapacity,   // tier-2 memory requirement exceeds capacity
  kNetworkSize,       // a communicator does not fit any network
  kBadConfig,         // malformed application/system/execution description
};

[[nodiscard]] const char* ToString(Infeasible reason);

// Inverse of ToString: parses the exact strings ToString produces.
// Throws ConfigError on anything else, so serialized reasons (checkpoints,
// failure records) round-trip losslessly.
[[nodiscard]] Infeasible InfeasibleFromString(const std::string& s);

// Minimal expected-like result: either a value or an Infeasible reason with
// an optional human-readable detail string. The class is [[nodiscard]]:
// with -Werror=unused-result, dropping a returned Result does not compile.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Infeasible reason, std::string detail = {})
      : data_(Error{reason, std::move(detail)}) {}

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(data_); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const T& value() const& {
    if (!ok()) throw std::logic_error("Result::value() on error: " + detail());
    return std::get<T>(data_);
  }
  [[nodiscard]] T& value() & {
    if (!ok()) throw std::logic_error("Result::value() on error: " + detail());
    return std::get<T>(data_);
  }
  [[nodiscard]] T&& value() && {
    if (!ok()) throw std::logic_error("Result::value() on error: " + detail());
    return std::get<T>(std::move(data_));
  }

  // Value if ok, otherwise `fallback` — the safe accessor for sweep code
  // that treats an infeasible point as a neutral default instead of risking
  // a value()-on-error throw.
  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? std::get<T>(data_) : std::move(fallback);
  }
  [[nodiscard]] T value_or(T fallback) && {
    return ok() ? std::get<T>(std::move(data_)) : std::move(fallback);
  }

  [[nodiscard]] Infeasible reason() const {
    return ok() ? Infeasible::kNone : std::get<Error>(data_).reason;
  }
  [[nodiscard]] std::string detail() const {
    if (ok()) return {};
    const Error& e = std::get<Error>(data_);
    std::string s = ToString(e.reason);
    if (!e.detail.empty()) s += ": " + e.detail;
    return s;
  }

 private:
  struct Error {
    Infeasible reason;
    std::string detail;
  };
  std::variant<T, Error> data_;
};

// Thrown for programmer/config errors that are not part of the modeled
// search space (e.g. malformed JSON, unknown preset names).
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

// A malformed command line (unknown flag, missing or malformed value).
// The CLIs exit 2 on it (docs/robustness.md §5).
class UsageError : public ConfigError {
 public:
  using ConfigError::ConfigError;
};

}  // namespace calculon
