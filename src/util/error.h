// Lightweight status/result types.
//
// Infeasible configurations are the common case when sweeping the execution
// space (the paper reports only ~18% of GPT-3 strategies are feasible), so
// the model reports them through a cheap status value instead of exceptions.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "util/quantity.h"

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

// The explanation of an infeasible Result, kept as a format literal and its
// typed operands until read: a sweep rejects most of the candidates it
// evaluates and reads the explanation of almost none. Literals are kept by
// pointer, so only arrays (string literals) are accepted; text computed at
// the error site is passed as a std::string.
class ErrorDetail {
 public:
  ErrorDetail() = default;
  template <std::size_t N>
  ErrorDetail(const char (&literal)[N])  // NOLINT: implicit by design
      : format_(literal) {}
  ErrorDetail(std::string text)  // NOLINT: implicit by design
      : text_(std::move(text)) {}
  // A printf format with two integer operands ("%lld").
  template <std::size_t N>
  ErrorDetail(const char (&format)[N], long long a, long long b)
      : format_(format), operands_(Operands::kInts), ints_{a, b} {}
  // A printf format with two "%s" operands, byte counts printed by
  // FormatBytes (util/units.h).
  template <std::size_t N>
  ErrorDetail(const char (&format)[N], Bytes a, Bytes b)
      : format_(format), operands_(Operands::kBytes), bytes_{a, b} {}

  // Formats the explanation ("" for none).
  [[nodiscard]] std::string Text() const;

 private:
  enum class Operands : unsigned char { kNone, kInts, kBytes };
  const char* format_ = nullptr;
  std::string text_;
  Operands operands_ = Operands::kNone;
  long long ints_[2] = {0, 0};
  Bytes bytes_[2];
};

// Why a Result holds no value: the reason and its unformatted explanation.
struct InfeasibleError {
  Infeasible reason = Infeasible::kNone;
  ErrorDetail detail;
  // How many callers forwarded this error as `Result(reason, detail())`,
  // each putting the reason in front once more; Text() repeats it so.
  int restated = 0;

  // This error as such a forwarding caller reports it.
  [[nodiscard]] InfeasibleError Restated() const {
    InfeasibleError e = *this;
    ++e.restated;
    return e;
  }
  // "reason[: detail]", after `restated` "reason: " prefixes.
  [[nodiscard]] std::string Text() const;
};

// Minimal expected-like result: either a value or an InfeasibleError. The
// class is [[nodiscard]]: with -Werror=unused-result, dropping a returned
// Result does not compile.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Infeasible reason, ErrorDetail detail = {})
      : data_(InfeasibleError{reason, std::move(detail)}) {}
  // Forwards another Result's error (Result<U>::error()) unformatted.
  Result(InfeasibleError error)  // NOLINT: implicit by design
      : data_(std::move(error)) {}

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
    return ok() ? Infeasible::kNone : std::get<InfeasibleError>(data_).reason;
  }
  [[nodiscard]] const InfeasibleError& error() const {
    if (ok()) throw std::logic_error("Result::error() on a value");
    return std::get<InfeasibleError>(data_);
  }
  // The explanation, formatted on each call: "reason[: detail]".
  [[nodiscard]] std::string detail() const {
    return ok() ? std::string() : std::get<InfeasibleError>(data_).Text();
  }

 private:
  std::variant<T, InfeasibleError> data_;
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
