#include "testing/fault_injection.h"

#include <charconv>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <thread>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"

namespace calculon::testing {

namespace {

// SplitMix64: a well-mixed 64-bit finalizer. Used as a stateless hash so
// the fault decision for a key is independent of evaluation order.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Uniform [0, 1) from the top 53 bits of the hash.
double UnitUniform(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// `value` read whole as a T in [0, max]; anything else is a ConfigError
// saying the value of `key` must be `what`.
template <typename T>
T ParseValue(const std::string& key, const std::string& value, T max,
             const char* what) {
  T x{};
  const char* const end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, x);
  if (error != std::errc() || stop != end || !(x >= T{0} && x <= max)) {
    throw ConfigError("fault spec: " + key + " must be " + what + ", got '" +
                      value + "'");
  }
  return x;
}

double ParseRate(const std::string& key, const std::string& value) {
  return ParseValue(key, value, 1.0, "a rate in [0, 1]");
}

}  // namespace

FaultPlan FaultPlan::FromSpec(const std::string& spec) {
  FaultPlan plan;
  if (Trim(spec).empty()) return plan;
  for (const std::string& part : Split(spec, ',')) {
    const std::string item(Trim(part));
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("fault spec: expected key=value, got '" + item + "'");
    }
    const std::string key(Trim(item.substr(0, eq)));
    const std::string value(Trim(item.substr(eq + 1)));
    if (key == "seed") {
      plan.seed = ParseValue(key, value, UINT64_MAX, "an integer in [0, 2^64)");
    } else if (key == "throw") {
      plan.throw_rate = ParseRate(key, value);
    } else if (key == "error") {
      plan.error_rate = ParseRate(key, value);
    } else if (key == "delay") {
      plan.delay_rate = ParseRate(key, value);
    } else if (key == "delay_us") {
      plan.delay_us =
          ParseValue(key, value, INT_MAX, "an integer in [0, 2^31)");
    } else if (key == "abort") {
      plan.abort_rate = ParseRate(key, value);
    } else if (key == "segv") {
      plan.segv_rate = ParseRate(key, value);
    } else if (key == "hang") {
      plan.hang_rate = ParseRate(key, value);
    } else if (key == "exit0") {
      plan.exit0_rate = ParseRate(key, value);
    } else if (key == "hang_s") {
      plan.hang_s =
          ParseValue(key, value, kMaxSeconds, "a number in [0, 1e9]");
    } else {
      throw ConfigError("fault spec: unknown key '" + key + "'");
    }
  }
  if (plan.throw_rate + plan.error_rate + plan.delay_rate + plan.abort_rate +
          plan.segv_rate + plan.hang_rate + plan.exit0_rate >
      1.0) {
    throw ConfigError("fault spec: rates sum to more than 1");
  }
  return plan;
}

std::string FaultPlan::ToSpec() const {
  // %.17g survives the strtod round trip, so FromSpec(ToSpec()) rebuilds a
  // plan making bit-identical Decide() calls in the worker process.
  std::string spec =
      StrFormat("seed=%llu", static_cast<unsigned long long>(seed));
  if (throw_rate > 0.0) spec += StrFormat(",throw=%.17g", throw_rate);
  if (error_rate > 0.0) spec += StrFormat(",error=%.17g", error_rate);
  if (delay_rate > 0.0) {
    spec += StrFormat(",delay=%.17g,delay_us=%d", delay_rate, delay_us);
  }
  if (abort_rate > 0.0) spec += StrFormat(",abort=%.17g", abort_rate);
  if (segv_rate > 0.0) spec += StrFormat(",segv=%.17g", segv_rate);
  if (hang_rate > 0.0) {
    spec += StrFormat(",hang=%.17g,hang_s=%.17g", hang_rate, hang_s);
  }
  if (exit0_rate > 0.0) spec += StrFormat(",exit0=%.17g", exit0_rate);
  return spec;
}

bool IsProcessFault(FaultAction action) {
  switch (action) {
    case FaultAction::kAbort:
    case FaultAction::kSegv:
    case FaultAction::kHang:
    case FaultAction::kExit0:
      return true;
    case FaultAction::kNone:
    case FaultAction::kThrow:
    case FaultAction::kError:
    case FaultAction::kDelay:
      return false;
  }
  return false;
}

FaultPlan FaultPlan::FromEnv(const char* var) {
  const char* value = std::getenv(var);
  return value == nullptr ? FaultPlan{} : FromSpec(value);
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::Configure(const FaultPlan& plan) {
  plan_ = plan;
  enabled_.store(plan.enabled(), std::memory_order_release);
}

FaultAction FaultInjector::Decide(std::uint64_t key) const {
  if (!enabled()) return FaultAction::kNone;
  const double u = UnitUniform(Mix(plan_.seed ^ Mix(key)));
  double edge = plan_.throw_rate;
  if (u < edge) return FaultAction::kThrow;
  if (u < (edge += plan_.error_rate)) return FaultAction::kError;
  if (u < (edge += plan_.delay_rate)) return FaultAction::kDelay;
  if (u < (edge += plan_.abort_rate)) return FaultAction::kAbort;
  if (u < (edge += plan_.segv_rate)) return FaultAction::kSegv;
  if (u < (edge += plan_.hang_rate)) return FaultAction::kHang;
  if (u < (edge += plan_.exit0_rate)) return FaultAction::kExit0;
  return FaultAction::kNone;
}

namespace {

void CountInjected(const char* kind) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled()) {
    metrics.GetCounter(std::string("faults.injected.") + kind)->Increment();
  }
}

}  // namespace

bool FaultInjector::MaybeInject(std::uint64_t key) {
  switch (Decide(key)) {
    case FaultAction::kNone:
      return false;
    case FaultAction::kThrow:
      CountInjected("throw");
      throw InjectedFault(StrFormat(
          "injected fault at key %llu", static_cast<unsigned long long>(key)));
    case FaultAction::kError:
      CountInjected("error");
      return true;
    case FaultAction::kDelay:
      CountInjected("delay");
      std::this_thread::sleep_for(std::chrono::microseconds(plan_.delay_us));
      return false;
    case FaultAction::kAbort:
    case FaultAction::kSegv:
    case FaultAction::kHang:
    case FaultAction::kExit0:
      // Process kinds act only inside a dist worker (MaybeInjectProcess).
      return false;
  }
  return false;
}

void FaultInjector::MaybeInjectProcess(std::uint64_t key) {
  switch (Decide(key)) {
    case FaultAction::kNone:
    case FaultAction::kThrow:
    case FaultAction::kError:
    case FaultAction::kDelay:
      return;
    case FaultAction::kAbort:
      std::abort();
    case FaultAction::kSegv:
      std::raise(SIGSEGV);
      return;  // unreachable unless SIGSEGV is blocked
    case FaultAction::kHang:
      std::this_thread::sleep_for(std::chrono::duration<double>(plan_.hang_s));
      return;
    case FaultAction::kExit0:
      std::_Exit(0);
  }
}

}  // namespace calculon::testing
