// Deterministic, seeded fault-injection harness.
//
// The resilience layer (util/run_context.h, the engines' cancellation
// polls, checkpoint/resume) is only trustworthy if its failure paths are
// exercised on demand. This harness injects three fault kinds at
// evaluation granularity inside the sweep drivers:
//
//   * throw — an InjectedFault exception (an uncaught model bug),
//   * error — an injected hard-error Result (kBadConfig),
//   * delay — a busy worker (exercises cancellation latency),
//
// plus four *process-level* kinds consulted only by the supervised worker
// processes of src/dist (a plain in-process sweep ignores them, so the
// same plan describes both the faulted distributed run and its fault-free
// in-process reference):
//
//   * abort — the worker calls abort() (SIGABRT, like a tripped assert),
//   * segv  — the worker raises SIGSEGV (a wild pointer),
//   * hang  — the worker stops making progress (exercises the
//             supervisor's heartbeat / hang timeout),
//   * exit0 — the worker exits 0 mid-shard without a result (a silently
//             truncated run),
//
// The decision for a logical evaluation key is a pure hash of
// (seed, key): it does not depend on thread count or interleaving, so a
// seeded run injects the exact same faults every time — which is what
// makes "the failure summary counts exactly the injected faults" a
// testable property under all sanitizer presets. Injected faults are
// counted once: by the faults.injected.<kind> metrics counters.
//
// The harness compiles into the library unconditionally but is inert (one
// relaxed atomic load per evaluation) until Configure() is called — the
// CLIs expose it behind --faults / the CALCULON_FAULTS environment
// variable, and tests drive it directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace calculon::testing {

// Thrown by throw-faults; distinct from every model/config error type.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what)
      : std::runtime_error(what) {}
};

// What to inject, as rates over the evaluation-key space.
struct FaultPlan {
  std::uint64_t seed = 0;
  double throw_rate = 0.0;
  double error_rate = 0.0;
  double delay_rate = 0.0;
  int delay_us = 100;  // sleep length of one delay fault
  // Process-level kinds (see the header comment): acted on only inside a
  // supervised dist worker via MaybeInjectProcess().
  double abort_rate = 0.0;
  double segv_rate = 0.0;
  double hang_rate = 0.0;
  double exit0_rate = 0.0;
  double hang_s = 3600.0;  // how long one hang fault stalls the worker

  [[nodiscard]] bool enabled() const {
    return throw_rate > 0.0 || error_rate > 0.0 || delay_rate > 0.0 ||
           process_enabled();
  }
  // Any process-level kind has a non-zero rate.
  [[nodiscard]] bool process_enabled() const {
    return abort_rate > 0.0 || segv_rate > 0.0 || hang_rate > 0.0 ||
           exit0_rate > 0.0;
  }

  // Parses "seed=42,throw=0.05,error=0.01,delay=0.001,delay_us=50"
  // (process kinds: "abort=0.01,segv=0.01,hang=0.005,exit0=0.01,hang_s=60").
  // An unknown key or a value out of its range raises ConfigError: rates
  // in [0, 1], seed an integer in [0, 2^64), delay_us in [0, 2^31), hang_s
  // in [0, 1e9] seconds. An empty spec is a disabled plan.
  [[nodiscard]] static FaultPlan FromSpec(const std::string& spec);
  // Reads the spec from an environment variable (disabled plan when unset).
  [[nodiscard]] static FaultPlan FromEnv(const char* var = "CALCULON_FAULTS");
  // Round-trips through FromSpec: the canonical form shipped to dist
  // workers so parent and child make identical Decide() calls.
  [[nodiscard]] std::string ToSpec() const;
};

enum class FaultAction {
  kNone,
  kThrow,
  kError,
  kDelay,
  kAbort,  // process-level kinds below (dist workers only)
  kSegv,
  kHang,
  kExit0,
};

// True for the kinds that take down or stall a whole worker process.
[[nodiscard]] bool IsProcessFault(FaultAction action);

class FaultInjector {
 public:
  // The process-wide injector used by the sweep drivers.
  [[nodiscard]] static FaultInjector& Global();

  FaultInjector() = default;

  // Installs a plan. Not thread-safe against a running sweep — configure
  // before the sweep starts.
  void Configure(const FaultPlan& plan);
  // Disables injection.
  void Reset() { Configure(FaultPlan{}); }

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // The deterministic decision for evaluation `key`: a pure function of
  // (plan.seed, key), independent of threads and call order.
  [[nodiscard]] FaultAction Decide(std::uint64_t key) const;

  // Applies the decision for `key`: throws InjectedFault on a throw-fault,
  // sleeps on a delay-fault (returns false), and returns true on an
  // error-fault (the caller substitutes an injected hard-error Result).
  // With metrics on, each increments faults.injected.<kind>.
  // Process-level decisions fall through to kNone here: an in-process
  // sweep runs them clean, which is what makes it the fault-free
  // reference for the supervised run.
  bool MaybeInject(std::uint64_t key);

  // Applies a *process-level* decision for `key`. Called only from inside
  // a supervised dist worker, before the item is evaluated: abort/segv
  // die by signal, exit0 exits 0 mid-shard, hang sleeps plan.hang_s.
  // Non-process decisions (and kNone) return without acting.
  void MaybeInjectProcess(std::uint64_t key);

  // The installed plan (for re-serializing via FaultPlan::ToSpec()).
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  std::atomic<bool> enabled_{false};
  FaultPlan plan_;
};

}  // namespace calculon::testing
