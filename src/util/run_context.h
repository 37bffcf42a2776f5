// Resilient sweep execution: the shared run-lifecycle state that every
// long sweep (execution search, system search, study runner, model
// self-audit) threads through its workers.
//
// A RunContext carries three cooperative stop signals —
//   * an explicit cancel token (user request / SIGINT),
//   * an optional wall-clock deadline,
//   * a failure budget (stop after too many per-item hard failures)
// — plus the structured failure log that turns a stray exception inside a
// multi-hour sweep from "the whole run is lost" into one FailureRecord in
// the result's failure-summary section. Workers poll ShouldStop() between
// items: in-flight items finish, no new items start.
//
// All members are safe to use concurrently from sweep workers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace calculon {

// Why a run stopped before processing its whole range.
enum class StopReason {
  kNone = 0,       // ran to completion (or still running)
  kCancelled,      // Cancel() — user request or SIGINT
  kDeadline,       // wall-clock deadline expired
  kFailureBudget,  // too many per-item hard failures
};

[[nodiscard]] const char* ToString(StopReason reason);

// One isolated per-item hard failure: an exception thrown by an evaluation
// or a Result hard-error (kBadConfig), captured instead of killing the
// sweep.
// JSON serialization lives in the runner layer (runner/run_status_json.h)
// so util stays at the bottom of the dependency DAG.
struct FailureRecord {
  std::uint64_t item = 0;    // flat item index within the sweep
  std::string fingerprint;   // configuration coordinates, when known
  std::string reason;        // exception what() / Result detail
  unsigned worker = 0;       // claiming pool participant (0 = caller)
  // Post-mortem file the dist supervisor wrote from its record of the
  // quarantined worker's last exchanges (see docs/observability.md §7);
  // empty when none was captured.
  std::string flight_path;
};

// The failure-summary section attached to sweep results. `complete` means
// the whole range was processed; `failures` may still be non-zero (faulted
// items were skipped), which marks the result as degraded.
struct RunStatus {
  bool complete = true;
  StopReason stop_reason = StopReason::kNone;
  std::uint64_t items_completed = 0;
  std::uint64_t failures = 0;
  std::vector<FailureRecord> failure_samples;  // first N, capped

  // Wall-clock accounting, filled by RunContext::Snapshot(): total run
  // duration (monotonic clock) and the start/end instants (system clock,
  // Unix seconds). Observational only — model results never depend on
  // these, so resumed runs stay bit-identical on their data outputs.
  double elapsed_seconds = 0.0;
  std::int64_t start_unix_seconds = 0;
  std::int64_t end_unix_seconds = 0;

  [[nodiscard]] bool degraded() const { return !complete || failures > 0; }
  // One-line human summary, e.g. "degraded: 12 failures, stopped (deadline)".
  // Appends "in Xs" when elapsed_seconds has been recorded.
  [[nodiscard]] std::string Summary() const;
};

class RunContext {
 public:
  // Construction marks the run's start time (monotonic + system clocks).
  RunContext();
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  // --- Configuration (set before the sweep starts) ---

  // Stop the run once this many wall-clock seconds have elapsed from now;
  // `seconds` lies in [0, kMaxSeconds] (util/strings.h).
  void SetDeadline(double seconds);
  // Stop the run after `budget` recorded failures; 0 means unlimited.
  void set_failure_budget(std::uint64_t budget) { failure_budget_ = budget; }
  // Cap on retained FailureRecords (the count is always exact).
  void set_max_failure_samples(std::size_t cap) { max_samples_ = cap; }
  // Also observe the process-wide SIGINT flag (see InstallSigintHandler).
  void WatchSignals(bool watch) { watch_signals_ = watch; }

  // --- Cooperative stop protocol ---

  // Requests a stop: workers finish their in-flight item and claim no more.
  // Idempotent; the first reason wins.
  void Cancel(StopReason reason = StopReason::kCancelled);

  // Polled by workers between items. Also promotes an expired deadline or a
  // pending SIGINT into a cancellation, so the caller only ever checks this.
  [[nodiscard]] bool ShouldStop();

  [[nodiscard]] bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }
  [[nodiscard]] StopReason stop_reason() const {
    return static_cast<StopReason>(reason_.load(std::memory_order_acquire));
  }

  // --- Progress & failure accounting ---

  void RecordCompleted(std::uint64_t n = 1) {
    completed_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t items_completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

  // Captures one isolated hard failure. Trips the failure budget (and
  // cancels the run) when the budget is exhausted.
  void RecordFailure(std::uint64_t item, std::string fingerprint,
                     std::string reason, unsigned worker = 0)
      CALC_EXCLUDES(mutex_);
  // Full-record variant, preserving extra evidence (flight_path) captured
  // by the dist supervisor.
  void RecordFailure(FailureRecord record) CALC_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }

  // Snapshot of the run's failure-summary section; callable mid-run
  // (checkpointing) or after the sweep returns.
  [[nodiscard]] RunStatus Snapshot() const CALC_EXCLUDES(mutex_);

  // --- Process-wide SIGINT flag ---
  //
  // The handler only sets a lock-free flag (async-signal-safe); contexts
  // configured with WatchSignals(true) promote it into a cancellation the
  // next time a worker polls ShouldStop(). A second SIGINT restores the
  // default disposition, so a stuck run can still be killed interactively.
  static void InstallSigintHandler();
  [[nodiscard]] static bool SigintSeen();
  static void ClearSigintFlag();  // tests only

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<int> reason_{static_cast<int>(StopReason::kNone)};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failures_{0};

  std::atomic<bool> has_deadline_{false};
  // Configuration, set before the sweep starts and read-only while workers
  // run (the "set before" contract in the section comment above); the
  // deadline is published by the has_deadline_ release store.
  std::chrono::steady_clock::time_point
      deadline_{};  // published via has_deadline_
  std::chrono::steady_clock::time_point
      start_steady_{};  // set in ctor only
  std::chrono::system_clock::time_point
      start_system_{};  // set in ctor only

  // A failure budget of 0 means unlimited.
  std::uint64_t failure_budget_ = 0;  // config
  std::size_t max_samples_ = 32;      // config
  bool watch_signals_ = false;        // config

  mutable Mutex mutex_;
  std::vector<FailureRecord> samples_ CALC_GUARDED_BY(mutex_);
};

}  // namespace calculon
