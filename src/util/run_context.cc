#include "util/run_context.h"

#include <csignal>

#include "util/check.h"
#include "util/strings.h"

namespace calculon {

namespace {

// Written from the signal handler; lock-free stores only.
std::atomic<bool> g_sigint_seen{false};

extern "C" void SigintFlagHandler(int sig) {
  g_sigint_seen.store(true, std::memory_order_relaxed);
  // A second SIGINT falls through to the default disposition so a stuck
  // run can still be killed from the terminal.
  std::signal(sig, SIG_DFL);
}

}  // namespace

const char* ToString(StopReason reason) {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kFailureBudget: return "failure-budget";
  }
  return "?";
}

std::string RunStatus::Summary() const {
  std::string s;
  if (!degraded()) {
    s = StrFormat("complete: %llu items, no failures",
                  static_cast<unsigned long long>(items_completed));
  } else {
    s = StrFormat("degraded: %llu failures",
                  static_cast<unsigned long long>(failures));
    if (!complete) {
      s += StrFormat(", stopped early (%s) after %llu items",
                     ToString(stop_reason),
                     static_cast<unsigned long long>(items_completed));
    }
  }
  // Statuses built without wall-clock data (hand-constructed, legacy
  // checkpoints) keep the original string.
  if (elapsed_seconds > 0.0) s += StrFormat(" in %.1fs", elapsed_seconds);
  return s;
}

RunContext::RunContext()
    : start_steady_(std::chrono::steady_clock::now()),
      start_system_(std::chrono::system_clock::now()) {}

void RunContext::SetDeadline(double seconds) {
  CALC_CHECK(seconds >= 0.0 && seconds <= kMaxSeconds,
             "deadline %g s is outside [0, 1e9] s", seconds);
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
  has_deadline_.store(true, std::memory_order_release);
}

void RunContext::Cancel(StopReason reason) {
  int expected = static_cast<int>(StopReason::kNone);
  reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                  std::memory_order_acq_rel);
  cancelled_.store(true, std::memory_order_release);
}

bool RunContext::ShouldStop() {
  if (cancelled_.load(std::memory_order_acquire)) return true;
  if (watch_signals_ && SigintSeen()) {
    Cancel(StopReason::kCancelled);
    return true;
  }
  if (has_deadline_.load(std::memory_order_acquire) &&
      std::chrono::steady_clock::now() >= deadline_) {
    Cancel(StopReason::kDeadline);
    return true;
  }
  return false;
}

void RunContext::RecordFailure(std::uint64_t item, std::string fingerprint,
                               std::string reason, unsigned worker) {
  RecordFailure(FailureRecord{item, std::move(fingerprint), std::move(reason),
                              worker, /*flight_path=*/{}});
}

void RunContext::RecordFailure(FailureRecord record) {
  const std::uint64_t count =
      failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    MutexLock lock(mutex_);
    if (samples_.size() < max_samples_) {
      samples_.push_back(std::move(record));
    }
  }
  if (failure_budget_ > 0 && count >= failure_budget_) {
    Cancel(StopReason::kFailureBudget);
  }
}

RunStatus RunContext::Snapshot() const {
  RunStatus status;
  status.stop_reason = stop_reason();
  status.complete = status.stop_reason == StopReason::kNone && !cancelled();
  status.items_completed = items_completed();
  status.failures = failures();
  {
    MutexLock lock(mutex_);
    status.failure_samples = samples_;
  }
  // Wall-clock accounting: duration from the monotonic clock (immune to
  // system-clock steps), instants from the system clock (meaningful across
  // processes in reports).
  const auto now_steady = std::chrono::steady_clock::now();
  const auto now_system = std::chrono::system_clock::now();
  status.elapsed_seconds =
      std::chrono::duration<double>(now_steady - start_steady_).count();
  status.start_unix_seconds =
      std::chrono::duration_cast<std::chrono::seconds>(
          start_system_.time_since_epoch())
          .count();
  status.end_unix_seconds =
      std::chrono::duration_cast<std::chrono::seconds>(
          now_system.time_since_epoch())
          .count();
  return status;
}

void RunContext::InstallSigintHandler() {
  std::signal(SIGINT, SigintFlagHandler);
  std::signal(SIGTERM, SigintFlagHandler);
}

bool RunContext::SigintSeen() {
  return g_sigint_seen.load(std::memory_order_relaxed);
}

void RunContext::ClearSigintFlag() {
  g_sigint_seen.store(false, std::memory_order_relaxed);
}

}  // namespace calculon
