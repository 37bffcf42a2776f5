// Observability layer, part 3: the progress reporter.
//
// Long sweeps (an 83k-evaluation audit, a Table-7 exec search) used to run
// silently until they printed a winner. A ProgressReporter watches a
// RunContext from a background thread and, on a fixed interval, emits a
// one-line status to stderr — completed/total, rate, ETA, degraded count —
// and (when tracing is on) counter events into the trace so the progress
// curve shows up as a Perfetto counter track.
//
// The reporter only *reads* the context's atomic counters; it never
// influences the sweep, so model outputs stay bit-identical with progress
// reporting on. Supervised runs (dist/drivers.h) count an item on the
// same context when the supervisor commits its result, so one reporter
// covers both modes.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "util/run_context.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace calculon::obs {

struct ProgressOptions {
  double interval_s = 2.0;    // emission period (must be > 0)
  std::uint64_t total = 0;    // total items; 0 = unknown (rate-only line)
  std::string label = "run";  // line prefix, e.g. "exec_search"
  std::FILE* out = nullptr;   // destination; nullptr = stderr
  bool emit_trace_counters = true;
};

class ProgressReporter {
 public:
  // Starts the reporting thread immediately. `ctx` must outlive the
  // reporter (or its Stop() call).
  ProgressReporter(const RunContext* ctx, ProgressOptions options);
  ~ProgressReporter();
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  // Emits one final line and joins the thread. Idempotent; the destructor
  // calls it.
  void Stop() CALC_EXCLUDES(mutex_);

  // --- ETA math, exposed for pinning tests ---

  // Items per second; 0 when no time has elapsed.
  [[nodiscard]] static double RatePerSec(std::uint64_t completed,
                                         double elapsed_s);
  // Seconds until `total` at the observed rate. HUGE_VAL when the rate is
  // zero (unknowable), 0 when already done or total is unknown.
  [[nodiscard]] static double EtaSeconds(std::uint64_t completed,
                                         std::uint64_t total,
                                         double elapsed_s);
  // The status line, e.g.
  //   "[exec_search] 50/200 (25.0%) | 5.0/s | eta 30.0s | failures 2"
  [[nodiscard]] static std::string FormatLine(const std::string& label,
                                              std::uint64_t completed,
                                              std::uint64_t total,
                                              std::uint64_t failures,
                                              double elapsed_s);

 private:
  void Loop() CALC_EXCLUDES(mutex_);
  void EmitLine(double elapsed_s);

  // ctx_/options_/start_ are set in the constructor before the reporting
  // thread launches and read-only afterwards.
  const RunContext* ctx_;
  ProgressOptions options_;  // set before launch
  std::chrono::steady_clock::time_point
      start_;  // set before launch
  Mutex mutex_;
  CondVar cv_;
  bool stop_requested_ CALC_GUARDED_BY(mutex_) = false;
  bool stopped_ CALC_GUARDED_BY(mutex_) = false;
  std::thread thread_;  // ctor/Stop only
};

}  // namespace calculon::obs
