// Supervised multi-process fan-out: fork-based worker pool with death and
// hang detection, bounded-retry reassignment with exponential backoff,
// and poison-candidate quarantine.
//
// The supervisor forks N workers from the job its driver built (same
// binary, no exec — see dist/worker.h for the wire protocol), gives each
// idle worker one contiguous range of items over its pipe — the next
// kShardsPerDispatch shards while the run's shards take less than a
// worker's flush interval each, one shard otherwise — and runs a
// single-threaded poll() event loop over the worker result pipes. It
// detects
//
//   * death  — EOF on the result pipe, classified via waitpid (exit code
//              or terminating signal, e.g. an injected SIGSEGV/SIGABRT),
//   * hangs  — a busy worker that has streamed nothing for longer than
//              hang_timeout_s is SIGKILLed (writes are the heartbeat: a
//              busy worker writes its finished items at least every 1 ms,
//              and a retried shard's worker acks each item as it
//              completes),
//
// and reassigns the failed range. A worker holds one range at a time. A
// fresh range's failure blames nobody and its un-acked rest is retried at
// once, acking item by item; a retried range's *suspect* — its first
// un-acked item — carries the blame and the rest is retried after a
// deterministic exponential backoff (dist/shard_tracker.h). After
// max_attempts the suspect is quarantined (reported to the driver as a
// FailureRecord-shaped event, the sweep continues degraded) and the rest
// of the range is re-dispatched immediately. Deterministic seeded process
// faults re-fire on every retry of the same item, so a faulted run
// quarantines exactly the items whose fault decision is a process kind —
// which is what makes "the quarantine list equals the injected process
// faults" a testable property.
//
// At the end of a run, and when it stops, every worker is sent "exit" and
// the result pipes are drained until each has closed or 2 s have passed
// (the telemetry a worker sends on exit arrives there); a worker still
// running at that deadline is SIGKILLed.
//
// Post-mortems come from the frames the supervisor already handles: each
// slot keeps a fixed ring of its last exchanges, rendered (with the held
// range and, on a retry, the suspect) to the file
// FailureRecord::flight_path names when a busy worker dies.
//
// The supervisor itself is single-threaded; results reach the driver via
// callbacks on the supervising thread, in arrival order (the drivers in
// dist/drivers.h reorder into item order to preserve the bit-identical
// deterministic-merge guarantee).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.h"
#include "util/run_context.h"

namespace calculon::dist {

class Job;  // dist/jobs.h

// The shards a worker is given at once, as one range, while shards are
// cheap. A constant, not an option: on perfbench's study_supervised
// (8,640 rows of a few us, 3 workers, shard 16, 4 runs each on 4 vCPUs),
// ranges of 8 read a median 354k evaluations per CPU second, against 280k
// for one shard per dispatch and 339k for ranges of 4; 16 read 1% more
// and 32 1% less.
inline constexpr std::uint64_t kShardsPerDispatch = 8;

// The init frame RunSupervised sends each worker (dist/worker.h). Its
// "telemetry" object mirrors this process's obs state, so workers record
// exactly when the supervisor does.
[[nodiscard]] json::Value InitFrame(const std::string& faults_spec);

// How a sweep fans out across supervised workers. The same struct drives
// the supervisor below and the engine front ends in dist/drivers.h.
struct DistOptions {
  int workers = 0;  // 0: run in-process
  std::uint64_t shard_size = 16;
  // Attempts per suspect item before quarantine (>= 1).
  int max_attempts = 3;
  std::int64_t backoff_base_ms = 10;
  std::int64_t backoff_max_ms = 2000;
  // A busy worker silent for this long is declared hung and SIGKILLed.
  double hang_timeout_s = 30.0;
  // When non-empty, each worker's stderr goes to
  // <dir>/worker-<n>.log (appended across restarts), and post-mortems are
  // dumped there for every busy worker death. RunSupervised creates the
  // directory before it forks, and a directory it cannot create is a
  // ConfigError.
  std::string worker_log_dir;
  // FaultPlan spec shipped to workers verbatim (see FaultPlan::ToSpec);
  // the supervised engines inject inside the worker, never in the parent.
  std::string faults_spec;

  [[nodiscard]] bool active() const { return workers > 0; }
};

struct SupervisorCallbacks {
  // One item's result line (Job::RunItem's text, no '\n'), in ARRIVAL
  // order (not item order); the view lasts for the call. Never invoked
  // twice for the same item. Returns false when the line does not decode:
  // that is the sending worker's corrupt frame, so it is killed and the
  // run's remaining items are retried.
  std::function<bool(std::uint64_t item, std::string_view result)> on_item;
  // A quarantined item: no result will ever arrive for it.
  std::function<void(const FailureRecord& record)> on_quarantine;
  // An exception out of either callback is the engine's own failure (a
  // commit that cannot write its checkpoint, say), not a worker's: no
  // callback runs after it, the pool shuts down as at the end of a run
  // (every worker is sent "exit" and reaped; nothing is killed as a
  // culprit or retried), and RunSupervised rethrows it.
};

// Creates options.worker_log_dir (a ConfigError, before any fork, when it
// cannot), forks the workers with `job` (dist/jobs.h; the parent never
// runs an item of it) and runs the job's items [first_item, job's item
// count) across a supervised worker pool; items below `first_item` (a
// checkpoint-resume watermark) count as already resolved. Blocks until
// every item is resolved, `ctx` (optional cooperative stop: cancellation /
// deadline / failure budget, polled every loop iteration; in-flight shards
// are abandoned) stops the run, or worker startup fails repeatedly
// (ConfigError — workers that die before they are ready).
void RunSupervised(Job& job, const DistOptions& options,
                   const SupervisorCallbacks& callbacks,
                   std::uint64_t first_item = 0, RunContext* ctx = nullptr);

}  // namespace calculon::dist
