// The child-process side of the supervised worker pool.
//
// A worker is the same binary as the supervisor — fork() without exec():
// the parent builds the job once (MakeJob, dist/jobs.h) before its first
// fork, and the child calls WorkerMain on its copy of that job and its two
// pipe ends, and never returns to the caller's code. No worker parses a
// job spec or re-enumerates the sweep; the parent never evaluates an item,
// so every worker, respawns included, starts from the same clean job. The
// protocol (NDJSON frames, see dist/wire.h):
//
//   parent -> worker   {"type":"init", "faults":"seed=...",
//                       "telemetry":{...}}
//   worker -> parent   {"type":"ready"}
//   parent -> worker   {"type":"shard", "begin":B, "end":E}
//                      (a retried shard adds "ack_each":true)
//   worker -> parent   {"type":"items", "begin":I, "count":N}
//                      followed by N raw lines: the results of items
//                      I, I+1, ..., one Job::RunItem line each (per flush)
//   worker -> parent   {"type":"shard_done", "begin":B, "end":E}
//   parent -> worker   {"type":"exit"}
//
// The supervisor keeps up to 8 shards in flight at a worker and writes the
// shards it dispatches to a worker at once in one write(); the worker
// takes them in order, so a shard a worker holds behind another was never
// started. It queues shards behind a busy worker only while the run's
// shards have taken less than kFlushInterval each, on average, so a sweep
// of slow items (audit pairs, exec-search triples) keeps one shard per
// worker. Only fresh shards are queued: a retried (ack_each) shard goes to
// a worker that holds nothing, and nothing is queued behind it.
//
// A worker queues the results a shard has ready and ships them as one run
// per flush. It flushes whenever 1 ms has passed since its last write (the
// clock runs across shards), so slow items still ack as they finish and a
// busy worker that stays silent is hung. At the end of a fresh shard it
// queues the last run and shard_done, and writes them at once only when no
// complete supervisor frame is already buffered (the next shard is not
// here yet) or 1 ms has passed; otherwise they ride along with the next
// shard's results. So a worker that holds its next shard writes the
// finished shards together instead of once per shard, and a shard no
// longer costs a pipe round trip. A retried shard ("ack_each") flushes
// after every item, so its runs hold one result each. "exit" writes
// whatever is queued first.
//
// The supervisor checks a run's header before it reads any line: the run
// must be non-empty, start at the front shard's next un-acked item and end
// within that shard, or the header is a corrupt frame. It takes the run
// only once all N lines are buffered, so a run cut short by the worker's
// death acks nothing. A shard_done must name the front shard and follow
// its last ack, or it too is a corrupt frame; it closes the front shard,
// and the next shard the worker holds becomes the front.
//
// When it writes a shard_done, and on exit, a worker may first send purely
// observational telemetry frames (enabled via the init frame's
// "telemetry" object, see docs/observability.md):
//
//   {"type":"metrics_snapshot", "metrics":{...}}   cumulative registry
//   {"type":"trace_chunk", "events":[...], "dropped":D}
//
// The supervisor never feeds these into its reorder buffers, so outputs
// stay bit-identical with telemetry on. With both off, a shard costs one
// run per flush plus shard_done.
//
// Items are evaluated and acked strictly in order within a shard. On an
// ack_each shard that lets the supervisor identify the *suspect* (first
// un-acked item) when the worker dies; on a coalesced shard the worker may
// have finished items it had not yet written, so nobody is blamed and the
// un-acked rest is retried ack_each. Process-level fault injection happens
// here: MaybeInjectProcess runs before each item, so a seeded
// abort/segv/hang deterministically takes this process down at the same
// item every time.
#pragma once

#include <chrono>

namespace calculon::dist {

class Job;  // dist/jobs.h

// A worker writes the results it has queued at least this often, so a
// slow item acks as it finishes and a busy worker is never silent for
// longer than one item plus this interval (the supervisor's hang timeout
// is its heartbeat deadline). Within the interval, a worker that already
// holds its next shard keeps a finished shard's results for a later write.
inline constexpr std::chrono::milliseconds kFlushInterval{1};

// Runs the worker protocol loop for `job` on the given pipe fds until an
// exit frame or EOF. Returns the process exit code; the fork site must
// pass it to _exit() without unwinding into the parent's code.
[[nodiscard]] int WorkerMain(Job& job, int in_fd, int out_fd);

}  // namespace calculon::dist
