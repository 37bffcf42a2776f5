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
// A worker holds one "shard" frame at a time: the supervisor sends the
// next only after the last one's shard_done. Its [B, E) is a range of
// consecutive shards: 8 of them (kShardsPerDispatch) while the run's
// shards take less than kFlushInterval each, on average, so cheap study
// rows cost one round trip per 8 shards, and one shard otherwise, so a
// sweep of slow items (audit pairs, exec-search triples) keeps its
// dynamic balance. A retried range ("ack_each") is given alone too.
//
// A worker queues the results a shard has ready and ships them as one run
// per flush. It flushes whenever 1 ms has passed since its last write or
// since the shard arrived, so slow items still ack as they finish and a
// busy worker that stays silent is hung. At the end of the shard it
// writes the last run and shard_done together. A retried shard
// ("ack_each") flushes after every item, so its runs hold one result
// each.
//
// The supervisor checks a run's header before it reads any line: the run
// must be non-empty, start at the shard's next un-acked item and end
// within the shard, or the header is a corrupt frame. It takes the run
// only once all N lines are buffered, so a run cut short by the worker's
// death acks nothing. A shard_done must name the shard and follow its
// last ack, or it too is a corrupt frame.
//
// Before each shard_done, and on exit, a worker may send purely
// observational telemetry frames (enabled via the init frame's
// "telemetry" object, see docs/observability.md):
//
//   {"type":"metrics_snapshot", "metrics":{...}}   cumulative registry
//   {"type":"trace_chunk", "events":[...], "dropped":D}
//
// The supervisor never feeds these into its reorder buffers, so outputs
// stay bit-identical with telemetry on. With both off, a shard costs one
// run per flush plus shard_done, usually one write.
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
// is its heartbeat deadline).
inline constexpr std::chrono::milliseconds kFlushInterval{1};

// Runs the worker protocol loop for `job` on the given pipe fds until an
// exit frame or EOF. Returns the process exit code; the fork site must
// pass it to _exit() without unwinding into the parent's code.
[[nodiscard]] int WorkerMain(Job& job, int in_fd, int out_fd);

}  // namespace calculon::dist
