// The child-process side of the supervised worker pool.
//
// A worker is the same binary as the supervisor — fork() without exec():
// the child calls WorkerMain on its two pipe ends and never returns to
// the caller's code. The protocol (NDJSON frames, see dist/wire.h):
//
//   parent -> worker   {"type":"init", "job":{...}, "faults":"seed=...",
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
// A worker keeps the results a shard has ready and ships them as one run
// per flush: whenever 1 ms has passed since its last write, so slow items
// still ack as they finish and a busy worker that stays silent is hung,
// and at the end of the shard, together with shard_done in one write(). A
// retried shard ("ack_each") flushes after every item, so its runs hold
// one result each. The supervisor checks a run's header before it reads
// any line: the run must be non-empty, start at the shard's next un-acked
// item and end within the shard, or the header is a corrupt frame. It
// takes the run only once all N lines are buffered, so a run cut short by
// the worker's death acks nothing.
//
// Before each shard_done and on exit, a worker may send purely
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

namespace calculon::dist {

// Runs the worker protocol loop on the given pipe fds until an exit frame
// or EOF. Returns the process exit code; the fork site must pass it to
// _exit() without unwinding into the parent's code.
[[nodiscard]] int WorkerMain(int in_fd, int out_fd);

}  // namespace calculon::dist
