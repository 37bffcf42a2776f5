#include "dist/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "dist/jobs.h"
#include "dist/shard_tracker.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/error.h"
#include "util/strings.h"

namespace calculon::dist {

json::Value InitFrame(const std::string& faults_spec) {
  const obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  json::Value telemetry;
  telemetry["metrics"] = obs::MetricsRegistry::Global().enabled();
  telemetry["trace"] = recorder.enabled();
  telemetry["trace_start_ns"] = recorder.start_ns();
  json::Value frame;
  frame["type"] = "init";
  frame["faults"] = faults_spec;
  frame["telemetry"] = telemetry;
  return frame;
}

namespace {

[[nodiscard]] std::int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] std::int64_t NowMs() { return NowUs() / 1000; }

// A retry (always ack_each) waiting for re-dispatch: due at ready_at_ms,
// once its backoff has passed.
struct PendingRetry {
  ShardRange shard;
  std::int64_t ready_at_ms = 0;
};

// One protocol exchange with a worker, for its post-mortem: `ready`
// (received), `shard_begin` (dispatched), `item_done` (ack received) or
// `shard_done` (received). `item` is the shard's begin for the shard
// events, the acked item for item_done and kNoItem for ready; `ms` is the
// NowMs() reading of the exchange.
constexpr std::uint64_t kNoItem = ~std::uint64_t{0};
struct SlotEvent {
  const char* label = "";
  std::uint64_t item = kNoItem;
  std::int64_t ms = 0;
};

// Per-slot post-mortem ring size: the last 64 exchanges are kept.
constexpr std::size_t kSlotEventCapacity = 64;

// The range a worker holds: dispatched and not yet closed by its
// shard_done.
struct InFlight {
  ShardRange shard;
  // NowUs() at its dispatch, for the cost gate (ShardsAreCheap).
  std::int64_t since_us = 0;
  // Trace timestamp of its dispatch (supervisor timeline), for the handoff
  // span recorded when its shard_done arrives. 0 = not tracing.
  double dispatch_ts_us = 0.0;
};

struct WorkerSlot {
  pid_t pid = -1;  // -1: no live process in this slot
  int cmd_fd = -1;  // parent -> worker (blocking writes; frames are tiny)
  int res_fd = -1;  // worker -> parent (non-blocking, poll()ed)
  std::unique_ptr<FrameWriter> writer;
  std::unique_ptr<FrameReader> reader;
  bool ready = false;  // worker acked init; a range may be dispatched
  std::optional<InFlight> held;  // the one range this worker works on
  std::uint64_t acked = 0;  // items acked from it, in order
  std::int64_t last_activity_ms = 0;

  // The current incarnation's pid, surviving the reap (ReapWorker resets
  // `pid`); stamps this worker's trace lane and post-mortem files.
  pid_t last_pid = -1;
  // The supervisor's own record of this incarnation's last exchanges,
  // rendered to a post-mortem file only when the worker dies. `events` is
  // a ring indexed by event_count % kSlotEventCapacity.
  std::array<SlotEvent, kSlotEventCapacity> events;
  std::uint64_t event_count = 0;  // appended since spawn
  // Last cumulative metrics snapshot from this incarnation; folded into
  // the per-slot total when the incarnation ends.
  obs::MetricsSnapshot live_metrics;
  bool has_live_metrics = false;

  [[nodiscard]] bool alive() const { return pid != -1; }
  [[nodiscard]] bool busy() const { return held.has_value(); }
  [[nodiscard]] const ShardRange& range() const { return held->shard; }

  void Record(const char* label, std::uint64_t item, std::int64_t ms) {
    events[event_count++ % kSlotEventCapacity] = SlotEvent{label, item, ms};
  }
};

// Mutable loop state bundled so the helpers below stay free functions.
struct Pool {
  // The job every worker is forked with; the parent never runs an item.
  Job* job = nullptr;
  const json::Value* init_frame = nullptr;
  DistOptions options;
  const SupervisorCallbacks* callbacks = nullptr;
  ShardTracker* tracker = nullptr;

  std::vector<WorkerSlot> slots;
  std::deque<PendingRetry> pending;
  // How long workers held ranges, summed, and the items of the ranges they
  // finished in that time: the mean is what an item costs, round trips
  // included.
  std::int64_t busy_us = 0;
  std::uint64_t items_done = 0;
  // Workers that died before acking init, with no ready worker in
  // between: when every fork attempt dies at startup (a fault spec the
  // worker rejects, say) no worker can start, and retrying forever would
  // fork-bomb the host.
  int consecutive_startup_failures = 0;

  // The first exception out of a callback (RunCallback).
  std::exception_ptr engine_error;

  obs::Counter* restarts = nullptr;
  obs::Counter* reassigned = nullptr;
  obs::Counter* quarantined = nullptr;

  // Per-slot telemetry folded across worker incarnations; ingested into
  // the global registry (tagged and aggregated) at the end of the run.
  std::vector<obs::MetricsSnapshot> finalized_metrics;
  // Sequence number for post-mortem file names (a run may dump several).
  int flight_dump_seq = 0;

  // PollLive's poll set and its readable slots, reused across polls.
  std::vector<struct pollfd> poll_fds;
  std::vector<std::size_t> readable;
};

// The registry prefix that tags slot `index`'s worker instruments.
[[nodiscard]] std::string SlotPrefix(std::size_t index) {
  return StrFormat("dist.worker.%d.", static_cast<int>(index));
}

[[nodiscard]] int CountAlive(const Pool& pool) {
  int n = 0;
  for (const WorkerSlot& slot : pool.slots) n += slot.alive() ? 1 : 0;
  return n;
}

void CloseSlotFds(WorkerSlot& slot) {
  slot.writer.reset();
  slot.reader.reset();
  if (slot.cmd_fd != -1) ::close(slot.cmd_fd);
  if (slot.res_fd != -1) ::close(slot.res_fd);
  slot.cmd_fd = -1;
  slot.res_fd = -1;
}

// Human description of a reaped worker for quarantine records and logs.
[[nodiscard]] std::string DescribeExit(int status) {
  if (WIFEXITED(status)) {
    return StrFormat("exited with code %d", WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = strsignal(sig);
    return StrFormat("killed by signal %d (%s)", sig,
                     name != nullptr ? name : "?");
  }
  return "ended with unknown wait status";
}

[[nodiscard]] std::string ReapWorker(WorkerSlot& slot) {
  int status = 0;
  pid_t reaped;
  do {
    reaped = ::waitpid(slot.pid, &status, 0);
  } while (reaped == -1 && errno == EINTR);
  slot.pid = -1;
  if (reaped == -1) return "could not be reaped";
  return DescribeExit(status);
}

// Folds the incarnation's last cumulative snapshot into the per-slot
// total. Called when an incarnation ends (death or clean shutdown);
// snapshots are cumulative per incarnation, so only the final one counts.
void FinalizeSlotMetrics(Pool& pool, std::size_t index) {
  WorkerSlot& slot = pool.slots[index];
  if (!slot.has_live_metrics) return;
  pool.finalized_metrics[index].Merge(slot.live_metrics);
  slot.live_metrics = obs::MetricsSnapshot();
  slot.has_live_metrics = false;
}

// Dumps the slot's event ring to a post-mortem JSON file (see
// docs/observability.md for the format) in worker_log_dir, or the system
// temp directory when no log dir is configured. Returns the path, or ""
// when there was no evidence or the write failed — post-mortems are
// best-effort; a dump failure must never take down the supervisor.
[[nodiscard]] std::string DumpFlightPostMortem(
    Pool& pool, std::size_t index, const std::string& description) {
  const WorkerSlot& slot = pool.slots[index];
  if (slot.event_count == 0) return "";
  std::string dir = pool.options.worker_log_dir;
  try {
    // RunSupervised made worker_log_dir before the first fork.
    if (dir.empty()) dir = std::filesystem::temp_directory_path().string();
    const std::string path =
        StrFormat("%s/flight-%03d-worker%d.json", dir.c_str(),
                  pool.flight_dump_seq++, static_cast<int>(index));
    json::Value doc;
    doc["worker_slot"] = static_cast<std::int64_t>(index);
    doc["pid"] = static_cast<std::int64_t>(slot.last_pid);
    doc["description"] = description;
    if (slot.busy()) {
      json::Value shard;
      shard["begin"] = static_cast<std::int64_t>(slot.range().begin);
      shard["end"] = static_cast<std::int64_t>(slot.range().end);
      doc["shard"] = shard;
      doc["acked"] = static_cast<std::int64_t>(slot.acked);
      // The item ShardTracker blames: the first one never acked. A fresh
      // range's worker may have died past it, so it names none.
      if (slot.range().ack_each) {
        doc["suspect"] =
            static_cast<std::int64_t>(slot.range().begin + slot.acked);
      }
    }
    const std::int64_t now = NowMs();
    const std::uint64_t kept =
        std::min<std::uint64_t>(slot.event_count, kSlotEventCapacity);
    json::Array events;
    for (std::uint64_t seq = slot.event_count - kept; seq < slot.event_count;
         ++seq) {
      const SlotEvent& e = slot.events[seq % kSlotEventCapacity];
      json::Value event;
      event["seq"] = static_cast<std::int64_t>(seq);
      event["label"] = e.label;
      if (e.item != kNoItem) {
        event["item"] = static_cast<std::int64_t>(e.item);
      }
      event["ago_ms"] = now - e.ms;
      events.push_back(std::move(event));
    }
    doc["events"] = json::Value(std::move(events));
    json::WriteFile(path, doc);
    return path;
  } catch (const std::exception&) {
    return "";
  }
}

// Throws ConfigError unless the end of the run could fold `snapshot` in as
// slot `index`'s live snapshot: that fold, rehearsed on copies. Every
// histogram must keep one bucket layout and every count must stay within
// obs::kMaxCount, in the slot's total, in the aggregate over the slots and
// in the registry names both are ingested under. Each accepted snapshot
// keeps the whole fold within those bounds, so the fold cannot throw.
void CheckSnapshotFolds(const Pool& pool, std::size_t index,
                        const obs::MetricsSnapshot& snapshot) {
  obs::MetricsSnapshot slot_total = pool.finalized_metrics[index];
  slot_total.Merge(snapshot);
  obs::MetricsSnapshot aggregate;
  for (std::size_t i = 0; i < pool.slots.size(); ++i) {
    if (i == index) {
      aggregate.Merge(slot_total);
      continue;
    }
    aggregate.Merge(pool.finalized_metrics[i]);
    if (pool.slots[i].has_live_metrics) {
      aggregate.Merge(pool.slots[i].live_metrics);
    }
  }
  const obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.CheckIngest(slot_total, SlotPrefix(index));
  metrics.CheckIngest(aggregate, "");
}

// Takes one control or telemetry frame from worker `index`. Returns false
// for a frame that breaks the protocol: an unknown type, a run header
// announcing no lines or, while the run is `live`, a run header that does
// not start at the held range's next un-acked item and end within it, or
// a shard_done that does not name the held range after its last ack.
// Throws ConfigError on a malformed frame. Telemetry is purely
// observational: it never touches the shard tracker or the driver
// callbacks, which is what keeps supervised outputs bit-identical with
// telemetry on.
[[nodiscard]] bool HandleFrame(Pool& pool, std::size_t index,
                               const json::Value& frame, bool live) {
  WorkerSlot& slot = pool.slots[index];
  const std::string type = frame.GetString("type", "");
  const std::int64_t now_us = NowUs();
  slot.last_activity_ms = now_us / 1000;
  if (type == "items") {
    // A run header: `count` result lines follow.
    const std::int64_t count = frame.at("count").AsInt();
    if (count <= 0) return false;
    if (live) {
      const std::int64_t first = frame.at("begin").AsInt();
      if (!slot.busy()) return false;
      const std::uint64_t next = slot.range().begin + slot.acked;
      if (static_cast<std::uint64_t>(first) != next ||
          static_cast<std::uint64_t>(count) > slot.range().end - next) {
        return false;
      }
    }
    slot.reader->ExpectLines(static_cast<std::uint64_t>(count));
  } else if (type == "ready") {
    slot.ready = true;
    slot.Record("ready", kNoItem, slot.last_activity_ms);
    pool.consecutive_startup_failures = 0;
  } else if (type == "shard_done") {
    // At shutdown the runs go unread, so only a live run checks the acks.
    if (!slot.busy()) return !live;
    const InFlight done = *slot.held;
    if (live && (frame.at("begin").AsInt() !=
                     static_cast<std::int64_t>(done.shard.begin) ||
                 frame.at("end").AsInt() !=
                     static_cast<std::int64_t>(done.shard.end) ||
                 slot.acked != done.shard.end - done.shard.begin)) {
      return false;
    }
    slot.held.reset();
    slot.acked = 0;
    pool.busy_us += now_us - done.since_us;
    pool.items_done += done.shard.end - done.shard.begin;
    slot.Record("shard_done", done.shard.begin, slot.last_activity_ms);
    // Handoff span on the supervisor timeline: dispatch to completion of
    // this range, labelled with the worker's lane.
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    if (recorder.enabled() && done.dispatch_ts_us > 0.0) {
      recorder.RecordComplete(
          "dist",
          StrFormat("shard [%llu,%llu) -> worker-%d",
                    static_cast<unsigned long long>(done.shard.begin),
                    static_cast<unsigned long long>(done.shard.end),
                    static_cast<int>(slot.last_pid)),
          done.dispatch_ts_us, recorder.NowMicros() - done.dispatch_ts_us);
    }
  } else if (type == "metrics_snapshot") {
    obs::MetricsSnapshot snapshot =
        obs::MetricsSnapshot::FromJson(frame.at("metrics"));
    CheckSnapshotFolds(pool, index, snapshot);
    // Cumulative per incarnation: replace, don't merge.
    slot.live_metrics = std::move(snapshot);
    slot.has_live_metrics = true;
  } else if (type == "trace_chunk") {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    if (recorder.enabled()) {
      recorder.AddExternalEvents(
          static_cast<int>(slot.last_pid),
          StrFormat("worker-%d", static_cast<int>(slot.last_pid)),
          frame.at("events").AsArray());
      recorder.AddExternalDropped(
          static_cast<std::uint64_t>(frame.GetInt("dropped", 0)));
    }
  } else {
    return false;
  }
  return true;
}

// Forks a worker into `slot`. Returns false when the OS refuses (pipe/fork
// exhaustion) — the caller decides whether that is fatal. A spawn into a
// slot that had an earlier incarnation counts as a restart.
[[nodiscard]] bool SpawnWorker(Pool& pool, std::size_t index) {
  WorkerSlot& slot = pool.slots[index];
  int cmd[2];  // parent writes commands, worker reads
  int res[2];  // worker writes results, parent reads
  if (::pipe(cmd) == -1) return false;
  if (::pipe(res) == -1) {
    ::close(cmd[0]);
    ::close(cmd[1]);
    return false;
  }
  // Anything that formats or allocates happens before the fork: between
  // fork() and _exit() the child may only use async-signal-safe calls
  // (another of the parent's threads could hold the heap or stdio lock at
  // the instant of the fork, and the child would deadlock on it). The
  // fork-safety lint rule holds the child block to ::-qualified calls.
  std::string log_path;
  if (!pool.options.worker_log_dir.empty()) {
    log_path =
        StrFormat("%s/worker-%d.log", pool.options.worker_log_dir.c_str(),
                  static_cast<int>(index));
  }
  const char* const log_file = log_path.empty() ? nullptr : log_path.c_str();
  const pid_t pid = ::fork();
  if (pid == -1) {
    ::close(cmd[0]);
    ::close(cmd[1]);
    ::close(res[0]);
    ::close(res[1]);
    return false;
  }
  if (pid == 0) {
    // Child. Drop every parent-side fd we inherited: our own parent ends
    // and both ends of every sibling's pipes, so a sibling's EOF is
    // observable the instant that sibling dies.
    ::close(cmd[1]);
    ::close(res[0]);
    for (const WorkerSlot& other : pool.slots) {
      if (other.cmd_fd != -1) ::close(other.cmd_fd);
      if (other.res_fd != -1) ::close(other.res_fd);
    }
    if (log_file != nullptr) {
      const int log_fd = ::open(log_file, O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log_fd != -1) {
        ::dup2(log_fd, 2);
        ::close(log_fd);
      }
    }
    // Workers die by _exit, never by unwinding back into the parent's
    // call stack (destructors of the supervisor's state must not run
    // twice).
    ::_exit(WorkerMain(*pool.job, cmd[0], res[1]));
  }
  // Parent.
  ::close(cmd[0]);
  ::close(res[1]);
  const int flags = ::fcntl(res[0], F_GETFL, 0);
  ::fcntl(res[0], F_SETFL, flags | O_NONBLOCK);
  slot.pid = pid;
  slot.cmd_fd = cmd[1];
  slot.res_fd = res[0];
  slot.writer = std::make_unique<FrameWriter>(slot.cmd_fd);
  slot.reader = std::make_unique<FrameReader>(slot.res_fd);
  slot.ready = false;
  slot.held.reset();
  slot.acked = 0;
  slot.last_activity_ms = NowMs();
  if (slot.last_pid != -1 && pool.restarts != nullptr) {
    pool.restarts->Increment();
  }
  // Fresh incarnation: new trace lane, empty event ring (the previous
  // incarnation's evidence was dumped by its death handler).
  slot.last_pid = pid;
  slot.event_count = 0;
  slot.live_metrics = obs::MetricsSnapshot();
  slot.has_live_metrics = false;
  // A worker that died before reading it shows up as EOF on the next poll,
  // where the death path handles it.
  (void)slot.writer->WriteFrame(*pool.init_frame);
  return true;
}

// Runs one of the callbacks. An exception out of one is the engine's
// failure, not a worker's: it is kept, no later callback runs, and the
// main loop stops at its next check and rethrows it once the pool is shut
// down.
template <typename Call>
void RunCallback(Pool& pool, const Call& call) {
  if (pool.engine_error) return;
  try {
    call();
  } catch (...) {
    pool.engine_error = std::current_exception();
  }
}

// `description` explains how the worker ended ("killed by signal 11
// (Segmentation fault)", "hung ..."), used verbatim in quarantine records.
void HandleWorkerDeath(Pool& pool, std::size_t index,
                       const std::string& description) {
  WorkerSlot& slot = pool.slots[index];
  CALC_TRACE_INSTANT("dist", "worker_death");
  FinalizeSlotMetrics(pool, index);
  if (!slot.ready) {
    ++pool.consecutive_startup_failures;
  }
  if (slot.busy()) {
    const std::uint64_t acked_up_to = slot.range().begin + slot.acked;
    const ShardTracker::FailureOutcome outcome =
        pool.tracker->OnShardFailure(slot.range(), acked_up_to);
    if (outcome.quarantined) {
      FailureRecord record;
      record.item = outcome.suspect;
      record.reason = StrFormat("quarantined after %d attempts; last: %s",
                                outcome.attempt, description.c_str());
      record.worker = static_cast<unsigned>(index);
      // Attach the supervisor's record of what the worker was doing when
      // it died.
      record.flight_path = DumpFlightPostMortem(pool, index, description);
      if (pool.quarantined != nullptr) pool.quarantined->Increment();
      if (pool.callbacks->on_quarantine) {
        RunCallback(pool, [&] { pool.callbacks->on_quarantine(record); });
      }
    } else if (!pool.options.worker_log_dir.empty()) {
      // Not (yet) a quarantine, but the operator asked for worker logs:
      // keep a post-mortem for every busy death alongside them.
      (void)DumpFlightPostMortem(pool, index, description);
    }
    if (!outcome.retry.empty()) {
      pool.pending.push_front(
          PendingRetry{outcome.retry, NowMs() + outcome.backoff_ms});
      if (pool.reassigned != nullptr) pool.reassigned->Increment();
    }
    slot.held.reset();
  }
  CloseSlotFds(slot);
}

// Whether a worker may be given kShardsPerDispatch shards at once: only
// once the run's items have taken less than a worker's flush interval per
// shard_size of them, on average, so a range counts as the shards it
// holds. A longer shard goes out in a write of its own anyway
// (dist/worker.h), so a range of them would save the worker only its wait
// for the next shard, a few percent of the shard, while holding work that
// another worker may be free to take sooner, and a stop or a due retry
// would wait for it.
[[nodiscard]] bool ShardsAreCheap(const Pool& pool) {
  constexpr double kCheapShardUs =
      std::chrono::duration<double, std::micro>(kFlushInterval).count();
  return pool.items_done > 0 &&
         static_cast<double>(pool.busy_us) *
                 static_cast<double>(pool.options.shard_size) <
             kCheapShardUs * static_cast<double>(pool.items_done);
}

// Takes the first retry out of its backoff, if any.
[[nodiscard]] bool TakePending(Pool& pool, std::int64_t now,
                               ShardRange* out) {
  for (auto it = pool.pending.begin(); it != pool.pending.end(); ++it) {
    if (it->ready_at_ms <= now) {
      *out = it->shard;
      pool.pending.erase(it);
      return true;
    }
  }
  return false;
}

// Waits up to `timeout_ms` on the live workers' result pipes and leaves
// those with something to read (data, EOF or an error) in pool.readable.
// A signal ends the wait with none readable. Returns false when poll()
// fails for another reason (errno says why).
[[nodiscard]] bool PollLive(Pool& pool, std::int64_t timeout_ms) {
  pool.poll_fds.clear();
  pool.readable.clear();
  for (std::size_t i = 0; i < pool.slots.size(); ++i) {
    if (!pool.slots[i].alive()) continue;
    pool.poll_fds.push_back({pool.slots[i].res_fd, POLLIN, 0});
    pool.readable.push_back(i);
  }
  const int n_ready =
      ::poll(pool.poll_fds.data(), static_cast<nfds_t>(pool.poll_fds.size()),
             static_cast<int>(timeout_ms));
  if (n_ready == -1 && errno != EINTR) return false;
  std::size_t kept = 0;
  for (std::size_t k = 0; n_ready > 0 && k < pool.poll_fds.size(); ++k) {
    if ((pool.poll_fds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      pool.readable[kept++] = pool.readable[k];
    }
  }
  pool.readable.resize(kept);
  return true;
}

// What draining a worker's result pipe came to; the caller acts on it.
enum class Drained {
  kOpen,     // nothing more to read for now
  kCorrupt,  // the worker broke the protocol
  kEnded,    // the pipe closed (EOF or a read error)
};

// Reads what worker `index` has sent until its pipe runs dry or closes.
// While the run is `live`, each complete run of results goes to on_item
// and the tracker, one line per item; at shutdown the runs are skipped
// unread (their items stay unresolved) and only the telemetry matters.
[[nodiscard]] Drained DrainSlot(Pool& pool, std::size_t index, bool live) {
  WorkerSlot& slot = pool.slots[index];
  for (;;) {
    const FrameReader::FillStatus status = slot.reader->Fill();
    json::Value frame;
    std::string_view lines;
    try {
      for (;;) {
        if (slot.reader->NextLines(&lines)) {
          if (!live) continue;
          slot.last_activity_ms = NowMs();
          for (std::size_t at = 0; at < lines.size();) {
            const std::size_t nl = lines.find('\n', at);
            const std::uint64_t item = slot.range().begin + slot.acked;
            bool decoded = true;
            if (pool.callbacks->on_item) {
              RunCallback(pool, [&] {
                decoded =
                    pool.callbacks->on_item(item, lines.substr(at, nl - at));
              });
            }
            if (!decoded) return Drained::kCorrupt;
            pool.tracker->OnItemDone();
            ++slot.acked;
            slot.Record("item_done", item, slot.last_activity_ms);
            at = nl + 1;
          }
          continue;
        }
        if (!slot.reader->NextFrame(&frame)) break;
        if (!HandleFrame(pool, index, frame, live)) return Drained::kCorrupt;
      }
    } catch (const ConfigError&) {
      return Drained::kCorrupt;  // a malformed frame
    }
    if (status == FrameReader::FillStatus::kWouldBlock) return Drained::kOpen;
    if (status != FrameReader::FillStatus::kData) return Drained::kEnded;
  }
}

}  // namespace

void RunSupervised(const json::Value& job_spec, const DistOptions& options,
                   const SupervisorCallbacks& callbacks,
                   std::uint64_t first_item, RunContext* ctx) {
  CALC_CHECK(options.workers >= 1, "need at least one worker");
  CALC_CHECK(
      options.hang_timeout_s > 0.0 && options.hang_timeout_s <= kMaxSeconds,
      "hang_timeout_s %g is outside (0, 1e9] s", options.hang_timeout_s);
  CALC_TRACE_SPAN("dist", "supervisor");

  // Built once, before the first fork: every worker runs its own copy.
  const std::unique_ptr<Job> job = MakeJob(job_spec);
  // Also before the first fork: each worker opens its log in this
  // directory, and could not create it after the fork.
  if (!options.worker_log_dir.empty()) {
    std::error_code error;
    std::filesystem::create_directories(options.worker_log_dir, error);
    if (error) {
      throw ConfigError(StrFormat(
          "dist supervisor: cannot create the worker log directory '%s': %s",
          options.worker_log_dir.c_str(), error.message().c_str()));
    }
  }
  const std::uint64_t num_items = job->num_items();
  ShardTrackerOptions tracker_options;
  tracker_options.num_items = num_items;
  tracker_options.first_item = first_item;
  tracker_options.shard_size = options.shard_size;
  tracker_options.max_attempts = options.max_attempts;
  tracker_options.backoff_base_ms = options.backoff_base_ms;
  tracker_options.backoff_max_ms = options.backoff_max_ms;
  ShardTracker tracker(tracker_options);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();

  const json::Value init_frame = InitFrame(options.faults_spec);
  Pool pool;
  pool.job = job.get();
  pool.init_frame = &init_frame;
  pool.options = options;
  pool.callbacks = &callbacks;
  pool.tracker = &tracker;
  if (metrics.enabled()) {
    pool.restarts = metrics.GetCounter("dist.restarts");
    pool.reassigned = metrics.GetCounter("dist.reassigned");
    pool.quarantined = metrics.GetCounter("dist.quarantined");
  }

  // A dead worker must surface as EPIPE on our next write, not SIGPIPE.
  struct sigaction ignore_pipe {};
  ignore_pipe.sa_handler = SIG_IGN;
  struct sigaction saved_pipe {};
  ::sigaction(SIGPIPE, &ignore_pipe, &saved_pipe);

  const std::int64_t hang_timeout_ms =
      static_cast<std::int64_t>(options.hang_timeout_s * 1000.0);
  // More workers than shards is waste; never fork what we cannot feed.
  const std::uint64_t span =
      num_items > first_item ? num_items - first_item : 0;
  const std::uint64_t max_useful =
      (span + options.shard_size - 1) / options.shard_size;
  const int worker_count = static_cast<int>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(options.workers),
                              std::max<std::uint64_t>(max_useful, 1)));
  pool.slots.resize(static_cast<std::size_t>(worker_count));
  pool.finalized_metrics.resize(pool.slots.size());

  std::string error;
  while (!pool.engine_error && !tracker.AllResolved()) {
    if (ctx != nullptr && ctx->ShouldStop()) break;
    if (pool.consecutive_startup_failures > worker_count * 3) {
      error = StrFormat(
          "%d consecutive workers died before becoming ready; "
          "no worker can start (each says why on its stderr)",
          pool.consecutive_startup_failures);
      break;
    }

    const std::int64_t now_us = NowUs();
    const std::int64_t now = now_us / 1000;

    // Dispatch: each ready worker that holds nothing takes the first due
    // retry, else a fresh range of consecutive shards, kShardsPerDispatch
    // of them while shards are cheap (ShardsAreCheap) and one otherwise. A
    // worker holds one range at a time, so a due retry goes to the first
    // worker to finish its range, and nothing waits behind it.
    const std::uint64_t shards = ShardsAreCheap(pool) ? kShardsPerDispatch : 1;
    for (std::size_t i = 0; i < pool.slots.size(); ++i) {
      WorkerSlot& slot = pool.slots[i];
      if (!slot.alive() || !slot.ready || slot.busy()) continue;
      ShardRange range;
      if (!TakePending(pool, now, &range) && !tracker.Claim(shards, &range)) {
        break;
      }
      json::Value frame;
      frame["type"] = "shard";
      frame["begin"] = static_cast<std::int64_t>(range.begin);
      frame["end"] = static_cast<std::int64_t>(range.end);
      if (range.ack_each) frame["ack_each"] = true;
      slot.held = InFlight{range, now_us,
                           recorder.enabled() ? recorder.NowMicros() : 0.0};
      slot.last_activity_ms = now;
      slot.Record("shard_begin", range.begin, now);
      if (!slot.writer->WriteFrame(frame)) {
        // Dead before the dispatch reached it; fold into the normal death
        // path so its range is retried and the slot refilled.
        HandleWorkerDeath(pool, i, ReapWorker(slot));
      }
    }

    // Spawn into empty slots while there are more dispatchable shards than
    // idle live workers can absorb: every slot on the first pass, then the
    // slots of dead workers. If a busy worker dies its range lands in
    // `pending`, so "no dispatchable work" can only coexist with "no live
    // workers" once everything is resolved. A fork failure is fatal only
    // when no worker is left to carry the run.
    {
      const std::uint64_t dispatchable =
          pool.pending.size() +
          (tracker.unclaimed() + options.shard_size - 1) / options.shard_size;
      std::uint64_t idle = 0;
      for (const WorkerSlot& slot : pool.slots) {
        if (slot.alive() && !slot.busy()) ++idle;
      }
      for (std::size_t i = 0;
           i < pool.slots.size() && idle < dispatchable; ++i) {
        if (pool.slots[i].alive()) continue;
        if (!SpawnWorker(pool, i)) {
          if (CountAlive(pool) == 0) {
            error = StrFormat("could not fork worker %d: %s",
                              static_cast<int>(i), std::strerror(errno));
          }
          break;
        }
        ++idle;
      }
      if (!error.empty()) break;
    }

    // Poll timeout: the earliest of (next retry due, next hang deadline),
    // capped so stop-signal polling stays responsive. A retry bounds it
    // only while a ready worker holds nothing; until then the frame that
    // frees one (ready, shard_done) or a death ends the poll.
    std::int64_t timeout = 100;
    bool retry_taker = false;
    for (const WorkerSlot& slot : pool.slots) {
      retry_taker = retry_taker || (slot.alive() && slot.ready && !slot.busy());
      if (slot.alive() && slot.busy()) {
        const std::int64_t deadline =
            slot.last_activity_ms + hang_timeout_ms;
        timeout = std::min(timeout, std::max<std::int64_t>(deadline - now, 0));
      }
    }
    for (const PendingRetry& p : pool.pending) {
      if (!retry_taker) break;
      timeout = std::min(timeout, std::max<std::int64_t>(p.ready_at_ms - now,
                                                         0));
    }

    if (CountAlive(pool) == 0 && pool.pending.empty()) {
      // No live workers and no retry to wait out, yet not AllResolved():
      // the dispatch/refill invariant was violated. Fail loudly rather
      // than spin.
      error = "no live workers and no pending work to wait for";
      break;
    }
    if (!PollLive(pool, timeout)) {
      error = StrFormat("poll failed: %s", std::strerror(errno));
      break;
    }

    // Drain readable workers. A closed pipe is a death, also for a worker
    // that exited cleanly while idle: its slot is simply refilled.
    for (const std::size_t i : pool.readable) {
      WorkerSlot& slot = pool.slots[i];
      const Drained drained = DrainSlot(pool, i, /*live=*/true);
      if (drained == Drained::kCorrupt) {
        ::kill(slot.pid, SIGKILL);
        HandleWorkerDeath(
            pool, i,
            StrFormat("sent a corrupt frame (%s)", ReapWorker(slot).c_str()));
      } else if (drained == Drained::kEnded) {
        const bool truncated = slot.reader->truncated();
        std::string description = ReapWorker(slot);
        if (truncated) description += " mid-message";
        HandleWorkerDeath(pool, i, description);
      }
    }

    // Hang detection: a busy worker silent past the deadline is hung
    // inside an evaluation (or a seeded kHang fault) — SIGKILL it; the
    // EOF shows up on the next poll, but reap it here so the retry starts
    // its backoff immediately.
    const std::int64_t check = NowMs();
    for (std::size_t i = 0; i < pool.slots.size(); ++i) {
      WorkerSlot& slot = pool.slots[i];
      if (!slot.alive() || !slot.busy()) continue;
      if (check - slot.last_activity_ms <= hang_timeout_ms) continue;
      ::kill(slot.pid, SIGKILL);
      HandleWorkerDeath(
          pool, i,
          StrFormat("hung (no activity for %.1f s; SIGKILLed, %s)",
                    static_cast<double>(check - slot.last_activity_ms) /
                        1000.0,
                    ReapWorker(slot).c_str()));
    }
  }

  // Shutdown: send every worker "exit", then drain the result pipes until
  // each has closed or 2 s have passed. The drain keeps the last shard's
  // telemetry and the exit-time snapshots, which are written after the
  // ack that ended the loop. A worker whose pipe is still open at the
  // deadline has not exited (exiting closes it), so it is SIGKILLed; so is
  // one that sends a corrupt frame.
  json::Value exit_frame;
  exit_frame["type"] = "exit";
  for (WorkerSlot& slot : pool.slots) {
    if (slot.alive()) (void)slot.writer->WriteFrame(exit_frame);
  }
  const std::int64_t drain_deadline = NowMs() + 2000;
  while (CountAlive(pool) > 0) {
    const std::int64_t left = drain_deadline - NowMs();
    if (left <= 0 || !PollLive(pool, left)) break;
    for (const std::size_t i : pool.readable) {
      WorkerSlot& slot = pool.slots[i];
      const Drained drained = DrainSlot(pool, i, /*live=*/false);
      if (drained == Drained::kOpen) continue;
      if (drained == Drained::kCorrupt) ::kill(slot.pid, SIGKILL);
      (void)ReapWorker(slot);
      CloseSlotFds(slot);
    }
  }
  for (WorkerSlot& slot : pool.slots) {
    if (!slot.alive()) continue;
    ::kill(slot.pid, SIGKILL);
    (void)ReapWorker(slot);
    CloseSlotFds(slot);
  }
  ::sigaction(SIGPIPE, &saved_pipe, nullptr);

  // Ingest the workers' telemetry into the global registry: once per slot
  // under a dist.worker.N. tag, and once merged into the shared names so
  // e.g. exec_search.eval_latency aggregates across every worker exactly
  // as the in-process run would have populated it. Every snapshot was
  // checked on arrival (CheckSnapshotFolds), so none of these merges
  // throws.
  if (metrics.enabled()) {
    obs::MetricsSnapshot aggregate;
    for (std::size_t i = 0; i < pool.slots.size(); ++i) {
      FinalizeSlotMetrics(pool, i);
      const obs::MetricsSnapshot& per_slot = pool.finalized_metrics[i];
      if (per_slot.empty()) continue;
      metrics.Ingest(per_slot, SlotPrefix(i));
      aggregate.Merge(per_slot);
    }
    if (!aggregate.empty()) metrics.Ingest(aggregate, "");
  }

  if (pool.engine_error) std::rethrow_exception(pool.engine_error);
  if (!error.empty()) throw ConfigError("dist supervisor: " + error);
}

}  // namespace calculon::dist
