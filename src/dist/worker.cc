#include "dist/worker.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>

#include "dist/jobs.h"
#include "dist/wire.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/fault_injection.h"

namespace calculon::dist {

namespace {

// Configures the worker-side telemetry from the init frame's "telemetry"
// object (see InitFrame in dist/supervisor.h). Tracing aligns onto the
// supervisor's timeline: the steady clock is shared across fork(), so
// adopting the parent recorder's start_ns makes worker timestamps land on
// the same axis as supervisor events.
void ConfigureTelemetry(const json::Value& frame) {
  if (!frame.contains("telemetry")) return;
  const json::Value& telemetry = frame.at("telemetry");
  if (telemetry.GetBool("metrics", false)) {
    obs::MetricsRegistry::Global().Enable();
  }
  if (telemetry.GetBool("trace", false)) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    recorder.Start();
    const std::int64_t start_ns = telemetry.GetInt("trace_start_ns", 0);
    if (start_ns != 0) recorder.AlignStart(start_ns);
  }
}

// Queues the cumulative metrics snapshot and any buffered trace events.
// Called from quiescent points (before each shard_done, before exit). All
// telemetry frames are purely observational — the supervisor's reorder
// buffers never see them, preserving bit-identical outputs.
void QueueTelemetry(FrameWriter& writer) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled()) {
    json::Value frame;
    frame["type"] = "metrics_snapshot";
    frame["metrics"] = metrics.Snapshot().ToJson();
    writer.QueueFrame(frame);
  }
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  if (recorder.enabled()) {
    obs::TraceRecorder::Chunk chunk = recorder.DrainChunk();
    if (!chunk.events.empty() || chunk.dropped > 0) {
      json::Value frame;
      frame["type"] = "trace_chunk";
      frame["events"] = json::Value(std::move(chunk.events));
      frame["dropped"] = static_cast<std::int64_t>(chunk.dropped);
      writer.QueueFrame(frame);
    }
  }
}

int WorkerLoop(Job& job, FrameReader& reader, FrameWriter& writer) {
  auto& faults = testing::FaultInjector::Global();
  bool initialized = false;
  json::Value frame;
  while (reader.ReadFrameBlocking(&frame)) {
    const std::string type = frame.GetString("type", "");
    if (type == "init") {
      faults.Configure(
          testing::FaultPlan::FromSpec(frame.GetString("faults", "")));
      ConfigureTelemetry(frame);
      initialized = true;
      json::Value ready;
      ready["type"] = "ready";
      if (!writer.WriteFrame(ready)) return 1;
    } else if (type == "shard") {
      const auto begin = static_cast<std::uint64_t>(frame.at("begin").AsInt());
      const auto end = static_cast<std::uint64_t>(frame.at("end").AsInt());
      // Before init, or past the job's end: a corrupt parent.
      if (!initialized || end > job.num_items()) return 1;
      const bool ack_each = frame.GetBool("ack_each", false);
      // When the worker last wrote, or got the shard: it writes at least
      // every kFlushInterval while it works.
      auto last_write = std::chrono::steady_clock::now();
      // The result lines of items [run_begin, run_begin + run_count),
      // finished since the last write, each ending in '\n'.
      std::uint64_t run_begin = begin;
      std::uint64_t run_count = 0;
      std::string run_lines;
      auto queue_run = [&] {
        if (run_count == 0) return;
        json::Value header;
        header["type"] = "items";
        header["begin"] = static_cast<std::int64_t>(run_begin);
        header["count"] = static_cast<std::int64_t>(run_count);
        writer.QueueFrame(header);
        writer.QueueLines(run_lines);
        run_begin += run_count;
        run_count = 0;
        run_lines.clear();
      };
      for (std::uint64_t i = begin; i < end; ++i) {
        // The process-level fault decision fires before the evaluation:
        // an aborted/hung item never acks, so on a retried (ack_each)
        // shard the supervisor's suspect is exactly this item.
        faults.MaybeInjectProcess(job.FaultKey(i));
        run_lines += job.RunItem(i);
        run_lines += '\n';
        ++run_count;
        const auto now = std::chrono::steady_clock::now();
        if (ack_each || now - last_write >= kFlushInterval) {
          queue_run();
          if (!writer.Flush()) return 1;
          last_write = now;
        }
      }
      queue_run();
      QueueTelemetry(writer);
      json::Value done;
      done["type"] = "shard_done";
      done["begin"] = static_cast<std::int64_t>(begin);
      done["end"] = static_cast<std::int64_t>(end);
      if (!writer.WriteFrame(done)) return 1;
    } else if (type == "exit") {
      // Final cumulative telemetry; the supervisor drains the pipe to EOF
      // during shutdown, so these frames are never lost.
      QueueTelemetry(writer);
      (void)writer.Flush();
      return 0;
    } else {
      return 1;  // unknown frame: corrupt parent
    }
  }
  // Parent closed the command pipe without an exit frame (it died or gave
  // up on us): quiet, clean exit.
  return 0;
}

}  // namespace

int WorkerMain(Job& job, int in_fd, int out_fd) {
  // First things first: the fork inherited the parent's obs globals —
  // including mutexes in whatever state other parent threads (a progress
  // reporter, a tracing thread pool) held them at the instant of fork().
  // Re-create them before anything can touch telemetry.
  obs::TraceRecorder::Global().ReinitAfterFork();
  obs::MetricsRegistry::Global().ReinitAfterFork();
  FrameReader reader(in_fd);
  FrameWriter writer(out_fd);
  try {
    return WorkerLoop(job, reader, writer);
  } catch (const std::exception& ex) {
    // A throw out of the loop means the job itself is broken (a RunItem
    // bug, a malformed frame) — not a per-item failure, those are isolated
    // inside RunItem. Log and die; the supervisor sees the exit.
    std::fprintf(stderr, "calculon worker: fatal: %s\n", ex.what());
    return 1;
  }
}

}  // namespace calculon::dist
