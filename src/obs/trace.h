// Observability layer, part 1: the trace recorder.
//
// Records Chrome trace-event / Perfetto-compatible timelines of where the
// tool's own wall-clock goes: spans around search phases and thread-pool
// items, sampled per-evaluation model-phase breakdowns, instant markers,
// and counter tracks (progress). Open the emitted file in
// https://ui.perfetto.dev or chrome://tracing (see docs/observability.md).
//
// Design constraints (the model is the product; observing it must not
// perturb it):
//   * Zero overhead when off: every entry point starts with one relaxed
//     atomic load, and the CALC_TRACE_* macros compile out entirely under
//     CALCULON_NO_OBS (the CALC_DCHECK pattern).
//   * Lock-cheap when on: each thread appends to its own buffer behind an
//     uncontended per-thread mutex; the global registry lock is taken only
//     on first use per thread and at export time.
//   * Deterministic results: the recorder reads the monotonic clock for
//     its own timestamps only — model outputs never depend on it.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "json/json.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace calculon::obs {

// Microseconds since an arbitrary process-local epoch, from the monotonic
// (steady) clock. Used for latency measurements fed into metrics.
[[nodiscard]] double MonotonicMicros();

// One recorded event. `category` is a static string (trace call sites pass
// literals); `name` may be dynamic (per-item labels).
struct TraceEvent {
  enum class Phase : char {
    kComplete = 'X',  // span: ts + dur
    kInstant = 'i',   // point marker
    kCounter = 'C',   // counter-track sample
  };
  Phase phase = Phase::kComplete;
  const char* category = "";
  std::string name;
  double ts_us = 0.0;   // microseconds since recorder start
  double dur_us = 0.0;  // complete events only
  double value = 0.0;   // counter events only
};

// Thread-aware recorder of trace events. One global instance backs the
// CALC_TRACE_* macros; tests may construct private instances.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  [[nodiscard]] static TraceRecorder& Global();

  // Clears previous events, re-zeroes the time origin, starts recording.
  // Must not race with threads that are actively recording: call between
  // sweeps (Stop() is safe to call at any time).
  void Start() CALC_EXCLUDES(registry_mutex_);
  void Stop();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Microseconds since Start() (0 when never started).
  [[nodiscard]] double NowMicros() const;

  // All Record* calls are safe from any thread and no-ops when disabled.
  void RecordComplete(const char* category, std::string name, double ts_us,
                      double dur_us);
  void RecordInstant(const char* category, std::string name);
  void RecordCounter(const char* series, double value);

  // Sampling gate for high-frequency detail spans (the per-evaluation
  // model-phase breakdown): true for 1 out of every `detail_period` calls,
  // starting with the first. Always false when disabled.
  [[nodiscard]] bool SampleDetail();
  void set_detail_period(std::uint64_t period);

  // Cap on buffered events per thread; excess events are counted in
  // dropped() instead of recorded (bounds memory on huge sweeps).
  void set_max_events_per_thread(std::size_t cap);
  [[nodiscard]] std::uint64_t dropped() const CALC_EXCLUDES(registry_mutex_);

  // Snapshot as a trace-event-format JSON document:
  //   {"displayTimeUnit": "ms", "traceEvents": [...]}
  // Includes thread_name metadata events; when external lanes are present
  // (AddExternalEvents) it also emits process_name metadata so Perfetto
  // shows one labelled lane per process. Safe while recording (events
  // appended concurrently may or may not be included).
  [[nodiscard]] json::Value ToJson() const CALC_EXCLUDES(registry_mutex_);
  void WriteFile(const std::string& path) const;

  // --- Cross-process merge support (src/dist) ---

  // Re-bases the time origin onto another process's recorder start (the
  // steady clock is shared across fork(), so a supervised worker calls
  // Start() then AlignStart(parent_start_ns) and its timestamps land on
  // the supervisor's timeline). Call before recording any events.
  void AlignStart(std::int64_t start_ns) {
    start_ns_.store(start_ns, std::memory_order_release);
  }
  [[nodiscard]] std::int64_t start_ns() const {
    return start_ns_.load(std::memory_order_acquire);
  }

  // A drained batch of rendered trace events, ready to ship over the wire
  // as a trace_chunk frame. Events carry no "pid" field — the ingesting
  // recorder stamps the sender's real pid via AddExternalEvents().
  struct Chunk {
    json::Array events;
    std::uint64_t dropped = 0;
  };

  // Moves every buffered event (plus per-thread thread_name metadata) out
  // of the per-thread buffers into rendered JSON form and zeroes the
  // per-buffer dropped tallies — the counts travel with the chunk exactly
  // once. Call from quiescent points (a worker between items/shards).
  [[nodiscard]] Chunk DrainChunk() CALC_EXCLUDES(registry_mutex_);

  // Registers rendered events from another process (a worker's DrainChunk
  // shipped over the wire) under a dedicated per-process lane: every event
  // is stamped with `pid`, and ToJson() emits process_name metadata naming
  // the lane. Repeated calls for the same pid append.
  void AddExternalEvents(int pid, const std::string& process_name,
                         const json::Array& events)
      CALC_EXCLUDES(registry_mutex_);

  // Folds a foreign recorder's dropped-event count (a chunk's `dropped`)
  // into this recorder's dropped() total.
  void AddExternalDropped(std::uint64_t n) {
    external_dropped_.fetch_add(n, std::memory_order_relaxed);
  }

  // Reinitializes the recorder inside a freshly forked, single-threaded
  // child (dist/worker.h). The child inherits the registry and per-thread
  // buffer mutexes in whatever state other parent threads held them at
  // fork(), so the registry mutex is re-created in place and the inherited
  // buffers are abandoned (deliberately leaked — destroying a possibly
  // locked mutex is UB). Bumps the epoch so stale TLS buffer caches miss.
  void ReinitAfterFork();

 private:
  struct ThreadBuffer {
    Mutex mutex;
    std::vector<TraceEvent> events CALC_GUARDED_BY(mutex);
    // Written once (under the registry lock) before the buffer is published
    // to other threads, read-only after.
    int tid = 0;  // set before publication
    std::uint64_t dropped CALC_GUARDED_BY(mutex) = 0;
  };

  [[nodiscard]] ThreadBuffer* BufferForThisThread()
      CALC_EXCLUDES(registry_mutex_);
  void Append(TraceEvent event);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> detail_counter_{0};
  std::atomic<std::uint64_t> detail_period_{1000};
  std::atomic<std::size_t> max_events_per_thread_{1u << 18};
  std::atomic<std::uint64_t> epoch_{0};  // bumped by Start(): invalidates
                                         // cached thread buffers
  std::atomic<std::int64_t> start_ns_{0};

  // One foreign process's lane: rendered events (already pid-stamped) plus
  // the Perfetto process label.
  struct ExternalLane {
    std::string process_name;
    json::Array events;
  };

  // Guards the list of buffers itself; each buffer's contents are behind
  // its own per-thread mutex.
  mutable Mutex registry_mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_
      CALC_GUARDED_BY(registry_mutex_);
  int next_tid_ CALC_GUARDED_BY(registry_mutex_) = 1;
  std::map<int, ExternalLane> external_lanes_
      CALC_GUARDED_BY(registry_mutex_);
  std::atomic<std::uint64_t> external_dropped_{0};
};

// RAII span: records one complete event on the global recorder covering the
// scope's lifetime. Costs one relaxed load when recording is off: `name`,
// a callable returning the label, is called only when recording is on.
class TraceSpan {
 public:
  template <typename NameFn>
  TraceSpan(const char* category, NameFn&& name) : category_(category) {
    TraceRecorder& recorder = TraceRecorder::Global();
    if (!recorder.enabled()) return;
    name_ = name();
    active_ = true;
    start_us_ = recorder.NowMicros();
  }
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* category_;
  std::string name_;
  double start_us_ = 0.0;
  bool active_ = false;
};

}  // namespace calculon::obs

// Compile-out-able convenience macros (mirroring CALC_DCHECK): under
// CALCULON_NO_OBS they expand to nothing, so instrumented hot paths carry
// no code at all. CALC_TRACE_SPAN evaluates its `name` expression only
// while the recorder is on, so a formatted label costs nothing otherwise.
#ifdef CALCULON_NO_OBS
#define CALC_TRACE_SPAN(category, name) \
  do {                                  \
  } while (false)
#define CALC_TRACE_INSTANT(category, name) \
  do {                                     \
  } while (false)
#define CALC_TRACE_COUNTER(series, value) \
  do {                                    \
  } while (false)
#else
#define CALC_TRACE_CONCAT_(a, b) a##b
#define CALC_TRACE_CONCAT(a, b) CALC_TRACE_CONCAT_(a, b)
#define CALC_TRACE_SPAN(category, name)                    \
  ::calculon::obs::TraceSpan CALC_TRACE_CONCAT(            \
      calc_trace_span_, __COUNTER__)(                      \
      (category), [&]() -> std::string { return (name); })
#define CALC_TRACE_INSTANT(category, name)                              \
  do {                                                                  \
    ::calculon::obs::TraceRecorder& calc_trace_rec_ =                   \
        ::calculon::obs::TraceRecorder::Global();                       \
    if (calc_trace_rec_.enabled()) {                                    \
      calc_trace_rec_.RecordInstant((category), (name));                \
    }                                                                   \
  } while (false)
#define CALC_TRACE_COUNTER(series, value)                               \
  do {                                                                  \
    ::calculon::obs::TraceRecorder& calc_trace_rec_ =                   \
        ::calculon::obs::TraceRecorder::Global();                       \
    if (calc_trace_rec_.enabled()) {                                    \
      calc_trace_rec_.RecordCounter((series),                           \
                                    static_cast<double>(value));        \
    }                                                                   \
  } while (false)
#endif
