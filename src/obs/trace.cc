#include "obs/trace.h"

#include <chrono>
#include <utility>

namespace calculon::obs {

namespace {

// Cached buffer of the calling thread, valid for (owner, epoch). Checking
// both lets Start() invalidate every thread's cache and lets tests run
// private recorder instances side by side with the global one.
struct TlsCache {
  const TraceRecorder* owner = nullptr;
  std::uint64_t epoch = 0;
  void* buffer = nullptr;  // ThreadBuffer*, kept alive by the recorder
};
thread_local TlsCache tls_cache;

// Monotonic epochs shared by every recorder instance so Start() can hand
// out a process-unique epoch.
std::atomic<std::uint64_t> g_next_epoch{1};

[[nodiscard]] std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Renders one event in trace-event-format, without a "pid" field — local
// export (ToJson) stamps pid 1, cross-process export (DrainChunk) leaves
// the stamping to the ingesting recorder.
[[nodiscard]] json::Value RenderEvent(const TraceEvent& event, int tid) {
  json::Value v;
  v["name"] = event.name;
  v["cat"] = std::string(event.category);
  v["ph"] = std::string(1, static_cast<char>(event.phase));
  v["tid"] = tid;
  v["ts"] = event.ts_us;
  switch (event.phase) {
    case TraceEvent::Phase::kComplete:
      v["dur"] = event.dur_us;
      break;
    case TraceEvent::Phase::kInstant:
      v["s"] = "t";  // thread-scoped marker
      break;
    case TraceEvent::Phase::kCounter: {
      json::Value args;
      args["value"] = event.value;
      v["args"] = args;
      break;
    }
  }
  return v;
}

// Thread-name metadata so Perfetto labels the track (again without "pid").
[[nodiscard]] json::Value RenderThreadNameMeta(int tid) {
  json::Value meta;
  meta["name"] = "thread_name";
  meta["ph"] = "M";
  meta["tid"] = tid;
  json::Value meta_args;
  meta_args["name"] = "thread-" + std::to_string(tid);
  meta["args"] = meta_args;
  return meta;
}

// Process-name metadata labelling one pid's lane.
[[nodiscard]] json::Value RenderProcessNameMeta(int pid,
                                                const std::string& name) {
  json::Value meta;
  meta["name"] = "process_name";
  meta["ph"] = "M";
  meta["pid"] = pid;
  json::Value meta_args;
  meta_args["name"] = name;
  meta["args"] = meta_args;
  return meta;
}

}  // namespace

double MonotonicMicros() {
  return static_cast<double>(SteadyNowNs()) * 1e-3;
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder global;
  return global;
}

void TraceRecorder::Start() {
  MutexLock lock(registry_mutex_);
  buffers_.clear();
  next_tid_ = 1;
  external_lanes_.clear();
  external_dropped_.store(0, std::memory_order_relaxed);
  epoch_.store(g_next_epoch.fetch_add(1, std::memory_order_relaxed),
               std::memory_order_release);
  detail_counter_.store(0, std::memory_order_relaxed);
  start_ns_.store(SteadyNowNs(), std::memory_order_release);
  enabled_.store(true, std::memory_order_release);
}

void TraceRecorder::Stop() {
  enabled_.store(false, std::memory_order_release);
}

double TraceRecorder::NowMicros() const {
  const std::int64_t start = start_ns_.load(std::memory_order_acquire);
  if (start == 0) return 0.0;
  return static_cast<double>(SteadyNowNs() - start) * 1e-3;
}

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (tls_cache.owner == this && tls_cache.epoch == epoch) {
    return static_cast<ThreadBuffer*>(tls_cache.buffer);
  }
  auto buffer =
      std::make_shared<ThreadBuffer>();  // allocated once
                                         // per thread per epoch (TLS miss)
  {
    MutexLock lock(registry_mutex_);  // locked on a TLS miss
                                      // only, amortized to zero
    buffer->tid = next_tid_++;
    buffers_.push_back(buffer);
  }
  tls_cache = TlsCache{this, epoch, buffer.get()};
  return buffer.get();
}

void TraceRecorder::Append(TraceEvent event) {
  ThreadBuffer* buffer = BufferForThisThread();
  MutexLock lock(buffer->mutex);  // an uncontended
                                  // per-thread lock; only when tracing is on
  if (buffer->events.size() >=
      max_events_per_thread_.load(std::memory_order_relaxed)) {
    ++buffer->dropped;
    return;
  }
  buffer->events.push_back(std::move(event));
}

void TraceRecorder::RecordComplete(const char* category, std::string name,
                                   double ts_us, double dur_us) {
  if (!enabled()) return;
  TraceEvent event;
  event.phase = TraceEvent::Phase::kComplete;
  event.category = category;
  event.name = std::move(name);
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  Append(std::move(event));
}

void TraceRecorder::RecordInstant(const char* category, std::string name) {
  if (!enabled()) return;
  TraceEvent event;
  event.phase = TraceEvent::Phase::kInstant;
  event.category = category;
  event.name = std::move(name);
  event.ts_us = NowMicros();
  Append(std::move(event));
}

void TraceRecorder::RecordCounter(const char* series, double value) {
  if (!enabled()) return;
  TraceEvent event;
  event.phase = TraceEvent::Phase::kCounter;
  event.category = "counter";
  event.name = series;
  event.ts_us = NowMicros();
  event.value = value;
  Append(std::move(event));
}

bool TraceRecorder::SampleDetail() {
  if (!enabled()) return false;
  const std::uint64_t period =
      detail_period_.load(std::memory_order_relaxed);
  if (period <= 1) return true;
  return detail_counter_.fetch_add(1, std::memory_order_relaxed) % period ==
         0;
}

void TraceRecorder::set_detail_period(std::uint64_t period) {
  detail_period_.store(period == 0 ? 1 : period, std::memory_order_relaxed);
}

void TraceRecorder::set_max_events_per_thread(std::size_t cap) {
  max_events_per_thread_.store(cap, std::memory_order_relaxed);
}

std::uint64_t TraceRecorder::dropped() const {
  std::uint64_t total = external_dropped_.load(std::memory_order_relaxed);
  MutexLock lock(registry_mutex_);
  for (const auto& buffer : buffers_) {
    MutexLock buffer_lock(buffer->mutex);
    total += buffer->dropped;
  }
  return total;
}

TraceRecorder::Chunk TraceRecorder::DrainChunk() {
  Chunk chunk;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(registry_mutex_);
    buffers = buffers_;
  }
  for (const auto& buffer : buffers) {
    std::vector<TraceEvent> drained;
    int tid = 0;
    std::uint64_t dropped = 0;
    {
      MutexLock buffer_lock(buffer->mutex);
      drained = std::move(buffer->events);
      buffer->events.clear();
      tid = buffer->tid;
      dropped = buffer->dropped;
      buffer->dropped = 0;
    }
    chunk.dropped += dropped;
    if (drained.empty() && dropped == 0) continue;
    chunk.events.push_back(RenderThreadNameMeta(tid));
    for (const TraceEvent& event : drained) {
      chunk.events.push_back(RenderEvent(event, tid));
    }
  }
  return chunk;
}

void TraceRecorder::AddExternalEvents(int pid,
                                      const std::string& process_name,
                                      const json::Array& events) {
  MutexLock lock(registry_mutex_);
  ExternalLane& lane = external_lanes_[pid];
  lane.process_name = process_name;
  for (const json::Value& event : events) {
    json::Value stamped = event;
    stamped["pid"] = pid;
    lane.events.push_back(std::move(stamped));
  }
}

void TraceRecorder::ReinitAfterFork() {
  enabled_.store(false, std::memory_order_relaxed);
  // Inherited per-thread buffers may hold mutexes some parent thread had
  // locked at fork(); destroying a locked mutex is UB, so the buffers are
  // abandoned (deliberately leaked — a fork-per-shard worker leaks a few
  // buffers once, not per item).
  using BufferList = std::vector<std::shared_ptr<ThreadBuffer>>;
  auto* abandoned = new BufferList();  // lint-ok(naked-new): leak on purpose
  new (&registry_mutex_) Mutex();  // lint-ok(naked-new): placement-new
  MutexLock lock(registry_mutex_);
  abandoned->swap(buffers_);
  next_tid_ = 1;
  external_lanes_.clear();
  external_dropped_.store(0, std::memory_order_relaxed);
  // Invalidate every TLS buffer cache pointing at the abandoned buffers.
  epoch_.store(g_next_epoch.fetch_add(1, std::memory_order_relaxed),
               std::memory_order_release);
}

json::Value TraceRecorder::ToJson() const {
  json::Array events;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::map<int, ExternalLane> external;
  {
    MutexLock lock(registry_mutex_);
    buffers = buffers_;
    external = external_lanes_;
  }
  // Local events keep the recorder's fixed pid 1; real pids appear only on
  // external lanes. When external lanes exist, label pid 1's lane too so
  // the merged timeline reads supervisor vs worker-<pid>.
  if (!external.empty()) {
    events.push_back(RenderProcessNameMeta(1, "supervisor"));
  }
  for (const auto& buffer : buffers) {
    std::vector<TraceEvent> snapshot;
    int tid = 0;
    {
      MutexLock buffer_lock(buffer->mutex);
      snapshot = buffer->events;
      tid = buffer->tid;
    }
    json::Value meta = RenderThreadNameMeta(tid);
    meta["pid"] = 1;
    events.push_back(std::move(meta));
    for (const TraceEvent& event : snapshot) {
      json::Value v = RenderEvent(event, tid);
      v["pid"] = 1;
      events.push_back(std::move(v));
    }
  }
  for (const auto& [pid, lane] : external) {
    events.push_back(RenderProcessNameMeta(pid, lane.process_name));
    for (const json::Value& event : lane.events) {
      events.push_back(event);
    }
  }
  json::Value doc;
  doc["displayTimeUnit"] = "ms";
  doc["traceEvents"] = json::Value(std::move(events));
  return doc;
}

void TraceRecorder::WriteFile(const std::string& path) const {
  json::WriteFile(path, ToJson());
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  TraceRecorder& recorder = TraceRecorder::Global();
  if (!recorder.enabled()) return;
  const double end_us = recorder.NowMicros();
  recorder.RecordComplete(category_, std::move(name_), start_us_,
                          end_us - start_us_);
}

}  // namespace calculon::obs
