// Observability layer, part 2: the metrics registry.
//
// A process-wide inventory of named counters and fixed-bucket histograms
// describing the tool's own behavior: evaluation latency,
// feasible/infeasible/culled candidate counts by rejection reason,
// checkpoint writes, injected faults. Exported as JSON (for
// `--metrics=<file>` and the perfbench per-layer probes; see
// docs/observability.md for the metric inventory).
//
// Counters are cheap lock-free atomics. Histograms are HistogramSnapshots
// held under the registry mutex and only ever merged into: a sweep engine
// observes into a plain per-sweep HistogramSnapshot and merges it once
// (MergeHistogram), so the per-evaluation path touches no shared state —
// and skips even that when the registry is disabled (the default), so
// runs without --metrics pay nothing.
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

// The largest count a snapshot may hold. An export writes each count as a
// JSON number, a double, and FromJson reads back only those below 2^63; the
// largest double below 2^63 is 2^63 - 1024, so a larger count (2^63 - 1
// included) would export as a number FromJson refuses, or as a negative
// one. A merge or ingest that would carry a count past it is a ConfigError.
inline constexpr std::uint64_t kMaxCount = (std::uint64_t{1} << 63) - 1024;

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// The default bucket ladder for evaluation-latency histograms: log-spaced
// microseconds covering sub-microsecond model calls up to multi-second
// stalls (0.25us .. ~4.2s, x2 per bucket: 0.25 * 2^k for k = 0..23).
[[nodiscard]] std::vector<double> DefaultLatencyBoundsUs();

// --- Histograms and mergeable snapshots ---
//
// Plain values that can cross a process boundary: supervised workers ship
// them over the NDJSON wire (dist/worker.h, frame kind metrics_snapshot)
// and the supervisor merges them back into its registry. Merge semantics:
// counters add, histograms add bucket-wise and REQUIRE identical bucket
// layouts (a mismatch is a loud ConfigError, never silent skew), and no
// sum may pass kMaxCount (a ConfigError too, never a negative export).

// One fixed-bucket histogram. `bounds` are strictly ascending inclusive
// upper bounds; `bucket_counts` has bounds.size() + 1 entries (the last is
// the overflow bucket, above the last bound), and they sum to `count`.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;

  // No observations and no bucket layout (the merge identity element).
  [[nodiscard]] bool empty() const { return count == 0 && bounds.empty(); }

  // No observations over `bounds`' bucket layout; ConfigError unless the
  // bounds are strictly ascending.
  [[nodiscard]] static HistogramSnapshot WithLayout(std::vector<double> bounds);
  // Counts `value` in the first bucket whose upper bound is >= value.
  void Observe(double value);

  // Adds `other` into this snapshot. Merging an empty snapshot (either
  // direction) is the identity; otherwise `other` must have a valid bucket
  // layout identical to this one's and the summed count must not pass
  // kMaxCount, or Merge throws ConfigError and changes nothing. Merging is
  // associative and commutative on the bucket counts, so quantiles are
  // stable under merge order.
  void Merge(const HistogramSnapshot& other);
  // Throws the ConfigError Merge(other) would throw, changing nothing.
  void CheckMerge(const HistogramSnapshot& other) const;

  // Quantile estimate (q in [0, 1]) by linear interpolation inside the
  // bucket holding the target rank; the first bucket interpolates from 0,
  // the overflow bucket reports the last bound. 0 when empty.
  [[nodiscard]] double Quantile(double q) const;

  // {"count", "sum", "bounds", "bucket_counts", "p50", "p95", "p99"} —
  // the registry-export shape. FromJson ignores the derived quantiles and
  // throws ConfigError on malformed input: a bad bucket layout, a count
  // outside [0, 2^63) or a count other than the bucket counts' sum.
  [[nodiscard]] json::Value ToJson() const;
  [[nodiscard]] static HistogramSnapshot FromJson(const json::Value& v);
};

// A full registry snapshot: every instrument by name.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && histograms.empty();
  }

  // Counters add, histograms Merge() (with the bucket-layout check). A sum
  // past kMaxCount or a layout mismatch is a ConfigError, checked before
  // anything changes.
  void Merge(const MetricsSnapshot& other);

  // {"counters": {...}, "histograms": {name: HistogramSnapshot::ToJson}},
  // the registry's export shape; keys sorted, so serialization is
  // deterministic. FromJson throws ConfigError on malformed input,
  // including a counter outside [0, 2^63).
  [[nodiscard]] json::Value ToJson() const;
  [[nodiscard]] static MetricsSnapshot FromJson(const json::Value& v);
};

// Named-instrument registry. Counters live as long as the registry, so
// callers cache the returned pointers across a sweep.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] static MetricsRegistry& Global();

  // Recording is opt-in (--metrics, bench harness): engines skip clock
  // reads and instrument updates entirely when disabled.
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] Counter* GetCounter(const std::string& name)
      CALC_EXCLUDES(mutex_);
  // Merges `snapshot` into histogram `name`. The first non-empty merge
  // fixes the histogram's bucket layout; a merge of another layout throws
  // ConfigError and leaves the histogram unchanged. An empty snapshot is a
  // no-op and creates no histogram.
  void MergeHistogram(const std::string& name,
                      const HistogramSnapshot& snapshot) CALC_EXCLUDES(mutex_);

  // Snapshot().ToJson().
  [[nodiscard]] json::Value ToJson() const CALC_EXCLUDES(mutex_);

  // Copies every instrument into a detached, mergeable snapshot. Each
  // histogram is copied whole under the registry mutex, so none is torn;
  // counters are read one by one.
  [[nodiscard]] MetricsSnapshot Snapshot() const CALC_EXCLUDES(mutex_);

  // Folds a snapshot into this registry, each name prefixed with `prefix`
  // ("dist.worker.3." tags a worker's instruments; "" aggregates into the
  // shared names). Counters increment, histograms MergeHistogram. A
  // bucket-layout mismatch with an existing histogram, or a count the fold
  // would carry past kMaxCount, is a ConfigError, checked (CheckIngest)
  // before anything changes.
  void Ingest(const MetricsSnapshot& snapshot, const std::string& prefix)
      CALC_EXCLUDES(mutex_);
  // Throws the ConfigError Ingest(snapshot, prefix) would throw now,
  // changing nothing.
  void CheckIngest(const MetricsSnapshot& snapshot,
                   const std::string& prefix) const CALC_EXCLUDES(mutex_);

  // Drops every instrument (cached counter pointers become invalid) — for
  // tests and for zeroing between bench harness phases.
  void Reset() CALC_EXCLUDES(mutex_);

  // Reinitializes the registry inside a freshly forked, single-threaded
  // child process (dist/worker.h): the child inherits the parent's mutex
  // in whatever state some other parent thread held it at the instant of
  // fork(), so it is re-created in place before first use and every
  // inherited instrument is dropped. Only callable where no other thread
  // can touch the registry — i.e. immediately after fork().
  void ReinitAfterFork();

 private:
  std::atomic<bool> enabled_{false};
  // Guards both maps and the histograms; counters are lock-free atomics.
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      CALC_GUARDED_BY(mutex_);
  std::map<std::string, HistogramSnapshot> histograms_ CALC_GUARDED_BY(mutex_);
};

// "insufficient memory capacity" -> "insufficient_memory_capacity": metric
// name segments from human-readable reason strings.
[[nodiscard]] std::string MetricNameSegment(const std::string& s);

}  // namespace calculon::obs
