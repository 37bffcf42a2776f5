// Observability layer, part 2: the metrics registry.
//
// A process-wide inventory of named counters, gauges, and fixed-bucket
// histograms describing the tool's own behavior: evaluation latency,
// feasible/infeasible/culled candidate counts by rejection reason,
// checkpoint writes, injected faults. Exported as JSON
// (for `--metrics=<file>` and the perfbench per-layer probes) and as an
// ASCII table (see docs/observability.md for the metric inventory).
//
// Instruments are cheap lock-free atomics; the registry mutex is taken
// only on instrument lookup and export. Sweep engines fetch instrument
// pointers once per sweep and keep shared atomics off the per-evaluation
// path (a plain HistogramSnapshot per sweep, merged once) — and skip even
// that when the registry is disabled (the default), so runs without
// --metrics pay nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "json/json.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace calculon::obs {

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

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot;

// Fixed-bucket histogram. `bounds` are ascending inclusive upper bounds;
// one implicit overflow bucket catches everything above the last bound.
// Observe() is wait-free apart from a CAS loop on the running sum.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  // `count` log-spaced bounds: start, start*factor, start*factor^2, ...
  [[nodiscard]] static std::vector<double> ExponentialBounds(double start,
                                                             double factor,
                                                             int count);

  void Observe(double value);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  // i in [0, bounds().size()]; the last index is the overflow bucket.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  // Quantile estimate (q in [0, 1]) by linear interpolation inside the
  // bucket holding the target rank; the first bucket interpolates from 0,
  // the overflow bucket reports the last bound. 0 when empty.
  [[nodiscard]] double Quantile(double q) const;

  // Adds a snapshot's buckets into this histogram. The snapshot's bucket
  // layout must be identical to this histogram's (ConfigError otherwise);
  // an empty snapshot is a no-op.
  void MergeFrom(const HistogramSnapshot& snapshot);

 private:
  std::vector<double> bounds_;
  // unique_ptr array rather than vector<atomic> (atomics are not movable).
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// The default bucket ladder for evaluation-latency histograms: log-spaced
// microseconds covering sub-microsecond model calls up to multi-second
// stalls (0.25us .. ~4.2s, x2 per bucket).
[[nodiscard]] std::vector<double> DefaultLatencyBoundsUs();

// --- Mergeable snapshots ---
//
// Point-in-time copies of instruments, detached from the lock-free
// atomics, that can cross a process boundary: supervised workers ship
// them over the NDJSON wire (dist/worker.h, frame kind metrics_snapshot)
// and the supervisor merges them back into its registry. Merge semantics:
// counters add, gauges are last-write-wins, histograms add bucket-wise and
// REQUIRE identical bucket layouts (a mismatch is a loud ConfigError,
// never silent skew).

// One histogram's state. `bucket_counts` has bounds.size() + 1 entries
// (the last is the overflow bucket).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;

  // No observations and no bucket layout (the merge identity element).
  [[nodiscard]] bool empty() const { return count == 0 && bounds.empty(); }

  // No observations over `bounds`' bucket layout: a single-threaded
  // accumulator for Observe, folded into a live histogram with
  // Histogram::MergeFrom.
  [[nodiscard]] static HistogramSnapshot WithLayout(std::vector<double> bounds);
  // Histogram::Observe with plain, non-atomic counts.
  void Observe(double value);

  // Adds `other` into this snapshot. Merging an empty snapshot (either
  // direction) is the identity; otherwise the bucket layouts must be
  // identical or Merge throws ConfigError. Merging is associative and
  // commutative on the bucket counts, so quantiles are stable under merge
  // order.
  void Merge(const HistogramSnapshot& other);

  // Same estimator as Histogram::Quantile, over the snapshot's buckets.
  [[nodiscard]] double Quantile(double q) const;

  // {"count", "sum", "bounds", "bucket_counts", "p50", "p95", "p99"} —
  // the registry-export shape. FromJson ignores the derived quantiles and
  // validates the bucket layout (ConfigError on malformed input).
  [[nodiscard]] json::Value ToJson() const;
  [[nodiscard]] static HistogramSnapshot FromJson(const json::Value& v);
};

// A full registry snapshot: every instrument by name.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  // Counters add, gauges take `other`'s value, histograms Merge() (with
  // the bucket-layout check).
  void Merge(const MetricsSnapshot& other);

  // The same document shape as MetricsRegistry::ToJson(); keys sorted, so
  // serialization is deterministic. FromJson throws ConfigError on
  // malformed input.
  [[nodiscard]] json::Value ToJson() const;
  [[nodiscard]] static MetricsSnapshot FromJson(const json::Value& v);
};

// Named-instrument registry. Instruments live as long as the registry, so
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
  [[nodiscard]] Gauge* GetGauge(const std::string& name) CALC_EXCLUDES(mutex_);
  // The first call fixes the bucket bounds; later calls with the same name
  // return the existing histogram regardless of `bounds`.
  [[nodiscard]] Histogram* GetHistogram(const std::string& name,
                                        std::vector<double> bounds)
      CALC_EXCLUDES(mutex_);
  // True when there is no histogram `name` or its bounds are `bounds`:
  // Ingest can fold a snapshot histogram of that layout into it.
  [[nodiscard]] bool HistogramFits(const std::string& name,
                                   const std::vector<double>& bounds) const
      CALC_EXCLUDES(mutex_);

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {"count",
  // "sum", "bounds", "bucket_counts", "p50", "p95", "p99"}}}. Keys are
  // sorted, so export is deterministic for a given set of values.
  [[nodiscard]] json::Value ToJson() const CALC_EXCLUDES(mutex_);
  [[nodiscard]] std::string ToTable() const CALC_EXCLUDES(mutex_);

  // Copies every instrument into a detached, mergeable snapshot. Instrument
  // reads are individually atomic but the snapshot as a whole is not (a
  // concurrent Observe may land between two fields); cumulative snapshots
  // from a quiescent point (a worker between shards) are exact.
  [[nodiscard]] MetricsSnapshot Snapshot() const CALC_EXCLUDES(mutex_);

  // Folds a snapshot into this registry's live instruments, each name
  // prefixed with `prefix` ("dist.worker.3." tags a worker's instruments;
  // "" aggregates into the shared names). Counters increment, gauges set,
  // histograms merge bucket-wise — a bucket-layout mismatch with an
  // existing histogram is a ConfigError.
  void Ingest(const MetricsSnapshot& snapshot, const std::string& prefix)
      CALC_EXCLUDES(mutex_);

  // Drops every instrument (cached pointers become invalid) — for tests
  // and for zeroing between bench harness phases.
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
  // Guards the maps, not the instruments (those are lock-free atomics).
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      CALC_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      CALC_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      CALC_GUARDED_BY(mutex_);
};

// "insufficient memory capacity" -> "insufficient_memory_capacity": metric
// name segments from human-readable reason strings.
[[nodiscard]] std::string MetricNameSegment(const std::string& s);

}  // namespace calculon::obs
