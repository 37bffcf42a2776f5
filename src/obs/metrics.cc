#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <utility>

#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"

namespace calculon::obs {
namespace {

// Shared quantile estimator over explicit buckets (Histogram reads its
// atomics into this shape; HistogramSnapshot stores it directly): linear
// interpolation inside the bucket holding the target rank, the first
// bucket interpolating from 0 and the overflow bucket reporting the last
// bound.
[[nodiscard]] double BucketQuantile(const std::vector<double>& bounds,
                                    const std::vector<std::uint64_t>& buckets,
                                    std::uint64_t count, double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= target) {
      if (i == bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double upper = bounds[i];
      const double fraction = (target - cumulative) / in_bucket;
      return lower + (upper - lower) * std::clamp(fraction, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

// The bucket-layout rule every histogram obeys, whether built here or
// decoded from a worker's snapshot.
[[nodiscard]] bool StrictlyAscending(const std::vector<double>& bounds) {
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    if (!(bounds[i] < bounds[i + 1])) return false;
  }
  return true;
}

// A number a snapshot may carry. Dump() refuses non-finite numbers, so no
// worker can have written one, and a registry holding one could not be
// exported.
[[nodiscard]] double FiniteNumber(const json::Value& v, const char* what) {
  const double x = v.AsDouble();
  if (!std::isfinite(x)) {
    throw ConfigError(StrFormat("metrics snapshot: %s is not finite", what));
  }
  return x;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(
          std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1)) {
  if (!StrictlyAscending(bounds_)) {
    throw ConfigError("Histogram bounds must be strictly ascending");
  }
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 int count) {
  if (start <= 0.0 || factor <= 1.0 || count <= 0) {
    throw ConfigError("ExponentialBounds: start > 0, factor > 1, count > 0");
  }
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::Quantile(double q) const {
  std::vector<std::uint64_t> buckets(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets[i] = bucket_count(i);
  return BucketQuantile(bounds_, buckets, count(), q);
}

void Histogram::MergeFrom(const HistogramSnapshot& snapshot) {
  if (snapshot.empty()) return;
  if (snapshot.bounds != bounds_) {
    throw ConfigError(
        "Histogram::MergeFrom: bucket layouts differ; refusing to merge "
        "(identical bounds are required for bucket-wise addition)");
  }
  for (std::size_t i = 0; i < snapshot.bucket_counts.size(); ++i) {
    buckets_[i].fetch_add(snapshot.bucket_counts[i],
                          std::memory_order_relaxed);
  }
  count_.fetch_add(snapshot.count, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + snapshot.sum,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<double> DefaultLatencyBoundsUs() {
  // 0.25us .. ~4.2s in 24 doublings.
  return Histogram::ExponentialBounds(0.25, 2.0, 24);
}

HistogramSnapshot HistogramSnapshot::WithLayout(std::vector<double> bounds) {
  HistogramSnapshot s;
  s.bucket_counts.assign(bounds.size() + 1, 0);
  s.bounds = std::move(bounds);
  return s;
}

void HistogramSnapshot::Observe(double value) {
  // The lower_bound index by a scan from the smallest bound: evaluation
  // latencies sit in the first few buckets, where the scan stops.
  std::size_t index = 0;
  while (index < bounds.size() && bounds[index] < value) ++index;
  ++bucket_counts[index];
  ++count;
  sum += value;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  if (bounds != other.bounds) {
    throw ConfigError(
        "HistogramSnapshot::Merge: bucket layouts differ; refusing to merge "
        "(identical bounds are required for bucket-wise addition)");
  }
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    bucket_counts[i] += other.bucket_counts[i];
  }
  count += other.count;
  sum += other.sum;
}

double HistogramSnapshot::Quantile(double q) const {
  return BucketQuantile(bounds, bucket_counts, count, q);
}

json::Value HistogramSnapshot::ToJson() const {
  json::Value h;
  h["count"] = static_cast<std::int64_t>(count);
  h["sum"] = sum;
  json::Array bounds_json;
  for (double bound : bounds) bounds_json.emplace_back(bound);
  json::Array bucket_counts_json;
  for (std::uint64_t n : bucket_counts) {
    bucket_counts_json.emplace_back(static_cast<std::int64_t>(n));
  }
  h["bounds"] = json::Value(std::move(bounds_json));
  h["bucket_counts"] = json::Value(std::move(bucket_counts_json));
  h["p50"] = Quantile(0.50);
  h["p95"] = Quantile(0.95);
  h["p99"] = Quantile(0.99);
  return h;
}

HistogramSnapshot HistogramSnapshot::FromJson(const json::Value& v) {
  if (!v.is_object()) {
    throw ConfigError("HistogramSnapshot::FromJson: expected an object");
  }
  HistogramSnapshot snapshot;
  snapshot.count = static_cast<std::uint64_t>(v.at("count").AsInt());
  snapshot.sum = FiniteNumber(v.at("sum"), "a histogram sum");
  for (const json::Value& bound : v.at("bounds").AsArray()) {
    snapshot.bounds.push_back(FiniteNumber(bound, "a histogram bound"));
  }
  for (const json::Value& n : v.at("bucket_counts").AsArray()) {
    snapshot.bucket_counts.push_back(static_cast<std::uint64_t>(n.AsInt()));
  }
  if (snapshot.bucket_counts.size() != snapshot.bounds.size() + 1) {
    throw ConfigError(
        "HistogramSnapshot::FromJson: bucket_counts must have bounds + 1 "
        "entries (the last is the overflow bucket)");
  }
  if (!StrictlyAscending(snapshot.bounds)) {
    throw ConfigError(
        "HistogramSnapshot::FromJson: bounds must be strictly ascending");
  }
  return snapshot;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) gauges[name] = value;
  for (const auto& [name, snapshot] : other.histograms) {
    histograms[name].Merge(snapshot);
  }
}

json::Value MetricsSnapshot::ToJson() const {
  json::Value doc;
  // Sections are explicit empty objects (not null) when unpopulated, so
  // consumers can iterate unconditionally.
  json::Value counters_json{json::Object{}};
  for (const auto& [name, value] : counters) {
    counters_json[name] = static_cast<std::int64_t>(value);
  }
  doc["counters"] = counters_json;
  json::Value gauges_json{json::Object{}};
  for (const auto& [name, value] : gauges) gauges_json[name] = value;
  doc["gauges"] = gauges_json;
  json::Value histograms_json{json::Object{}};
  for (const auto& [name, snapshot] : histograms) {
    histograms_json[name] = snapshot.ToJson();
  }
  doc["histograms"] = histograms_json;
  return doc;
}

MetricsSnapshot MetricsSnapshot::FromJson(const json::Value& v) {
  if (!v.is_object()) {
    throw ConfigError("MetricsSnapshot::FromJson: expected an object");
  }
  MetricsSnapshot snapshot;
  for (const auto& [name, value] : v.at("counters").AsObject()) {
    snapshot.counters[name] = static_cast<std::uint64_t>(value.AsInt());
  }
  for (const auto& [name, value] : v.at("gauges").AsObject()) {
    snapshot.gauges[name] = FiniteNumber(value, "a gauge");
  }
  for (const auto& [name, value] : v.at("histograms").AsObject()) {
    snapshot.histograms[name] = HistogramSnapshot::FromJson(value);
  }
  return snapshot;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry global;
  return global;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    // Built before it is inserted: bounds the constructor rejects leave
    // no empty slot behind.
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return it->second.get();
}

bool MetricsRegistry::HistogramFits(const std::string& name,
                                    const std::vector<double>& bounds) const {
  MutexLock lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() || it->second->bounds() == bounds;
}

json::Value MetricsRegistry::ToJson() const { return Snapshot().ToJson(); }

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.count = histogram->count();
    h.sum = histogram->sum();
    h.bounds = histogram->bounds();
    h.bucket_counts.reserve(h.bounds.size() + 1);
    for (std::size_t i = 0; i <= h.bounds.size(); ++i) {
      h.bucket_counts.push_back(histogram->bucket_count(i));
    }
    snapshot.histograms[name] = std::move(h);
  }
  return snapshot;
}

void MetricsRegistry::Ingest(const MetricsSnapshot& snapshot,
                             const std::string& prefix) {
  for (const auto& [name, value] : snapshot.counters) {
    GetCounter(prefix + name)->Increment(value);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    GetGauge(prefix + name)->Set(value);
  }
  for (const auto& [name, h] : snapshot.histograms) {
    GetHistogram(prefix + name, h.bounds)->MergeFrom(h);
  }
}

void MetricsRegistry::ReinitAfterFork() {
  enabled_.store(false, std::memory_order_relaxed);
  // The child inherits mutex_ in whatever state some parent thread held it
  // at fork(); re-create it in place before first use. The instrument maps
  // themselves were only ever touched under that mutex by the forking
  // thread, so clearing them afterwards is safe.
  new (&mutex_) Mutex();  // lint-ok(naked-new): placement-new, no ownership
  MutexLock lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::string MetricsRegistry::ToTable() const {
  MutexLock lock(mutex_);
  Table table({"metric", "kind", "value"});
  for (const auto& [name, counter] : counters_) {
    table.AddRow({name, "counter",
                  StrFormat("%llu",
                            static_cast<unsigned long long>(counter->value()))});
  }
  for (const auto& [name, gauge] : gauges_) {
    table.AddRow({name, "gauge", StrFormat("%g", gauge->value())});
  }
  for (const auto& [name, histogram] : histograms_) {
    table.AddRow(
        {name, "histogram",
         StrFormat("n=%llu p50=%.3g p95=%.3g p99=%.3g",
                   static_cast<unsigned long long>(histogram->count()),
                   histogram->Quantile(0.50), histogram->Quantile(0.95),
                   histogram->Quantile(0.99))});
  }
  return table.ToString();
}

void MetricsRegistry::Reset() {
  MutexLock lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::string MetricNameSegment(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const bool word = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9');
    out.push_back(word ? c : '_');
  }
  return out;
}

}  // namespace calculon::obs
