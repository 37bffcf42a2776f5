#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <new>
#include <utility>

#include "util/error.h"
#include "util/strings.h"

namespace calculon::obs {
namespace {

// The bucket-layout rule every histogram obeys, whether built here,
// merged into a registry or decoded from a worker's snapshot: strictly
// ascending bounds and one more bucket than bounds (the overflow bucket).
void CheckLayout(const std::vector<double>& bounds, std::size_t buckets,
                 const char* where) {
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    if (!(bounds[i] < bounds[i + 1])) {
      throw ConfigError(
          StrFormat("%s: histogram bounds must be strictly ascending", where));
    }
  }
  if (buckets != bounds.size() + 1) {
    throw ConfigError(StrFormat(
        "%s: bucket_counts must have bounds + 1 entries (the last is the "
        "overflow bucket)",
        where));
  }
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

// Throws ConfigError when adding `add` to `have` would pass kMaxCount.
void CheckCountSum(std::uint64_t have, std::uint64_t add,
                   const std::string& name) {
  if (add > kMaxCount - have) {
    throw ConfigError("metrics: the count of '" + name +
                      "' would pass 2^63 - 1024, the largest an export "
                      "holds");
  }
}

}  // namespace

std::vector<double> DefaultLatencyBoundsUs() {
  // 0.25us .. ~4.2s in 24 doublings.
  std::vector<double> bounds;
  bounds.reserve(24);
  for (double bound = 0.25; bounds.size() < 24; bound *= 2.0) {
    bounds.push_back(bound);
  }
  return bounds;
}

HistogramSnapshot HistogramSnapshot::WithLayout(std::vector<double> bounds) {
  CheckLayout(bounds, bounds.size() + 1, "HistogramSnapshot::WithLayout");
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

void HistogramSnapshot::CheckMerge(const HistogramSnapshot& other) const {
  if (other.empty()) return;
  CheckLayout(other.bounds, other.bucket_counts.size(),
              "HistogramSnapshot::Merge");
  if (!empty() && bounds != other.bounds) {
    throw ConfigError(
        "HistogramSnapshot::Merge: bucket layouts differ; refusing to merge "
        "(identical bounds are required for bucket-wise addition)");
  }
  // The buckets sum to the count, so none of their sums passes it.
  CheckCountSum(count, other.count, "a histogram");
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  CheckMerge(other);
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    bucket_counts[i] += other.bucket_counts[i];
  }
  count += other.count;
  sum += other.sum;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    const double in_bucket = static_cast<double>(bucket_counts[i]);
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
  snapshot.count = json::CountIn(v.at("count").AsInt(), "a histogram count");
  snapshot.sum = FiniteNumber(v.at("sum"), "a histogram sum");
  for (const json::Value& bound : v.at("bounds").AsArray()) {
    snapshot.bounds.push_back(FiniteNumber(bound, "a histogram bound"));
  }
  // `count` must be the buckets' sum. Counting down what the buckets have
  // yet to account for checks it without overflow.
  const char* const not_the_sum =
      "HistogramSnapshot::FromJson: count is not the sum of bucket_counts";
  std::uint64_t left = snapshot.count;
  for (const json::Value& n : v.at("bucket_counts").AsArray()) {
    const std::uint64_t bucket = json::CountIn(n.AsInt(), "a bucket count");
    if (bucket > left) throw ConfigError(not_the_sum);
    left -= bucket;
    snapshot.bucket_counts.push_back(bucket);
  }
  if (left != 0) throw ConfigError(not_the_sum);
  CheckLayout(snapshot.bounds, snapshot.bucket_counts.size(),
              "HistogramSnapshot::FromJson");
  return snapshot;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    const auto it = counters.find(name);
    CheckCountSum(it == counters.end() ? 0 : it->second, value, name);
  }
  const HistogramSnapshot none;
  for (const auto& [name, snapshot] : other.histograms) {
    const auto it = histograms.find(name);
    (it == histograms.end() ? none : it->second).CheckMerge(snapshot);
  }
  for (const auto& [name, value] : other.counters) counters[name] += value;
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
    snapshot.counters[name] = json::CountIn(value.AsInt(), "a counter");
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

void MetricsRegistry::MergeHistogram(const std::string& name,
                                     const HistogramSnapshot& snapshot) {
  if (snapshot.empty()) return;
  MutexLock lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    it->second.Merge(snapshot);
    return;
  }
  // Merged before it is inserted: a layout Merge refuses leaves no entry
  // behind.
  HistogramSnapshot first;
  first.Merge(snapshot);
  histograms_.emplace(name, std::move(first));
}

void MetricsRegistry::CheckIngest(const MetricsSnapshot& snapshot,
                                  const std::string& prefix) const {
  MutexLock lock(mutex_);
  for (const auto& [name, value] : snapshot.counters) {
    const auto it = counters_.find(prefix + name);
    CheckCountSum(it == counters_.end() ? 0 : it->second->value(), value,
                  prefix + name);
  }
  const HistogramSnapshot none;
  for (const auto& [name, h] : snapshot.histograms) {
    const auto it = histograms_.find(prefix + name);
    (it == histograms_.end() ? none : it->second).CheckMerge(h);
  }
}

json::Value MetricsRegistry::ToJson() const { return Snapshot().ToJson(); }

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  snapshot.histograms = histograms_;
  return snapshot;
}

void MetricsRegistry::Ingest(const MetricsSnapshot& snapshot,
                             const std::string& prefix) {
  CheckIngest(snapshot, prefix);
  for (const auto& [name, value] : snapshot.counters) {
    GetCounter(prefix + name)->Increment(value);
  }
  for (const auto& [name, h] : snapshot.histograms) {
    MergeHistogram(prefix + name, h);
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
  histograms_.clear();
}

void MetricsRegistry::Reset() {
  MutexLock lock(mutex_);
  counters_.clear();
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
