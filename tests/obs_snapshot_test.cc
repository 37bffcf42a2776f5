// Tests for the cross-process telemetry building blocks (src/obs): the
// mergeable metrics snapshots (empty-merge identity, the loud
// bucket-layout check, merge-order stability of quantiles, the JSON wire
// round-trip, registry Ingest with and without a worker prefix), and the
// trace recorder's chunk export and external per-process lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "json/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace calculon::obs {
namespace {

HistogramSnapshot MakeHistogram(std::vector<double> bounds,
                                std::vector<std::uint64_t> buckets,
                                double sum) {
  HistogramSnapshot h;
  h.bounds = std::move(bounds);
  h.bucket_counts = std::move(buckets);
  h.count = 0;
  for (const std::uint64_t b : h.bucket_counts) h.count += b;
  h.sum = sum;
  return h;
}

TEST(HistogramSnapshot, EmptyMergeIsIdentityBothDirections) {
  const HistogramSnapshot full =
      MakeHistogram({1.0, 2.0}, {3, 4, 5}, 20.0);

  HistogramSnapshot lhs = full;
  lhs.Merge(HistogramSnapshot{});  // rhs empty: no-op
  EXPECT_EQ(lhs.count, full.count);
  EXPECT_EQ(lhs.bucket_counts, full.bucket_counts);
  EXPECT_DOUBLE_EQ(lhs.sum, full.sum);

  HistogramSnapshot empty;
  empty.Merge(full);  // lhs empty: adopts rhs wholesale
  EXPECT_EQ(empty.count, full.count);
  EXPECT_EQ(empty.bounds, full.bounds);
  EXPECT_EQ(empty.bucket_counts, full.bucket_counts);
}

TEST(HistogramSnapshot, MismatchedBucketLayoutRefusesLoudly) {
  HistogramSnapshot a = MakeHistogram({1.0, 2.0}, {1, 1, 1}, 3.0);
  const HistogramSnapshot b = MakeHistogram({1.0, 4.0}, {1, 1, 1}, 3.0);
  EXPECT_THROW(a.Merge(b), ConfigError);
  const HistogramSnapshot c = MakeHistogram({1.0}, {1, 1}, 2.0);
  EXPECT_THROW(a.Merge(c), ConfigError);
}

TEST(HistogramSnapshot, QuantilesStableUnderMergeOrderPermutation) {
  // Three worker shards of the same histogram, merged in every order:
  // bucket counts add commutatively, so quantile estimates must agree.
  const std::vector<HistogramSnapshot> parts = {
      MakeHistogram({10.0, 20.0, 40.0}, {4, 0, 1, 0}, 25.0),
      MakeHistogram({10.0, 20.0, 40.0}, {0, 6, 2, 1}, 180.0),
      MakeHistogram({10.0, 20.0, 40.0}, {2, 2, 0, 3}, 160.0),
  };
  std::vector<int> order = {0, 1, 2};
  std::vector<double> p50s, p95s, p99s;
  do {
    HistogramSnapshot merged;
    for (const int i : order) merged.Merge(parts[i]);
    EXPECT_EQ(merged.count, 21u);
    p50s.push_back(merged.Quantile(0.50));
    p95s.push_back(merged.Quantile(0.95));
    p99s.push_back(merged.Quantile(0.99));
  } while (std::next_permutation(order.begin(), order.end()));
  for (std::size_t i = 1; i < p50s.size(); ++i) {
    EXPECT_DOUBLE_EQ(p50s[i], p50s[0]);
    EXPECT_DOUBLE_EQ(p95s[i], p95s[0]);
    EXPECT_DOUBLE_EQ(p99s[i], p99s[0]);
  }
}

TEST(HistogramSnapshot, JsonRoundTripPreservesStateAndChecksShape) {
  const HistogramSnapshot h = MakeHistogram({1.0, 8.0}, {2, 5, 1}, 21.5);
  const HistogramSnapshot back = HistogramSnapshot::FromJson(h.ToJson());
  EXPECT_EQ(back.count, h.count);
  EXPECT_DOUBLE_EQ(back.sum, h.sum);
  EXPECT_EQ(back.bounds, h.bounds);
  EXPECT_EQ(back.bucket_counts, h.bucket_counts);

  // bucket_counts must have bounds.size() + 1 entries.
  json::Value bad = h.ToJson();
  bad["bucket_counts"].AsArray().pop_back();
  EXPECT_THROW(HistogramSnapshot::FromJson(bad), ConfigError);
}

TEST(MetricsSnapshot, MergeAddsCountersAndTakesOtherGauges) {
  MetricsSnapshot a;
  a.counters["evaluated"] = 10;
  a.counters["feasible"] = 3;
  a.gauges["queue_depth"] = 2.0;
  MetricsSnapshot b;
  b.counters["evaluated"] = 7;
  b.counters["culled"] = 1;
  b.gauges["queue_depth"] = 5.0;
  a.Merge(b);
  EXPECT_EQ(a.counters["evaluated"], 17u);
  EXPECT_EQ(a.counters["feasible"], 3u);
  EXPECT_EQ(a.counters["culled"], 1u);
  EXPECT_DOUBLE_EQ(a.gauges["queue_depth"], 5.0);  // last write wins
}

TEST(MetricsSnapshot, MergeWithEmptyIsIdentity) {
  MetricsSnapshot a;
  a.counters["x"] = 4;
  a.histograms["h"] = MakeHistogram({1.0}, {1, 0}, 0.5);
  const MetricsSnapshot before = a;
  a.Merge(MetricsSnapshot{});
  EXPECT_EQ(a.counters, before.counters);
  EXPECT_EQ(a.histograms.at("h").count, before.histograms.at("h").count);

  MetricsSnapshot empty;
  empty.Merge(before);
  EXPECT_EQ(empty.counters.at("x"), 4u);
  EXPECT_EQ(empty.histograms.at("h").bucket_counts,
            before.histograms.at("h").bucket_counts);
}

TEST(MetricsSnapshot, JsonRoundTripMatchesRegistryExportShape) {
  MetricsSnapshot s;
  s.counters["exec_search.evaluated"] = 42;
  s.gauges["pool.queue_depth"] = 1.5;
  s.histograms["exec_search.eval_latency_us"] =
      MakeHistogram({1.0, 2.0}, {1, 2, 0}, 3.5);

  const json::Value doc = s.ToJson();
  const std::string wire = doc.Dump();
  const MetricsSnapshot back = MetricsSnapshot::FromJson(json::Parse(wire));
  EXPECT_EQ(back.counters, s.counters);
  EXPECT_EQ(back.gauges, s.gauges);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms.at("exec_search.eval_latency_us").count, 3u);
  // Serialization is deterministic (sorted keys): a round-trip re-serializes
  // to the same bytes.
  EXPECT_EQ(back.ToJson().Dump(), wire);
}

TEST(MetricsRegistry, SnapshotIngestRoundTripAggregatesAndTags) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  registry.Enable();
  registry.GetCounter("evaluated")->Increment(5);
  registry.GetGauge("depth")->Set(3.0);
  Histogram* h = registry.GetHistogram("lat", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(1.5);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("evaluated"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("depth"), 3.0);
  EXPECT_EQ(snap.histograms.at("lat").count, 2u);

  // Aggregate ingest (empty prefix) folds into the shared instruments...
  registry.Ingest(snap, "");
  EXPECT_EQ(registry.GetCounter("evaluated")->value(), 10u);
  EXPECT_EQ(registry.GetHistogram("lat", {})->count(), 4u);
  // ...and a worker prefix tags a parallel per-worker set.
  registry.Ingest(snap, "dist.worker.2.");
  EXPECT_EQ(registry.GetCounter("dist.worker.2.evaluated")->value(), 5u);
  EXPECT_EQ(registry.GetHistogram("dist.worker.2.lat", {})->count(), 2u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("dist.worker.2.depth")->value(), 3.0);

  // Ingesting a snapshot whose layout disagrees with the live histogram is
  // a loud error, not silent skew.
  MetricsSnapshot bad;
  bad.histograms["lat"] = MakeHistogram({9.0}, {1, 0}, 0.5);
  EXPECT_THROW(registry.Ingest(bad, ""), ConfigError);

  registry.Reset();
  registry.Disable();
}

TEST(TraceRecorder, DrainChunkMovesEventsOutExactlyOnce) {
  TraceRecorder recorder;
  recorder.Start();
  recorder.RecordComplete("search", "triple", 10.0, 5.0);
  recorder.RecordInstant("dist", "ready");

  TraceRecorder::Chunk chunk = recorder.DrainChunk();
  std::size_t real = 0;
  for (const json::Value& e : chunk.events) {
    if (e.at("ph").AsString() != "M") ++real;
  }
  EXPECT_EQ(real, 2u);
  EXPECT_EQ(chunk.dropped, 0u);

  // Drained events are gone: a second drain carries nothing new.
  const TraceRecorder::Chunk again = recorder.DrainChunk();
  for (const json::Value& e : again.events) {
    EXPECT_EQ(e.at("ph").AsString(), "M");
  }
  recorder.Stop();
}

TEST(TraceRecorder, ExternalLanesCarryWorkerPidAndProcessName) {
  // Worker side: record into a local recorder and drain a chunk.
  TraceRecorder worker;
  worker.Start();
  worker.RecordComplete("model", "run_item", 100.0, 50.0);
  const TraceRecorder::Chunk chunk = worker.DrainChunk();
  worker.Stop();

  // Supervisor side: merge the chunk as pid 4242's lane.
  TraceRecorder supervisor;
  supervisor.Start();
  supervisor.RecordInstant("dist", "poll");
  supervisor.AddExternalEvents(4242, "worker-4242", chunk.events);
  supervisor.Stop();

  const json::Value doc = supervisor.ToJson();
  std::set<int> pids;
  bool saw_worker_process_name = false;
  bool saw_supervisor_process_name = false;
  bool saw_worker_span = false;
  for (const json::Value& e : doc.at("traceEvents").AsArray()) {
    pids.insert(static_cast<int>(e.at("pid").AsInt()));
    if (e.at("ph").AsString() == "M" &&
        e.at("name").AsString() == "process_name") {
      const std::string name = e.at("args").at("name").AsString();
      if (e.at("pid").AsInt() == 4242) {
        saw_worker_process_name = (name == "worker-4242");
      } else if (e.at("pid").AsInt() == 1) {
        saw_supervisor_process_name = (name == "supervisor");
      }
    }
    if (e.at("ph").AsString() == "X" && e.at("pid").AsInt() == 4242) {
      EXPECT_EQ(e.at("name").AsString(), "run_item");
      saw_worker_span = true;
    }
  }
  EXPECT_EQ(pids, (std::set<int>{1, 4242}));
  EXPECT_TRUE(saw_worker_process_name);
  EXPECT_TRUE(saw_supervisor_process_name);
  EXPECT_TRUE(saw_worker_span);
}

TEST(TraceRecorder, ExternalDroppedCountsFoldIntoTotal) {
  TraceRecorder recorder;
  recorder.Start();
  EXPECT_EQ(recorder.dropped(), 0u);
  recorder.AddExternalDropped(7);
  recorder.AddExternalDropped(2);
  EXPECT_EQ(recorder.dropped(), 9u);
  recorder.Stop();
}

}  // namespace
}  // namespace calculon::obs
