// Tests for the cross-process telemetry building blocks (src/obs): the
// mergeable metrics snapshots (empty-merge identity, the loud
// bucket-layout check, merge-order stability of quantiles, the JSON wire
// round-trip and the counts it refuses, registry Ingest with and without
// a worker prefix, merges and ingests refused past obs::kMaxCount), and the
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

TEST(MetricsSnapshot, MergeAddsCountersAndHistograms) {
  MetricsSnapshot a;
  a.counters["evaluated"] = 10;
  a.counters["feasible"] = 3;
  a.histograms["lat"] = MakeHistogram({1.0}, {1, 2}, 4.0);
  MetricsSnapshot b;
  b.counters["evaluated"] = 7;
  b.counters["culled"] = 1;
  b.histograms["lat"] = MakeHistogram({1.0}, {3, 0}, 1.5);
  a.Merge(b);
  EXPECT_EQ(a.counters["evaluated"], 17u);
  EXPECT_EQ(a.counters["feasible"], 3u);
  EXPECT_EQ(a.counters["culled"], 1u);
  EXPECT_EQ(a.histograms.at("lat").bucket_counts,
            (std::vector<std::uint64_t>{4, 2}));
  EXPECT_EQ(a.histograms.at("lat").count, 6u);
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
  s.histograms["exec_search.eval_latency_us"] =
      MakeHistogram({1.0, 2.0}, {1, 2, 0}, 3.5);

  const json::Value doc = s.ToJson();
  const std::string wire = doc.Dump();
  const MetricsSnapshot back = MetricsSnapshot::FromJson(json::Parse(wire));
  EXPECT_EQ(back.counters, s.counters);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms.at("exec_search.eval_latency_us").count, 3u);
  // Serialization is deterministic (sorted keys): a round-trip re-serializes
  // to the same bytes.
  EXPECT_EQ(back.ToJson().Dump(), wire);
}

TEST(MetricsSnapshot, FromJsonRefusesNegativeAndInconsistentCounts) {
  const auto decode = [](const char* text) {
    return MetricsSnapshot::FromJson(json::Parse(text));
  };
  const MetricsSnapshot ok = decode(
      R"({"counters": {"dist.restarts": 3}, "histograms": {"h": {"count": 2,)"
      R"( "sum": 1.0, "bounds": [1.0], "bucket_counts": [1, 1]}}})");
  EXPECT_EQ(ok.counters.at("dist.restarts"), 3u);
  EXPECT_EQ(ok.histograms.at("h").count, 2u);
  // A negative counter would wrap the registry's counter.
  EXPECT_THROW((void)decode(R"({"counters": {"dist.restarts": -3},)"
                            R"( "histograms": {}})"),
               ConfigError);
  // A count that is not the bucket sum, above or below it.
  EXPECT_THROW((void)decode(R"({"counters": {}, "histograms": {"h": {)"
                            R"("count": 7, "sum": 1.0, "bounds": [1.0],)"
                            R"( "bucket_counts": [1, 1]}}})"),
               ConfigError);
  EXPECT_THROW((void)decode(R"({"counters": {}, "histograms": {"h": {)"
                            R"("count": 1, "sum": 1.0, "bounds": [1.0],)"
                            R"( "bucket_counts": [1, 1]}}})"),
               ConfigError);
  // Negative histogram counts, even ones that sum to the count.
  EXPECT_THROW((void)decode(R"({"counters": {}, "histograms": {"h": {)"
                            R"("count": -1, "sum": 1.0, "bounds": [1.0],)"
                            R"( "bucket_counts": [0, -1]}}})"),
               ConfigError);
  EXPECT_THROW((void)decode(R"({"counters": {}, "histograms": {"h": {)"
                            R"("count": 1, "sum": 1.0, "bounds": [1.0],)"
                            R"( "bucket_counts": [2, -1]}}})"),
               ConfigError);
  // Buckets whose sum wraps around 2^64 to the count: 2 (2^63 - 2^10)
  // + 2050 = 2^64 + 2.
  EXPECT_THROW(
      (void)decode(R"({"counters": {}, "histograms": {"h": {)"
                   R"("count": 2, "sum": 1.0, "bounds": [1.0, 2.0],)"
                   R"( "bucket_counts": [9223372036854774784,)"
                   R"( 9223372036854774784, 2050]}}})"),
      ConfigError);
}

TEST(MetricsRegistry, SnapshotIngestRoundTripAggregatesAndTags) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  registry.Enable();
  registry.GetCounter("evaluated")->Increment(5);
  HistogramSnapshot h = HistogramSnapshot::WithLayout({1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);
  registry.MergeHistogram("lat", h);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("evaluated"), 5u);
  EXPECT_EQ(snap.histograms.at("lat").count, 2u);

  // Aggregate ingest (empty prefix) folds into the shared instruments...
  registry.Ingest(snap, "");
  EXPECT_EQ(registry.GetCounter("evaluated")->value(), 10u);
  EXPECT_EQ(registry.Snapshot().histograms.at("lat").count, 4u);
  // ...and a worker prefix tags a parallel per-worker set.
  registry.Ingest(snap, "dist.worker.2.");
  EXPECT_EQ(registry.GetCounter("dist.worker.2.evaluated")->value(), 5u);
  EXPECT_EQ(registry.Snapshot().histograms.at("dist.worker.2.lat").count, 2u);

  // Ingesting a snapshot whose layout disagrees with the live histogram is
  // a loud error, not silent skew.
  MetricsSnapshot bad;
  bad.histograms["lat"] = MakeHistogram({9.0}, {1, 0}, 0.5);
  EXPECT_THROW(registry.Ingest(bad, ""), ConfigError);

  registry.Reset();
  registry.Disable();
}

TEST(MetricsRegistry, IngestThatWouldPassTheExportLimitThrowsAndChangesNothing) {
  // Each snapshot decodes (6e18 < 2^63), but two of them sum past kMaxCount (2^63 - 1024):
  // the second ingest is refused instead of exporting a negative count.
  const MetricsSnapshot big = MetricsSnapshot::FromJson(json::Parse(
      R"({"counters": {"exec_search.evaluated": 6000000000000000000},)"
      R"( "histograms": {}})"));
  MetricsRegistry registry;
  registry.Ingest(big, "");
  EXPECT_THROW(registry.Ingest(big, ""), ConfigError);
  const json::Value exported = registry.ToJson();
  EXPECT_EQ(exported.at("counters").at("exec_search.evaluated").AsInt(),
            6000000000000000000);
  const MetricsSnapshot round_trip = MetricsSnapshot::FromJson(exported);
  EXPECT_EQ(round_trip.counters.at("exec_search.evaluated"),
            6000000000000000000u);

  // All or nothing: a snapshot whose counter fits but whose histogram
  // count does not leaves the counter untouched too.
  HistogramSnapshot h = MakeHistogram({1.0}, {kMaxCount, 0}, 1.0);
  MetricsSnapshot with_histogram;
  with_histogram.histograms["lat"] = h;
  registry.Ingest(with_histogram, "");
  MetricsSnapshot mixed;
  mixed.counters["other"] = 1;
  mixed.histograms["lat"] = MakeHistogram({1.0}, {1, 0}, 1.0);
  EXPECT_THROW(registry.Ingest(mixed, ""), ConfigError);
  EXPECT_FALSE(registry.Snapshot().counters.contains("other"));
  EXPECT_EQ(registry.Snapshot().histograms.at("lat").count, kMaxCount);
  // Under another prefix the same snapshot is a fresh name, and fits.
  EXPECT_NO_THROW(registry.Ingest(mixed, "dist.worker.0."));
}

TEST(MetricsSnapshot, MergePastTheExportLimitThrowsAndChangesNothing) {
  MetricsSnapshot a;
  a.counters["n"] = kMaxCount - 1;
  a.histograms["lat"] = MakeHistogram({1.0}, {kMaxCount - 2, 0}, 1.0);
  MetricsSnapshot one;
  one.counters["n"] = 1;
  a.Merge(one);  // exactly kMaxCount
  EXPECT_EQ(a.counters.at("n"), kMaxCount);
  EXPECT_THROW(a.Merge(one), ConfigError);
  EXPECT_EQ(a.counters.at("n"), kMaxCount);

  MetricsSnapshot three;
  three.counters["m"] = 5;
  three.histograms["lat"] = MakeHistogram({1.0}, {1, 2}, 1.0);
  EXPECT_THROW(a.Merge(three), ConfigError);
  EXPECT_FALSE(a.counters.contains("m"));
  EXPECT_EQ(a.histograms.at("lat").count, kMaxCount - 2);
  EXPECT_NO_THROW(a.ToJson().Dump());

  HistogramSnapshot h = MakeHistogram({1.0}, {kMaxCount, 0}, 1.0);
  EXPECT_THROW(h.Merge(MakeHistogram({1.0}, {0, 1}, 2.0)), ConfigError);
  EXPECT_EQ(h.count, kMaxCount);
  EXPECT_EQ(h.bucket_counts, (std::vector<std::uint64_t>{kMaxCount, 0}));
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
