// Tests for the metrics registry (src/obs/metrics.h): bucket-boundary
// placement and quantile interpolation of HistogramSnapshot are pinned to
// exact values, concurrent histogram merges are exact, and the registry's
// JSON export round-trips through src/json.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "json/json.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace calculon::obs {
namespace {

TEST(Counter, IncrementsAccumulate) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Histogram, BucketBoundsAreInclusiveUpperBounds) {
  HistogramSnapshot h = HistogramSnapshot::WithLayout({1.0, 2.0, 4.0});
  h.Observe(0.5);  // bucket 0: (-inf, 1]
  h.Observe(1.0);  // bucket 0: boundary value lands below
  h.Observe(1.5);  // bucket 1: (1, 2]
  h.Observe(4.0);  // bucket 2: (2, 4]
  h.Observe(4.1);  // overflow bucket
  EXPECT_EQ(h.bucket_counts[0], 2u);
  EXPECT_EQ(h.bucket_counts[1], 1u);
  EXPECT_EQ(h.bucket_counts[2], 1u);
  EXPECT_EQ(h.bucket_counts[3], 1u);  // overflow
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 1.5 + 4.0 + 4.1);
}

TEST(Histogram, QuantileInterpolatesWithinBuckets) {
  HistogramSnapshot h = HistogramSnapshot::WithLayout({10.0, 20.0});
  for (int i = 0; i < 4; ++i) h.Observe(5.0);   // bucket 0
  for (int i = 0; i < 4; ++i) h.Observe(15.0);  // bucket 1
  // n=8. q=0.25 -> rank 2 of 4 in [0,10] -> 5; q=0.5 -> rank 4 of 4 -> 10;
  // q=0.75 -> rank 2 of 4 in (10,20] -> 15; q=1 -> 20.
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.50), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.00), 20.0);
}

TEST(Histogram, QuantileEdgeCases) {
  const HistogramSnapshot empty = HistogramSnapshot::WithLayout({1.0});
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);

  // All mass in the overflow bucket: quantiles report the last bound (the
  // histogram cannot see above it).
  HistogramSnapshot overflow = HistogramSnapshot::WithLayout({1.0, 2.0});
  overflow.Observe(100.0);
  EXPECT_DOUBLE_EQ(overflow.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(overflow.Quantile(0.99), 2.0);
}

TEST(Histogram, ExponentialBoundsAreLogSpaced) {
  // The latency ladder bit for bit: 0.25 * 2^k for k = 0..23.
  const std::vector<double> bounds = DefaultLatencyBoundsUs();
  ASSERT_EQ(bounds.size(), 24u);
  for (int k = 0; k < 24; ++k) {
    EXPECT_EQ(bounds[static_cast<std::size_t>(k)], std::ldexp(0.25, k)) << k;
  }
}

TEST(Histogram, DefaultLatencyLadderCoversMicrosecondsToSeconds) {
  const std::vector<double> bounds = DefaultLatencyBoundsUs();
  ASSERT_EQ(bounds.size(), 24u);
  EXPECT_DOUBLE_EQ(bounds.front(), 0.25);
  EXPECT_GT(bounds.back(), 1e6);  // above one second, in microseconds
}

TEST(Histogram, RejectsNonAscendingBounds) {
  EXPECT_THROW((void)HistogramSnapshot::WithLayout({2.0, 1.0}), ConfigError);
  EXPECT_THROW((void)HistogramSnapshot::WithLayout({1.0, 1.0, 3.0}),
               ConfigError);
}

TEST(MetricsRegistry, ConcurrentMergesAreExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  MetricsRegistry registry;
  std::atomic<bool> merging{true};
  // Snapshots taken while the merges land are never torn: each histogram
  // is copied whole.
  std::thread reader([&] {
    while (merging.load()) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      const auto it = snapshot.histograms.find("h");
      if (it == snapshot.histograms.end()) continue;
      ASSERT_EQ(it->second.bucket_counts[1], it->second.count);
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) {
        HistogramSnapshot one = HistogramSnapshot::WithLayout({1.0, 2.0});
        one.Observe(1.5);
        registry.MergeHistogram("h", one);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  merging.store(false);
  reader.join();
  const HistogramSnapshot h = registry.Snapshot().histograms.at("h");
  EXPECT_EQ(h.count, kTotal);
  EXPECT_EQ(h.bucket_counts, (std::vector<std::uint64_t>{0, kTotal, 0}));
  EXPECT_DOUBLE_EQ(h.sum, 1.5 * kThreads * kPerThread);
}

TEST(MetricsRegistry, InstrumentsAreStableByName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("y"), a);
  // The first merge fixes a histogram's bucket layout; a merge of another
  // layout throws and changes nothing.
  HistogramSnapshot first = HistogramSnapshot::WithLayout({1.0, 2.0});
  first.Observe(1.5);
  registry.MergeHistogram("h", first);
  HistogramSnapshot other = HistogramSnapshot::WithLayout({5.0});
  other.Observe(1.5);
  EXPECT_THROW(registry.MergeHistogram("h", other), ConfigError);
  const HistogramSnapshot h = registry.Snapshot().histograms.at("h");
  EXPECT_EQ(h.bounds, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(h.bucket_counts, (std::vector<std::uint64_t>{0, 1, 0}));
  EXPECT_EQ(h.count, 1u);
  // An empty snapshot is a no-op and creates no histogram.
  registry.MergeHistogram("none", HistogramSnapshot{});
  EXPECT_FALSE(registry.Snapshot().histograms.contains("none"));
}

TEST(MetricsRegistry, EnableIsOptIn) {
  MetricsRegistry registry;
  EXPECT_FALSE(registry.enabled());
  registry.Enable();
  EXPECT_TRUE(registry.enabled());
  registry.Disable();
  EXPECT_FALSE(registry.enabled());
}

TEST(MetricsRegistry, JsonExportRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("sweeps.evaluated")->Increment(100);
  HistogramSnapshot latency = HistogramSnapshot::WithLayout({10.0, 20.0});
  for (int i = 0; i < 4; ++i) latency.Observe(5.0);
  registry.MergeHistogram("latency", latency);

  // Through Dump+Parse so the exported document is what a consumer reads.
  const json::Value doc = json::Parse(registry.ToJson().Dump());
  EXPECT_EQ(doc.AsObject().size(), 2u);  // counters and histograms
  EXPECT_EQ(doc.at("counters").at("sweeps.evaluated").AsInt(), 100);
  const json::Value& lat = doc.at("histograms").at("latency");
  EXPECT_EQ(lat.at("count").AsInt(), 4);
  EXPECT_DOUBLE_EQ(lat.at("sum").AsDouble(), 20.0);
  ASSERT_EQ(lat.at("bounds").AsArray().size(), 2u);
  ASSERT_EQ(lat.at("bucket_counts").AsArray().size(), 3u);  // + overflow
  EXPECT_EQ(lat.at("bucket_counts").AsArray()[0].AsInt(), 4);
  EXPECT_DOUBLE_EQ(lat.at("p50").AsDouble(), 5.0);
}

TEST(MetricsRegistry, EmptySectionsSerializeAsObjects) {
  MetricsRegistry registry;
  const json::Value doc = json::Parse(registry.ToJson().Dump());
  EXPECT_EQ(doc.AsObject().size(), 2u);
  EXPECT_TRUE(doc.at("counters").is_object());
  EXPECT_TRUE(doc.at("histograms").is_object());
}

TEST(MetricsRegistry, ResetDropsInstruments) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(7);
  registry.Reset();
  const json::Value doc = registry.ToJson();
  EXPECT_TRUE(doc.at("counters").AsObject().empty());
  // A re-created instrument starts from zero.
  EXPECT_EQ(registry.GetCounter("c")->value(), 0u);
}

TEST(MetricNameSegmentTest, SlugifiesReasonStrings) {
  EXPECT_EQ(MetricNameSegment("insufficient memory capacity"),
            "insufficient_memory_capacity");
  EXPECT_EQ(MetricNameSegment("dp/microbatch (bad)"), "dp_microbatch__bad_");
  EXPECT_EQ(MetricNameSegment("Already09Clean"), "Already09Clean");
}

}  // namespace
}  // namespace calculon::obs
