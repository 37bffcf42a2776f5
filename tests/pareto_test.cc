#include <gtest/gtest.h>

#include "hw/presets.h"
#include "models/presets.h"
#include "search/pareto.h"
#include "util/units.h"

namespace calculon {
namespace {

SearchEntry MakeEntry(double time, double mem1, double mem2 = 0.0) {
  SearchEntry e;
  e.stats.batch_time = Seconds(time);
  e.stats.tier1.weights = Bytes(mem1);
  e.stats.tier2.weights = Bytes(mem2);
  return e;
}

bool Insert(ParetoFront& front, const SearchEntry& e) {
  return front.Insert(e.exec, e.stats);
}

TEST(Pareto, DominanceDefinition) {
  const ParetoPoint a{Seconds(1.0), Bytes(10.0), Bytes(0.0)};
  const ParetoPoint b{Seconds(2.0), Bytes(20.0), Bytes(0.0)};
  const ParetoPoint c{Seconds(2.0), Bytes(5.0), Bytes(0.0)};
  EXPECT_TRUE(Dominates(a, b));
  EXPECT_FALSE(Dominates(b, a));
  EXPECT_FALSE(Dominates(a, c));  // c is better on memory
  EXPECT_FALSE(Dominates(c, a));
  EXPECT_FALSE(Dominates(a, a));  // no strict improvement
}

TEST(Pareto, InsertKeepsOnlyNonDominated) {
  ParetoFront front;
  EXPECT_TRUE(Insert(front, MakeEntry(10.0, 100.0)));
  EXPECT_TRUE(Insert(front, MakeEntry(5.0, 200.0)));   // faster, fatter
  EXPECT_TRUE(Insert(front, MakeEntry(20.0, 50.0)));   // slower, leaner
  EXPECT_EQ(front.size(), 3u);
  // Dominated by (10, 100): rejected.
  EXPECT_FALSE(Insert(front, MakeEntry(11.0, 100.0)));
  EXPECT_EQ(front.size(), 3u);
  // Dominates (10, 100) and (5, 200): both evicted.
  EXPECT_TRUE(Insert(front, MakeEntry(4.0, 90.0)));
  EXPECT_EQ(front.size(), 2u);
  const auto sorted = front.Sorted();
  EXPECT_DOUBLE_EQ(sorted.front().stats.batch_time.raw(), 4.0);
  EXPECT_DOUBLE_EQ(sorted.back().stats.batch_time.raw(), 20.0);
}

TEST(Pareto, DuplicatesAreRejected) {
  ParetoFront front;
  EXPECT_TRUE(Insert(front, MakeEntry(10.0, 100.0)));
  EXPECT_FALSE(Insert(front, MakeEntry(10.0, 100.0)));
  EXPECT_EQ(front.size(), 1u);
}

TEST(Pareto, ExtractFromVector) {
  std::vector<SearchEntry> entries;
  entries.push_back(MakeEntry(10.0, 100.0));
  entries.push_back(MakeEntry(12.0, 120.0));  // dominated
  entries.push_back(MakeEntry(8.0, 150.0));
  const auto front = ExtractParetoFront(entries);
  ASSERT_EQ(front.size(), 2u);
  EXPECT_DOUBLE_EQ(front[0].stats.batch_time.raw(), 8.0);
  EXPECT_DOUBLE_EQ(front[1].stats.batch_time.raw(), 10.0);
}

TEST(Pareto, TierTwoIsAnObjective) {
  ParetoFront front;
  Insert(front, MakeEntry(10.0, 100.0, 0.0));
  // Same time/mem1, but uses offload memory: dominated.
  EXPECT_FALSE(Insert(front, MakeEntry(10.0, 100.0, 50.0)));
  // Leaner in HBM thanks to the offload tier: non-dominated.
  EXPECT_TRUE(Insert(front, MakeEntry(10.0, 20.0, 500.0)));
}

TEST(Pareto, SearchProducesAFront) {
  ThreadPool pool(2);
  SearchConfig config;
  config.batch_size = 64;
  config.keep_pareto = true;
  presets::SystemOptions o;
  o.num_procs = 64;
  const SearchResult r =
      FindOptimalExecution(presets::Megatron22B(), presets::A100(o),
                           SearchSpace::AllOptimizations(), config, pool);
  ASSERT_FALSE(r.pareto.empty());
  // Sorted by time; memory must strictly improve along the front (in at
  // least one tier), i.e. no entry dominates another.
  for (std::size_t i = 0; i < r.pareto.size(); ++i) {
    for (std::size_t j = 0; j < r.pareto.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(Dominates(MakeParetoPoint(r.pareto[i].stats),
                             MakeParetoPoint(r.pareto[j].stats)))
          << i << " dominates " << j;
    }
    if (i > 0) {
      EXPECT_GE(r.pareto[i].stats.batch_time,
                r.pareto[i - 1].stats.batch_time);
    }
  }
  // The fastest Pareto entry is the search's best performer.
  EXPECT_DOUBLE_EQ(r.pareto.front().stats.batch_time.raw(),
                   r.best.front().stats.batch_time.raw());
}

}  // namespace
}  // namespace calculon
