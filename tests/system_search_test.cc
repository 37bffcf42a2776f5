#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <ostream>
#include <string>

#include "models/presets.h"
#include "obs/metrics.h"
#include "search/system_search.h"

namespace calculon {
namespace {

TEST(SystemSearch, EvaluatesADesignUnderBudget) {
  ThreadPool pool(2);
  SystemSearchOptions options;
  options.budget = 2e6;       // small budget keeps the sweep fast
  options.size_step = 16;
  const SystemDesign design{80.0, 0.0};
  const SystemSearchEntry entry =
      EvaluateDesign(presets::Megatron22B(), design,
                     SearchSpace::MegatronBaseline(), options, pool);
  EXPECT_EQ(entry.max_gpus, 64);  // 2e6 / 30k = 66 -> 64
  ASSERT_TRUE(entry.feasible);
  EXPECT_GT(entry.used_gpus, 0);
  EXPECT_LE(entry.used_gpus, entry.max_gpus);
  EXPECT_GT(entry.sample_rate, PerSecond(0.0));
  EXPECT_GT(entry.perf_per_million, 0.0);
  // perf/$M is rate over the money actually spent.
  EXPECT_NEAR(entry.perf_per_million,
              entry.sample_rate.raw() /
                  (static_cast<double>(entry.used_gpus) * design.UnitPrice() / 1e6),
              1e-9);
}

TEST(SystemSearch, InfeasibleDesignReportsNoPerformance) {
  ThreadPool pool(2);
  SystemSearchOptions options;
  options.budget = 1e6;  // ~33 GPUs of 80G: too few for Megatron-1T
  options.size_step = 8;
  const SystemSearchEntry entry =
      EvaluateDesign(presets::Megatron1T(), SystemDesign{80.0, 0.0},
                     SearchSpace::MegatronBaseline(), options, pool);
  EXPECT_FALSE(entry.feasible);
  EXPECT_DOUBLE_EQ(entry.sample_rate.raw(), 0.0);
}

TEST(SystemSearch, SweepsAllProvidedDesigns) {
  ThreadPool pool(2);
  SystemSearchOptions options;
  options.budget = 2e6;
  options.size_step = 32;
  const std::vector<SystemDesign> designs = {{40.0, 0.0}, {80.0, 0.0}};
  const auto entries =
      OptimalSystemSearch(presets::Megatron22B(), designs,
                          SearchSpace::MegatronBaseline(), options, pool);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_DOUBLE_EQ(entries[0].design.hbm_gib, 40.0);
  EXPECT_DOUBLE_EQ(entries[1].design.hbm_gib, 80.0);
  // Cheaper HBM buys more GPUs under the same budget.
  EXPECT_GT(entries[0].max_gpus, entries[1].max_gpus);
}

TEST(SystemSearch, MaxSizeIsAlwaysTried) {
  ThreadPool pool(2);
  SystemSearchOptions options;
  options.budget = 2e6;
  options.size_step = 1000;  // step larger than max: only max is swept
  const SystemSearchEntry entry =
      EvaluateDesign(presets::Megatron22B(), SystemDesign{80.0, 0.0},
                     SearchSpace::MegatronBaseline(), options, pool);
  ASSERT_TRUE(entry.feasible);
  EXPECT_EQ(entry.used_gpus, entry.max_gpus);
}

TEST(SystemSearch, SizeStepBelowOneIsAConfigError) {
  ThreadPool pool(1);
  for (std::int64_t step : {0, -8}) {
    SystemSearchOptions options;
    options.budget = 2e6;
    options.size_step = step;
    EXPECT_THROW((void)EvaluateDesign(presets::Megatron22B(),
                                      SystemDesign{80.0, 0.0},
                                      SearchSpace::MegatronBaseline(), options,
                                      pool),
                 ConfigError)
        << "size_step " << step;
  }
}

// --- The pruned size sweep against the exhaustive one ----------------------

// The codesign benchmark's space: the reduced Table 1 space, plus full
// offload where the design has DDR.
SearchSpace ReducedSpace(bool with_offload) {
  SearchSpace s;
  s.tp_comm = {{false, false, false}, {true, true, true}};
  s.tp_overlap = {TpOverlap::kRing};
  s.fused_activation = {true};
  s.dp_overlap = {true};
  s.optimizer_sharding = {true};
  s.pp_rs_ag = {false};
  s.max_microbatch = 8;
  s.offload = {{false, false, false}};
  if (with_offload) s.offload.push_back({true, true, true});
  return s;
}

// EvaluateDesign's sweep before pruning: every size, smallest first, a
// size kept only when strictly faster than every smaller one.
SystemSearchEntry ExhaustiveSweep(const Application& app,
                                  const SystemDesign& design,
                                  const SearchSpace& space,
                                  const SystemSearchOptions& options,
                                  ThreadPool& pool) {
  SystemSearchEntry entry;
  entry.design = design;
  entry.max_gpus = design.MaxGpus(options.budget);
  std::vector<std::int64_t> sizes;
  for (std::int64_t n = options.size_step; n < entry.max_gpus;
       n += options.size_step) {
    sizes.push_back(n);
  }
  if (entry.max_gpus > 0) sizes.push_back(entry.max_gpus);
  for (std::int64_t n : sizes) {
    SearchConfig config;
    config.top_k = 1;
    config.batch_size = n;
    const SearchResult r =
        FindOptimalExecution(app, design.Build(n), space, config, pool);
    if (r.best.empty()) continue;
    const PerSecond rate = r.best.front().stats.sample_rate;
    if (!entry.feasible || rate > entry.sample_rate) {
      entry.feasible = true;
      entry.used_gpus = n;
      entry.sample_rate = rate;
      entry.best_exec = r.best.front().exec;
    }
  }
  if (entry.feasible) {
    entry.perf_per_million =
        entry.sample_rate.raw() /
        (static_cast<double>(entry.used_gpus) * design.UnitPrice() / 1e6);
  }
  return entry;
}

// One design x LLM answer: the size it uses and how many sizes the pruned
// sweep searches and prunes.
struct SweepCase {
  const char* app;
  std::int64_t used_gpus;
  std::uint64_t searched;
  std::uint64_t pruned;
};

// EvaluateDesign must return the exhaustive sweep's entry bit for bit, and
// publish exactly the pinned system_search.sizes_* counters.
void ExpectPrunedSweepMatchesExhaustive(const SystemDesign& design,
                                        const SweepCase& c, double budget,
                                        std::int64_t step, ThreadPool& pool) {
  SCOPED_TRACE(design.Label() + "/" + c.app);
  const Application app = presets::ApplicationByName(c.app);
  const SearchSpace space = ReducedSpace(design.ddr_gib > 0.0);
  SystemSearchOptions options;
  options.budget = budget;
  options.size_step = step;
  const SystemSearchEntry want =
      ExhaustiveSweep(app, design, space, options, pool);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const bool was_enabled = metrics.enabled();
  const obs::MetricsSnapshot saved = metrics.Snapshot();
  metrics.Reset();
  metrics.Enable();
  const SystemSearchEntry got =
      EvaluateDesign(app, design, space, options, pool);
  std::map<std::string, std::uint64_t> counters = metrics.Snapshot().counters;
  metrics.Reset();
  metrics.Ingest(saved, "");
  if (!was_enabled) metrics.Disable();

  EXPECT_EQ(got.max_gpus, want.max_gpus);
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.used_gpus, want.used_gpus);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sample_rate.raw()),
            std::bit_cast<std::uint64_t>(want.sample_rate.raw()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.perf_per_million),
            std::bit_cast<std::uint64_t>(want.perf_per_million));
  EXPECT_EQ(got.best_exec.ToJson().Dump(), want.best_exec.ToJson().Dump());
  EXPECT_EQ(got.used_gpus, c.used_gpus);
  EXPECT_EQ(counters["system_search.sizes_searched"], c.searched);
  EXPECT_EQ(counters["system_search.sizes_pruned"], c.pruned);
}

// One Table 3 design and its answers for GPT-3 175B, Turing-NLG 530B and
// Megatron-1T at $125M and size step 512.
struct Table3Row {
  SystemDesign design;
  SweepCase cases[3];
};

void PrintTo(const Table3Row& row, std::ostream* os) {
  *os << row.design.Label();
}

class PrunedSizeSweep : public ::testing::TestWithParam<Table3Row> {};

TEST_P(PrunedSizeSweep, MatchesTheExhaustiveSweep) {
  ThreadPool pool;
  for (const SweepCase& c : GetParam().cases) {
    ExpectPrunedSweepMatchesExhaustive(GetParam().design, c, 125e6, 512,
                                       pool);
  }
}

// Five answers are §5.2 efficiency cliffs, where a smaller size beats the
// largest affordable one: 40G for Turing-NLG and Megatron-1T, and 120G,
// 20G+256G and 120G+256G for Megatron-1T.
INSTANTIATE_TEST_SUITE_P(
    Table3, PrunedSizeSweep,
    ::testing::Values(
        Table3Row{{20, 0},
                  {{"gpt3_175b", 5616, 4, 7},
                   {"turing_530b", 5616, 3, 8},
                   {"megatron_1t", 5616, 5, 6}}},
        Table3Row{{40, 0},
                  {{"gpt3_175b", 5000, 4, 6},
                   {"turing_530b", 4608, 3, 7},
                   {"megatron_1t", 4608, 3, 7}}},
        Table3Row{{80, 0},
                  {{"gpt3_175b", 4160, 3, 6},
                   {"turing_530b", 4160, 3, 6},
                   {"megatron_1t", 4160, 3, 6}}},
        Table3Row{{120, 0},
                  {{"gpt3_175b", 3120, 3, 4},
                   {"turing_530b", 3120, 2, 5},
                   {"megatron_1t", 3072, 2, 5}}},
        Table3Row{{20, 256},
                  {{"gpt3_175b", 5048, 3, 7},
                   {"turing_530b", 5048, 2, 8},
                   {"megatron_1t", 4608, 3, 7}}},
        Table3Row{{40, 256},
                  {{"gpt3_175b", 4544, 2, 7},
                   {"turing_530b", 4544, 2, 7},
                   {"megatron_1t", 4544, 2, 7}}},
        Table3Row{{80, 256},
                  {{"gpt3_175b", 3840, 3, 5},
                   {"turing_530b", 3840, 2, 6},
                   {"megatron_1t", 3840, 2, 6}}},
        Table3Row{{120, 256},
                  {{"gpt3_175b", 2936, 2, 4},
                   {"turing_530b", 2936, 1, 5},
                   {"megatron_1t", 2560, 2, 4}}},
        Table3Row{{20, 512},
                  {{"gpt3_175b", 3872, 2, 6},
                   {"turing_530b", 3872, 2, 6},
                   {"megatron_1t", 3872, 2, 6}}},
        Table3Row{{40, 512},
                  {{"gpt3_175b", 3568, 2, 5},
                   {"turing_530b", 3568, 1, 6},
                   {"megatron_1t", 3568, 1, 6}}},
        Table3Row{{80, 512},
                  {{"gpt3_175b", 3120, 3, 4},
                   {"turing_530b", 3120, 2, 5},
                   {"megatron_1t", 3120, 2, 5}}},
        Table3Row{{120, 512},
                  {{"gpt3_175b", 2496, 2, 3},
                   {"turing_530b", 2496, 1, 4},
                   {"megatron_1t", 2496, 1, 4}}},
        Table3Row{{20, 1024},
                  {{"gpt3_175b", 2952, 2, 4},
                   {"turing_530b", 2952, 1, 5},
                   {"megatron_1t", 2952, 1, 5}}},
        Table3Row{{40, 1024},
                  {{"gpt3_175b", 2776, 2, 4},
                   {"turing_530b", 2776, 2, 4},
                   {"megatron_1t", 2776, 2, 4}}},
        Table3Row{{80, 1024},
                  {{"gpt3_175b", 2496, 2, 3},
                   {"turing_530b", 2496, 1, 4},
                   {"megatron_1t", 2496, 1, 4}}},
        Table3Row{{120, 1024},
                  {{"gpt3_175b", 2080, 2, 3},
                   {"turing_530b", 2080, 2, 3},
                   {"megatron_1t", 2080, 2, 3}}}),
    [](const ::testing::TestParamInfo<Table3Row>& row) {
      std::string name = row.param.design.Label();
      for (char& ch : name) {
        if (ch == '+') ch = '_';
      }
      return name;
    });

TEST(SystemSearch, PrunedSweepMatchesTheExhaustiveSweepOffTable3) {
  ThreadPool pool;
  // $2M and step 8: 48 of 56 GPUs wins, a cliff at the fine step.
  ExpectPrunedSweepMatchesExhaustive({40, 512}, {"megatron_1t", 48, 4, 3},
                                     2e6, 8, pool);
  // The largest size, 168, has no feasible strategy, so nothing is pruned
  // until 160 sets the incumbent.
  SearchConfig config;
  config.batch_size = 168;
  EXPECT_TRUE(FindOptimalExecution(presets::Megatron1T(),
                                   SystemDesign{120, 0}.Build(168),
                                   ReducedSpace(false), config, pool)
                  .best.empty());
  ExpectPrunedSweepMatchesExhaustive({120, 0}, {"megatron_1t", 160, 11, 10},
                                     6.75e6, 8, pool);
  // $100k buys 4 GPUs, rounded down to max_gpus 0: nothing to search.
  ExpectPrunedSweepMatchesExhaustive({20, 0}, {"gpt3_175b", 0, 0, 0}, 1e5, 8,
                                     pool);
  // No size fits Megatron-1T: every size is searched, none pruned.
  ExpectPrunedSweepMatchesExhaustive({80, 0}, {"megatron_1t", 0, 4, 0}, 1e6,
                                     8, pool);
}

}  // namespace
}  // namespace calculon
