#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "hw/presets.h"
#include "json/json.h"
#include "models/presets.h"
#include "obs/metrics.h"
#include "search/exec_search.h"
#include "util/error.h"
#include "util/units.h"

namespace calculon {
namespace {

System MakeSystem(std::int64_t procs) {
  presets::SystemOptions o;
  o.num_procs = procs;
  return presets::A100(o);
}

TEST(ExecSearch, FindsFeasibleStrategiesAndSortsByRate) {
  ThreadPool pool(2);
  SearchConfig config;
  config.batch_size = 64;
  config.top_k = 5;
  const SearchResult r =
      FindOptimalExecution(presets::Megatron22B(), MakeSystem(64),
                           SearchSpace::MegatronBaseline(), config, pool);
  ASSERT_FALSE(r.best.empty());
  EXPECT_GT(r.evaluated, r.feasible);
  EXPECT_GT(r.feasible, 0u);
  for (std::size_t i = 1; i < r.best.size(); ++i) {
    EXPECT_GE(r.best[i - 1].stats.sample_rate, r.best[i].stats.sample_rate);
  }
  // Every reported strategy validates and multiplies out.
  for (const SearchEntry& e : r.best) {
    EXPECT_EQ(e.exec.tensor_par * e.exec.pipeline_par * e.exec.data_par, 64);
    EXPECT_TRUE(e.exec.Validate(presets::Megatron22B()).ok());
  }
}

TEST(ExecSearch, TopEntryBeatsAHandPickedStrategy) {
  ThreadPool pool(2);
  SearchConfig config;
  config.batch_size = 64;
  const Application app = presets::Megatron22B();
  const System sys = MakeSystem(64);
  const SearchResult r = FindOptimalExecution(
      app, sys, SearchSpace::AllOptimizations(), config, pool);
  ASSERT_FALSE(r.best.empty());

  Execution hand;
  hand.num_procs = 64;
  hand.tensor_par = 8;
  hand.pipeline_par = 8;
  hand.data_par = 1;
  hand.batch_size = 64;
  hand.recompute = Recompute::kFull;
  const auto hand_r = CalculatePerformance(app, hand, sys);
  ASSERT_TRUE(hand_r.ok());
  EXPECT_GE(r.best.front().stats.sample_rate, hand_r.value().sample_rate);
}

TEST(ExecSearch, DeterministicAcrossThreadCounts) {
  SearchConfig config;
  config.batch_size = 32;
  config.top_k = 3;
  const Application app = presets::Megatron22B();
  const System sys = MakeSystem(32);
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const SearchResult a = FindOptimalExecution(
      app, sys, SearchSpace::SequenceParallel(), config, pool1);
  const SearchResult b = FindOptimalExecution(
      app, sys, SearchSpace::SequenceParallel(), config, pool4);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.feasible, b.feasible);
  ASSERT_EQ(a.best.size(), b.best.size());
  for (std::size_t i = 0; i < a.best.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.best[i].stats.sample_rate.raw(),
                     b.best[i].stats.sample_rate.raw());
    EXPECT_EQ(a.best[i].exec.ToJson(), b.best[i].exec.ToJson());
  }
}

TEST(ExecSearch, PartitionConstraintsAreHonored) {
  ThreadPool pool(2);
  SearchConfig config;
  config.batch_size = 64;
  SearchSpace space = SearchSpace::MegatronBaseline();
  space.min_tensor_par = 8;
  space.max_tensor_par = 8;
  space.max_pipeline_par = 4;
  const SearchResult r = FindOptimalExecution(
      presets::Megatron22B(), MakeSystem(64), space, config, pool);
  ASSERT_FALSE(r.best.empty());
  for (const SearchEntry& e : r.best) {
    EXPECT_EQ(e.exec.tensor_par, 8);
    EXPECT_LE(e.exec.pipeline_par, 4);
  }
}

TEST(ExecSearch, KeepAllRatesCollectsEveryFeasibleRun) {
  ThreadPool pool(2);
  SearchConfig config;
  config.batch_size = 32;
  config.keep_all_rates = true;
  const SearchResult r =
      FindOptimalExecution(presets::Megatron22B(), MakeSystem(32),
                           SearchSpace::MegatronBaseline(), config, pool);
  EXPECT_EQ(r.all_rates.size(), r.feasible);
  const PerSecond best = *std::max_element(r.all_rates.begin(),
                                           r.all_rates.end());
  EXPECT_DOUBLE_EQ(best.raw(), r.best.front().stats.sample_rate.raw());
}

TEST(ExecSearch, OffloadVariantsSkippedWithoutTier2) {
  ThreadPool pool(2);
  SearchConfig config;
  config.batch_size = 32;
  // The system has no tier-2 memory: the offload dimension must collapse
  // instead of producing a flood of infeasible evaluations.
  SearchSpace with_off = SearchSpace::AllWithOffload();
  SearchSpace without = SearchSpace::AllOptimizations();
  const SearchResult a = FindOptimalExecution(
      presets::Megatron22B(), MakeSystem(32), with_off, config, pool);
  const SearchResult b = FindOptimalExecution(
      presets::Megatron22B(), MakeSystem(32), without, config, pool);
  EXPECT_EQ(a.evaluated, b.evaluated);
}

TEST(ExecSearch, OffloadEnablesOtherwiseInfeasibleScales) {
  ThreadPool pool(2);
  SearchConfig config;
  config.batch_size = 64;
  // Megatron-1T on 64 GPUs only fits with tensor offloading (the paper's
  // small-system fine-tuning argument, Section 6).
  presets::SystemOptions o;
  o.num_procs = 64;
  const System plain = presets::H100(o);
  o.offload_capacity = GiB(2048);
  o.offload_bandwidth = GBps(100);
  const System offload = presets::H100(o);
  const SearchResult without = FindOptimalExecution(
      presets::Megatron1T(), plain, SearchSpace::AllWithOffload(), config,
      pool);
  const SearchResult with = FindOptimalExecution(
      presets::Megatron1T(), offload, SearchSpace::AllWithOffload(), config,
      pool);
  EXPECT_TRUE(without.best.empty());
  ASSERT_FALSE(with.best.empty());
  EXPECT_TRUE(with.best.front().exec.any_offload());
}

TEST(ExecSearch, TopKBoundsResultCount) {
  ThreadPool pool(2);
  SearchConfig config;
  config.batch_size = 32;
  config.top_k = 2;
  const SearchResult r =
      FindOptimalExecution(presets::Megatron22B(), MakeSystem(32),
                           SearchSpace::AllOptimizations(), config, pool);
  EXPECT_LE(r.best.size(), 2u);
}

// top_k = 0 asks for counts and collectors without a list: the search
// keeps no entry, and counts, rates and the Pareto front are the ones a
// search with a list gets.
TEST(ExecSearch, TopKZeroKeepsNoEntriesAndCountsExactly) {
  presets::SystemOptions o;
  o.num_procs = 16;
  const Application app = presets::Gpt3_6p7B();
  const System sys = presets::H100(o);
  const SearchSpace space = SearchSpace::AllOptimizations();
  ThreadPool pool(2);
  SearchConfig config;
  config.keep_all_rates = true;
  config.keep_pareto = true;
  const SearchResult listed =
      FindOptimalExecution(app, sys, space, config, pool);
  config.top_k = 0;
  const SearchResult unlisted =
      FindOptimalExecution(app, sys, space, config, pool);
  ASSERT_GT(listed.feasible, 0u);
  ASSERT_FALSE(listed.best.empty());
  EXPECT_TRUE(unlisted.best.empty());
  EXPECT_EQ(unlisted.evaluated, listed.evaluated);
  EXPECT_EQ(unlisted.feasible, listed.feasible);
  EXPECT_EQ(unlisted.all_rates.size(), listed.all_rates.size());
  EXPECT_EQ(unlisted.pareto.size(), listed.pareto.size());
  EXPECT_FALSE(unlisted.status.degraded());
}

TEST(ExecSearch, NegativeTopKIsAConfigError) {
  const Application app = presets::Megatron22B();
  const System sys = MakeSystem(32);
  const SearchSpace space = SearchSpace::MegatronBaseline();
  SearchConfig config;
  config.top_k = -1;
  EXPECT_THROW(ExecSearch(app, sys, space, config), ConfigError);
  ThreadPool pool(1);
  EXPECT_THROW((void)FindOptimalExecution(app, sys, space, config, pool),
               ConfigError);
}

// The rejection counters are functions of the workload, not the machine:
// the default Fig. 6 sweep (GPT-3 175B on 4,096 H100, as fig06_exec_space
// runs it) counts exactly these, on however many threads the pool has.
TEST(ExecSearch, Fig6SweepCountsEveryRejectionReasonExactly) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const bool was_enabled = metrics.enabled();
  const obs::MetricsSnapshot saved = metrics.Snapshot();
  metrics.Reset();
  metrics.Enable();

  presets::SystemOptions o;
  o.num_procs = 4096;
  SearchSpace space = SearchSpace::AllOptimizations();
  space.tp_overlap = {TpOverlap::kNone, TpOverlap::kRing};
  space.pp_rs_ag = {false};
  SearchConfig config;
  config.batch_size = 4096;
  ThreadPool pool;
  const SearchResult r = FindOptimalExecution(
      presets::Gpt3_175B(), presets::H100(o), space, config, pool);
  std::map<std::string, std::uint64_t> counters = metrics.Snapshot().counters;

  metrics.Reset();
  metrics.Ingest(saved, "");
  if (!was_enabled) metrics.Disable();

  EXPECT_EQ(r.evaluated, 208200u);
  EXPECT_EQ(r.feasible, 68062u);
  std::erase_if(counters, [](const auto& kv) {
    return kv.first.rfind("exec_search.", 0) != 0;
  });
  const std::map<std::string, std::uint64_t> expected = {
      {"exec_search.culled_triples", 49},
      {"exec_search.evaluated", 208200},
      {"exec_search.feasible", 68062},
      {"exec_search.rejected.dp_microbatch_does_not_divide_batch", 60024},
      {"exec_search.rejected.insufficient_memory_capacity", 80114},
  };
  EXPECT_EQ(counters, expected);
}

// The model.stage.*.calls counters of the Fig. 6 sweep on a pool of
// `threads` threads.
std::map<std::string, std::uint64_t> Fig6StageCalls(unsigned threads) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const bool was_enabled = metrics.enabled();
  const obs::MetricsSnapshot saved = metrics.Snapshot();
  metrics.Reset();
  metrics.Enable();

  presets::SystemOptions o;
  o.num_procs = 4096;
  SearchSpace space = SearchSpace::AllOptimizations();
  space.tp_overlap = {TpOverlap::kNone, TpOverlap::kRing};
  space.pp_rs_ag = {false};
  SearchConfig config;
  config.batch_size = 4096;
  ThreadPool pool(threads);
  const SearchResult r = FindOptimalExecution(
      presets::Gpt3_175B(), presets::H100(o), space, config, pool);
  std::map<std::string, std::uint64_t> counters = metrics.Snapshot().counters;

  metrics.Reset();
  metrics.Ingest(saved, "");
  if (!was_enabled) metrics.Disable();

  EXPECT_EQ(r.evaluated, 208200u);
  std::erase_if(counters, [](const auto& kv) {
    return kv.first.rfind("model.stage.", 0) != 0;
  });
  return counters;
}

// Each stage runs at the loop level where its inputs change, so the Fig. 6
// sweep's 208,200 candidates cost exactly these stage calls, on however
// many threads: one placement per triple (42), the partition checks per
// (microbatch, interleaving, TP-comm variant), and the candidate stage
// only for the 68,062 feasible candidates. The 60,024 partition rejections
// and 59,797 of the 80,114 memory rejections are decided at an outer loop
// level, so only 88,379 candidates reach the option checks.
TEST(ExecSearch, Fig6SweepCountsEveryStageCallExactly) {
  const std::map<std::string, std::uint64_t> expected = {
      {"model.stage.block.calls", 2016},
      {"model.stage.candidate.calls", 68062},
      {"model.stage.capacity.calls", 37368},
      {"model.stage.partition.calls", 2563},
      {"model.stage.place.calls", 42},
      {"model.stage.validate_options.calls", 88379},
      {"model.stage.validate_partition.calls", 4395},
  };
  EXPECT_EQ(Fig6StageCalls(1), expected);
  EXPECT_EQ(Fig6StageCalls(4), expected);
}

// A triple's sweep as text; doubles print as %.17g, so equal texts mean
// equal bit patterns.
std::string SweepText(const TripleSweep& sweep) {
  json::Value v;
  v["evaluated"] = static_cast<std::int64_t>(sweep.evaluated);
  v["feasible"] = static_cast<std::int64_t>(sweep.feasible);
  json::Array rejected;
  for (std::uint64_t n : sweep.rejected) {
    rejected.emplace_back(static_cast<std::int64_t>(n));
  }
  v["rejected"] = json::Value(std::move(rejected));
  for (const auto& [name, entries] :
       {std::pair{"best", &sweep.best}, std::pair{"pareto", &sweep.pareto}}) {
    json::Array list;
    for (const SearchEntry& e : *entries) {
      list.push_back(e.exec.ToJson());
      list.push_back(e.stats.ToJson());
    }
    v[name] = json::Value(std::move(list));
  }
  json::Array rates;
  for (PerSecond rate : sweep.rates) rates.emplace_back(rate.raw());
  v["rates"] = json::Value(std::move(rates));
  v["failures"] = static_cast<std::int64_t>(sweep.failures.size());
  return v.Dump();
}

// One search of GPT-3 175B on 4,096 H100 over the trimmed Fig. 6 space,
// with every collector on, sweeps each triple through its one layer table
// on a pool of `threads`; each triple must get exactly the sweep
// SweepTriple gives it, with a table of its own. On 1 thread the triples
// go in reverse index order, so earlier triples find what later ones
// computed; on more, the table fills concurrently, and each sweep is kept
// by index, so no commit order enters the comparison.
void ExpectEachTripleGetsItsFreshSweep(unsigned threads) {
  presets::SystemOptions o;
  o.num_procs = 4096;
  const Application app = presets::Gpt3_175B();
  const System sys = presets::H100(o);
  SearchSpace space = SearchSpace::AllOptimizations();
  space.tp_overlap = {TpOverlap::kNone, TpOverlap::kRing};
  space.pp_rs_ag = {false};
  RunContext ctx;
  SearchConfig config;
  config.batch_size = 4096;
  config.top_k = 20;
  config.keep_all_rates = true;
  config.keep_pareto = true;
  config.ctx = &ctx;
  const ExecSearch search(app, sys, space, config);
  const std::size_t n = search.triples().size();

  // The triples repeat t across p, so they share layer keys.
  std::map<std::int64_t, std::set<std::int64_t>> ps_of_t;
  for (const Triple& tr : search.triples()) ps_of_t[tr.t].insert(tr.p);
  std::size_t ts_with_several_p = 0;
  for (const auto& [t, ps] : ps_of_t) ts_with_several_p += ps.size() > 1;
  EXPECT_GT(ts_with_several_p, 1u);

  std::vector<std::string> shared(n);
  if (threads == 1) {
    for (std::size_t i = n; i-- > 0;) shared[i] = SweepText(search.Sweep(i));
  } else {
    ThreadPool pool(threads);
    pool.ParallelFor(n, [&](std::uint64_t i) {
      shared[i] = SweepText(search.Sweep(i));
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(shared[i], SweepText(SweepTriple(app, sys, space, config, i)))
        << "triple " << i;
  }
}

TEST(ExecSearch, SharedLayerTableGivesEachTripleItsFreshSweep) {
  ExpectEachTripleGetsItsFreshSweep(1);
}

TEST(ExecSearch,
     SharedLayerTableFilledByFourThreadsGivesEachTripleItsFreshSweep) {
  ExpectEachTripleGetsItsFreshSweep(4);
}

}  // namespace
}  // namespace calculon
