// Heap allocations of the execution search. Its per-candidate loop nest
// (SweepTripleInto) runs once per candidate, hundreds of thousands of
// times per search, so nothing in it allocates per candidate: every
// allocation of a sweep comes from a block stage's p-independent half
// (BuildBlock's layer vectors and the search's table entry), which the
// search computes once per distinct key for all its triples, or from a
// triple (the triple's result and metric names; its trace-span label only
// while tracing). This binary replaces the global operator new with a
// counting one and bounds the allocations of the trimmed Fig. 6 sweep by
// its block slots and its triples.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <string>

#include "hw/presets.h"
#include "models/presets.h"
#include "obs/metrics.h"
#include "search/exec_search.h"
#include "util/mathutil.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void* CountedAlloc(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Storage still comes from malloc, so freeing it with free stays correct.
void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace calculon {
namespace {

// Allowances. At 1 thread with metrics on, the sweep below fills 2,016
// block slots and makes about 4.2k allocations: about 5 for each of the
// 414 distinct layer keys it computes (triples of one t share their keys
// across p) and about 50 for each of the 42 triples it sweeps. The bound,
// 2 per block slot and 64 for each of all 91 factor triples of 4,096
// (culled ones included), is 9,856. A sweep that computed the layers of
// every block slot, 4 allocations each, makes about 10.5k and fails it.
constexpr std::uint64_t kPerBlockStage = 2;
constexpr std::uint64_t kPerTriple = 64;

TEST(SweepAllocations, Fig6SweepAllocatesPerBlockStageAndPerTripleOnly) {
  // GPT-3 175B on 4,096 H100 over the trimmed Fig. 6 space, at 1 thread.
  // Metrics are on for the stage call counts.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  metrics.Enable();
  presets::SystemOptions o;
  o.num_procs = 4096;
  const Application app = presets::Gpt3_175B();
  const System sys = presets::H100(o);
  SearchSpace space = SearchSpace::AllOptimizations();
  space.tp_overlap = {TpOverlap::kNone, TpOverlap::kRing};
  space.pp_rs_ag = {false};
  SearchConfig config;
  config.batch_size = 4096;
  config.top_k = 1;
  ThreadPool pool(1);

  counting.store(true);
  const SearchResult r = FindOptimalExecution(app, sys, space, config, pool);
  counting.store(false);
  const std::uint64_t allocated = allocations.load();
  std::map<std::string, std::uint64_t> counters = metrics.Snapshot().counters;
  metrics.Reset();
  metrics.Disable();

  ASSERT_EQ(r.evaluated, 208200u);
  const std::uint64_t block_stages = counters["model.stage.block.calls"];
  const std::uint64_t triples = FactorTriples(o.num_procs).size();
  ASSERT_GT(block_stages, 0u);
  const std::uint64_t bound =
      kPerBlockStage * block_stages + kPerTriple * triples;
  EXPECT_LE(allocated, bound)
      << block_stages << " block stages, " << triples << " triples, "
      << r.evaluated << " candidates";
  // The bound is below the number of candidate-stage calls, so one
  // allocation per evaluated candidate cannot fit under it.
  EXPECT_LT(bound, counters["model.stage.candidate.calls"]);
}

// The sweep above runs pp_rs_ag = {false} only. A layer half is keyed
// without pipeline_par and pp_rs_ag, so once one execution's half is in
// the table, the same execution at any pipeline depth, with or without
// pp_rs_ag, finds it: no allocation, and the same bits.
TEST(SweepAllocations, OneLayerHalfServesEveryPipelineDepthAndPpRsAg) {
  presets::SystemOptions o;
  o.num_procs = 4096;
  const Application app = presets::Gpt3_175B();
  const System sys = presets::H100(o);
  Execution e;
  e.num_procs = o.num_procs;
  e.tensor_par = 8;
  e.pipeline_par = 1;
  e.data_par = 512;
  e.batch_size = 4096;
  e.microbatch = 2;
  e.tp_rs_ag = true;
  const Network& tp_net = *sys.NetworkForSpan(e.tensor_par);
  BlockLayerTable table;
  const BlockCosts first = table.Get(app, e, sys.proc(), tp_net);
  for (const std::int64_t p : {1, 2, 8, 32}) {
    for (const bool pp_rs_ag : {false, true}) {
      e.pipeline_par = p;
      e.data_par = o.num_procs / (e.tensor_par * p);
      e.pp_rs_ag = pp_rs_ag;
      allocations.store(0);
      counting.store(true);
      const BlockCosts again = table.Get(app, e, sys.proc(), tp_net);
      counting.store(false);
      const std::string where =
          "p=" + std::to_string(p) + " pp_rs_ag=" + std::to_string(pp_rs_ag);
      EXPECT_EQ(allocations.load(), 0u) << where;
      EXPECT_EQ(again.fw.raw(), first.fw.raw()) << where;
      EXPECT_EQ(again.tp_bw.raw(), first.tp_bw.raw()) << where;
    }
  }
}

}  // namespace
}  // namespace calculon
