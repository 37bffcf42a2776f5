// What an exec-search answer costs around its model stages, on the answer
// pool of perfbench's exec_search workload (perfbench/src/workloads.cc):
// 12 LLM presets on H100 systems of 16 to 32 processors, each searched
// untrimmed over the Table 1 space without offload, on one thread.
//
//   * Search CPU per candidate at top_k 100 with every sample rate kept
//     (the benchmark's configuration), at top_k 1 without rates, and at
//     top_k 1 without rates but with the Pareto front kept. The
//     differences from the second are what collecting the top 100 and
//     the rates, and the front, cost.
//   * Layer halves per answer: the distinct BlockKey::LayersOf keys of the
//     block slots the sweep's loop nest visits, each of which the search's
//     layer table computes once.
//
// The timed rows are the median, minimum and maximum of 7 rounds over the
// pool, the three configurations alternating; repeat the binary to see the
// spread.
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/perf_model.h"
#include "hw/presets.h"
#include "models/presets.h"
#include "search/exec_search.h"
#include "util/mathutil.h"
#include "util/run_context.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/threadpool.h"

namespace calculon {
namespace {

struct Pair {
  const char* app;
  std::int64_t procs;
};

// perfbench's timed exec_search pool.
constexpr Pair kPairs[] = {
    {"gpt3_6p7b", 16},    {"gpt3_13b", 16},      {"gpt3_13b", 32},
    {"megatron_22b", 16}, {"anthropic_52b", 16}, {"chinchilla_70b", 16},
    {"llama2_70b", 16},   {"gpt3_175b", 16},     {"bloom_176b", 16},
    {"turing_530b", 32},  {"megatron_1t", 16},   {"megatron_1t", 24}};
constexpr int kRounds = 7;

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Answer {
  Application app;
  System sys;
};

// The block slots of one search, as SweepTripleInto lays them out: one per
// (triple, microbatch, TP-comm variant, fused, pp_rs_ag), the lists
// collapsed where a degree is 1. Adds their layer keys to `keys` and
// returns how many there are.
std::uint64_t BlockSlots(const Application& app, const System& sys,
                         const SearchSpace& space, std::set<BlockKey>& keys) {
  const std::vector<SearchSpace::TpCommVariant> no_tp = {{}};
  const std::vector<bool> false_only = {false};
  std::uint64_t slots = 0;
  for (const Triple& tr : SearchTriples(app, sys, space, {})) {
    Execution e;
    e.num_procs = sys.num_procs();
    e.tensor_par = tr.t;
    e.pipeline_par = tr.p;
    e.data_par = tr.d;
    e.batch_size = sys.num_procs();
    const auto& tp_comm = tr.t > 1 ? space.tp_comm : no_tp;
    const auto& pp_rs_ag =
        tr.t > 1 && tr.p > 1 ? space.pp_rs_ag : false_only;
    for (std::int64_t m : Divisors(e.batch_size / tr.d)) {
      if (m > space.max_microbatch) continue;
      e.microbatch = m;
      for (const SearchSpace::TpCommVariant& v : tp_comm) {
        e.tp_rs_ag = v.tp_rs_ag;
        e.seq_par = v.seq_par;
        e.seq_par_ag_redo = v.ag_redo;
        for (bool fused : space.fused_activation) {
          e.fused_activation = fused;
          for (bool ppr : pp_rs_ag) {
            e.pp_rs_ag = ppr;
            keys.insert(BlockKey::LayersOf(e));
            ++slots;
          }
        }
      }
    }
  }
  return slots;
}

// One round over the pool: search CPU seconds and candidates.
struct Round {
  double cpu_s = 0.0;
  std::uint64_t candidates = 0;
};

Round RunRound(const std::vector<Answer>& answers, const SearchSpace& space,
               int top_k, bool keep_rates, bool keep_pareto,
               ThreadPool& pool) {
  Round round;
  for (const Answer& a : answers) {
    RunContext ctx;
    SearchConfig config;
    config.top_k = top_k;
    config.keep_all_rates = keep_rates;
    config.keep_pareto = keep_pareto;
    config.ctx = &ctx;
    const double t0 = ProcessCpuSeconds();
    const SearchResult r =
        FindOptimalExecution(a.app, a.sys, space, config, pool);
    round.cpu_s += ProcessCpuSeconds() - t0;
    round.candidates += r.evaluated;
  }
  return round;
}

// Search CPU ns per candidate of each of `rounds`, ascending.
std::vector<double> SortedNs(const std::vector<Round>& rounds) {
  std::vector<double> ns;
  for (const Round& r : rounds) {
    ns.push_back(1e9 * r.cpu_s / static_cast<double>(r.candidates));
  }
  std::sort(ns.begin(), ns.end());
  return ns;
}

}  // namespace
}  // namespace calculon

int main() {
  using namespace calculon;
  const SearchSpace space = SearchSpace::AllOptimizations();
  std::vector<Answer> answers;
  for (const Pair& p : kPairs) {
    presets::SystemOptions o;
    o.num_procs = p.procs;
    answers.push_back({presets::ApplicationByName(p.app), presets::H100(o)});
  }

  Table slots({"answer", "triples", "block slots", "layer halves"});
  std::uint64_t total_slots = 0;
  std::uint64_t total_halves = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const Answer& a = answers[i];
    std::set<BlockKey> keys;
    const std::uint64_t n = BlockSlots(a.app, a.sys, space, keys);
    total_slots += n;
    total_halves += keys.size();
    slots.AddRow({StrFormat("%s@%lld", kPairs[i].app,
                            static_cast<long long>(kPairs[i].procs)),
                  StrFormat("%zu", SearchTriples(a.app, a.sys, space, {})
                                       .size()),
                  StrFormat("%llu", static_cast<unsigned long long>(n)),
                  StrFormat("%zu", keys.size())});
  }
  const double per_answer = static_cast<double>(answers.size());
  slots.AddRule();
  slots.AddRow({"per answer", "",
                StrFormat("%.1f", static_cast<double>(total_slots) /
                                      per_answer),
                StrFormat("%.1f", static_cast<double>(total_halves) /
                                      per_answer)});

  ThreadPool pool(1);
  (void)RunRound(answers, space, 100, true, false, pool);  // warm-up
  std::vector<Round> listed;
  std::vector<Round> bare;
  std::vector<Round> fronted;
  for (int round = 0; round < kRounds; ++round) {
    listed.push_back(RunRound(answers, space, 100, true, false, pool));
    bare.push_back(RunRound(answers, space, 1, false, false, pool));
    fronted.push_back(RunRound(answers, space, 1, false, true, pool));
  }
  const std::vector<double> listed_ns = SortedNs(listed);
  const std::vector<double> bare_ns = SortedNs(bare);
  const std::vector<double> fronted_ns = SortedNs(fronted);
  const std::size_t mid = kRounds / 2;
  Table cpu({"configuration", "search CPU ns/candidate: median",
             "min", "max"});
  for (const auto& [name, ns] :
       {std::pair{"top_k 100, every rate kept", &listed_ns},
        std::pair{"top_k 1, no rates", &bare_ns},
        std::pair{"top_k 1, no rates, Pareto front kept", &fronted_ns}}) {
    cpu.AddRow({name, StrFormat("%.1f", (*ns)[mid]),
                StrFormat("%.1f", ns->front()),
                StrFormat("%.1f", ns->back())});
  }
  cpu.AddRule();
  cpu.AddRow({"top 100 and rates: first - second",
              StrFormat("%.1f", listed_ns[mid] - bare_ns[mid]), "", ""});
  cpu.AddRow({"Pareto front: third - second",
              StrFormat("%.1f", fronted_ns[mid] - bare_ns[mid]), "", ""});

  std::printf(
      "Exec-search cost around the model stages: perfbench's exec_search "
      "pool (%zu answers, %llu candidates per round), one thread\n\n%s\n%s",
      answers.size(),
      static_cast<unsigned long long>(listed.front().candidates),
      slots.ToString().c_str(), cpu.ToString().c_str());
  return 0;
}
