// Fig. 6: the full execution-strategy space for GPT-3 175B training on a
// 4,096-GPU system: how many strategies exist, how many are feasible, the
// histogram of feasible sample rates, and the CDF of the top-100.
//
// The paper reports 10,957,376 possible calculations, 1,974,902 feasible
// (~18%), only ~30 configurations (<0.002%) within 10% of the best, and
// ~10 within 5%. (Sample rates up to ~1090/s imply an H100-class system.)
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "hw/presets.h"
#include "models/presets.h"
#include "search/exec_search.h"

int main() {
  using namespace calculon;
  ThreadPool pool(bench::Threads());
  const Application app = presets::Gpt3_175B();
  presets::SystemOptions o;
  o.num_procs = 4096;
  const System sys = presets::H100(o);

  SearchSpace space = SearchSpace::AllOptimizations();
  if (!bench::FullFidelity()) {
    // Trim the two most redundant axes so the default run stays ~1 minute
    // on one core; CALCULON_FULL=1 sweeps everything.
    space.tp_overlap = {TpOverlap::kNone, TpOverlap::kRing};
    space.pp_rs_ag = {false};
  }
  SearchConfig config;
  config.batch_size = 4096;
  config.top_k = 100;
  config.keep_all_rates = true;

  const SearchResult r = FindOptimalExecution(app, sys, space, config, pool);
  std::printf("Fig. 6: execution strategies for GPT-3 175B on 4096 GPUs\n\n");
  std::printf("calculations: %llu  feasible: %llu (%.1f%%)   [paper: "
              "10,957,376 / 1,974,902 (18%%)]\n\n",
              static_cast<unsigned long long>(r.evaluated),
              static_cast<unsigned long long>(r.feasible),
              100.0 * static_cast<double>(r.feasible) /
                  static_cast<double>(std::max<std::uint64_t>(r.evaluated, 1)));
  if (r.all_rates.empty()) return 1;

  // (a) histogram of the sample rate, 10 bins.
  const PerSecond best = r.best.front().stats.sample_rate;
  std::vector<std::uint64_t> bins(10, 0);
  for (PerSecond rate : r.all_rates) {
    auto b = static_cast<std::size_t>(rate / best * 10.0);
    bins[std::min<std::size_t>(b, 9)]++;
  }
  Table hist({"sample-rate bin", "count", "share"});
  for (std::size_t i = 0; i < bins.size(); ++i) {
    hist.AddRow({StrFormat("[%4.0f, %4.0f)",
                           best.raw() * 0.1 * static_cast<double>(i),
                           best.raw() * 0.1 * static_cast<double>(i + 1)),
                 StrFormat("%llu", static_cast<unsigned long long>(bins[i])),
                 FormatPercent(static_cast<double>(bins[i]) /
                               static_cast<double>(r.all_rates.size()))});
  }
  std::printf("(a) sample-rate distribution (best = %.1f samples/s)\n%s\n",
              best.raw(), hist.ToString().c_str());

  // (b) CDF of the top-100 performers.
  std::vector<PerSecond> sorted = r.all_rates;
  std::sort(sorted.rbegin(), sorted.rend());
  const std::size_t top_n = std::min<std::size_t>(100, sorted.size());
  Table cdf({"rank", "sample rate", "fraction of best"});
  for (std::size_t rank : {std::size_t{1}, std::size_t{10}, std::size_t{25},
                           std::size_t{50}, std::size_t{75}, top_n}) {
    if (rank > top_n) continue;
    cdf.AddRow({StrFormat("%zu", rank),
                FormatNumber(sorted[rank - 1].raw(), 1),
                FormatPercent(sorted[rank - 1] / best)});
  }
  std::printf("(b) top-100 sample-rate CDF\n%s\n", cdf.ToString().c_str());

  // Needles in a haystack: how many strategies are near-optimal.
  std::uint64_t within5 = 0;
  std::uint64_t within10 = 0;
  for (PerSecond rate : r.all_rates) {
    if (rate >= 0.95 * best) ++within5;
    if (rate >= 0.90 * best) ++within10;
  }
  std::printf("within 10%% of best: %llu (%.4f%% of feasible)  [paper: ~30, "
              "<0.002%% of the full space]\n",
              static_cast<unsigned long long>(within10),
              100.0 * static_cast<double>(within10) /
                  static_cast<double>(r.all_rates.size()));
  std::printf("within  5%% of best: %llu  [paper: ~10]\n",
              static_cast<unsigned long long>(within5));
  std::printf("\nbest strategy: %s\n",
              bench::StrategyLabel(r.best.front().exec).c_str());
  return 0;
}
