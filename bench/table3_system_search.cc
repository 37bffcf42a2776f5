// Table 3: price-constrained optimal-system search. Sixteen H100 designs
// (HBM3 {20,40,80,120} GiB x DDR5 {none,256,512,1024} GiB) under a $125M
// budget, evaluated for GPT-3 175B, Turing-NLG 530B and Megatron-1T:
// GPUs used, sample rate, and performance per million dollars.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "models/presets.h"
#include "search/system_search.h"

int main() {
  using namespace calculon;
  ThreadPool pool(bench::Threads());
  const std::vector<SystemDesign> designs = Table3Designs();

  SystemSearchOptions options;
  options.budget = 125e6;
  // Default: a coarse size sweep; CALCULON_FULL=1 sweeps every domain.
  // Either way the search starts at the affordable maximum and stops once
  // a size's sample-rate ceiling proves no smaller size can win.
  options.size_step = bench::FullFidelity() ? 8 : 512;

  std::printf("Table 3: $125M budget, H100 HBM3 x DDR5 design sweep "
              "(size step %lld)\n\n",
              static_cast<long long>(options.size_step));

  Table table({"HBM3", "DDR5", "price", "max GPUs", "LLM", "GPUs", "perf",
               "perf/$M", "best strategy"});
  const std::vector<std::string> apps = {"gpt3_175b", "turing_530b",
                                         "megatron_1t"};
  for (const SystemDesign& design : designs) {
    bool first = true;
    for (const std::string& app_name : apps) {
      const Application app = presets::ApplicationByName(app_name);
      const SystemSearchEntry entry = EvaluateDesign(
          app, design, bench::ReducedSpace(design.ddr_gib > 0.0), options,
          pool);
      table.AddRow(
          {first ? StrFormat("%gG", design.hbm_gib) : "",
           first ? (design.ddr_gib > 0 ? StrFormat("%gG", design.ddr_gib)
                                       : "0")
                 : "",
           first ? StrFormat("$%.3gk", design.UnitPrice() / 1e3) : "",
           first ? StrFormat("%lld", static_cast<long long>(entry.max_gpus))
                 : "",
           app_name,
           entry.feasible
               ? StrFormat("%lld", static_cast<long long>(entry.used_gpus))
               : "-",
           entry.feasible ? FormatNumber(entry.sample_rate.raw(), 0) : "-",
           entry.feasible ? FormatNumber(entry.perf_per_million, 1) : "-",
           entry.feasible ? bench::StrategyLabel(entry.best_exec) : ""});
      first = false;
    }
    table.AddRule();
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "paper reference: neither the cheapest nor the most expensive design\n"
      "wins; the 20 GiB HBM3 + 256 GiB DDR5 design is the top performer for\n"
      "all three LLMs (offloading keeps active HBM usage under ~20 GiB\n"
      "while affording the second-largest GPU count).\n");
  return 0;
}
