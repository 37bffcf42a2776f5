// Budget-constrained system codesign (Section 7): given a dollar budget,
// compare H100 memory configurations (HBM3 capacity x secondary DDR5) on a
// chosen LLM and report the best performance per dollar.
//
//   system_codesign [app] [budget_millions]
//   e.g.: system_codesign megatron_1t 125
//
// Exits 2 on a malformed budget, or one the price model cannot count
// (negative, non-finite, or more GPUs than an int64 holds).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "models/presets.h"
#include "search/system_search.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/units.h"

namespace {

int Run(const std::string& app_name, double budget) {
  using namespace calculon;
  const Application app = presets::ApplicationByName(app_name);
  ThreadPool pool;

  SystemSearchOptions options;
  options.budget = budget;
  // Coarse sweep. The search proves which sizes can win: it starts at the
  // largest and stops once a size's sample-rate ceiling falls below the
  // best rate found (docs/MODEL.md §11).
  options.size_step = 512;

  SearchSpace space;
  space.tp_comm = {{false, false, false}, {true, true, true}};
  space.tp_overlap = {TpOverlap::kRing};
  space.fused_activation = {true};
  space.dp_overlap = {true};
  space.optimizer_sharding = {true};
  space.max_microbatch = 8;

  std::printf("system codesign for %s under a $%.0fM budget\n\n",
              app.name.c_str(), budget / 1e6);
  Table table({"HBM3", "DDR5", "$/GPU", "max GPUs", "GPUs used",
               "sample rate", "perf/$M"});
  const SystemSearchEntry* best = nullptr;
  std::vector<SystemSearchEntry> entries =
      OptimalSystemSearch(app, Table3Designs(), space, options, pool);
  for (const SystemSearchEntry& entry : entries) {
    table.AddRow(
        {StrFormat("%g GiB", entry.design.hbm_gib),
         entry.design.ddr_gib > 0 ? StrFormat("%g GiB", entry.design.ddr_gib)
                                  : "-",
         StrFormat("$%.3gk", entry.design.UnitPrice() / 1e3),
         std::to_string(entry.max_gpus),
         entry.feasible ? std::to_string(entry.used_gpus) : "-",
         entry.feasible ? FormatNumber(entry.sample_rate.raw(), 0) : "-",
         entry.feasible ? FormatNumber(entry.perf_per_million, 1) : "-"});
    if (entry.feasible &&
        (best == nullptr || entry.sample_rate > best->sample_rate)) {
      best = &entry;
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  if (best != nullptr) {
    std::printf("best design: %s at %lld GPUs (%s samples/s)\n",
                best->design.Label().c_str(),
                static_cast<long long>(best->used_gpus),
                FormatNumber(best->sample_rate.raw(), 0).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string app_name = argc > 1 ? argv[1] : "turing_530b";
  double millions = 125.0;
  if (argc > 2) {
    char* end = nullptr;
    millions = std::strtod(argv[2], &end);
    if (end == argv[2] || *end != '\0') {
      std::fprintf(stderr, "error: budget '%s' is not a number\n", argv[2]);
      return 2;
    }
  }
  try {
    return Run(app_name, millions * 1e6);
  } catch (const calculon::ConfigError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
