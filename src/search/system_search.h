// Optimal-system search (Section 7, Table 3): given a budget, evaluate a
// menu of system designs by sweeping system sizes and execution strategies
// and report performance and performance per dollar.
#pragma once

#include <cstdint>
#include <vector>

#include "models/application.h"
#include "search/exec_search.h"
#include "search/pricing.h"

namespace calculon {

struct SystemSearchOptions {
  double budget = 125e6;        // dollars
  std::int64_t size_step = 8;   // granularity of the system-size sweep
  std::int64_t batch_size = 0;  // 0: num_procs samples per size
  // Optional resilience context, observed between sizes/designs and threaded
  // into every inner execution search (see SearchConfig::ctx).
  RunContext* ctx = nullptr;
};

struct SystemSearchEntry {
  SystemDesign design;
  std::int64_t max_gpus = 0;    // affordable under the budget
  std::int64_t used_gpus = 0;  // best-performing size <= max_gpus
  PerSecond sample_rate;
  double perf_per_million = 0.0;  // sample_rate / (used cost in $M)
  Execution best_exec;
  bool feasible = false;
};

// Evaluates one design: the fastest size among max_gpus and the multiples
// of `size_step` below it, the smallest such size on a tie. It searches
// them largest first and stops at the first size whose SampleRateCeiling
// is below the fastest rate found so far: every smaller size has a lower
// ceiling, so none can win (docs/MODEL.md §11). The entry equals an
// exhaustive sweep's bit for bit. A cancelled or deadline-stopped run
// returns the best of the largest sizes searched before the stop. Throws
// ConfigError for a size_step below 1 or a budget MaxGpus rejects. With
// metrics on, it adds the sizes it searched and pruned to
// `system_search.sizes_searched` and `.sizes_pruned`.
[[nodiscard]] SystemSearchEntry EvaluateDesign(
    const Application& app, const SystemDesign& design,
    const SearchSpace& space, const SystemSearchOptions& options,
    ThreadPool& pool);

// Full Table 3 row set for one application.
[[nodiscard]] std::vector<SystemSearchEntry> OptimalSystemSearch(
    const Application& app, const std::vector<SystemDesign>& designs,
    const SearchSpace& space, const SystemSearchOptions& options,
    ThreadPool& pool);

// Resilient variant: the entries plus the sweep's failure summary. With a
// RunContext in `options`, a cancelled/deadline-stopped run returns the
// designs evaluated so far, explicitly marked incomplete.
struct SystemSearchResult {
  std::vector<SystemSearchEntry> entries;
  RunStatus status;
};

[[nodiscard]] SystemSearchResult RunSystemSearch(
    const Application& app, const std::vector<SystemDesign>& designs,
    const SearchSpace& space, const SystemSearchOptions& options,
    ThreadPool& pool);

}  // namespace calculon
