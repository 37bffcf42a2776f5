#include "search/system_search.h"

#include "core/perf_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/strings.h"

namespace calculon {

SystemSearchEntry EvaluateDesign(const Application& app,
                                 const SystemDesign& design,
                                 const SearchSpace& space,
                                 const SystemSearchOptions& options,
                                 ThreadPool& pool) {
  CALC_TRACE_SPAN("search", "system_search.design " + design.Label());
  const std::int64_t step = options.size_step;
  if (step < 1) {
    throw ConfigError(StrFormat("size_step %lld must be >= 1",
                                static_cast<long long>(step)));
  }
  SystemSearchEntry entry;
  entry.design = design;
  entry.max_gpus = design.MaxGpus(options.budget);

  // Largest first: max_gpus, then each multiple of the step below it. A
  // size replaces the incumbent when at least as fast, so a tie keeps the
  // smallest size. Build gives every size the same processor, so the
  // sample-rate ceiling falls with the size: once it is below the
  // incumbent, no smaller size can win or tie (docs/MODEL.md §11). The
  // margin covers the ceiling's rounding.
  constexpr double kCeilingMargin = 1e-9;
  std::uint64_t searched = 0;
  std::uint64_t pruned = 0;
  for (std::int64_t n = entry.max_gpus; n > 0; n = (n - 1) / step * step) {
    if (options.ctx != nullptr && options.ctx->ShouldStop()) break;
    const System sys = design.Build(n);
    if (entry.feasible &&
        SampleRateCeiling(app, sys.proc(), n, /*training=*/true) *
                (1.0 + kCeilingMargin) <
            entry.sample_rate) {
      // n < max_gpus is a multiple of the step: n / step sizes are left.
      pruned = static_cast<std::uint64_t>(n / step);
      break;
    }
    ++searched;
    SearchConfig config;
    config.top_k = 1;
    config.batch_size =
        options.batch_size > 0 ? options.batch_size : n;
    config.ctx = options.ctx;
    const SearchResult result =
        FindOptimalExecution(app, sys, space, config, pool);
    if (result.best.empty()) continue;
    const PerSecond rate = result.best.front().stats.sample_rate;
    if (!entry.feasible || rate >= entry.sample_rate) {
      entry.feasible = true;
      entry.used_gpus = n;
      entry.sample_rate = rate;
      entry.best_exec = result.best.front().exec;
    }
  }
  if (entry.feasible) {
    const double used_cost_millions =
        static_cast<double>(entry.used_gpus) * design.UnitPrice() / 1e6;
    entry.perf_per_million =
        entry.sample_rate.raw() / used_cost_millions;  // unit-ok: per-dollar
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled()) {
    metrics.GetCounter("system_search.sizes_searched")->Increment(searched);
    metrics.GetCounter("system_search.sizes_pruned")->Increment(pruned);
  }
  return entry;
}

std::vector<SystemSearchEntry> OptimalSystemSearch(
    const Application& app, const std::vector<SystemDesign>& designs,
    const SearchSpace& space, const SystemSearchOptions& options,
    ThreadPool& pool) {
  return RunSystemSearch(app, designs, space, options, pool).entries;
}

SystemSearchResult RunSystemSearch(const Application& app,
                                   const std::vector<SystemDesign>& designs,
                                   const SearchSpace& space,
                                   const SystemSearchOptions& options,
                                   ThreadPool& pool) {
  CALC_TRACE_SPAN("search", "system_search");
  SystemSearchResult result;
  result.entries.reserve(designs.size());
  for (const SystemDesign& design : designs) {
    if (options.ctx != nullptr && options.ctx->ShouldStop()) break;
    result.entries.push_back(
        EvaluateDesign(app, design, space, options, pool));
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    if (metrics.enabled()) {
      metrics.GetCounter("system_search.designs_evaluated")->Increment();
      if (!result.entries.back().feasible) {
        metrics.GetCounter("system_search.designs_infeasible")->Increment();
      }
    }
  }
  if (options.ctx != nullptr) result.status = options.ctx->Snapshot();
  return result;
}

}  // namespace calculon
