#include "bench/bench_util.h"

#include <algorithm>

namespace calculon::bench {

std::vector<std::int64_t> ScalingSizes() {
  std::vector<std::int64_t> sizes;
  if (FullFidelity()) {
    for (std::int64_t n = 8; n <= 8192; n += 8) sizes.push_back(n);
    return sizes;
  }
  for (std::int64_t n = 512; n <= 8192; n += 512) sizes.push_back(n);
  for (std::int64_t n = 4000; n <= 4352; n += 8) sizes.push_back(n);
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

std::vector<ScalingPoint> SweepAndPrint(const Application& app,
                                        const System& base,
                                        const SearchSpace& space,
                                        const std::vector<std::int64_t>& sizes,
                                        ThreadPool& pool) {
  ScalingOptions options;
  options.sizes = sizes;
  const auto points = ScalingSweep(app, base, space, options, pool);
  PerSecond best_per_gpu(0.0);
  for (const ScalingPoint& pt : points) {
    best_per_gpu = std::max(
        best_per_gpu, pt.sample_rate / static_cast<double>(pt.num_procs));
  }
  Table table({"GPUs", "sample rate", "relative scaling", "best strategy"});
  for (const ScalingPoint& pt : points) {
    if (!pt.feasible) {
      table.AddRow({StrFormat("%lld", static_cast<long long>(pt.num_procs)),
                    "0", "0.00", "infeasible"});
      continue;
    }
    const double rel =
        pt.sample_rate / (best_per_gpu * static_cast<double>(pt.num_procs));
    table.AddRow({StrFormat("%lld", static_cast<long long>(pt.num_procs)),
                  FormatNumber(pt.sample_rate.raw(), 1), FormatNumber(rel, 3),
                  StrategyLabel(pt.best_exec)});
  }
  std::printf("%s\n", table.ToString().c_str());
  return points;
}

}  // namespace calculon::bench
