// Per-layer probes of the traced run. Each probe calls one layer's public
// functions from the benchmark's own code, inside a span named after the
// layer, on fixed inputs, so every traced run reports every per-layer
// metric whatever its workload.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Output mismatches found while probing (including exec_search's
// per-reason rejection counts against `golden_dir`/exec_search.json) are
// appended to `failures`.
[[nodiscard]] std::map<std::string, Metric> RunLayerProbes(
    const std::string& work_dir, const std::string& golden_dir,
    std::vector<std::string>* failures);

}  // namespace perfbench
