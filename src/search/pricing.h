// The paper's Section 7 cost model: H100-based system designs priced by
// their HBM3 and secondary-DDR5 options under a fixed budget.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/system.h"

namespace calculon {

struct SystemDesign {
  double hbm_gib = 80.0;   // HBM3 capacity per GPU (GiB)
  double ddr_gib = 0.0;    // secondary DDR5 capacity per GPU (GiB; 0 = none)

  // Per-GPU price in dollars: $20k base (GPU + infrastructure) plus the
  // HBM3 and DDR5 options at the paper's prices.
  [[nodiscard]] double UnitPrice() const;

  // Most GPUs affordable under `budget` dollars, rounded down to a whole
  // NVLink domain (multiples of 8, matching Table 3's "Max GPUs"). Throws
  // ConfigError for a negative or non-finite budget, or one that buys more
  // GPUs than int64 counts.
  [[nodiscard]] std::int64_t MaxGpus(double budget) const;

  // The H100 system this design describes, with `num_procs` GPUs. HBM3 runs
  // at 3 TB/s regardless of capacity; DDR5 at 100 GB/s per direction.
  [[nodiscard]] System Build(std::int64_t num_procs) const;

  [[nodiscard]] std::string Label() const;
};

// The 16 designs of Table 3: HBM3 {20, 40, 80, 120} GiB x DDR5 {0, 256,
// 512, 1024} GiB.
[[nodiscard]] std::vector<SystemDesign> Table3Designs();

}  // namespace calculon
