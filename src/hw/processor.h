// Processing model: how long a computational operation takes.
//
// Computation is assigned to either "matrix" execution (GEMMs, batched
// matmuls) or "vector" execution (element-wise layers, normalizations,
// softmax). Each compute unit has a peak throughput and a size-based
// efficiency curve. An operation's time considers both raw compute (FLOPs)
// and raw memory accesses to tier-1 memory; the default combination is the
// roofline maximum of the two (an ablation supports the additive model).
#pragma once

#include "hw/efficiency.h"
#include "hw/memory.h"
#include "json/json.h"

namespace calculon {

enum class ComputeKind { kMatrix, kVector };

enum class RooflineMode {
  kMax,  // time = max(flop_time, mem_time): perfect overlap of units
  kSum,  // time = flop_time + mem_time: no overlap (pessimistic ablation)
};

class ComputeUnit {
 public:
  ComputeUnit() = default;
  ComputeUnit(FlopsPerSecond peak, EfficiencyCurve efficiency);

  // Time to execute `flops` at the efficiency this operation size achieves.
  [[nodiscard]] Seconds FlopTime(Flops flops) const;
  [[nodiscard]] FlopsPerSecond peak_flops() const { return peak_; }
  [[nodiscard]] double Efficiency(Flops flops) const {
    return efficiency_.At(flops);
  }
  // The best rate any operation attains: peak times the highest efficiency
  // among the curve's points. Interpolation never exceeds that point, so
  // FlopTime(f) >= f / MaxRate() for every f (docs/MODEL.md §11). Computed
  // on call, so building a unit costs nothing more.
  [[nodiscard]] FlopsPerSecond MaxRate() const;

  [[nodiscard]] json::Value ToJson() const;
  [[nodiscard]] static ComputeUnit FromJson(const json::Value& v);

 private:
  FlopsPerSecond peak_;
  EfficiencyCurve efficiency_{1.0};
};

// A processor: matrix unit, vector unit and its tier-1 / tier-2 memories.
struct Processor {
  ComputeUnit matrix;
  ComputeUnit vector;
  Memory mem1;  // HBM: feeds computation
  Memory mem2;  // offload tier (CPU DDR / CXL); may be absent
  RooflineMode roofline = RooflineMode::kMax;

  // Time of one operation of `kind` performing `flops` while moving `bytes`
  // through tier-1 memory. A slowdown factor > 0 models compute stolen by a
  // concurrently-driven network (overlap throttling).
  [[nodiscard]] Seconds OpTime(ComputeKind kind, Flops flops, Bytes bytes,
                               double compute_slowdown = 0.0) const;

  [[nodiscard]] json::Value ToJson() const;
  [[nodiscard]] static Processor FromJson(const json::Value& v);
};

}  // namespace calculon
