#include "hw/processor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/strings.h"

namespace calculon {

ComputeUnit::ComputeUnit(FlopsPerSecond peak, EfficiencyCurve efficiency)
    : peak_(peak), efficiency_(std::move(efficiency)) {
  if (peak_ < FlopsPerSecond(0.0)) throw ConfigError("peak flops must be >= 0");
}

Seconds ComputeUnit::FlopTime(Flops flops) const {
  CALC_DCHECK(IsFinite(flops) && flops >= Flops(0.0), "flops = %g",
              flops.raw());  // unit-ok: diagnostic message
  if (flops <= Flops(0.0)) return Seconds(0.0);
  const FlopsPerSecond rate = peak_ * efficiency_.At(flops);
  if (rate <= FlopsPerSecond(0.0)) {
    return Seconds(std::numeric_limits<double>::infinity());
  }
  return flops / rate;
}

FlopsPerSecond ComputeUnit::MaxRate() const {
  return peak_ * efficiency_.MaxEfficiency();
}

json::Value ComputeUnit::ToJson() const {
  json::Object o;
  o["flops"] = peak_.raw();  // unit-ok: JSON serialize boundary
  o["efficiency"] = efficiency_.ToJson();
  return json::Value(std::move(o));
}

ComputeUnit ComputeUnit::FromJson(const json::Value& v) {
  return ComputeUnit(FlopsPerSecond(v.at("flops").AsDouble()),
                     v.contains("efficiency")
                         ? EfficiencyCurve::FromJson(v.at("efficiency"))
                         : EfficiencyCurve(1.0));
}

Seconds Processor::OpTime(ComputeKind kind, Flops flops, Bytes bytes,
                          double compute_slowdown) const {
  CALC_DCHECK(IsFinite(bytes) && bytes >= Bytes(0.0), "bytes = %g",
              bytes.raw());  // unit-ok: diagnostic message
  CALC_DCHECK(compute_slowdown >= 0.0 && compute_slowdown < 1.0,
              "compute_slowdown = %g", compute_slowdown);
  const ComputeUnit& unit = (kind == ComputeKind::kMatrix) ? matrix : vector;
  Seconds flop_time = unit.FlopTime(flops);
  if (compute_slowdown > 0.0 && compute_slowdown < 1.0) {
    flop_time /= (1.0 - compute_slowdown);
  }
  const Seconds mem_time = mem1.AccessTime(bytes);
  return roofline == RooflineMode::kMax ? std::max(flop_time, mem_time)
                                        : flop_time + mem_time;
}

json::Value Processor::ToJson() const {
  json::Object o;
  o["matrix"] = matrix.ToJson();
  o["vector"] = vector.ToJson();
  o["mem1"] = mem1.ToJson();
  o["mem2"] = mem2.ToJson();
  o["roofline"] = roofline == RooflineMode::kMax ? "max" : "sum";
  return json::Value(std::move(o));
}

Processor Processor::FromJson(const json::Value& v) {
  Processor p;
  p.matrix = ComputeUnit::FromJson(v.at("matrix"));
  p.vector = ComputeUnit::FromJson(v.at("vector"));
  p.mem1 = Memory::FromJson(v.at("mem1"));
  if (v.contains("mem2")) p.mem2 = Memory::FromJson(v.at("mem2"));
  const std::string mode = v.GetString("roofline", "max");
  if (mode == "max") {
    p.roofline = RooflineMode::kMax;
  } else if (mode == "sum") {
    p.roofline = RooflineMode::kSum;
  } else {
    throw ConfigError("roofline must be 'max' or 'sum', got '" + mode + "'");
  }
  return p;
}

}  // namespace calculon
