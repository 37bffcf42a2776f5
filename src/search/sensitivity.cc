#include "search/sensitivity.h"

#include <cmath>

#include "obs/trace.h"
#include "util/error.h"

namespace calculon {
namespace {

// Rebuilds a component with one JSON field scaled — keeps this module
// independent of the components' private internals.
json::Value Scaled(const json::Value& v, const char* field, double factor) {
  json::Value copy = v;
  copy[field] = copy.at(field).AsDouble() * factor;
  return copy;
}

}  // namespace

const char* ToString(Resource r) {
  switch (r) {
    case Resource::kMatrixFlops: return "matrix flop/s";
    case Resource::kVectorFlops: return "vector flop/s";
    case Resource::kMem1Bandwidth: return "HBM bandwidth";
    case Resource::kMem1Capacity: return "HBM capacity";
    case Resource::kNetworkBandwidth: return "fast-net bandwidth";
    case Resource::kFabricBandwidth: return "fabric bandwidth";
    case Resource::kMem2Bandwidth: return "offload bandwidth";
  }
  return "?";
}

System ScaleResource(const System& sys, Resource resource, double factor) {
  if (factor <= 0.0) throw ConfigError("scale factor must be > 0");
  Processor proc = sys.proc();
  std::vector<Network> nets = sys.networks();
  switch (resource) {
    case Resource::kMatrixFlops:
      proc.matrix =
          ComputeUnit::FromJson(Scaled(proc.matrix.ToJson(), "flops",
                                       factor));
      break;
    case Resource::kVectorFlops:
      proc.vector =
          ComputeUnit::FromJson(Scaled(proc.vector.ToJson(), "flops",
                                       factor));
      break;
    case Resource::kMem1Bandwidth:
      proc.mem1 =
          Memory::FromJson(Scaled(proc.mem1.ToJson(), "bandwidth", factor));
      break;
    case Resource::kMem1Capacity:
      proc.mem1 =
          Memory::FromJson(Scaled(proc.mem1.ToJson(), "capacity", factor));
      break;
    case Resource::kNetworkBandwidth:
      nets.front() = Network::FromJson(
          Scaled(nets.front().ToJson(), "bandwidth", factor));
      break;
    case Resource::kFabricBandwidth:
      nets.back() = Network::FromJson(
          Scaled(nets.back().ToJson(), "bandwidth", factor));
      break;
    case Resource::kMem2Bandwidth:
      if (!proc.mem2.present()) {
        throw ConfigError("system has no tier-2 memory to scale");
      }
      proc.mem2 =
          Memory::FromJson(Scaled(proc.mem2.ToJson(), "bandwidth", factor));
      break;
  }
  return System(sys.name(), sys.num_procs(), std::move(proc),
                std::move(nets));
}

Result<std::vector<SensitivityEntry>> AnalyzeSensitivity(
    const Application& app, const Execution& exec, const System& sys,
    double step, RunContext* ctx) {
  using R = Result<std::vector<SensitivityEntry>>;
  CALC_TRACE_SPAN("search", "sensitivity");
  if (step <= 0.0) return R(Infeasible::kBadConfig, "step must be > 0");
  const auto baseline = CalculatePerformance(app, exec, sys);
  if (!baseline.ok()) return baseline.error().Restated();
  const PerSecond base_rate = baseline.value().sample_rate;

  const Resource all[] = {
      Resource::kMatrixFlops,   Resource::kVectorFlops,
      Resource::kMem1Bandwidth, Resource::kMem1Capacity,
      Resource::kNetworkBandwidth, Resource::kFabricBandwidth,
      Resource::kMem2Bandwidth};
  std::vector<SensitivityEntry> entries;
  for (Resource resource : all) {
    if (ctx != nullptr && ctx->ShouldStop()) break;
    SensitivityEntry entry;
    entry.resource = resource;
    if (resource == Resource::kMem2Bandwidth && !sys.proc().mem2.present()) {
      entry.applicable = false;
      entries.push_back(entry);
      continue;
    }
    const double up_factor = 1.0 + step;
    const auto up = CalculatePerformance(
        app, exec, ScaleResource(sys, resource, up_factor));
    const auto down = CalculatePerformance(
        app, exec, ScaleResource(sys, resource, 1.0 / up_factor));
    // Explicit error handling: an infeasible perturbation reports rate 0
    // instead of risking a value()-on-error throw inside the sweep.
    entry.rate_up = up.ok() ? up.value().sample_rate : PerSecond(0.0);
    entry.rate_down =
        down.value_or(Stats{}).sample_rate;  // Stats{} rates are 0.0
    const double dlog = std::log(up_factor);
    if (up.ok() && down.ok()) {
      entry.elasticity =
          // unit-ok: elasticity is d(log rate)/d(log knob), dimensionless
          (std::log(entry.rate_up.raw()) - std::log(entry.rate_down.raw())) /
          (2.0 * dlog);
    } else if (up.ok()) {
      // Shrinking the resource broke feasibility (capacity): one-sided.
      entry.elasticity =
          // unit-ok: one-sided log-space slope, dimensionless
          (std::log(entry.rate_up.raw()) - std::log(base_rate.raw())) / dlog;
    } else {
      entry.applicable = false;
    }
    entries.push_back(entry);
  }
  return R(std::move(entries));
}

}  // namespace calculon
