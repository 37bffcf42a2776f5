#include "hw/presets.h"

#include "util/error.h"
#include "util/units.h"

namespace calculon::presets {
namespace {

// Saturation curves shared by the GPU presets. The shapes follow the usual
// published utilization behaviour (small GEMMs and short messages run far
// below peak); the top-end values are calibrated so that the model's
// Table 2 validation predictions land near the paper's. Each is built once
// per process, so a system build copies its log terms instead of computing
// them.
const EfficiencyCurve& GemmEfficiency() {
  static const EfficiencyCurve curve({{0.0, 0.05},
                                      {1e8, 0.20},
                                      {1e9, 0.35},
                                      {1e10, 0.55},
                                      {1e11, 0.72},
                                      {1e12, 0.78},
                                      {1e13, 0.82}});
  return curve;
}

const EfficiencyCurve& VectorEfficiency() {
  static const EfficiencyCurve curve(
      {{0.0, 0.10}, {1e6, 0.40}, {1e8, 0.75}, {1e9, 0.90}});
  return curve;
}

const EfficiencyCurve& HbmEfficiency() {
  static const EfficiencyCurve curve(
      {{0.0, 0.20}, {1e6, 0.60}, {1e8, 0.83}, {1e9, 0.90}});
  return curve;
}

const EfficiencyCurve& LinkEfficiency() {
  static const EfficiencyCurve curve(
      {{0.0, 0.25}, {1e6, 0.60}, {1e8, 0.85}, {1e9, 0.92}});
  return curve;
}

System BuildGpuSystem(const std::string& name, const SystemOptions& o,
                      FlopsPerSecond matrix_flops, FlopsPerSecond vector_flops,
                      BytesPerSecond hbm_bandwidth,
                      BytesPerSecond nvlink_bandwidth,
                      BytesPerSecond fabric_bandwidth) {
  Processor proc;
  proc.matrix = ComputeUnit(matrix_flops, GemmEfficiency());
  proc.vector = ComputeUnit(vector_flops, VectorEfficiency());
  proc.mem1 = Memory(o.hbm_capacity, hbm_bandwidth, HbmEfficiency());
  if (o.offload_capacity > Bytes(0.0)) {
    proc.mem2 = Memory(o.offload_capacity, o.offload_bandwidth,
                       EfficiencyCurve(1.0));
  }
  std::vector<Network> nets;
  // Fast domain (NVLink): ~15% of processor cores drive NCCL at full rate.
  nets.emplace_back(o.nvlink_domain, nvlink_bandwidth, Seconds(2e-6),
                    LinkEfficiency(),
                    /*in_network_collectives=*/false,
                    /*processor_fraction=*/0.15);
  // Scale-out fabric (InfiniBand): NIC-driven, ~2% of cores.
  nets.emplace_back(o.num_procs, fabric_bandwidth, Seconds(5e-6),
                    LinkEfficiency(),
                    /*in_network_collectives=*/false,
                    /*processor_fraction=*/0.02);
  return System(name, o.num_procs, std::move(proc), std::move(nets));
}

}  // namespace

System A100(const SystemOptions& options) {
  return BuildGpuSystem("a100", options,
                        /*matrix_flops=*/TFLOPS(312), /*vector_flops=*/TFLOPS(78),
                        /*hbm_bandwidth=*/TBps(2.0),
                        /*nvlink_bandwidth=*/GBps(300),
                        /*fabric_bandwidth=*/GBps(25));
}

System H100(const SystemOptions& options) {
  return BuildGpuSystem("h100", options,
                        /*matrix_flops=*/TFLOPS(990), /*vector_flops=*/TFLOPS(134),
                        /*hbm_bandwidth=*/TBps(3.0),
                        /*nvlink_bandwidth=*/GBps(450),
                        /*fabric_bandwidth=*/GBps(50));
}

System SystemByName(const std::string& name) {
  SystemOptions o;
  if (name == "a100_80g") return A100(o);
  if (name == "a100_40g") {
    o.hbm_capacity = GiB(40);
    return A100(o);
  }
  if (name == "h100_80g") return H100(o);
  if (name == "h100_80g_offload") {
    o.offload_capacity = GiB(512);
    o.offload_bandwidth = GBps(100);
    return H100(o);
  }
  if (name == "h100_80g_offload_inf") {
    o.offload_capacity = Bytes(1e18);  // effectively infinite
    o.offload_bandwidth = BytesPerSecond(1e15);
    return H100(o);
  }
  if (name == "h100_nvl256") return H100Nvl256(o);
  throw ConfigError("unknown system preset: " + name);
}

std::vector<std::string> SystemNames() {
  return {"a100_80g", "a100_40g", "h100_80g", "h100_80g_offload",
          "h100_80g_offload_inf", "h100_nvl256"};
}

System H100Nvl256(const SystemOptions& options) {
  // H100 with a switched NVLink fabric spanning 256 GPUs (NVL256-style):
  // a three-tier network — the 8-GPU board at full NVLink rate, the
  // 256-GPU NVLink Switch domain at roughly half rate, and InfiniBand NDR
  // beyond. Lets tensor parallelism scale past one board, the scenario
  // the paper's Section 6 discussion ("TP up to 16") implies.
  Processor proc;
  proc.matrix = ComputeUnit(TFLOPS(990), GemmEfficiency());
  proc.vector = ComputeUnit(TFLOPS(134), VectorEfficiency());
  proc.mem1 = Memory(options.hbm_capacity, TBps(3.0), HbmEfficiency());
  if (options.offload_capacity > Bytes(0.0)) {
    proc.mem2 = Memory(options.offload_capacity, options.offload_bandwidth,
                       EfficiencyCurve(1.0));
  }
  std::vector<Network> nets;
  nets.emplace_back(8, GBps(450), Seconds(2e-6), LinkEfficiency(), false,
                    0.15);
  nets.emplace_back(256, GBps(225), Seconds(3e-6), LinkEfficiency(), false,
                    0.15);
  nets.emplace_back(options.num_procs, GBps(50), Seconds(5e-6),
                    LinkEfficiency(), false, 0.02);
  return System("h100_nvl256", options.num_procs, std::move(proc),
                std::move(nets));
}

}  // namespace calculon::presets
