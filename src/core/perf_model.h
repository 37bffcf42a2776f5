// The Calculon core: a single analytical calculation of time and resource
// usage for one (application, execution, system) triple (Section 2.4).
//
// An evaluation runs in five stages with explicit inputs, so a sweep can
// run each at the loop level where its inputs change:
//   1. PlaceExecution, placement: validation (Execution::Validate) and
//      network placement (PlaceNetworks);
//   2. EvaluateBlock, the block stage: one block's compute and TP
//      communication times, its PP boundary, and its byte and parameter
//      aggregates. Everything in it but the PP boundary is independent of
//      pipeline_par and pp_rs_ag (EvaluateBlockLayers), so a search
//      computes that half once per BlockKey::LayersOf and adds the
//      boundary (AddPpBoundary) per block slot;
//   3. CheckCapacity, the capacity stage: tier-1 memory when nothing is
//      offloaded (no tier-1 term then depends on time), else that a
//      tier-2 memory exists;
//   4. EvaluatePartition, the partition stage: the optimizer step, the DP
//      collectives and the model FLOPs per sample;
//   5. EvaluateCandidate, the candidate stage: the exposed TP, PP and DP
//      times, offload and the roll-up.
// CalculatePerformance is their one-shot composition, in this order, so a
// candidate that does not fit in tier-1 memory costs no timing work beyond
// its block. A stage is allocation-light and takes a fraction of a
// microsecond to a few, which is what lets the search engines sweep
// millions of configurations (Section 5). StageTable is the same
// composition for a caller whose inputs come in no fixed loop order: it
// keeps each block and partition stage it runs, keyed by the fields the
// stage reads (BlockKey, PartitionKey).
#pragma once

#include <compare>
#include <cstdint>
#include <map>

#include "core/stats.h"
#include "hw/system.h"
#include "models/application.h"
#include "models/execution.h"
#include "util/error.h"

namespace calculon {

// Runs the full performance estimation. Returns Stats on success or the
// infeasibility reason (bad partition, memory overflow, ...) otherwise.
// `exec.num_procs` must equal `sys.num_procs`.
[[nodiscard]] Result<Stats> CalculatePerformance(const Application& app,
                                                 const Execution& exec,
                                                 const System& sys);

// The networks of the nested communicators: TP (innermost), PP, DP.
struct Placement {
  const Network* tp_net = nullptr;
  const Network* pp_net = nullptr;
  const Network* dp_net = nullptr;
};

// Stage 1: the processor count, structural validation
// (Execution::Validate) and network placement.
[[nodiscard]] Result<Placement> PlaceExecution(const Application& app,
                                               const Execution& exec,
                                               const System& sys);

// The network half of placement. Reads only tensor_par, pipeline_par and
// the system, so a sweep places each (t, p, d) triple once.
[[nodiscard]] Result<Placement> PlaceNetworks(const Execution& exec,
                                              const System& sys);

// One transformer block's costs on one processor, per microbatch.
struct BlockCosts {
  Seconds fw;              // forward compute
  Seconds bw;              // backward compute
  Seconds attn_recompute;  // forward compute of the layers attention-only
                           // recomputation re-runs
  // Busy time of the block's TP collectives on the TP network.
  Seconds tp_fw;
  Seconds tp_bw;
  Seconds tp_bw_extra;  // seq-par all-gather redo
  // The PP boundary (AddPpBoundary). RS + AG of the full boundary tensor
  // around each PP send, on the TP network (pp_rs_ag without seq_par; zero
  // otherwise).
  Seconds pp_rs_ag;
  // Point-to-point transfer of pp_output on the PP network (p > 1; zero
  // otherwise).
  Seconds pp_xfer;
  // Edge-stage vocabulary work (zero when vocab_size == 0) and the
  // embedding parameters one processor holds.
  Seconds vocab;
  double vocab_params = 0.0;

  // BlockModel's aggregates.
  Bytes weights;
  Bytes weight_grads;
  Bytes optimizer;
  Bytes act_stored_none;  // stored activations per Recompute mode
  Bytes act_stored_attn;
  Bytes act_stored_full;
  double params = 0.0;
  Bytes pp_output;  // PpOutputBytes, set with the PP boundary
  Bytes act_grad_working;

  [[nodiscard]] Bytes ActStored(Recompute mode) const;
};

// The Execution fields the block stage reads: those BuildBlock reads, and
// pipeline_par. On one system they also fix the TP and PP networks of the
// placement, so one block stage serves every execution with an equal key.
struct BlockKey {
  std::int64_t tensor_par = 0;
  std::int64_t pipeline_par = 0;
  std::int64_t microbatch = 0;
  int datatype_bytes = 0;
  bool training = false;
  bool tp_rs_ag = false;
  bool seq_par = false;
  bool seq_par_ag_redo = false;
  bool fused_activation = false;
  bool pp_rs_ag = false;

  [[nodiscard]] static BlockKey Of(const Execution& exec);
  // Of(exec) with pipeline_par and pp_rs_ag cleared: the fields
  // EvaluateBlockLayers reads, equal for every p and both pp_rs_ag of one
  // (t, microbatch, TP-comm variant, fused) point.
  [[nodiscard]] static BlockKey LayersOf(const Execution& exec);
  auto operator<=>(const BlockKey&) const = default;
};

// Stage 2, the block stage: EvaluateBlockLayers on the TP network, then
// AddPpBoundary. Reads only the fields BlockKey holds, so one result
// serves every candidate of a (t, p, d) triple that shares them.
// `placement` is the placement of `exec`.
[[nodiscard]] BlockCosts EvaluateBlock(const Application& app,
                                       const Execution& exec,
                                       const Processor& proc,
                                       const Placement& placement);

// The block stage's layer half: everything EvaluateBlock computes but the
// PP boundary (pp_output, pp_rs_ag and pp_xfer), which it leaves zero:
// BuildBlock, the layers' compute times, the TP collectives, the
// vocabulary work and the aggregates. Reads only the fields
// BlockKey::LayersOf holds, `proc` and `tp_net`, the network
// NetworkForSpan(tensor_par).
[[nodiscard]] BlockCosts EvaluateBlockLayers(const Application& app,
                                             const Execution& exec,
                                             const Processor& proc,
                                             const Network& tp_net);

// The block stage's other half, the PP boundary, added to `block`, a layer
// half of `exec`: pp_output (PpOutputBytes, the expression BuildBlock
// uses), the RS + AG of the full boundary tensor on the TP network around
// each PP send when pp_rs_ag without seq_par, and the point-to-point
// transfer of pp_output on the PP network when pipeline_par > 1.
// `placement` is the placement of `exec`.
void AddPpBoundary(const Application& app, const Execution& exec,
                   const Placement& placement, BlockCosts& block);

// Stage 3, the capacity stage, on a block stage of `exec`. Without offload
// it returns the tier-1 breakdown, or kMemoryCapacity when it exceeds the
// processor's capacity; it reads the degrees, batch_size, microbatch,
// pp_interleaving, pp_1f1b, training, recompute, optimizer_sharding and
// datatype_bytes, and neither overlap option. With offload the tier-1
// working sets come from the offload model, which needs the phase times,
// so the candidate stage checks both tiers and this stage only requires a
// tier-2 memory (kOffloadCapacity otherwise), returning an empty
// breakdown.
[[nodiscard]] Result<MemoryBreakdown> CheckCapacity(const Application& app,
                                                    const Execution& exec,
                                                    const Processor& proc,
                                                    const BlockCosts& block);

// The partition stage's results.
struct PartitionCosts {
  Seconds optim_step;  // the optimizer step (training)
  // Gradient collective that can hide behind the last backward pass: RS
  // under the sharded optimizer, AR otherwise (training, d > 1).
  Seconds dp_overlappable;
  // The sharded optimizer's weight AG, which waits for the step.
  Seconds dp_post_step;
  Flops model_flops;  // ModelFlopsPerSample(app, training)
};

// The Execution fields the partition stage reads: its block's key (the
// block's parameter counts, pipeline_par, training, datatype_bytes), and
// data_par and optimizer_sharding. The DP network spans the whole system.
struct PartitionKey {
  BlockKey block;
  std::int64_t data_par = 0;
  bool optimizer_sharding = false;

  [[nodiscard]] static PartitionKey Of(const Execution& exec);
  auto operator<=>(const PartitionKey&) const = default;
};

// Stage 4, the partition stage. Reads only the fields PartitionKey holds,
// and no recompute, overlap, 1F1B or offload option.
[[nodiscard]] PartitionCosts EvaluatePartition(const Application& app,
                                               const Execution& exec,
                                               const Processor& proc,
                                               const Placement& placement,
                                               const BlockCosts& block);

// Sampled model-phase spans (trace category "model"): 1 of every
// detail_period evaluations (TraceRecorder::SampleDetail) records one span
// per phase it runs, so sweep traces show where model time goes without
// recording millions of sub-microsecond spans. One per evaluation,
// constructed after placement.
class ModelPhases {
 public:
  ModelPhases();
  // Records the time since the previous phase ended as span `phase`.
  void End(const char* phase);

 private:
  bool traced_;
  double t0_us_;
};

// Stage 5, the candidate stage, on the placement, block, capacity and
// partition stages of `exec`. `tier1` is the capacity stage's breakdown,
// read only when nothing is offloaded.
[[nodiscard]] Result<Stats> EvaluateCandidate(
    const Application& app, const Execution& exec, const System& sys,
    const Placement& placement, const BlockCosts& block,
    const MemoryBreakdown& tier1, const PartitionCosts& partition,
    ModelPhases& phases);

// CalculatePerformance for a stream of executions on one (application,
// system), in any order. Each evaluation runs placement, the capacity
// stage and the candidate stage; it runs the block stage once per
// distinct BlockKey and the partition stage once per distinct
// PartitionKey, and keeps each result it computes. A stage reads only the
// fields of its key, so Evaluate(exec) equals CalculatePerformance(app,
// exec, sys) bit for bit. The table holds at most one entry per key it
// has seen, so never more than the executions it evaluated. It is owned
// by one loop and never shared between threads; `app` and `sys` must
// outlive it.
class StageTable {
 public:
  StageTable(const Application& app, const System& sys)
      : app_(app), sys_(sys) {}
  // The table keeps references to `app` and `sys`, so neither may be a
  // temporary.
  StageTable(Application&&, const System&) = delete;
  StageTable(const Application&, System&&) = delete;

  [[nodiscard]] Result<Stats> Evaluate(const Execution& exec);

 private:
  const Application& app_;
  const System& sys_;
  std::map<BlockKey, BlockCosts> blocks_;
  std::map<PartitionKey, PartitionCosts> partitions_;
};

// Model FLOPs per sample (forward + backward GEMM work of the full model,
// excluding recomputation), the numerator of MFU.
[[nodiscard]] Flops ModelFlopsPerSample(const Application& app,
                                        bool training);

// An upper bound on the sample rate of every feasible CalculatePerformance
// result for `app` on `num_procs` processors `proc`: num_procs times the
// matrix unit's best attainable rate (ComputeUnit::MaxRate) over
// ModelFlopsPerSample, i.e. MFU at most the matrix curve's top efficiency
// (proof in docs/MODEL.md §11). It reads no execution option and no batch
// size, and grows with `num_procs`.
[[nodiscard]] PerSecond SampleRateCeiling(const Application& app,
                                          const Processor& proc,
                                          std::int64_t num_procs,
                                          bool training);

}  // namespace calculon
