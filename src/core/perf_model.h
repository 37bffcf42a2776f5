// The Calculon core: a single analytical calculation of time and resource
// usage for one (application, execution, system) triple (Section 2.4).
//
// An evaluation runs in three stages with explicit inputs, so a sweep can
// run each at the loop level where its inputs change:
//   1. PlaceExecution: validation and network placement;
//   2. EvaluateBlock, the block stage: one block's compute and TP
//      communication times and its byte and parameter aggregates;
//   3. EvaluateCandidate, the candidate stage: tier-1 memory (before any
//      timing work when nothing is offloaded), PP, DP, optimizer, offload
//      and the roll-up.
// CalculatePerformance is their one-shot composition. A stage is
// allocation-light and takes a fraction of a microsecond to a few, which
// is what lets the search engines sweep millions of configurations
// (Section 5).
#pragma once

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

// Stage 1: structural validation (Execution::Validate, processor count)
// and network placement.
[[nodiscard]] Result<Placement> PlaceExecution(const Application& app,
                                               const Execution& exec,
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
  // RS + AG of the full boundary tensor around each PP send (pp_rs_ag
  // without seq_par; zero otherwise).
  Seconds pp_rs_ag;
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
  Bytes pp_output;
  Bytes act_grad_working;

  [[nodiscard]] Bytes ActStored(Recompute mode) const;
};

// Stage 2, the block stage. Reads only the Execution fields BuildBlock
// reads (tensor_par, microbatch, datatype_bytes, training, tp_rs_ag,
// seq_par, seq_par_ag_redo, fused_activation, pp_rs_ag), so one result
// serves every candidate that shares them. `exec` must have been placed;
// `tp_net` is its Placement::tp_net.
[[nodiscard]] BlockCosts EvaluateBlock(const Application& app,
                                       const Execution& exec,
                                       const Processor& proc,
                                       const Network& tp_net);

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

// Stage 3, the candidate stage, on a placement and block stage of `exec`.
[[nodiscard]] Result<Stats> EvaluateCandidate(const Application& app,
                                              const Execution& exec,
                                              const System& sys,
                                              const Placement& placement,
                                              const BlockCosts& block,
                                              ModelPhases& phases);

// Model FLOPs per sample (forward + backward GEMM work of the full model,
// excluding recomputation), the numerator of MFU.
[[nodiscard]] Flops ModelFlopsPerSample(const Application& app,
                                        bool training);

}  // namespace calculon
