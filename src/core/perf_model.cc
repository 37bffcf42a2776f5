#include "core/perf_model.h"

#include <algorithm>
#include <cmath>

#include "core/block.h"
#include "core/offload.h"
#include "core/pipeline.h"
#include "obs/trace.h"
#include "util/mathutil.h"
#include "util/strings.h"

namespace calculon {
namespace {

// Fraction of TP communication hidden behind GEMMs for each overlap scheme
// (Table 1: none/pipe/ring). Ring-exchange overlap pipelines the collective
// with the GEMM tiles and hides most of it; the pipe scheme hides about
// half.
double TpHideFraction(TpOverlap overlap) {
  switch (overlap) {
    case TpOverlap::kNone: return 0.0;
    case TpOverlap::kPipe: return 0.5;
    case TpOverlap::kRing: return 0.8;
  }
  return 0.0;
}

struct CommCost {
  Seconds total;    // network busy time
  Seconds exposed;  // time blocking computation (incl. throttling)
};

// Busy time of a list of TP collectives.
Seconds TpCommTotal(const std::vector<CommOp>& ops, const Network& net,
                    std::int64_t members) {
  Seconds total;
  for (const CommOp& op : ops) {
    total += net.CollectiveTime(op.op, members, op.bytes);
  }
  return total;
}

// Cost of TP collectives of busy time `total` with a given hidden
// fraction. Hidden communication still consumes `processor_fraction` of
// the compute it overlaps with, which we account as exposed throttle time.
CommCost TpCommCost(Seconds total, const Network& net, double hide_fraction) {
  const Seconds hidden = total * hide_fraction;
  return {total, (total - hidden) + hidden * net.processor_fraction()};
}

// Tier-1 (HBM) usage. `off` holds the offload model's HBM working sets
// for the offloaded tensor kinds; without offload it is never read, so
// the check needs no timing work.
MemoryBreakdown Tier1Memory(const Execution& exec, const BlockCosts& block,
                            const OffloadResult& off, double nblocks,
                            double in_flight, double shard) {
  MemoryBreakdown m1;
  const Bytes vocab_weight_bytes = Bytes(
      block.vocab_params * static_cast<double>(exec.datatype_bytes));
  // fp32 gradient accumulation: under the sharded (distributed) optimizer
  // the reduce-scatter lands each rank's shard directly, so the persistent
  // buffer divides by d; one block's worth of freshly produced gradients
  // stays resident as a transient buffer.
  const Bytes wgrad_local =
      block.weight_grads * nblocks / shard +
      (exec.training ? block.weight_grads : Bytes(0.0));
  m1.weights = (exec.weight_offload ? off.hbm_weights
                                    : block.weights * nblocks) +
               vocab_weight_bytes;
  m1.weight_grads = exec.weight_offload
                        ? off.hbm_weight_grads + block.weight_grads
                        : wgrad_local;
  if (exec.activation_offload) {
    m1.activations = off.hbm_acts;
  } else {
    m1.activations = block.ActStored(exec.recompute) * nblocks * in_flight;
  }
  // Working set of the block currently being (re)computed: its full
  // activation footprint exists transiently even under recomputation.
  m1.activations += block.act_stored_none;
  m1.act_grads = block.act_grad_working;
  m1.optimizer = exec.optimizer_offload ? off.hbm_optimizer
                                        : block.optimizer * nblocks / shard;
  if (exec.training && block.vocab_params > 0.0) {
    m1.weight_grads += Bytes(block.vocab_params * 4.0 / shard);
    m1.optimizer += Bytes(block.vocab_params * 12.0 / shard);
  }
  return m1;
}

// The model's output contract: every reported time and byte count is a
// finite, non-negative number. A violation here is a model bug (or an
// efficiency curve driving a rate to zero), not a property of the swept
// configuration, but it is recoverable for the caller — search engines
// should skip the configuration, not crash — so it is routed through
// Result<T> as kBadConfig rather than thrown.
const char* FindNonFinite(const Stats& stats) {
  auto bad = [](auto q) { return !IsFinite(q) || q < decltype(q)(0.0); };
  const TimeBreakdown& t = stats.time;
  if (bad(t.fw_pass) || bad(t.bw_pass) || bad(t.fw_recompute) ||
      bad(t.optim_step) || bad(t.pp_bubble) || bad(t.tp_comm) ||
      bad(t.pp_comm) || bad(t.dp_comm) || bad(t.offload)) {
    return "time breakdown";
  }
  const MemoryBreakdown* tiers[] = {&stats.tier1, &stats.tier2};
  for (const MemoryBreakdown* m : tiers) {
    if (bad(m->weights) || bad(m->activations) || bad(m->weight_grads) ||
        bad(m->act_grads) || bad(m->optimizer)) {
      return "memory breakdown";
    }
  }
  if (bad(stats.tp_comm_total) || bad(stats.pp_comm_total) ||
      bad(stats.dp_comm_total)) {
    return "communication totals";
  }
  if (bad(stats.offload_total) || bad(stats.offload_bw_required) ||
      bad(stats.offload_bytes)) {
    return "offload accounting";
  }
  return nullptr;
}

}  // namespace

Flops ModelFlopsPerSample(const Application& app, bool training) {
  // Closed form of the per-block GEMM work (kept on the hot path; the
  // equivalence with the layer-by-layer accounting is unit-tested).
  const double s = static_cast<double>(app.seq_size);
  const double h = static_cast<double>(app.hidden);
  const double f = static_cast<double>(app.feedforward);
  const double aw =
      static_cast<double>(app.attn_heads * app.attn_size);
  const double gemm = 2.0 * s * h * 3.0 * aw   // QKV projection
                      + 2.0 * s * s * aw       // Q * K^T
                      + 2.0 * s * s * aw       // scores * V
                      + 2.0 * s * aw * h       // output projection
                      + 2.0 * s * h * f        // MLP in
                      + 2.0 * s * f * h;       // MLP out
  const double bias = s * 3.0 * aw + s * h + s * f + s * h;
  // Backward doubles each GEMM (dX and dW) and repeats the bias add.
  const double per_block =
      training ? 3.0 * gemm + 2.0 * bias : gemm + bias;
  // Output vocabulary projection on the last stage, when modeled.
  const double vocab_gemm =
      2.0 * s * h * static_cast<double>(app.vocab_size);
  const double vocab = training ? 3.0 * vocab_gemm : vocab_gemm;
  return Flops(per_block * static_cast<double>(app.num_blocks) + vocab);
}

PerSecond SampleRateCeiling(const Application& app, const Processor& proc,
                            std::int64_t num_procs, bool training) {
  return static_cast<double>(num_procs) * proc.matrix.MaxRate() /
         ModelFlopsPerSample(app, training);
}

Bytes BlockCosts::ActStored(Recompute mode) const {
  switch (mode) {
    case Recompute::kNone: return act_stored_none;
    case Recompute::kAttnOnly: return act_stored_attn;
    case Recompute::kFull: return act_stored_full;
  }
  return act_stored_none;
}

ModelPhases::ModelPhases() {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  traced_ = rec.enabled() && rec.SampleDetail();
  t0_us_ = traced_ ? rec.NowMicros() : 0.0;
}

void ModelPhases::End(const char* phase) {
  if (!traced_) return;
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  const double now = rec.NowMicros();
  rec.RecordComplete("model", phase, t0_us_, now - t0_us_);
  t0_us_ = now;
}

Result<Placement> PlaceExecution(const Application& app,
                                 const Execution& exec, const System& sys) {
  using R = Result<Placement>;
  if (exec.num_procs != sys.num_procs()) {
    return R(Infeasible::kBadPartition,
             "execution proc count != system proc count");
  }
  if (auto v = exec.Validate(app); !v.ok()) return v.error().Restated();
  return PlaceNetworks(exec, sys);
}

Result<Placement> PlaceNetworks(const Execution& exec, const System& sys) {
  using R = Result<Placement>;
  // Communicators are nested TP (innermost), PP, DP.
  Placement placement;
  placement.tp_net = sys.NetworkForSpan(exec.tensor_par);
  placement.pp_net = sys.NetworkForSpan(std::min<std::int64_t>(
      exec.tensor_par * exec.pipeline_par, sys.num_procs()));
  placement.dp_net = sys.NetworkForSpan(sys.num_procs());
  if (placement.tp_net == nullptr || placement.pp_net == nullptr ||
      placement.dp_net == nullptr) {
    return R(Infeasible::kNetworkSize, "no network covers a communicator");
  }
  return placement;
}

BlockKey BlockKey::Of(const Execution& exec) {
  return {exec.tensor_par,      exec.pipeline_par,    exec.microbatch,
          exec.datatype_bytes,  exec.training,        exec.tp_rs_ag,
          exec.seq_par,         exec.seq_par_ag_redo, exec.fused_activation,
          exec.pp_rs_ag};
}

PartitionKey PartitionKey::Of(const Execution& exec) {
  return {BlockKey::Of(exec), exec.data_par, exec.optimizer_sharding};
}

BlockKey BlockKey::LayersOf(const Execution& exec) {
  BlockKey key = Of(exec);
  key.pipeline_par = 0;
  return key;
}

BlockCosts EvaluateBlock(const Application& app, const Execution& exec,
                         const Processor& proc, const Placement& placement) {
  BlockCosts c = EvaluateBlockLayers(app, exec, proc, *placement.tp_net);
  c.pp_xfer = PpTransfer(exec, c, *placement.pp_net);
  return c;
}

BlockCosts EvaluateBlockLayers(const Application& app, const Execution& exec,
                               const Processor& proc, const Network& tp_net) {
  const BlockModel block = BuildBlock(app, exec);
  const std::int64_t t = exec.tensor_par;
  BlockCosts c;

  // --- Per-block compute time ---
  for (const Layer& l : block.layers) {
    c.fw += proc.OpTime(l.kind, l.fw_flops, l.fw_bytes);
    c.bw += proc.OpTime(l.kind, l.bw_flops, l.bw_bytes);
  }
  for (std::size_t idx : block.attn_recompute_layers) {
    const Layer& l = block.layers[idx];
    c.attn_recompute += proc.OpTime(l.kind, l.fw_flops, l.fw_bytes);
  }

  // --- Tensor-parallel communication per block ---
  c.tp_fw = TpCommTotal(block.tp_fw, tp_net, t);
  c.tp_bw = TpCommTotal(block.tp_bw, tp_net, t);
  c.tp_bw_extra = TpCommTotal(block.tp_bw_extra, tp_net, t);
  // RS before the PP send and AG after the receive, on the TP network,
  // when the residual stream is not already sequence-sharded.
  if (exec.pp_rs_ag && !exec.seq_par) {
    const Bytes full = block.pp_output_bytes * static_cast<double>(t);
    c.pp_rs_ag = tp_net.CollectiveTime(Collective::kReduceScatter, t, full) +
                 tp_net.CollectiveTime(Collective::kAllGather, t, full);
  }

  // --- Edge-stage vocabulary work (optional; vocab_size == 0 skips) ---
  // The first stage gathers embeddings, the last stage projects onto the
  // vocabulary and computes the loss softmax. The pipeline rhythm is set by
  // its slowest stage; folding both into the bottleneck stage is the
  // conservative approximation.
  if (app.vocab_size > 0) {
    const double b = static_cast<double>(exec.microbatch);
    const double s = static_cast<double>(app.seq_size);
    const double h = static_cast<double>(app.hidden);
    const double v_shard = static_cast<double>(app.vocab_size) /
                           static_cast<double>(t);
    const double dtb = static_cast<double>(exec.datatype_bytes);
    // Output projection GEMM (b*s, h) x (h, V/t).
    const double proj_flops = 2.0 * b * s * h * v_shard;
    const double proj_bytes =
        dtb * (b * s * h + h * v_shard + b * s * v_shard);
    const Seconds proj_fw =
        proc.OpTime(ComputeKind::kMatrix, Flops(proj_flops),
                    Bytes(proj_bytes));
    const Seconds proj_bw =
        exec.training
            ? proc.OpTime(ComputeKind::kMatrix, Flops(2.0 * proj_flops),
                          Bytes(2.0 * proj_bytes))
            : Seconds(0.0);
    // Loss softmax over the sharded vocabulary.
    const Seconds soft = proc.OpTime(ComputeKind::kVector,
                                     Flops(5.0 * b * s * v_shard),
                                     Bytes(2.0 * dtb * b * s * v_shard));
    // Embedding gather: memory-bound table lookup of b*s rows.
    const Seconds gather =
        proc.OpTime(ComputeKind::kVector, Flops(b * s * h),
                    Bytes(dtb * b * s * h));
    c.vocab = proj_fw + proj_bw + soft * (exec.training ? 2.0 : 1.0) +
              gather * (exec.training ? 2.0 : 1.0);
    c.vocab_params =
        static_cast<double>(app.EmbeddingParameters()) /
        static_cast<double>(t);
  }

  c.weights = block.WeightBytes();
  c.weight_grads = block.WeightGradBytes();
  c.optimizer = block.OptimizerBytes();
  c.act_stored_none = block.ActStoredBytes(Recompute::kNone);
  c.act_stored_attn = block.ActStoredBytes(Recompute::kAttnOnly);
  c.act_stored_full = block.ActStoredBytes(Recompute::kFull);
  c.params = block.WeightParams();
  c.pp_output = block.pp_output_bytes;
  c.act_grad_working = block.act_grad_working_bytes;
  return c;
}

Seconds PpTransfer(const Execution& exec, const BlockCosts& layers,
                   const Network& pp_net) {
  if (exec.pipeline_par <= 1) return Seconds(0.0);
  return pp_net.CollectiveTime(Collective::kPointToPoint, 2, layers.pp_output);
}

Result<MemoryBreakdown> CheckCapacity(const Application& app,
                                      const Execution& exec,
                                      const Processor& proc,
                                      const BlockCosts& block) {
  using R = Result<MemoryBreakdown>;
  if (exec.any_offload()) {
    if (!proc.mem2.present()) {
      return R(Infeasible::kOffloadCapacity, "no tier-2 memory in system");
    }
    return MemoryBreakdown{};
  }
  const PipelineShape shape{exec.pipeline_par, exec.pp_interleaving,
                            exec.MicrobatchesPerPipeline(), exec.pp_1f1b};
  const MemoryBreakdown m1 = Tier1Memory(
      exec, block, OffloadResult{},
      static_cast<double>(CeilDiv(app.num_blocks, exec.pipeline_par)),
      exec.training ? InFlightMicrobatches(shape) : 1.0,
      exec.optimizer_sharding ? static_cast<double>(exec.data_par) : 1.0);
  if (m1.Total() > proc.mem1.capacity()) {
    return R(Infeasible::kMemoryCapacity,
             ErrorDetail("needs %s, capacity %s", m1.Total(),
                         proc.mem1.capacity()));
  }
  return m1;
}

PartitionCosts EvaluatePartition(const Application& app,
                                 const Execution& exec, const Processor& proc,
                                 const Placement& placement,
                                 const BlockCosts& block) {
  const std::int64_t d = exec.data_par;
  const double nblocks =
      static_cast<double>(CeilDiv(app.num_blocks, exec.pipeline_par));
  const double shard = exec.optimizer_sharding ? static_cast<double>(d) : 1.0;
  PartitionCosts c;

  // --- Optimizer step ---
  const double params_local = block.params * nblocks + block.vocab_params;
  const double upd_params = params_local / shard;
  if (exec.training && params_local > 0.0) {
    // Adam: read weight/grad/master/moments, write weight/master/moments.
    const double dtb = static_cast<double>(exec.datatype_bytes);
    const double optim_bytes = upd_params * (2.0 * dtb + 28.0);
    const double optim_flops = 8.0 * upd_params;
    c.optim_step = proc.OpTime(ComputeKind::kVector, Flops(optim_flops),
                               Bytes(optim_bytes));
  }

  // --- Data-parallel gradient and weight collectives ---
  if (exec.training && d > 1) {
    const Network& dp_net = *placement.dp_net;
    const double dtb = static_cast<double>(exec.datatype_bytes);
    const Bytes grad_bytes = Bytes(params_local * dtb);
    if (exec.optimizer_sharding) {
      c.dp_overlappable = dp_net.CollectiveTime(Collective::kReduceScatter, d,
                                                grad_bytes);
      c.dp_post_step =
          dp_net.CollectiveTime(Collective::kAllGather, d, grad_bytes);
    } else {
      c.dp_overlappable =
          dp_net.CollectiveTime(Collective::kAllReduce, d, grad_bytes);
    }
  }

  c.model_flops = ModelFlopsPerSample(app, exec.training);
  return c;
}

Result<Stats> EvaluateCandidate(const Application& app,
                                const Execution& exec, const System& sys,
                                const Placement& placement,
                                const BlockCosts& block,
                                const MemoryBreakdown& tier1,
                                const PartitionCosts& partition,
                                ModelPhases& phases) {
  using R = Result<Stats>;
  const Processor& proc = sys.proc();
  const Network& tp_net = *placement.tp_net;
  const Network& pp_net = *placement.pp_net;
  const Network& dp_net = *placement.dp_net;
  const std::int64_t p = exec.pipeline_par;
  const std::int64_t d = exec.data_par;
  const std::int64_t nm = exec.MicrobatchesPerPipeline();
  const std::int64_t interleave = exec.pp_interleaving;
  // Uneven block division: the bottleneck stage owns the ceiling share and
  // sets the pipeline rhythm (this is the root of the efficiency cliffs of
  // Section 5.2).
  const std::int64_t bpp = CeilDiv(app.num_blocks, p);
  const double nblocks = static_cast<double>(bpp);
  const PipelineShape shape{p, interleave, nm, exec.pp_1f1b};
  const double in_flight = exec.training ? InFlightMicrobatches(shape) : 1.0;
  const double shard = exec.optimizer_sharding ? static_cast<double>(d) : 1.0;

  // Without offload the capacity stage has checked tier-1 memory.
  Stats stats;
  OffloadResult off;
  if (!exec.any_offload()) stats.tier1 = tier1;

  // --- Compute and tensor-parallel communication per block ---
  Seconds recompute_block;  // recomputation work during backward
  if (exec.recompute == Recompute::kFull) {
    recompute_block = block.fw;
  } else if (exec.recompute == Recompute::kAttnOnly) {
    recompute_block = block.attn_recompute;
  }
  const double hide = TpHideFraction(exec.tp_overlap);
  const CommCost tp_fw = TpCommCost(block.tp_fw, tp_net, hide);
  const CommCost tp_bw = TpCommCost(block.tp_bw, tp_net, hide);
  const CommCost tp_bw_extra = TpCommCost(block.tp_bw_extra, tp_net, hide);
  // Full recomputation repeats the forward TP communication.
  const CommCost tp_recompute =
      exec.recompute == Recompute::kFull ? tp_fw : CommCost{};

  // --- Pipeline point-to-point per microbatch ---
  // In the steady 1F1B state a stage receives the next microbatch while
  // computing the current one, so a boundary transfer hides behind the
  // chunk's compute; only the excess is exposed (plus the processor share
  // the NIC steals while overlapped).
  CommCost pp_ub;
  if (p > 1) {
    const std::int64_t bpc = CeilDiv(bpp, interleave);  // blocks per chunk
    const Seconds xfer = block.pp_xfer;
    const double chunks = static_cast<double>(interleave);
    const Seconds fw_window = static_cast<double>(bpc) * block.fw;
    const Seconds bw_window =
        static_cast<double>(bpc) * (block.bw + recompute_block);
    auto exposed_xfer = [&](Seconds window) {
      const Seconds hidden = std::min(xfer, window);
      return (xfer - hidden) + hidden * pp_net.processor_fraction();
    };
    pp_ub.total = 2.0 * chunks * xfer;  // one send per chunk per pass
    pp_ub.exposed = chunks * (exposed_xfer(fw_window) + exposed_xfer(bw_window));
    // The RS + AG around each send serialize with the boundary.
    if (exec.pp_rs_ag && !exec.seq_par) {
      const Seconds rs_ag = 2.0 * chunks * block.pp_rs_ag;
      pp_ub.total += rs_ag;
      pp_ub.exposed += rs_ag;
    }
  }

  // --- Per-microbatch totals across the bottleneck stage's blocks ---
  const Seconds fw_ub = nblocks * block.fw;
  const Seconds bw_ub = nblocks * block.bw;
  const Seconds recompute_ub = nblocks * recompute_block;
  const Seconds tp_exposed_ub =
      nblocks * (tp_fw.exposed + tp_bw.exposed + tp_bw_extra.exposed +
                 tp_recompute.exposed);
  const Seconds tp_total_ub =
      nblocks *
      (tp_fw.total + tp_bw.total + tp_bw_extra.total + tp_recompute.total);

  const Seconds per_ub = fw_ub + bw_ub + recompute_ub + tp_exposed_ub +
                         pp_ub.exposed + block.vocab;
  const Seconds bubble = PipelineBubbleTime(shape, per_ub);

  const Seconds optim_time = partition.optim_step;

  // --- Data-parallel communication ---
  Seconds dp_total;
  Seconds dp_exposed;
  if (exec.training && d > 1) {
    const Seconds overlappable = partition.dp_overlappable;
    const Seconds post_step = partition.dp_post_step;
    dp_total = overlappable + post_step;
    if (exec.dp_overlap) {
      // Per Fig. 2(b): a layer's gradient reduction starts as soon as the
      // last microbatch passed it, overlapping the remaining backward
      // compute; only the final layer's share has nothing to hide behind.
      // Hidden communication still throttles the compute it overlaps.
      const double gfrac =
          nblocks > 1.0 ? (nblocks - 1.0) / nblocks : 0.0;
      const Seconds bw_window = (bw_ub + recompute_ub) * gfrac;
      const Seconds hidden_rs = std::min(overlappable * gfrac, bw_window);
      dp_exposed = (overlappable - hidden_rs) +
                   hidden_rs * dp_net.processor_fraction();
      // The sharded optimizer's weight all-gather cannot overlap the
      // optimizer step itself, but layer k's gathered weights are only
      // needed when the next batch's forward reaches it.
      const Seconds fw_window = fw_ub * gfrac;
      const Seconds hidden_ag = std::min(post_step * gfrac, fw_window);
      dp_exposed += (post_step - hidden_ag) +
                    hidden_ag * dp_net.processor_fraction();
    } else {
      dp_exposed = dp_total;
    }
  }

  phases.End("communication");

  // --- Offloading, then the tier-1 memory it leaves ---
  if (exec.any_offload()) {
    OffloadInputs in;
    in.weights = exec.weight_offload;
    in.activations = exec.activation_offload;
    in.optimizer = exec.optimizer_offload;
    in.weight_block = block.weights;
    in.weight_grad_block = block.weight_grads / shard;
    in.act_block = block.ActStored(exec.recompute);
    in.optim_block = block.optimizer / shard;
    in.blocks_per_proc = bpp;
    in.microbatches = nm;
    in.act_in_flight = in_flight;
    in.fw_block_time = block.fw + tp_fw.exposed;
    in.bw_block_time = block.bw + recompute_block + tp_bw.exposed;
    in.fw_phase_total =
        static_cast<double>(nm) * (fw_ub + tp_exposed_ub / 2.0);
    in.bw_phase_total =
        static_cast<double>(nm) * (bw_ub + recompute_ub + tp_exposed_ub / 2.0);
    in.optim_phase_total = optim_time;
    off = ComputeOffload(in, proc.mem2);
    if (off.Tier2Total() > proc.mem2.capacity()) {
      return R(Infeasible::kOffloadCapacity,
               ErrorDetail("needs %s tier-2, capacity %s", off.Tier2Total(),
                           proc.mem2.capacity()));
    }
    phases.End("offload");
    stats.tier1 = Tier1Memory(exec, block, off, nblocks, in_flight, shard);
    if (stats.tier1.Total() > proc.mem1.capacity()) {
      return R(Infeasible::kMemoryCapacity,
               ErrorDetail("needs %s, capacity %s", stats.tier1.Total(),
                           proc.mem1.capacity()));
    }
    phases.End("memory");
  }
  stats.tier2.weights = off.tier2_weights;
  stats.tier2.activations = off.tier2_acts;
  stats.tier2.optimizer = off.tier2_optimizer;

  // --- Roll-up ---
  const double fnm = static_cast<double>(nm);
  // Edge-stage vocabulary time splits roughly evenly across the passes.
  stats.time.fw_pass = fnm * (fw_ub + block.vocab / 2.0);
  stats.time.bw_pass = fnm * (bw_ub + block.vocab / 2.0);
  stats.time.fw_recompute = fnm * recompute_ub;
  stats.time.tp_comm = fnm * tp_exposed_ub;
  stats.time.pp_comm = fnm * pp_ub.exposed;
  stats.time.pp_bubble = bubble;
  stats.time.optim_step = optim_time;
  stats.time.dp_comm = dp_exposed;
  stats.time.offload = off.exposed_time;

  stats.tp_comm_total = fnm * tp_total_ub;
  stats.pp_comm_total = fnm * pp_ub.total;
  stats.dp_comm_total = dp_total;
  stats.offload_total = off.busy_time;
  stats.offload_bytes = off.traffic_bytes;
  stats.offload_bw_required = off.required_bw;

  stats.batch_time = stats.time.Total();
  if (stats.batch_time <= Seconds(0.0) || !IsFinite(stats.batch_time)) {
    return R(Infeasible::kBadConfig, "non-finite batch time");
  }
  if (const char* which = FindNonFinite(stats)) {
    return R(Infeasible::kBadConfig,
             StrFormat("non-finite or negative %s", which));
  }
  stats.sample_rate =
      static_cast<double>(exec.batch_size) / stats.batch_time;
  const Flops useful =
      partition.model_flops * static_cast<double>(exec.batch_size);
  stats.mfu = useful / (stats.batch_time *
                        static_cast<double>(sys.num_procs()) *
                        proc.matrix.peak_flops());
  phases.End("rollup");
  return R(std::move(stats));
}

Result<Stats> CalculatePerformance(const Application& app,
                                   const Execution& exec, const System& sys) {
  const Result<Placement> placement = PlaceExecution(app, exec, sys);
  if (!placement.ok()) return placement.error();
  ModelPhases phases;
  const BlockCosts block =
      EvaluateBlock(app, exec, sys.proc(), placement.value());
  phases.End("block");
  const Result<MemoryBreakdown> tier1 =
      CheckCapacity(app, exec, sys.proc(), block);
  phases.End("capacity");
  if (!tier1.ok()) return tier1.error();
  const PartitionCosts partition =
      EvaluatePartition(app, exec, sys.proc(), placement.value(), block);
  phases.End("partition");
  return EvaluateCandidate(app, exec, sys, placement.value(), block,
                           tier1.value(), partition, phases);
}

// CalculatePerformance's composition, with the block and partition stages
// looked up by key. A stage result enters its map only once computed, so
// an exception leaves the table as it was.
Result<Stats> StageTable::Evaluate(const Execution& exec) {
  const Result<Placement> placement = PlaceExecution(app_, exec, sys_);
  if (!placement.ok()) return placement.error();
  ModelPhases phases;
  const PartitionKey key = PartitionKey::Of(exec);
  auto block = blocks_.find(key.block);
  if (block == blocks_.end()) {
    const BlockCosts costs =
        EvaluateBlock(app_, exec, sys_.proc(), placement.value());
    block = blocks_.emplace(key.block, costs).first;
    phases.End("block");
  }
  const Result<MemoryBreakdown> tier1 =
      CheckCapacity(app_, exec, sys_.proc(), block->second);
  phases.End("capacity");
  if (!tier1.ok()) return tier1.error();
  auto partition = partitions_.find(key);
  if (partition == partitions_.end()) {
    const PartitionCosts costs = EvaluatePartition(
        app_, exec, sys_.proc(), placement.value(), block->second);
    partition = partitions_.emplace(key, costs).first;
    phases.End("partition");
  }
  return EvaluateCandidate(app_, exec, sys_, placement.value(), block->second,
                           tier1.value(), partition->second, phases);
}

}  // namespace calculon
