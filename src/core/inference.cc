#include "core/inference.h"

#include <algorithm>

#include "core/block.h"
#include "util/mathutil.h"

namespace calculon {
namespace {

// Aggregate decode-step cost of one transformer block for `b` concurrent
// sequences at context length `ctx`, per processor.
struct DecodeBlockCost {
  Flops flops;
  Bytes bytes;  // tier-1 traffic: weights + KV cache + activations
};

DecodeBlockCost DecodeCost(const Application& app, const Execution& exec,
                           double ctx, double batch) {
  const double h = static_cast<double>(app.hidden);
  const double f = static_cast<double>(app.feedforward);
  const double aw =
      static_cast<double>(app.attn_heads * app.attn_size);
  const double t = static_cast<double>(exec.tensor_par);
  const double dt = exec.datatype_bytes;
  const double b = batch;

  DecodeBlockCost cost;
  // GEMV-like projections: QKV, output, MLP in/out.
  const double proj_flops =
      2.0 * b * (h * 3.0 * aw + aw * h + h * f + f * h) / t;
  // Attention against the KV cache: Q*K^T and scores*V over ctx entries.
  const double attn_flops = 2.0 * b * ctx * aw / t * 2.0;
  cost.flops = Flops(proj_flops + attn_flops);

  const double weight_bytes =
      dt * (h * 3.0 * aw + aw * h + h * f + f * h) / t;
  const double kv_bytes = 2.0 * dt * b * ctx * aw / t;  // K and V read
  const double act_bytes = dt * b * (6.0 * h + 2.0 * f / t);  // streams
  cost.bytes = Bytes(weight_bytes + kv_bytes + act_bytes);
  return cost;
}

}  // namespace

Result<InferenceStats> CalculateInference(const Application& app,
                                          const Execution& exec,
                                          const System& sys,
                                          const InferenceConfig& config) {
  using R = Result<InferenceStats>;
  if (exec.training) {
    return R(Infeasible::kIncompatibleOptions,
             "inference requires exec.training == false");
  }
  if (exec.any_offload()) {
    return R(Infeasible::kIncompatibleOptions,
             "offloading is not modeled for inference");
  }
  if (config.prompt_tokens < 1 || config.gen_tokens < 0 || config.batch < 1) {
    return R(Infeasible::kBadConfig, "bad inference config");
  }
  if (exec.num_procs != sys.num_procs()) {
    return R(Infeasible::kBadPartition,
             "execution proc count != system proc count");
  }
  // Structural validation with the serving batch in place.
  Execution e = exec;
  e.microbatch = config.batch;
  e.batch_size = config.batch * e.data_par;
  if (auto v = e.Validate(app); !v.ok()) return v.error().Restated();

  const Processor& proc = sys.proc();
  const std::int64_t t = e.tensor_par;
  const std::int64_t p = e.pipeline_par;
  const std::int64_t bpp = CeilDiv(app.num_blocks, p);
  const Network* tp_net = sys.NetworkForSpan(t);
  const Network* pp_net =
      sys.NetworkForSpan(std::min<std::int64_t>(t * p, sys.num_procs()));
  if (tp_net == nullptr || pp_net == nullptr) {
    return R(Infeasible::kNetworkSize, "no network covers a communicator");
  }

  // --- Prefill: a forward pass over the prompt ---
  Application prompt_app = app;
  prompt_app.seq_size = config.prompt_tokens;
  const BlockModel block = BuildBlock(prompt_app, e);
  Seconds fw_block;
  for (const Layer& l : block.layers) {
    fw_block += proc.OpTime(l.kind, l.fw_flops, l.fw_bytes);
  }
  Seconds tp_fw_block;
  for (const CommOp& op : block.tp_fw) {
    tp_fw_block += tp_net->CollectiveTime(op.op, t, op.bytes);
  }
  const Seconds pp_hop = pp_net->CollectiveTime(
      Collective::kPointToPoint, 2, block.pp_output_bytes);
  // Time to first token: the prompt flows through all blocks and stage
  // boundaries once.
  const double nblocks = static_cast<double>(app.num_blocks);
  InferenceStats stats;
  stats.prefill_time = nblocks * (fw_block + tp_fw_block) +
                       static_cast<double>(p - 1) * pp_hop;

  // --- Decode: steady-state per-token step at full context ---
  const double ctx = static_cast<double>(config.prompt_tokens) +
                     static_cast<double>(config.gen_tokens);
  const double b = static_cast<double>(config.batch);
  const DecodeBlockCost cost = DecodeCost(app, e, ctx, b);
  const Seconds decode_block =
      proc.OpTime(ComputeKind::kMatrix, cost.flops, cost.bytes);
  const double dt = e.datatype_bytes;
  Seconds tp_token_block;
  if (t > 1) {
    // Two all-reduces of the (b, 1, h) hidden state per block.
    tp_token_block =
        2.0 * tp_net->CollectiveTime(Collective::kAllReduce, t,
                                     Bytes(dt * b *
                                           static_cast<double>(app.hidden)));
  }
  const Seconds pp_token_hop = pp_net->CollectiveTime(
      Collective::kPointToPoint, 2,
      Bytes(dt * b * static_cast<double>(app.hidden)));
  stats.per_token_time = nblocks * (decode_block + tp_token_block) +
                         static_cast<double>(p - 1) * pp_token_hop;
  stats.tp_comm_per_token = nblocks * tp_token_block;
  stats.pp_comm_per_token = static_cast<double>(p - 1) * pp_token_hop;

  // Autoregressive steps cannot pipeline within one sequence group, so
  // pipeline parallelism does not multiply decode throughput here; data
  // parallelism replicates the whole engine.
  stats.total_time = stats.prefill_time +
                     static_cast<double>(config.gen_tokens) *
                         stats.per_token_time;
  if (stats.per_token_time > Seconds(0.0)) {
    stats.tokens_per_second =
        b * static_cast<double>(e.data_par) / stats.per_token_time;
  }

  // --- Memory (per processor) ---
  const double aw = static_cast<double>(app.attn_heads * app.attn_size);
  stats.kv_cache_bytes = Bytes(2.0 * dt * b * ctx * aw /
                               static_cast<double>(t) *
                               static_cast<double>(bpp));
  const Bytes weight_bytes = block.WeightBytes() * static_cast<double>(bpp);
  // Transient working set: the prefill pass's largest tensors.
  const double working_raw =
      dt * b *
      (static_cast<double>(config.prompt_tokens) *
           (static_cast<double>(app.hidden) +
            static_cast<double>(app.feedforward) / static_cast<double>(t)) +
       static_cast<double>(app.attn_heads) / static_cast<double>(t) *
           static_cast<double>(config.prompt_tokens) *
           static_cast<double>(config.prompt_tokens));
  stats.tier1.weights = weight_bytes;
  stats.tier1.activations = stats.kv_cache_bytes + Bytes(working_raw);
  if (stats.tier1.Total() > proc.mem1.capacity()) {
    return R(Infeasible::kMemoryCapacity,
             ErrorDetail("needs %s, capacity %s", stats.tier1.Total(),
                         proc.mem1.capacity()));
  }
  return R(std::move(stats));
}

}  // namespace calculon
