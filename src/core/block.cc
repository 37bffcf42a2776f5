#include "core/block.h"

#include "util/check.h"

namespace calculon {
namespace {

// Forward FLOPs per element for the vector layers.
constexpr double kLayerNormFlops = 5.0;
constexpr double kSoftmaxFlops = 5.0;
constexpr double kGeluFlops = 8.0;
constexpr double kDropoutFlops = 2.0;
constexpr double kResidualFlops = 1.0;

// Kernel fusion halves the tier-1 round trips of an element-wise layer by
// folding it into the producing GEMM's epilogue.
void Fuse(Layer& layer, bool drop_stash) {
  layer.fw_bytes *= 0.5;
  layer.bw_bytes *= 0.5;
  if (drop_stash) {
    layer.act_stored = Bytes(0.0);
    layer.attn_stash = false;
  }
}

}  // namespace

Flops BlockModel::FwFlops() const {
  Flops sum;
  for (const Layer& l : layers) sum += l.fw_flops;
  return sum;
}

Flops BlockModel::BwFlops() const {
  Flops sum;
  for (const Layer& l : layers) sum += l.bw_flops;
  return sum;
}

Bytes BlockModel::ActStoredBytes(Recompute mode) const {
  if (mode == Recompute::kFull) return block_input_bytes;
  Bytes sum;
  for (const Layer& l : layers) {
    if (mode == Recompute::kAttnOnly && l.attn_stash) continue;
    sum += l.act_stored;
  }
  return sum;
}

Bytes BlockModel::WeightBytes() const {
  Bytes sum;
  for (const Layer& l : layers) sum += l.weight_bytes;
  return sum;
}

Bytes BlockModel::WeightGradBytes() const {
  Bytes sum;
  for (const Layer& l : layers) sum += l.weight_grad_bytes;
  return sum;
}

Bytes BlockModel::OptimizerBytes() const {
  Bytes sum;
  for (const Layer& l : layers) sum += l.optimizer_bytes;
  return sum;
}

double BlockModel::WeightParams() const {
  double params = 0.0;
  for (const Layer& l : layers) params += l.params;
  return params;
}

Bytes PpOutputBytes(const Application& app, const Execution& exec) {
  const double b = static_cast<double>(exec.microbatch);
  const double s = static_cast<double>(app.seq_size);
  const double h = static_cast<double>(app.hidden);
  const double t = static_cast<double>(exec.tensor_par);
  const double pp_shard = (exec.seq_par || exec.pp_rs_ag) ? t : 1.0;
  return Bytes(exec.datatype_bytes * b * s * h / pp_shard);
}

BlockModel BuildBlock(const Application& app, const Execution& exec) {
  // The caller contract: exec already validated against app (divisibility,
  // option compatibility). These are the shards BuildBlock divides by.
  CALC_DCHECK(exec.tensor_par >= 1 && exec.microbatch >= 1 &&
                  exec.datatype_bytes > 0,
              "t=%lld microbatch=%lld dtb=%d",
              static_cast<long long>(exec.tensor_par),
              static_cast<long long>(exec.microbatch), exec.datatype_bytes);
  CALC_DCHECK(app.attn_heads % exec.tensor_par == 0 &&
                  app.feedforward % exec.tensor_par == 0,
              "t=%lld does not shard heads=%lld / ff=%lld",
              static_cast<long long>(exec.tensor_par),
              static_cast<long long>(app.attn_heads),
              static_cast<long long>(app.feedforward));
  const double b = static_cast<double>(exec.microbatch);
  const double s = static_cast<double>(app.seq_size);
  const double h = static_cast<double>(app.hidden);
  const double f = static_cast<double>(app.feedforward);
  const double a = static_cast<double>(app.attn_heads);
  const double e = static_cast<double>(app.attn_size);
  const double t = static_cast<double>(exec.tensor_par);
  const int dt = exec.datatype_bytes;
  const bool train = exec.training;
  // Sequence parallelism shards the vector layers over the TP group.
  const double sp = exec.seq_par ? t : 1.0;
  const double attn_width = a * e;  // attention projection width (== h)

  BlockModel block;
  auto& L = block.layers;
  L.reserve(16);
  block.attn_recompute_layers.reserve(3);
  // Under fused_activation, fuses the element-wise layer just added (see
  // Fuse). The residual adds keep their stash; the other fused layers are
  // Flash-style: the sequence-squared attention tensors, dropout masks and
  // the GeLU input are regenerated inside the fused backward kernels
  // instead of being stashed.
  auto fuse_last = [&](bool drop_stash) {
    if (exec.fused_activation) Fuse(L.back(), drop_stash);
  };
  // Marks the layer just added as one that attention-only recomputation
  // re-executes in backward: Q*K^T, softmax and the attention dropout
  // (from the stashed Q/K/V).
  auto recompute_last = [&] {
    block.attn_recompute_layers.push_back(L.size() - 1);
  };

  const double resid_elems = b * (s / sp) * h;  // sharded residual stream

  // --- Attention half ---
  L.push_back(MakeVector("attn_norm",
                         {resid_elems, kLayerNormFlops, 1.0, 1.0}, dt, train,
                         Bytes(dt * resid_elems), false, 2.0 * h));
  // QKV projection consumes the (gathered) full-sequence tensor. Under
  // sequence parallelism only the sequence shard is stashed (the gathered
  // copy is transient workspace); the optional AG-redo repeats the gather
  // in the backward pass (time for memory is already paid).
  const double qkv_stash = exec.seq_par ? b * s * h / t : b * s * h;
  L.push_back(MakeLinear("attn_qkv", {b * s, h, 3.0 * attn_width / t}, dt,
                         /*bias=*/true, train, qkv_stash));
  // Q*K^T; the stash is Q, K and V (the inputs selective recomputation
  // re-derives the attention internals from).
  L.push_back(MakeBatchMatmul("attn_qkt", b * a / t, {s, e, s}, dt, train,
                              3.0 * b * s * attn_width / t,
                              /*attn_stash=*/false));
  recompute_last();
  const double score_elems = b * (a / t) * s * s;
  L.push_back(MakeVector("attn_softmax",
                         {score_elems, kSoftmaxFlops, 1.0, 1.0}, dt, train,
                         Bytes(dt * score_elems), /*attn_stash=*/true));
  fuse_last(/*drop_stash=*/true);
  recompute_last();
  // Dropout keeps a 1-byte mask per element.
  L.push_back(MakeVector("attn_dropout",
                         {score_elems, kDropoutFlops, 1.0, 1.0}, dt, train,
                         Bytes(1.0 * score_elems), /*attn_stash=*/true));
  fuse_last(/*drop_stash=*/true);
  recompute_last();
  // Scores * V; stashes its score input (softmax-dropout output).
  L.push_back(MakeBatchMatmul("attn_av", b * a / t, {s, s, e}, dt, train,
                              score_elems, /*attn_stash=*/true));
  fuse_last(/*drop_stash=*/true);
  L.push_back(MakeLinear("attn_proj", {b * s, attn_width / t, h}, dt,
                         /*bias=*/true, train, b * s * attn_width / t));
  L.push_back(MakeVector("attn_out_drop",
                         {resid_elems, kDropoutFlops, 1.0, 1.0}, dt, train,
                         Bytes(1.0 * resid_elems)));
  fuse_last(/*drop_stash=*/true);
  L.push_back(MakeVector("attn_residual",
                         {resid_elems, kResidualFlops, 2.0, 1.0}, dt, train,
                         Bytes(0.0)));
  fuse_last(/*drop_stash=*/false);

  // --- MLP half ---
  L.push_back(MakeVector("mlp_norm", {resid_elems, kLayerNormFlops, 1.0, 1.0},
                         dt, train, Bytes(dt * resid_elems), false, 2.0 * h));
  const double mlp_stash = exec.seq_par ? b * s * h / t : b * s * h;
  L.push_back(MakeLinear("mlp_fc1", {b * s, h, f / t}, dt, /*bias=*/true,
                         train, mlp_stash));
  const double gelu_elems = b * s * f / t;
  L.push_back(MakeVector("mlp_gelu", {gelu_elems, kGeluFlops, 1.0, 1.0}, dt,
                         train, Bytes(dt * gelu_elems)));
  fuse_last(/*drop_stash=*/true);
  L.push_back(MakeLinear("mlp_fc2", {b * s, f / t, h}, dt, /*bias=*/true,
                         train, b * s * f / t));
  L.push_back(MakeVector("mlp_dropout",
                         {resid_elems, kDropoutFlops, 1.0, 1.0}, dt, train,
                         Bytes(1.0 * resid_elems)));
  fuse_last(/*drop_stash=*/true);
  L.push_back(MakeVector("mlp_residual",
                         {resid_elems, kResidualFlops, 2.0, 1.0}, dt, train,
                         Bytes(0.0)));
  fuse_last(/*drop_stash=*/false);

  // --- Tensor-parallel communication ---
  const Bytes tp_bytes = Bytes(dt * b * s * h);
  if (exec.tensor_par > 1) {
    if (exec.seq_par) {
      // Megatron sequence parallelism: all-gather before each GEMM pair,
      // reduce-scatter after it, in both passes.
      block.tp_fw = {{Collective::kAllGather, tp_bytes},
                     {Collective::kReduceScatter, tp_bytes},
                     {Collective::kAllGather, tp_bytes},
                     {Collective::kReduceScatter, tp_bytes}};
      block.tp_bw = block.tp_fw;
      if (exec.seq_par_ag_redo) {
        block.tp_bw_extra = {{Collective::kAllGather, tp_bytes},
                             {Collective::kAllGather, tp_bytes}};
      }
    } else if (exec.tp_rs_ag) {
      block.tp_fw = {{Collective::kReduceScatter, tp_bytes},
                     {Collective::kAllGather, tp_bytes},
                     {Collective::kReduceScatter, tp_bytes},
                     {Collective::kAllGather, tp_bytes}};
      block.tp_bw = block.tp_fw;
    } else {
      block.tp_fw = {{Collective::kAllReduce, tp_bytes},
                     {Collective::kAllReduce, tp_bytes}};
      block.tp_bw = block.tp_fw;
    }
  }

  block.block_input_bytes = Bytes(dt * b * s * h / sp);
  block.pp_output_bytes = PpOutputBytes(app, exec);

  // Transient gradient working set: the largest simultaneous gradient
  // tensors (MLP inner, residual stream, attention scores).
  block.act_grad_working_bytes =
      train ? Bytes(dt * (gelu_elems + b * s * h + score_elems)) : Bytes(0.0);

  return block;
}

}  // namespace calculon
