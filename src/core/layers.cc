#include "core/layers.h"

namespace calculon {
namespace {

// Weight-gradient accumulation is kept in fp32 (4 bytes/param) and the Adam
// optimizer holds an fp32 master copy plus two fp32 moments (12 bytes/param),
// matching standard Megatron mixed-precision training.
constexpr double kGradBytesPerParam = 4.0;
constexpr double kOptimBytesPerParam = 12.0;

void AttachWeights(Layer& layer, double params, int dt, bool training) {
  layer.params = params;
  layer.weight_bytes = Bytes(dt * params);
  if (training) {
    layer.weight_grad_bytes = Bytes(kGradBytesPerParam * params);
    layer.optimizer_bytes = Bytes(kOptimBytesPerParam * params);
  }
}

}  // namespace

Layer MakeLinear(const char* name, const GemmShape& shape, int dt, bool bias,
                 bool training, double stored_input_elems) {
  const double m = shape.m;
  const double k = shape.k;
  const double n = shape.n;
  Layer layer;
  layer.name = name;
  layer.kind = ComputeKind::kMatrix;
  const double gemm = 2.0 * m * k * n;
  layer.fw_flops = Flops(gemm + (bias ? m * n : 0.0));
  layer.fw_bytes = Bytes(dt * (m * k + k * n + m * n));
  const double params = k * n + (bias ? n : 0.0);
  AttachWeights(layer, params, dt, training);
  if (training) {
    // dX = dY * Wt and dW = Xt * dY: two GEMMs of the forward shape.
    layer.bw_flops = Flops(2.0 * gemm + (bias ? m * n : 0.0));
    layer.bw_bytes = 2.0 * layer.fw_bytes + Bytes(kGradBytesPerParam * params);
    layer.act_stored =
        Bytes(dt * (stored_input_elems >= 0.0 ? stored_input_elems : m * k));
  }
  return layer;
}

Layer MakeBatchMatmul(const char* name, double batches, const GemmShape& shape,
                      int dt, bool training, double stored_elems,
                      bool attn_stash) {
  const double m = shape.m;
  const double k = shape.k;
  const double n = shape.n;
  Layer layer;
  layer.name = name;
  layer.kind = ComputeKind::kMatrix;
  const double gemm = 2.0 * batches * m * k * n;
  layer.fw_flops = Flops(gemm);
  layer.fw_bytes = Bytes(dt * batches * (m * k + k * n + m * n));
  if (training) {
    layer.bw_flops = Flops(2.0 * gemm);
    layer.bw_bytes = 2.0 * layer.fw_bytes;
    layer.act_stored = Bytes(dt * stored_elems);
    layer.attn_stash = attn_stash;
  }
  return layer;
}

Layer MakeVector(const char* name, const VectorShape& shape, int dt,
                 bool training, Bytes stored_bytes, bool attn_stash,
                 double weight_elems) {
  const double elems = shape.elems;
  Layer layer;
  layer.name = name;
  layer.kind = ComputeKind::kVector;
  layer.fw_flops = Flops(elems * shape.flops_per_elem);
  layer.fw_bytes = Bytes(dt * elems * (shape.tensors_in + shape.tensors_out));
  AttachWeights(layer, weight_elems, dt, training);
  if (training) {
    layer.bw_flops = 2.0 * layer.fw_flops;
    // Backward reads the incoming gradient and stash, writes the outgoing
    // gradient: one extra stream relative to forward.
    layer.bw_bytes =
        Bytes(dt * elems * (shape.tensors_in + shape.tensors_out + 1.0));
    layer.act_stored = stored_bytes;
    layer.attn_stash = attn_stash;
  }
  return layer;
}

}  // namespace calculon
