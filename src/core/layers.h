// Per-layer cost primitives of the transformer block (Fig. 1).
//
// A Layer records, for one microbatch on one processor, the forward and
// backward FLOPs, the tier-1 memory traffic, the bytes of activations that
// must be stashed for the backward pass, and the weight / gradient /
// optimizer footprints. Layers are pure data; the processor model turns
// them into time.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/processor.h"

namespace calculon {

struct Layer {
  const char* name = "";  // a string literal
  ComputeKind kind = ComputeKind::kMatrix;

  // Per-microbatch compute and tier-1 traffic.
  Flops fw_flops;
  Bytes fw_bytes;
  Flops bw_flops;  // grad wrt inputs + grad wrt weights
  Bytes bw_bytes;

  // Bytes stashed at forward time for this layer's backward.
  Bytes act_stored;
  // True when the stash is one of the sequence-squared attention tensors
  // that selective ("attn-only") recomputation drops and re-derives.
  bool attn_stash = false;

  // Per-processor weight footprints (microbatch-independent).
  double params = 0.0;  // learnable parameter count
  Bytes weight_bytes;
  Bytes weight_grad_bytes;
  Bytes optimizer_bytes;
};

// Factory helpers. All sizes are element counts; `dt` is bytes per element.

// The (M x K) * (K x N) shape of a GEMM, in elements.
struct GemmShape {
  double m = 0.0;
  double k = 0.0;
  double n = 0.0;
};

// Shape of an element-wise / normalization layer: `elems` elements with
// `flops_per_elem` forward FLOPs each, streaming `tensors_in` + `tensors_out`
// tensors of `elems` elements through memory.
struct VectorShape {
  double elems = 0.0;
  double flops_per_elem = 0.0;  // unit-ok: per-element density, not a total
  double tensors_in = 0.0;
  double tensors_out = 0.0;
};

// GEMM computing (M x K) * (K x N). Stores its input (M*K elements) unless
// `stored_input_elems` overrides it (sequence-parallel sharded stash).
[[nodiscard]] Layer MakeLinear(const char* name, const GemmShape& shape,
                               int dt, bool bias, bool training,
                               double stored_input_elems = -1.0);

// Batched GEMM: `batches` independent (M x K) * (K x N) products. Weights
// are activations here (no learnable state). `stored_elems` is the stash.
[[nodiscard]] Layer MakeBatchMatmul(const char* name, double batches,
                                    const GemmShape& shape, int dt,
                                    bool training, double stored_elems,
                                    bool attn_stash);

// Element-wise / normalization layer over `shape.elems` elements.
[[nodiscard]] Layer MakeVector(const char* name, const VectorShape& shape,
                               int dt, bool training, Bytes stored_bytes,
                               bool attn_stash = false,
                               double weight_elems = 0.0);

}  // namespace calculon
