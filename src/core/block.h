// Builds the layer sequence of one transformer block (Fig. 1) for a given
// application and execution strategy, together with the tensor-parallel
// communication operations attached to the block.
//
// Calculon exploits the fact that all blocks are identical: one block model
// is built and evaluated, and the result is reused for every block, which is
// what makes a full calculation take microseconds.
#pragma once

#include <cstddef>
#include <vector>

#include "core/layers.h"
#include "hw/network.h"
#include "models/application.h"
#include "models/execution.h"

namespace calculon {

// One communication operation over the tensor-parallel group.
struct CommOp {
  Collective op;
  Bytes bytes;  // full tensor size
};

struct BlockModel {
  std::vector<Layer> layers;

  // Per-microbatch TP communication in forward and backward order.
  std::vector<CommOp> tp_fw;
  std::vector<CommOp> tp_bw;
  // Extra backward-side TP communication from seq-par all-gather redo.
  std::vector<CommOp> tp_bw_extra;

  // Marks for recomputation: indices into `layers` re-executed in the
  // backward pass under attention-only recomputation.
  std::vector<std::size_t> attn_recompute_layers;

  // Stash of the block input, the only activation kept under full
  // recomputation (per microbatch in flight).
  Bytes block_input_bytes;

  // Activation tensor crossing a pipeline-stage boundary (per microbatch).
  Bytes pp_output_bytes;

  // Transient activation-gradient working set during backward.
  Bytes act_grad_working_bytes;

  // --- Aggregates (per microbatch, one block, one processor) ---
  [[nodiscard]] Flops FwFlops() const;
  [[nodiscard]] Flops BwFlops() const;
  // Stored activation bytes per microbatch under the given recompute mode.
  [[nodiscard]] Bytes ActStoredBytes(Recompute mode) const;
  [[nodiscard]] Bytes WeightBytes() const;
  [[nodiscard]] Bytes WeightGradBytes() const;
  [[nodiscard]] Bytes OptimizerBytes() const;
  [[nodiscard]] double WeightParams() const;  // learnable parameter count
};

// The activation tensor crossing a pipeline-stage boundary, per
// microbatch (BlockModel::pp_output_bytes): sharded over the TP group when
// the residual stream is sequence-parallel or when PP applies RS before
// the point-to-point send (pp_rs_ag).
[[nodiscard]] Bytes PpOutputBytes(const Application& app,
                                  const Execution& exec);

// Constructs the block model. `exec` must already satisfy
// `exec.Validate(app)`.
[[nodiscard]] BlockModel BuildBlock(const Application& app,
                                    const Execution& exec);

}  // namespace calculon
