// Execution strategy: how an LLM is mapped onto a system.
//
// This captures the full optimization space of Table 1: the TP/PP/DP split,
// micro-batching, activation recomputation, pipeline scheduling (1F1B,
// interleaving, RS+AG point-to-point), tensor-parallel communication
// variants (AR vs RS+AG, sequence parallelism, overlap), data-parallel
// overlap, optimizer sharding, and tensor offloading.
#pragma once

#include <cstdint>
#include <string>

#include "json/json.h"
#include "models/application.h"
#include "util/error.h"

namespace calculon {

// Activation recomputation mode (Table 1, "Recompute": full/attn/none).
enum class Recompute { kNone, kAttnOnly, kFull };

// Tensor-parallel comm/compute overlap (Table 1: none/pipe/ring).
enum class TpOverlap { kNone, kPipe, kRing };

[[nodiscard]] const char* ToString(Recompute r);
[[nodiscard]] const char* ToString(TpOverlap o);
[[nodiscard]] Recompute RecomputeFromString(const std::string& s);
[[nodiscard]] TpOverlap TpOverlapFromString(const std::string& s);

struct Execution {
  std::int64_t num_procs = 1;

  // Parallelism split: tensor_par * pipeline_par * data_par == num_procs.
  std::int64_t tensor_par = 1;
  std::int64_t pipeline_par = 1;
  std::int64_t data_par = 1;

  std::int64_t batch_size = 1;  // global batch (samples)
  std::int64_t microbatch = 1;  // per-pipeline microbatch size (samples)

  int datatype_bytes = 2;  // fp16/bf16 activations and weights
  bool training = true;    // false: forward-only inference

  // Compute-family optimizations.
  Recompute recompute = Recompute::kNone;
  bool fused_activation = false;  // fuse element-wise kernels into GEMMs

  // Pipeline-parallel family.
  bool pp_1f1b = true;                // 1F1B schedule (else GPipe-like)
  std::int64_t pp_interleaving = 1;   // chunks per processor
  bool pp_rs_ag = false;              // RS before / AG after PP p2p

  // Tensor-parallel family.
  bool tp_rs_ag = false;     // RS+AG instead of all-reduce
  bool seq_par = false;      // sequence parallelism (requires tp_rs_ag)
  bool seq_par_ag_redo = false;  // re-all-gather in backward (saves memory)
  TpOverlap tp_overlap = TpOverlap::kNone;

  // Data-parallel family.
  bool dp_overlap = false;        // overlap DP comm with backward pass
  bool optimizer_sharding = false;  // ZeRO-1 style optimizer state sharding

  // Memory family: tensor offloading to the tier-2 memory.
  bool weight_offload = false;
  bool activation_offload = false;
  bool optimizer_offload = false;

  [[nodiscard]] bool any_offload() const {
    return weight_offload || activation_offload || optimizer_offload;
  }

  // Derived quantities.
  [[nodiscard]] std::int64_t MicrobatchesPerPipeline() const {
    return batch_size / (data_par * microbatch);
  }
  [[nodiscard]] std::int64_t BlocksPerProc(const Application& app) const {
    return app.num_blocks / pipeline_par;
  }

  // Structural feasibility against an application (divisibility and option
  // compatibility). Memory/network feasibility is checked by the model.
  // ValidatePartition, then ValidateOptions: the first failing check of
  // the two halves, in this order.
  [[nodiscard]] Result<std::monostate> Validate(const Application& app) const;
  // The partition checks, up to the interleaving rule nm % p == 0. They
  // read only num_procs, the degrees, batch_size, microbatch,
  // pp_interleaving and seq_par, so a sweep decides them once per
  // (microbatch, interleaving, TP-comm variant).
  [[nodiscard]] Result<std::monostate> ValidatePartition(
      const Application& app) const;
  // The option-compatibility checks; they read no Application field.
  [[nodiscard]] Result<std::monostate> ValidateOptions() const;

  [[nodiscard]] json::Value ToJson() const;
  [[nodiscard]] static Execution FromJson(const json::Value& v);
};

}  // namespace calculon
