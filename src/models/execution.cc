#include "models/execution.h"

#include <limits>

#include "util/mathutil.h"

namespace calculon {

const char* ToString(Recompute r) {
  switch (r) {
    case Recompute::kNone: return "none";
    case Recompute::kAttnOnly: return "attn";
    case Recompute::kFull: return "full";
  }
  return "?";
}

const char* ToString(TpOverlap o) {
  switch (o) {
    case TpOverlap::kNone: return "none";
    case TpOverlap::kPipe: return "pipe";
    case TpOverlap::kRing: return "ring";
  }
  return "?";
}

Recompute RecomputeFromString(const std::string& s) {
  if (s == "none") return Recompute::kNone;
  if (s == "attn") return Recompute::kAttnOnly;
  if (s == "full") return Recompute::kFull;
  throw ConfigError("unknown recompute mode: " + s);
}

TpOverlap TpOverlapFromString(const std::string& s) {
  if (s == "none") return TpOverlap::kNone;
  if (s == "pipe") return TpOverlap::kPipe;
  if (s == "ring") return TpOverlap::kRing;
  throw ConfigError("unknown tp overlap mode: " + s);
}

Result<std::monostate> Execution::Validate(const Application& app) const {
  Result<std::monostate> v = ValidatePartition(app);
  if (v.ok()) v = ValidateOptions();
  return v;
}

Result<std::monostate> Execution::ValidatePartition(
    const Application& app) const {
  using R = Result<std::monostate>;
  if (num_procs < 1 || tensor_par < 1 || pipeline_par < 1 || data_par < 1) {
    return R(Infeasible::kBadPartition, "degrees must be >= 1");
  }
  // The degrees come from untrusted JSON: a product that overflows cannot
  // equal the (representable) processor count.
  std::int64_t procs = 0;
  if (!CheckedMul(tensor_par, pipeline_par, &procs) ||
      !CheckedMul(procs, data_par, &procs)) {
    return R(Infeasible::kBadPartition, "t*p*d overflows int64");
  }
  if (procs != num_procs) {
    return R(Infeasible::kBadPartition,
             ErrorDetail("t*p*d = %lld != %lld procs", procs, num_procs));
  }
  // TP shards attention heads and the MLP inner width (Table 1: range
  // 1..attn).
  if (tensor_par > app.attn_heads || app.attn_heads % tensor_par != 0) {
    return R(Infeasible::kIndivisibleHeads,
             ErrorDetail("t=%lld vs %lld heads", tensor_par, app.attn_heads));
  }
  if (app.feedforward % tensor_par != 0) {
    return R(Infeasible::kIndivisibleHeads, "t does not divide feedforward");
  }
  if (seq_par && app.seq_size % tensor_par != 0) {
    return R(Infeasible::kIndivisibleHeads, "t does not divide sequence");
  }
  // PP shards blocks into `pipeline_par * pp_interleaving` chunks. Uneven
  // divisions are allowed — the bottleneck stage takes the ceiling share,
  // which is what produces the paper's efficiency cliffs — but the stage
  // count cannot exceed the block count.
  if (pipeline_par > app.num_blocks) {
    return R(Infeasible::kIndivisibleBlocks, "p exceeds blocks");
  }
  const std::int64_t bpp =
      (app.num_blocks + pipeline_par - 1) / pipeline_par;
  if (pp_interleaving < 1 || pp_interleaving > bpp) {
    return R(Infeasible::kIndivisibleBlocks, "bad interleaving factor");
  }
  // Microbatching: batch = data_par * microbatch * num_microbatches.
  if (batch_size < 1 || microbatch < 1) {
    return R(Infeasible::kIndivisibleBatch, "batch/microbatch must be >= 1");
  }
  // An overflowing d*m exceeds the batch, so it cannot divide it either.
  std::int64_t dm = 0;
  if (!CheckedMul(data_par, microbatch, &dm) || batch_size % dm != 0) {
    return R(Infeasible::kIndivisibleBatch, "d*m does not divide batch");
  }
  const std::int64_t nm = MicrobatchesPerPipeline();
  // The interleaved schedule requires the microbatch count to be a
  // multiple of the pipeline depth (as in Megatron).
  if (pp_interleaving > 1 && nm % pipeline_par != 0) {
    return R(Infeasible::kIndivisibleBatch,
             "interleaving needs microbatches % p == 0");
  }
  return R(std::monostate{});
}

Result<std::monostate> Execution::ValidateOptions() const {
  using R = Result<std::monostate>;
  if (seq_par && !tp_rs_ag) {
    return R(Infeasible::kIncompatibleOptions, "seq_par requires tp_rs_ag");
  }
  if (seq_par_ag_redo && !seq_par) {
    return R(Infeasible::kIncompatibleOptions,
             "seq_par_ag_redo requires seq_par");
  }
  if (tensor_par == 1 &&
      (tp_rs_ag || tp_overlap != TpOverlap::kNone)) {
    return R(Infeasible::kIncompatibleOptions, "tp options need t > 1");
  }
  if (data_par == 1 && (dp_overlap || optimizer_sharding)) {
    return R(Infeasible::kIncompatibleOptions, "dp options need d > 1");
  }
  if (pipeline_par == 1 && (pp_interleaving > 1 || pp_rs_ag)) {
    return R(Infeasible::kIncompatibleOptions, "pp options need p > 1");
  }
  if (pp_rs_ag && tensor_par == 1) {
    return R(Infeasible::kIncompatibleOptions, "pp_rs_ag needs t > 1");
  }
  if (!training &&
      (recompute != Recompute::kNone || optimizer_sharding || dp_overlap ||
       optimizer_offload)) {
    return R(Infeasible::kIncompatibleOptions,
             "training-only option in inference mode");
  }
  if (datatype_bytes <= 0) {
    return R(Infeasible::kBadConfig, "datatype_bytes must be > 0");
  }
  return R(std::monostate{});
}

json::Value Execution::ToJson() const {
  json::Object o;
  o["num_procs"] = num_procs;
  o["tensor_par"] = tensor_par;
  o["pipeline_par"] = pipeline_par;
  o["data_par"] = data_par;
  o["batch_size"] = batch_size;
  o["microbatch"] = microbatch;
  o["datatype_bytes"] = datatype_bytes;
  o["training"] = training;
  o["recompute"] = std::string(ToString(recompute));
  o["fused_activation"] = fused_activation;
  o["pp_1f1b"] = pp_1f1b;
  o["pp_interleaving"] = pp_interleaving;
  o["pp_rs_ag"] = pp_rs_ag;
  o["tp_rs_ag"] = tp_rs_ag;
  o["seq_par"] = seq_par;
  o["seq_par_ag_redo"] = seq_par_ag_redo;
  o["tp_overlap"] = std::string(ToString(tp_overlap));
  o["dp_overlap"] = dp_overlap;
  o["optimizer_sharding"] = optimizer_sharding;
  o["weight_offload"] = weight_offload;
  o["activation_offload"] = activation_offload;
  o["optimizer_offload"] = optimizer_offload;
  return json::Value(std::move(o));
}

Execution Execution::FromJson(const json::Value& v) {
  Execution e;
  e.num_procs = v.at("num_procs").AsInt();
  e.tensor_par = v.at("tensor_par").AsInt();
  e.pipeline_par = v.at("pipeline_par").AsInt();
  e.data_par = v.at("data_par").AsInt();
  e.batch_size = v.at("batch_size").AsInt();
  e.microbatch = v.GetInt("microbatch", 1);
  const std::int64_t datatype_bytes = v.GetInt("datatype_bytes", 2);
  if (datatype_bytes < std::numeric_limits<int>::min() ||
      datatype_bytes > std::numeric_limits<int>::max()) {
    throw ConfigError("execution: datatype_bytes out of range");
  }
  e.datatype_bytes = static_cast<int>(datatype_bytes);
  e.training = v.GetBool("training", true);
  e.recompute = RecomputeFromString(v.GetString("recompute", "none"));
  e.fused_activation = v.GetBool("fused_activation", false);
  e.pp_1f1b = v.GetBool("pp_1f1b", true);
  e.pp_interleaving = v.GetInt("pp_interleaving", 1);
  e.pp_rs_ag = v.GetBool("pp_rs_ag", false);
  e.tp_rs_ag = v.GetBool("tp_rs_ag", false);
  e.seq_par = v.GetBool("seq_par", false);
  e.seq_par_ag_redo = v.GetBool("seq_par_ag_redo", false);
  e.tp_overlap = TpOverlapFromString(v.GetString("tp_overlap", "none"));
  e.dp_overlap = v.GetBool("dp_overlap", false);
  e.optimizer_sharding = v.GetBool("optimizer_sharding", false);
  e.weight_offload = v.GetBool("weight_offload", false);
  e.activation_offload = v.GetBool("activation_offload", false);
  e.optimizer_offload = v.GetBool("optimizer_offload", false);
  return e;
}

}  // namespace calculon
