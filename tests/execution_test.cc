#include <gtest/gtest.h>

#include "models/execution.h"
#include "models/presets.h"

namespace calculon {
namespace {

Execution BaseExec() {
  Execution e;
  e.num_procs = 4096;
  e.tensor_par = 8;
  e.pipeline_par = 64;
  e.data_par = 8;
  e.batch_size = 4096;
  e.microbatch = 1;
  return e;
}

TEST(Execution, ValidBaselinePasses) {
  const Application app = presets::Gpt3_175B();
  EXPECT_TRUE(BaseExec().Validate(app).ok());
}

TEST(Execution, PartitionMustMultiplyToProcs) {
  const Application app = presets::Gpt3_175B();
  Execution e = BaseExec();
  e.data_par = 4;  // 8 * 64 * 4 != 4096
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kBadPartition);
  e.data_par = 0;
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kBadPartition);
  // Products of untrusted degrees that overflow int64, one of which wraps
  // to exactly the processor count: 4096 * (2^52 + 1) = 2^64 + 4096.
  e = BaseExec();
  e.tensor_par = 4096;
  e.pipeline_par = (std::int64_t{1} << 52) + 1;
  e.data_par = 1;
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kBadPartition);
  e.tensor_par = std::int64_t{1} << 32;
  e.pipeline_par = std::int64_t{1} << 32;
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kBadPartition);
  e.tensor_par = 8;
  e.pipeline_par = std::int64_t{1} << 40;
  e.data_par = std::int64_t{1} << 40;
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kBadPartition);
}

TEST(Execution, TensorParMustDivideHeads) {
  const Application app = presets::Gpt3_175B();  // 96 heads
  Execution e = BaseExec();
  e.tensor_par = 64;  // does not divide 96
  e.pipeline_par = 8;
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIndivisibleHeads);
  e.tensor_par = 32;  // divides 96
  e.pipeline_par = 16;
  EXPECT_TRUE(e.Validate(app).ok());
}

TEST(Execution, TensorParCannotExceedHeads) {
  const Application app = presets::Megatron22B();  // 64 heads
  Execution e;
  e.num_procs = 128;
  e.tensor_par = 128;
  e.pipeline_par = 1;
  e.data_par = 1;
  e.batch_size = 128;
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIndivisibleHeads);
}

TEST(Execution, UnevenBlockDivisionIsAllowed) {
  // 96 blocks on 64 stages: uneven but runnable (ceiling share).
  const Application app = presets::Gpt3_175B();
  EXPECT_TRUE(BaseExec().Validate(app).ok());
  // But more stages than blocks is not.
  Execution e = BaseExec();
  e.pipeline_par = 128;
  e.tensor_par = 8;
  e.data_par = 4;
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIndivisibleBlocks);
}

TEST(Execution, InterleavingBoundedByBlocksPerStage) {
  const Application app = presets::Gpt3_175B();  // 96 blocks
  Execution e = BaseExec();
  e.pipeline_par = 8;
  e.data_par = 64;
  e.pp_interleaving = 12;  // 96/8 = 12 chunks: ok
  EXPECT_TRUE(e.Validate(app).ok());
  e.pp_interleaving = 13;
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIndivisibleBlocks);
  e.pp_interleaving = 0;
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIndivisibleBlocks);
}

TEST(Execution, BatchDivisibility) {
  const Application app = presets::Gpt3_175B();
  Execution e = BaseExec();
  e.batch_size = 4095;  // not divisible by d*m = 8
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIndivisibleBatch);
  e.batch_size = 4096;
  e.microbatch = 3;  // 4096 not divisible by 24
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIndivisibleBatch);
  // d*m = 2^64 overflows int64 (and would wrap to a zero divisor).
  e = BaseExec();
  e.num_procs = std::int64_t{1} << 32;
  e.tensor_par = 1;
  e.pipeline_par = 1;
  e.data_par = std::int64_t{1} << 32;
  e.batch_size = 64;
  e.microbatch = std::int64_t{1} << 32;
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIndivisibleBatch);
}

TEST(Execution, InterleavingNeedsMicrobatchMultipleOfStages) {
  const Application app = presets::Gpt3_175B();
  Execution e = BaseExec();
  e.pp_interleaving = 2;  // nm = 512, p = 64, 512 % 64 == 0: ok
  EXPECT_TRUE(e.Validate(app).ok());
  e.microbatch = 16;  // nm = 32 < p... 32 % 64 != 0
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIndivisibleBatch);
}

TEST(Execution, SeqParRequiresRsAg) {
  const Application app = presets::Gpt3_175B();
  Execution e = BaseExec();
  e.seq_par = true;
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIncompatibleOptions);
  e.tp_rs_ag = true;
  EXPECT_TRUE(e.Validate(app).ok());
  e.seq_par = false;
  e.seq_par_ag_redo = true;
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIncompatibleOptions);
}

TEST(Execution, DegenerateDegreesRejectTheirOptions) {
  const Application app = presets::Gpt3_175B();
  Execution e;
  e.num_procs = 96;
  e.tensor_par = 1;
  e.pipeline_par = 96;
  e.data_par = 1;
  e.batch_size = 96;
  e.tp_rs_ag = true;  // t == 1
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIncompatibleOptions);
  e.tp_rs_ag = false;
  e.optimizer_sharding = true;  // d == 1
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIncompatibleOptions);
  e.optimizer_sharding = false;
  e.pp_rs_ag = true;  // t == 1
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIncompatibleOptions);
  e.pp_rs_ag = false;
  EXPECT_TRUE(e.Validate(app).ok());
}

TEST(Execution, PipelineOptionsNeedStages) {
  const Application app = presets::Gpt3_175B();
  Execution e;
  e.num_procs = 8;
  e.tensor_par = 8;
  e.pipeline_par = 1;
  e.data_par = 1;
  e.batch_size = 8;
  e.pp_interleaving = 2;
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIncompatibleOptions);
}

TEST(Execution, InferenceRejectsTrainingOnlyOptions) {
  const Application app = presets::Gpt3_175B();
  Execution e = BaseExec();
  e.training = false;
  e.recompute = Recompute::kFull;
  EXPECT_EQ(e.Validate(app).reason(), Infeasible::kIncompatibleOptions);
  e.recompute = Recompute::kNone;
  EXPECT_TRUE(e.Validate(app).ok());
}

TEST(Execution, DerivedQuantities) {
  const Application app = presets::Gpt3_175B();
  const Execution e = BaseExec();
  EXPECT_EQ(e.MicrobatchesPerPipeline(), 512);
  EXPECT_EQ(e.BlocksPerProc(app), 1);  // floor(96/64)
  EXPECT_FALSE(e.any_offload());
  Execution off = e;
  off.activation_offload = true;
  EXPECT_TRUE(off.any_offload());
}

TEST(Execution, EnumStringRoundTrip) {
  for (Recompute r :
       {Recompute::kNone, Recompute::kAttnOnly, Recompute::kFull}) {
    EXPECT_EQ(RecomputeFromString(ToString(r)), r);
  }
  for (TpOverlap o : {TpOverlap::kNone, TpOverlap::kPipe, TpOverlap::kRing}) {
    EXPECT_EQ(TpOverlapFromString(ToString(o)), o);
  }
  EXPECT_THROW((void)RecomputeFromString("selective"), ConfigError);
  EXPECT_THROW((void)TpOverlapFromString("bulk"), ConfigError);
}

TEST(Execution, JsonRoundTrip) {
  Execution e = BaseExec();
  e.recompute = Recompute::kAttnOnly;
  e.tp_rs_ag = true;
  e.seq_par = true;
  e.seq_par_ag_redo = true;
  e.tp_overlap = TpOverlap::kRing;
  e.dp_overlap = true;
  e.optimizer_sharding = true;
  e.pp_interleaving = 2;
  e.fused_activation = true;
  e.weight_offload = true;
  const Execution back = Execution::FromJson(e.ToJson());
  EXPECT_EQ(back.ToJson(), e.ToJson());
}

}  // namespace
}  // namespace calculon
