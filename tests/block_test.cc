#include <gtest/gtest.h>

#include "core/block.h"
#include "models/presets.h"

namespace calculon {
namespace {

Execution MakeExec(std::int64_t t, std::int64_t m = 1) {
  Execution e;
  e.num_procs = t;
  e.tensor_par = t;
  e.pipeline_par = 1;
  e.data_par = 1;
  e.batch_size = m;
  e.microbatch = m;
  return e;
}

double Sbh(const Application& app, std::int64_t m) {
  return static_cast<double>(app.seq_size) *
         static_cast<double>(app.hidden) * static_cast<double>(m);
}

// The activation footprint of one block must reproduce the standard
// transformer accounting (Korthikanti et al., which the paper builds on):
// 34*s*b*h + 5*a*s^2*b bytes at t=1 with fp16 and f = 4h.
TEST(Block, ActivationBytesMatchPublishedFormula) {
  const Application app = presets::Gpt3_175B();
  const std::int64_t m = 2;
  const BlockModel block = BuildBlock(app, MakeExec(1, m));
  const double sbh = Sbh(app, m);
  const double as2b = static_cast<double>(app.attn_heads) *
                      static_cast<double>(app.seq_size) *
                      static_cast<double>(app.seq_size) *
                      static_cast<double>(m);
  EXPECT_DOUBLE_EQ(block.ActStoredBytes(Recompute::kNone).raw(),
                   34.0 * sbh + 5.0 * as2b);
}

TEST(Block, ActivationBytesUnderTensorParallelism) {
  const Application app = presets::Gpt3_175B();
  const std::int64_t t = 8;
  const BlockModel block = BuildBlock(app, MakeExec(t));
  const double sbh = Sbh(app, 1);
  const double as2b = static_cast<double>(app.attn_heads) *
                      static_cast<double>(app.seq_size) *
                      static_cast<double>(app.seq_size);
  // Without sequence parallelism the vector-layer tensors (10*sbh) stay
  // replicated; the rest shards by t.
  EXPECT_DOUBLE_EQ(block.ActStoredBytes(Recompute::kNone).raw(),
                   10.0 * sbh + (24.0 * sbh + 5.0 * as2b) / t);
}

TEST(Block, SequenceParallelismShardsEverything) {
  const Application app = presets::Gpt3_175B();
  const std::int64_t t = 8;
  Execution e = MakeExec(t);
  e.tp_rs_ag = true;
  e.seq_par = true;
  e.seq_par_ag_redo = true;
  const BlockModel block = BuildBlock(app, e);
  const double sbh = Sbh(app, 1);
  const double as2b = static_cast<double>(app.attn_heads) *
                      static_cast<double>(app.seq_size) *
                      static_cast<double>(app.seq_size);
  EXPECT_DOUBLE_EQ(block.ActStoredBytes(Recompute::kNone).raw(),
                   (34.0 * sbh + 5.0 * as2b) / t);
}

TEST(Block, SelectiveRecomputeDropsExactlyTheSquaredTensors) {
  const Application app = presets::Gpt3_175B();
  for (std::int64_t t : {1, 8}) {
    const BlockModel block = BuildBlock(app, MakeExec(t));
    const double as2b = static_cast<double>(app.attn_heads) *
                        static_cast<double>(app.seq_size) *
                        static_cast<double>(app.seq_size);
    EXPECT_DOUBLE_EQ((block.ActStoredBytes(Recompute::kNone) -
                      block.ActStoredBytes(Recompute::kAttnOnly))
                         .raw(),
                     5.0 * as2b / static_cast<double>(t))
        << "t=" << t;
  }
}

TEST(Block, FullRecomputeKeepsOnlyTheBlockInput) {
  const Application app = presets::Gpt3_175B();
  const BlockModel block = BuildBlock(app, MakeExec(1));
  EXPECT_DOUBLE_EQ(block.ActStoredBytes(Recompute::kFull).raw(),
                   2.0 * Sbh(app, 1));
  EXPECT_DOUBLE_EQ(block.block_input_bytes.raw(), 2.0 * Sbh(app, 1));
}

TEST(Block, WeightParamsMatchApplicationAtTensorParOne) {
  for (const std::string& name : presets::ApplicationNames()) {
    const Application app = presets::ApplicationByName(name);
    const BlockModel block = BuildBlock(app, MakeExec(1));
    EXPECT_DOUBLE_EQ(block.WeightParams(),
                     static_cast<double>(app.BlockParameters()))
        << name;
  }
}

TEST(Block, TensorParallelismShardsWeights) {
  const Application app = presets::Gpt3_175B();
  const BlockModel b1 = BuildBlock(app, MakeExec(1));
  const BlockModel b8 = BuildBlock(app, MakeExec(8));
  // Matrix weights shard by t; only LayerNorm params and biases of
  // row-parallel GEMMs replicate, so the ratio is slightly above 1/8.
  const double ratio = b8.WeightParams() / b1.WeightParams();
  EXPECT_GT(ratio, 1.0 / 8.0);
  EXPECT_LT(ratio, 1.0 / 8.0 + 1e-3);
}

TEST(Block, FlopsShardByTensorParallelism) {
  const Application app = presets::Gpt3_175B();
  const BlockModel b1 = BuildBlock(app, MakeExec(1));
  const BlockModel b8 = BuildBlock(app, MakeExec(8));
  // GEMM flops divide exactly by t; vector flops have replicated parts.
  Flops b1_matrix;
  Flops b8_matrix;
  for (const Layer& l : b1.layers) {
    if (l.kind == ComputeKind::kMatrix) b1_matrix += l.fw_flops;
  }
  for (const Layer& l : b8.layers) {
    if (l.kind == ComputeKind::kMatrix) b8_matrix += l.fw_flops;
  }
  // Bias adds on row-parallel outputs replicate, so allow a tiny slack.
  EXPECT_NEAR(b8_matrix / b1_matrix, 1.0 / 8.0, 1e-3);
}

TEST(Block, MicrobatchScalesActivationsAndFlopsLinearly) {
  const Application app = presets::Megatron1T();
  const BlockModel b1 = BuildBlock(app, MakeExec(1, 1));
  const BlockModel b4 = BuildBlock(app, MakeExec(1, 4));
  EXPECT_DOUBLE_EQ(b4.FwFlops().raw(), 4.0 * b1.FwFlops().raw());
  EXPECT_DOUBLE_EQ(b4.ActStoredBytes(Recompute::kNone).raw(),
                   4.0 * b1.ActStoredBytes(Recompute::kNone).raw());
  // Weights do not scale with the microbatch.
  EXPECT_DOUBLE_EQ(b4.WeightBytes().raw(), b1.WeightBytes().raw());
}

TEST(Block, FusedActivationShrinksStashAndTraffic) {
  const Application app = presets::Gpt3_175B();
  Execution e = MakeExec(8);
  Execution fused = e;
  fused.fused_activation = true;
  const BlockModel plain = BuildBlock(app, e);
  const BlockModel f = BuildBlock(app, fused);
  EXPECT_LT(f.ActStoredBytes(Recompute::kNone),
            plain.ActStoredBytes(Recompute::kNone));
  Bytes plain_bytes;
  Bytes fused_bytes;
  for (const Layer& l : plain.layers) plain_bytes += l.fw_bytes;
  for (const Layer& l : f.layers) fused_bytes += l.fw_bytes;
  EXPECT_LT(fused_bytes, plain_bytes);
  // FLOPs are untouched by fusion.
  EXPECT_DOUBLE_EQ(f.FwFlops().raw(), plain.FwFlops().raw());
}

TEST(Block, TpCommVariants) {
  const Application app = presets::Gpt3_175B();
  const double tp_bytes = 2.0 * Sbh(app, 1);

  // t == 1: no TP communication at all.
  EXPECT_TRUE(BuildBlock(app, MakeExec(1)).tp_fw.empty());

  // Plain all-reduce: 2 ops per pass.
  const BlockModel ar = BuildBlock(app, MakeExec(8));
  ASSERT_EQ(ar.tp_fw.size(), 2u);
  EXPECT_EQ(ar.tp_fw[0].op, Collective::kAllReduce);
  EXPECT_DOUBLE_EQ(ar.tp_fw[0].bytes.raw(), tp_bytes);
  EXPECT_EQ(ar.tp_bw.size(), 2u);
  EXPECT_TRUE(ar.tp_bw_extra.empty());

  // RS+AG split: 4 ops per pass, same total traffic as 2 all-reduces.
  Execution rs = MakeExec(8);
  rs.tp_rs_ag = true;
  const BlockModel rsb = BuildBlock(app, rs);
  ASSERT_EQ(rsb.tp_fw.size(), 4u);

  // Sequence parallel with AG redo: 4 ops per pass + 2 extra backward AGs.
  Execution sp = MakeExec(8);
  sp.tp_rs_ag = true;
  sp.seq_par = true;
  sp.seq_par_ag_redo = true;
  const BlockModel spb = BuildBlock(app, sp);
  ASSERT_EQ(spb.tp_fw.size(), 4u);
  ASSERT_EQ(spb.tp_bw_extra.size(), 2u);
  EXPECT_EQ(spb.tp_bw_extra[0].op, Collective::kAllGather);
}

TEST(Block, PpBoundaryTensorShards) {
  const Application app = presets::Gpt3_175B();
  const double full = 2.0 * Sbh(app, 1);

  EXPECT_DOUBLE_EQ(BuildBlock(app, MakeExec(8)).pp_output_bytes.raw(),
                   full);

  Execution sp = MakeExec(8);
  sp.tp_rs_ag = true;
  sp.seq_par = true;
  EXPECT_DOUBLE_EQ(BuildBlock(app, sp).pp_output_bytes.raw(), full / 8.0);

  Execution ppr = MakeExec(8);
  ppr.pipeline_par = 1;  // structural only; pp_rs_ag shards the tensor
  ppr.pp_rs_ag = true;
  EXPECT_DOUBLE_EQ(BuildBlock(app, ppr).pp_output_bytes.raw(),
                   full / 8.0);
}

TEST(Block, AttnRecomputeLayersAreTheAttentionInternals) {
  const Application app = presets::Gpt3_175B();
  const BlockModel block = BuildBlock(app, MakeExec(8));
  ASSERT_EQ(block.attn_recompute_layers.size(), 3u);
  EXPECT_STREQ(block.layers[block.attn_recompute_layers[0]].name, "attn_qkt");
  EXPECT_STREQ(block.layers[block.attn_recompute_layers[1]].name,
               "attn_softmax");
  EXPECT_STREQ(block.layers[block.attn_recompute_layers[2]].name,
               "attn_dropout");
}

TEST(Block, InferenceCarriesNoTrainingState) {
  const Application app = presets::Gpt3_175B();
  Execution e = MakeExec(8);
  e.training = false;
  const BlockModel block = BuildBlock(app, e);
  EXPECT_DOUBLE_EQ(block.BwFlops().raw(), 0.0);
  EXPECT_DOUBLE_EQ(block.ActStoredBytes(Recompute::kNone).raw(), 0.0);
  EXPECT_DOUBLE_EQ(block.WeightGradBytes().raw(), 0.0);
  EXPECT_DOUBLE_EQ(block.OptimizerBytes().raw(), 0.0);
  EXPECT_GT(block.WeightBytes(), Bytes(0.0));
  EXPECT_DOUBLE_EQ(block.act_grad_working_bytes.raw(), 0.0);
}

// Property: for every preset and TP degree, gradient and optimizer bytes
// keep their fixed ratios to parameters.
class BlockStateTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::int64_t>> {
};

TEST_P(BlockStateTest, StateRatiosHold) {
  const auto& [name, t] = GetParam();
  const Application app = presets::ApplicationByName(name);
  if (app.attn_heads % t != 0) GTEST_SKIP();
  const BlockModel block = BuildBlock(app, MakeExec(t));
  EXPECT_DOUBLE_EQ(block.WeightBytes().raw(), 2.0 * block.WeightParams());
  EXPECT_DOUBLE_EQ(block.WeightGradBytes().raw(),
                   4.0 * block.WeightParams());
  EXPECT_DOUBLE_EQ(block.OptimizerBytes().raw(),
                   12.0 * block.WeightParams());
}

INSTANTIATE_TEST_SUITE_P(
    PresetsByTp, BlockStateTest,
    ::testing::Combine(::testing::Values("gpt3_175b", "turing_530b",
                                         "megatron_1t"),
                       ::testing::Values<std::int64_t>(1, 2, 4, 8, 16, 32)));

}  // namespace
}  // namespace calculon
