#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/block.h"
#include "core/perf_model.h"
#include "hw/presets.h"
#include "models/presets.h"
#include "util/units.h"

namespace calculon {
namespace {

System MakeSystem(std::int64_t procs, double hbm_gib = 80.0) {
  presets::SystemOptions o;
  o.num_procs = procs;
  o.hbm_capacity = GiB(hbm_gib);
  return presets::A100(o);
}

Execution Fig3Exec() {
  Execution e;
  e.num_procs = 4096;
  e.tensor_par = 8;
  e.pipeline_par = 64;
  e.data_par = 8;
  e.batch_size = 4096;
  e.microbatch = 1;
  e.recompute = Recompute::kFull;
  return e;
}

TEST(PerfModel, BreakdownSumsToBatchTime) {
  const auto r =
      CalculatePerformance(presets::Gpt3_175B(), Fig3Exec(), MakeSystem(4096));
  ASSERT_TRUE(r.ok()) << r.detail();
  const Stats& s = r.value();
  EXPECT_NEAR(s.time.Total().raw(), s.batch_time.raw(), 1e-9);
  EXPECT_GT(s.time.fw_pass, Seconds(0.0));
  EXPECT_GT(s.time.bw_pass, s.time.fw_pass);  // backward ~2x forward
  // Full recompute.
  EXPECT_DOUBLE_EQ(s.time.fw_recompute.raw(), s.time.fw_pass.raw());
  EXPECT_GT(s.time.pp_bubble, Seconds(0.0));
  EXPECT_GT(s.time.tp_comm, Seconds(0.0));
  EXPECT_DOUBLE_EQ(s.time.offload.raw(), 0.0);
}

TEST(PerfModel, SampleRateIsBatchOverTime) {
  const auto r =
      CalculatePerformance(presets::Gpt3_175B(), Fig3Exec(), MakeSystem(4096));
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().sample_rate.raw(),
              4096.0 / r.value().batch_time.raw(), 1e-6);
}

TEST(PerfModel, MfuIsConsistentWithModelFlops) {
  const auto r =
      CalculatePerformance(presets::Gpt3_175B(), Fig3Exec(), MakeSystem(4096));
  ASSERT_TRUE(r.ok());
  const double useful =
      ModelFlopsPerSample(presets::Gpt3_175B(), true).raw() * 4096;
  EXPECT_NEAR(r.value().mfu,
              useful / (r.value().batch_time.raw() * 4096 * 312e12), 1e-9);
  EXPECT_GT(r.value().mfu, 0.1);
  EXPECT_LT(r.value().mfu, 1.0);
}

// Cross-check the closed-form model FLOPs against the layer-by-layer block
// accounting for every preset.
TEST(PerfModel, ModelFlopsMatchBlockAccounting) {
  for (const std::string& name : presets::ApplicationNames()) {
    const Application app = presets::ApplicationByName(name);
    for (bool training : {true, false}) {
      Execution ref;
      ref.num_procs = 1;
      ref.batch_size = 1;
      ref.training = training;
      const BlockModel block = BuildBlock(app, ref);
      Flops matrix;
      for (const Layer& l : block.layers) {
        if (l.kind == ComputeKind::kMatrix) matrix += l.fw_flops + l.bw_flops;
      }
      EXPECT_DOUBLE_EQ(ModelFlopsPerSample(app, training).raw(),
                       matrix.raw() * static_cast<double>(app.num_blocks))
          << name << " training=" << training;
    }
  }
}

TEST(PerfModel, ProcCountMismatchIsRejected) {
  const auto r =
      CalculatePerformance(presets::Gpt3_175B(), Fig3Exec(), MakeSystem(512));
  EXPECT_EQ(r.reason(), Infeasible::kBadPartition);
}

TEST(PerfModel, MemoryOverflowIsInfeasible) {
  // Megatron-1T on few processors without recompute cannot fit in 80 GiB.
  Execution e;
  e.num_procs = 8;
  e.tensor_par = 8;
  e.pipeline_par = 1;
  e.data_par = 1;
  e.batch_size = 8;
  const auto r =
      CalculatePerformance(presets::Megatron1T(), e, MakeSystem(8));
  EXPECT_EQ(r.reason(), Infeasible::kMemoryCapacity);
}

TEST(PerfModel, OffloadWithoutTier2IsInfeasible) {
  Execution e = Fig3Exec();
  e.weight_offload = true;
  const auto r =
      CalculatePerformance(presets::Gpt3_175B(), e, MakeSystem(4096));
  EXPECT_EQ(r.reason(), Infeasible::kOffloadCapacity);
}

TEST(PerfModel, RecomputeTradesTimeForMemory) {
  const Application app = presets::Gpt3_175B();
  const System sys = MakeSystem(4096, 1024.0);  // roomy, all modes feasible
  Execution e = Fig3Exec();
  Seconds prev_time;
  Bytes prev_mem(1e30);
  for (Recompute mode :
       {Recompute::kNone, Recompute::kAttnOnly, Recompute::kFull}) {
    e.recompute = mode;
    const auto r = CalculatePerformance(app, e, sys);
    ASSERT_TRUE(r.ok()) << r.detail();
    EXPECT_GT(r.value().batch_time, prev_time);
    EXPECT_LT(r.value().tier1.activations, prev_mem);

    prev_time = r.value().batch_time;
    prev_mem = r.value().tier1.activations;
  }
}

TEST(PerfModel, OptimizerShardingCutsOptimizerMemory) {
  const Application app = presets::Gpt3_175B();
  const System sys = MakeSystem(4096);
  Execution e = Fig3Exec();
  const auto base = CalculatePerformance(app, e, sys);
  e.optimizer_sharding = true;
  const auto sharded = CalculatePerformance(app, e, sys);
  ASSERT_TRUE(base.ok() && sharded.ok());
  EXPECT_NEAR(sharded.value().tier1.optimizer.raw(),
              base.value().tier1.optimizer.raw() / 8.0, 1.0);
  // Weights and gradients are untouched by ZeRO-1.
  EXPECT_DOUBLE_EQ(sharded.value().tier1.weights.raw(),
                   base.value().tier1.weights.raw());
}

TEST(PerfModel, InterleavingShrinksBubbleButGrowsActivations) {
  const Application app = presets::Megatron1T();  // 128 blocks
  const System sys = MakeSystem(4096, 1024.0);
  Execution e;
  e.num_procs = 4096;
  e.tensor_par = 8;
  e.pipeline_par = 64;
  e.data_par = 8;
  e.batch_size = 4096;
  e.recompute = Recompute::kFull;
  const auto base = CalculatePerformance(app, e, sys);
  e.pp_interleaving = 2;
  const auto inter = CalculatePerformance(app, e, sys);
  ASSERT_TRUE(base.ok() && inter.ok());
  EXPECT_LT(inter.value().time.pp_bubble, base.value().time.pp_bubble);
  EXPECT_GT(inter.value().tier1.activations, base.value().tier1.activations);
}

TEST(PerfModel, DpOverlapHidesDpCommunication) {
  const Application app = presets::Megatron1T();
  const System sys = MakeSystem(4096, 1024.0);
  Execution e;
  e.num_procs = 4096;
  e.tensor_par = 8;
  e.pipeline_par = 16;
  e.data_par = 32;
  e.batch_size = 4096;
  e.recompute = Recompute::kFull;
  e.pp_interleaving = 8;
  const auto base = CalculatePerformance(app, e, sys);
  e.dp_overlap = true;
  const auto overlap = CalculatePerformance(app, e, sys);
  ASSERT_TRUE(base.ok() && overlap.ok());
  EXPECT_LT(overlap.value().time.dp_comm, base.value().time.dp_comm);
  // Busy time on the wire is unchanged.
  EXPECT_NEAR(overlap.value().dp_comm_total.raw(),
              base.value().dp_comm_total.raw(), 1e-9);
}

TEST(PerfModel, TpOverlapHidesTpCommunication) {
  const Application app = presets::Gpt3_175B();
  const System sys = MakeSystem(4096);
  Execution e = Fig3Exec();
  const auto none = CalculatePerformance(app, e, sys);
  e.tp_overlap = TpOverlap::kPipe;
  const auto pipe = CalculatePerformance(app, e, sys);
  e.tp_overlap = TpOverlap::kRing;
  const auto ring = CalculatePerformance(app, e, sys);
  ASSERT_TRUE(none.ok() && pipe.ok() && ring.ok());
  EXPECT_LT(pipe.value().time.tp_comm, none.value().time.tp_comm);
  EXPECT_LT(ring.value().time.tp_comm, pipe.value().time.tp_comm);
  // Throttle tax remains.
  EXPECT_GT(ring.value().time.tp_comm, Seconds(0.0));
}

TEST(PerfModel, SequenceParallelismSavesMemoryAndVectorTime) {
  const Application app = presets::Megatron1T();
  const System sys = MakeSystem(512, 1024.0);
  Execution e;
  e.num_procs = 512;
  e.tensor_par = 8;
  e.pipeline_par = 64;
  e.data_par = 1;
  e.batch_size = 512;
  e.recompute = Recompute::kAttnOnly;
  const auto base = CalculatePerformance(app, e, sys);
  e.tp_rs_ag = true;
  e.seq_par = true;
  e.seq_par_ag_redo = true;
  const auto sp = CalculatePerformance(app, e, sys);
  ASSERT_TRUE(base.ok() && sp.ok());
  EXPECT_LT(sp.value().tier1.activations, base.value().tier1.activations);
  EXPECT_LT(sp.value().time.fw_pass, base.value().time.fw_pass);
}

TEST(PerfModel, OffloadMovesStateToTier2) {
  presets::SystemOptions o;
  o.num_procs = 512;
  o.offload_capacity = GiB(4096);
  o.offload_bandwidth = BytesPerSecond(1e15);  // effectively infinite
  const System sys = presets::A100(o);
  const Application app = presets::Megatron1T();
  Execution e;
  e.num_procs = 512;
  e.tensor_par = 8;
  e.pipeline_par = 8;
  e.data_par = 8;
  e.batch_size = 512;
  e.recompute = Recompute::kFull;
  const auto base = CalculatePerformance(app, e, sys);
  ASSERT_EQ(base.reason(), Infeasible::kMemoryCapacity);  // 1T at p=8: OOM
  e.weight_offload = true;
  e.activation_offload = true;
  e.optimizer_offload = true;
  const auto off = CalculatePerformance(app, e, sys);
  ASSERT_TRUE(off.ok()) << off.detail();
  EXPECT_GT(off.value().tier2.Total(), Bytes(0.0));
  EXPECT_LT(off.value().tier1.Total(), GiB(80));
  EXPECT_GT(off.value().offload_bw_required, BytesPerSecond(0.0));
  // Infinite bandwidth.
  EXPECT_DOUBLE_EQ(off.value().time.offload.raw(), 0.0);
}

TEST(PerfModel, SlowOffloadTierExposesTime) {
  presets::SystemOptions o;
  o.num_procs = 512;
  o.offload_capacity = GiB(4096);
  o.offload_bandwidth = GBps(1);  // 1 GB/s: far below Eq. 1 demand
  const System sys = presets::A100(o);
  Execution e;
  e.num_procs = 512;
  e.tensor_par = 8;
  e.pipeline_par = 8;
  e.data_par = 8;
  e.batch_size = 512;
  e.recompute = Recompute::kFull;
  e.weight_offload = true;
  e.activation_offload = true;
  e.optimizer_offload = true;
  const auto r = CalculatePerformance(presets::Megatron1T(), e, sys);
  ASSERT_TRUE(r.ok()) << r.detail();
  EXPECT_GT(r.value().time.offload, Seconds(0.0));
  EXPECT_GT(r.value().offload_bw_required, GBps(1));
}

TEST(PerfModel, InferenceIsForwardOnly) {
  const Application app = presets::Gpt3_175B();
  const System sys = MakeSystem(64);
  Execution e;
  e.num_procs = 64;
  e.tensor_par = 8;
  e.pipeline_par = 8;
  e.data_par = 1;
  e.batch_size = 64;
  e.training = false;
  const auto r = CalculatePerformance(app, e, sys);
  ASSERT_TRUE(r.ok()) << r.detail();
  const Stats& s = r.value();
  EXPECT_GT(s.time.fw_pass, Seconds(0.0));
  EXPECT_DOUBLE_EQ(s.time.bw_pass.raw(), 0.0);
  EXPECT_DOUBLE_EQ(s.time.optim_step.raw(), 0.0);
  EXPECT_DOUBLE_EQ(s.time.dp_comm.raw(), 0.0);
  EXPECT_DOUBLE_EQ(s.tier1.optimizer.raw(), 0.0);
  EXPECT_DOUBLE_EQ(s.tier1.weight_grads.raw(), 0.0);
}

TEST(PerfModel, UnevenBlocksCostMoreThanEvenSplit) {
  // 96 blocks: p=32 divides evenly (3 each); p=64 leaves a remainder
  // (ceil -> 2) so per-GPU efficiency drops — the efficiency-cliff driver.
  const Application app = presets::Gpt3_175B();
  Execution e64 = Fig3Exec();  // p = 64 -> 2 blocks on the bottleneck
  const auto r64 = CalculatePerformance(app, e64, MakeSystem(4096));
  ASSERT_TRUE(r64.ok());
  // With p=64 the bottleneck stage holds ceil(96/64)=2 blocks while 64
  // stages * 2 = 128 > 96 block slots exist: utilization loss shows up as a
  // longer batch time than the count-proportional ideal.
  const Seconds per_block_share = r64.value().time.fw_pass / (512.0 * 2.0);
  EXPECT_GT(per_block_share, Seconds(0.0));
}

// Property sweep: every (t, p, d) split of 512 GPUs that passes validation
// must produce a consistent Stats (positive time, breakdown summing, memory
// components non-negative).
// Every field of a block stage as its bit pattern.
std::vector<std::uint64_t> BlockBits(const BlockCosts& c) {
  std::vector<std::uint64_t> bits;
  for (const Seconds t : {c.fw, c.bw, c.attn_recompute, c.tp_fw, c.tp_bw,
                          c.tp_bw_extra, c.pp_rs_ag, c.pp_xfer, c.vocab}) {
    bits.push_back(std::bit_cast<std::uint64_t>(t.raw()));
  }
  for (const Bytes b : {c.weights, c.weight_grads, c.optimizer,
                        c.act_stored_none, c.act_stored_attn,
                        c.act_stored_full, c.pp_output, c.act_grad_working}) {
    bits.push_back(std::bit_cast<std::uint64_t>(b.raw()));
  }
  for (const double x : {c.vocab_params, c.params}) {
    bits.push_back(std::bit_cast<std::uint64_t>(x));
  }
  return bits;
}

// A search computes the block stage's layer half once for every p and
// both pp_rs_ag of a (t, microbatch, TP-comm variant, fused) point and adds
// each slot's PP boundary, so two things must hold bit for bit: the half
// changes with neither p nor pp_rs_ag and holds no boundary term, and the
// half plus the boundary step is EvaluateBlock.
TEST(PerfModel, BlockStageIsItsLayerHalfPlusThePpTransfer) {
  presets::SystemOptions o;
  o.num_procs = 4096;
  const std::pair<Application, System> cases[] = {
      {presets::Gpt3_175B(), presets::H100(o)},
      {presets::Megatron1T(), presets::A100(o)}};
  struct Variant {
    bool tp_rs_ag, seq_par, ag_redo, fused;
  };
  const Variant variants[] = {{false, false, false, false},
                              {true, false, false, true},
                              {true, true, false, false},
                              {true, true, true, true}};
  for (const auto& [app, sys] : cases) {
    for (const Variant& v : variants) {
      std::vector<std::uint64_t> first_layers;
      for (const bool pp_rs_ag : {false, true}) {
        for (const std::int64_t p : {1, 2, 8, 64}) {
          Execution e;
          e.num_procs = 4096;
          e.tensor_par = 8;
          e.pipeline_par = p;
          e.data_par = 4096 / (8 * p);
          e.batch_size = 4096;
          e.microbatch = 2;
          e.tp_rs_ag = v.tp_rs_ag;
          e.seq_par = v.seq_par;
          e.seq_par_ag_redo = v.ag_redo;
          e.fused_activation = v.fused;
          e.pp_rs_ag = pp_rs_ag;
          SCOPED_TRACE(app.name + " p=" + std::to_string(p) +
                       " pp_rs_ag=" + std::to_string(pp_rs_ag) +
                       " seq_par=" + std::to_string(v.seq_par));
          const Result<Placement> placement = PlaceNetworks(e, sys);
          ASSERT_TRUE(placement.ok());
          const BlockCosts block =
              EvaluateBlock(app, e, sys.proc(), placement.value());
          BlockCosts layers = EvaluateBlockLayers(app, e, sys.proc(),
                                                  *placement.value().tp_net);
          for (const double boundary :
               {layers.pp_output.raw(), layers.pp_rs_ag.raw(),
                layers.pp_xfer.raw()}) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(boundary), 0u);
          }
          if (first_layers.empty()) first_layers = BlockBits(layers);
          EXPECT_EQ(BlockBits(layers), first_layers);
          AddPpBoundary(app, e, placement.value(), layers);
          EXPECT_EQ(BlockBits(layers), BlockBits(block));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(block.pp_output.raw()),
                    std::bit_cast<std::uint64_t>(
                        BuildBlock(app, e).pp_output_bytes.raw()));
          EXPECT_EQ(block.pp_xfer > Seconds(0.0), p > 1);
          EXPECT_EQ(block.pp_rs_ag > Seconds(0.0), pp_rs_ag && !v.seq_par);
        }
      }
    }
  }
}

// The layer half is keyed without pp_rs_ag, so it must not read it: every
// field is bit-equal with pp_rs_ag false and true, on all 11 presets at
// random t, microbatch, TP-comm variant and fused.
TEST(PerfModel, LayerHalfIsEqualForBothPpRsAgVariants) {
  presets::SystemOptions o;
  o.num_procs = 4096;
  const System sys = presets::H100(o);
  std::mt19937_64 rng(34);
  const std::vector<std::string> names = presets::ApplicationNames();
  ASSERT_EQ(names.size(), 11u);
  int compared = 0;
  for (const std::string& name : names) {
    const Application app = presets::ApplicationByName(name);
    std::vector<std::int64_t> ts;
    for (std::int64_t t = 1; t <= 64; t *= 2) {
      if (app.attn_heads % t == 0 && app.feedforward % t == 0) ts.push_back(t);
    }
    for (int draw = 0; draw < 24; ++draw) {
      Execution e;
      e.num_procs = 4096;
      e.tensor_par = ts[rng() % ts.size()];
      e.pipeline_par = 1 + static_cast<std::int64_t>(rng() % 8);
      e.microbatch = 1 + static_cast<std::int64_t>(rng() % 8);
      const std::uint64_t variant = rng() % 4;  // the sweep's TP-comm list
      e.tp_rs_ag = variant > 0;
      e.seq_par = variant > 1;
      e.seq_par_ag_redo = variant > 2;
      e.fused_activation = rng() % 2 == 1;
      SCOPED_TRACE(name + ": " + e.ToJson().Dump());
      const Network* tp_net = sys.NetworkForSpan(e.tensor_par);
      ASSERT_NE(tp_net, nullptr);
      e.pp_rs_ag = false;
      const BlockCosts without = EvaluateBlockLayers(app, e, sys.proc(),
                                                     *tp_net);
      const BlockKey key = BlockKey::LayersOf(e);
      e.pp_rs_ag = true;
      EXPECT_EQ(BlockBits(EvaluateBlockLayers(app, e, sys.proc(), *tp_net)),
                BlockBits(without));
      EXPECT_EQ(BlockKey::LayersOf(e), key);
      ++compared;
    }
  }
  EXPECT_EQ(compared, 11 * 24);
}

class SplitConsistencyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SplitConsistencyTest, StatsAreConsistent) {
  const auto [t, p] = GetParam();
  const std::int64_t d = 512 / (static_cast<std::int64_t>(t) * p);
  if (d * t * p != 512) GTEST_SKIP();
  const Application app = presets::Gpt3_175B();
  const System sys = MakeSystem(512, 640.0);
  Execution e;
  e.num_procs = 512;
  e.tensor_par = t;
  e.pipeline_par = p;
  e.data_par = d;
  e.batch_size = 512;
  e.recompute = Recompute::kFull;
  const auto r = CalculatePerformance(app, e, sys);
  if (!r.ok()) {
    EXPECT_NE(r.reason(), Infeasible::kNone);
    return;
  }
  const Stats& s = r.value();
  EXPECT_GT(s.batch_time, Seconds(0.0));
  EXPECT_NEAR(s.time.Total().raw(), s.batch_time.raw(),
              1e-9 * s.batch_time.raw());
  EXPECT_GE(s.tier1.weights, Bytes(0.0));
  EXPECT_GE(s.tier1.activations, Bytes(0.0));
  EXPECT_GE(s.tier1.optimizer, Bytes(0.0));
  EXPECT_GT(s.mfu, 0.0);
  EXPECT_LE(s.mfu, 1.0);
  EXPECT_GE(s.tp_comm_total, s.time.tp_comm * 0.99);
}

INSTANTIATE_TEST_SUITE_P(
    Splits, SplitConsistencyTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16, 32),
                       ::testing::Values(1, 2, 4, 8, 16, 32, 64)));

}  // namespace
}  // namespace calculon
