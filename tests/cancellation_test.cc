// Cooperative cancellation, one test per RunContext poll. Every engine in
// src/search, src/runner, src/analysis and src/dist that evaluates the
// model in a loop polls ShouldStop() between items; each test below fails
// when its poll is deleted. Three polls are covered by tests in
// resilience_test.cc and one in dist_supervisor_test.cc:
//
//   search/exec_search.cc  FindOptimalExecution, per triple
//       ResilienceTest.PreCancelledExecSearchCompletesNoItems
//   search/system_search.cc  RunSystemSearch, per design
//       ResilienceTest.SystemSearchReportsCompleteAndCancelledRuns
//   runner/study.cc  Study::RunResilient, per row
//       ResilienceTest.StudyDeadlineStopsBeforeAnyRow
//   dist/drivers.cc  RunAuditSupervised in process, per pair
//       AuditInProcess.CancelledContextAuditsNoPair
//
// and the other nine here, each named after the loop it stops.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/audit.h"
#include "hw/presets.h"
#include "models/presets.h"
#include "obs/metrics.h"
#include "runner/calibrate.h"
#include "runner/study.h"
#include "search/exec_search.h"
#include "search/scaling.h"
#include "search/sensitivity.h"
#include "search/system_search.h"
#include "testing/fault_injection.h"
#include "util/error.h"

namespace calculon {
namespace {

using analysis::AuditOptions;
using analysis::AuditPair;
using analysis::AuditReport;

class CancellationTest : public ::testing::Test {
 protected:
  void SetUp() override { cancelled_.Cancel(); }
  void TearDown() override { testing::FaultInjector::Global().Reset(); }

  static System A100(std::int64_t procs) {
    return presets::SystemByName("a100_80g").WithNumProcs(procs);
  }

  RunContext cancelled_;  // stopped before the run starts
};

TEST_F(CancellationTest, SensitivityStopsBeforeTheFirstResource) {
  Execution exec;
  exec.num_procs = 64;
  exec.tensor_par = 8;
  exec.pipeline_par = 8;
  exec.batch_size = 64;
  exec.recompute = Recompute::kFull;
  const auto full = AnalyzeSensitivity(presets::Megatron22B(), exec, A100(64));
  ASSERT_TRUE(full.ok()) << full.detail();
  ASSERT_FALSE(full.value().empty());

  const auto stopped = AnalyzeSensitivity(presets::Megatron22B(), exec,
                                          A100(64), 0.25, &cancelled_);
  ASSERT_TRUE(stopped.ok()) << stopped.detail();
  EXPECT_TRUE(stopped.value().empty());
}

TEST_F(CancellationTest, ExecSearchSweepStopsBeforeTheFirstRecomputeMode) {
  // Sweep(i) is what a dist worker runs for one triple: it polls on its
  // own, below FindOptimalExecution's per-triple poll.
  const Application app = presets::Megatron22B();
  const System sys = A100(64);
  const SearchSpace space = SearchSpace::MegatronBaseline();
  auto evaluated = [&](RunContext* ctx) {
    SearchConfig config;
    config.ctx = ctx;
    const ExecSearch search(app, sys, space, config);
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < search.triples().size(); ++i) {
      n += search.Sweep(i).evaluated;
    }
    return n;
  };
  RunContext running;
  ASSERT_GT(evaluated(&running), 0u);
  EXPECT_EQ(evaluated(&cancelled_), 0u);
}

TEST_F(CancellationTest, SystemSearchDesignStopsBeforeTheFirstSize) {
  // A stopped design search returns an infeasible entry either way; the
  // sizes it counted as searched show whether it went on building them.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const bool was_enabled = metrics.enabled();
  const obs::MetricsSnapshot saved = metrics.Snapshot();
  metrics.Reset();
  metrics.Enable();
  ThreadPool pool(1);
  SystemSearchOptions options;
  options.budget = 2e6;
  options.size_step = 32;
  options.ctx = &cancelled_;
  const SystemSearchEntry entry =
      EvaluateDesign(presets::Megatron22B(), {40.0, 0.0},
                     SearchSpace::MegatronBaseline(), options, pool);
  std::map<std::string, std::uint64_t> counters = metrics.Snapshot().counters;
  metrics.Reset();
  metrics.Ingest(saved, "");
  if (!was_enabled) metrics.Disable();

  EXPECT_GT(entry.max_gpus, options.size_step);
  EXPECT_FALSE(entry.feasible);
  EXPECT_EQ(counters["system_search.sizes_searched"], 0u);
}

TEST_F(CancellationTest, ScalingSweepStopsBeforeTheFirstSize) {
  ThreadPool pool(1);
  ScalingOptions options;
  options.sizes = SizeRange(64, 256, 64);
  options.ctx = &cancelled_;
  EXPECT_TRUE(ScalingSweep(presets::Megatron22B(), A100(64),
                           SearchSpace::MegatronBaseline(), options, pool)
                  .empty());
}

TEST_F(CancellationTest, StudyRunStopsBeforeTheFirstRow) {
  const Study study = Study::FromJson(json::Parse(R"({
    "application": "megatron_22b",
    "system": "a100_80g",
    "num_procs": 64,
    "base_execution": {"batch_size": 64, "recompute": "full"},
    "sweep": {"tensor_par": [1, 2, 4, 8], "data_par": "auto"}
  })"));
  ASSERT_EQ(study.Run().size(), 4u);
  EXPECT_TRUE(study.Run(&cancelled_).empty());
}

std::vector<Measurement> TwoMeasurements() {
  std::vector<Measurement> ms;
  for (std::int64_t batch : {256, 512}) {
    Measurement m;
    m.app = presets::Gpt3_175B();
    m.exec.num_procs = 512;
    m.exec.tensor_par = 8;
    m.exec.pipeline_par = 8;
    m.exec.data_par = 8;
    m.exec.batch_size = batch;
    m.exec.recompute = Recompute::kFull;
    m.measured_time = Seconds(100.0);
    ms.push_back(m);
  }
  return ms;
}

TEST_F(CancellationTest, CalibrationErrorStopsBeforeTheFirstMeasurement) {
  // A stopped run averages over the measurements it evaluated: none.
  presets::SystemOptions o;
  o.num_procs = 512;
  const System sys = presets::A100(o);
  ASSERT_GT(CalibrationError(sys, TwoMeasurements()), 0.0);
  EXPECT_EQ(CalibrationError(sys, TwoMeasurements(), &cancelled_), 0.0);
}

TEST_F(CancellationTest, CalibrationSearchStopsBeforeTheFirstStep) {
  // A stopped golden-section search keeps its first bracket, [lo, hi].
  presets::SystemOptions o;
  o.num_procs = 512;
  const System sys = presets::A100(o);
  const CalibrationResult stopped = CalibrateMatrixScale(
      sys, TwoMeasurements(), 0.5, 2.0, 1e-4, &cancelled_);
  EXPECT_EQ(stopped.scale, 1.25);
}

TEST_F(CancellationTest, AuditStopsBeforeTheFirstProcessorCount) {
  // Building a count's system rejects a count below 1, so the error shows
  // whether a stopped audit still builds systems for its counts.
  AuditOptions options;
  options.proc_counts = {0};
  EXPECT_THROW(
      (void)AuditPair(presets::Megatron22B(), A100(64), options),
      ConfigError);
  options.ctx = &cancelled_;
  const AuditReport report =
      AuditPair(presets::Megatron22B(), A100(64), options);
  EXPECT_EQ(report.evaluations, 0u);
}

TEST_F(CancellationTest, AuditStopsBetweenSplits) {
  // Every evaluation fails and the budget allows one failure, so the run
  // stops inside the first split; it finishes that split and starts no
  // other. The audit records each failure as it happens.
  testing::FaultPlan plan;
  plan.seed = 5;
  plan.error_rate = 1.0;
  testing::FaultInjector::Global().Configure(plan);
  AuditOptions options;
  options.proc_counts = {64};
  options.max_splits = 1;
  RunContext one_split_ctx;
  options.ctx = &one_split_ctx;
  const std::uint64_t one_split =
      AuditPair(presets::Megatron22B(), A100(64), options).evaluations;
  options.max_splits = 8;
  RunContext all_ctx;
  options.ctx = &all_ctx;
  const std::uint64_t all =
      AuditPair(presets::Megatron22B(), A100(64), options).evaluations;
  ASSERT_LT(one_split, all);

  RunContext ctx;
  ctx.set_failure_budget(1);
  options.ctx = &ctx;
  const AuditReport stopped =
      AuditPair(presets::Megatron22B(), A100(64), options);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kFailureBudget);
  EXPECT_EQ(stopped.evaluations, one_split);
}

}  // namespace
}  // namespace calculon
