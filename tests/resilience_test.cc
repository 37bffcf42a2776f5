// End-to-end resilience: checkpoint/resume of study sweeps, cancellation
// latency of the execution search, and degraded-run reporting of the system
// search. The acceptance property is bit-identical output: a run killed
// mid-sweep and resumed from its checkpoint must produce exactly the CSV
// and best-configuration a never-interrupted run produces.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "hw/presets.h"
#include "models/presets.h"
#include "runner/study.h"
#include "search/exec_search.h"
#include "search/system_search.h"
#include "testing/fault_injection.h"
#include "util/mathutil.h"
#include "util/strings.h"

namespace calculon {
namespace {

// Tests here drive the process-wide fault injector; always leave it
// disabled for whoever runs next.
class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { testing::FaultInjector::Global().Reset(); }

  static std::string TempPath(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            StrFormat("calculon_%s_%d.json", tag.c_str(),
                      static_cast<int>(::getpid())))
        .string();
  }
};

// 4 tensor_par x 4 pipeline_par x 3 recompute = 48 rows on 64 GPUs.
json::Value GridSpec() {
  return json::Parse(R"({
    "application": "gpt3_175b",
    "system": "a100_80g",
    "num_procs": 64,
    "base_execution": {"batch_size": 64, "microbatch": 1},
    "sweep": {
      "tensor_par": [1, 2, 4, 8],
      "pipeline_par": [1, 2, 4, 8],
      "data_par": "auto",
      "recompute": ["none", "attn", "full"]
    }
  })");
}

TEST_F(ResilienceTest, EnumerateIsDeterministicAndOrdersTheCrossProduct) {
  const Study study = Study::FromJson(GridSpec());
  const std::vector<Execution> a = study.Enumerate();
  const std::vector<Execution> b = study.Enumerate();
  ASSERT_EQ(a.size(), 48u);
  ASSERT_EQ(b.size(), 48u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ToJson().Dump(), b[i].ToJson().Dump()) << "row " << i;
    EXPECT_EQ(a[i].tensor_par * a[i].pipeline_par * a[i].data_par, 64);
  }
  // The fingerprint is stable for the same spec and distinct for an edit.
  EXPECT_EQ(study.Fingerprint(), Study::FromJson(GridSpec()).Fingerprint());
  json::Value edited = GridSpec();
  edited["num_procs"] = 128;
  EXPECT_NE(study.Fingerprint(), Study::FromJson(edited).Fingerprint());
}

TEST_F(ResilienceTest, ResilientRunMatchesThePlainRunner) {
  const Study study = Study::FromJson(GridSpec());
  const StudyRun run = study.RunResilient();
  EXPECT_TRUE(run.status.complete);
  EXPECT_FALSE(run.status.degraded());
  EXPECT_EQ(run.total_rows, 48u);
  EXPECT_EQ(run.resumed_rows, 0u);
  EXPECT_EQ(run.Csv(), StudyCsv(study.Run()));
  EXPECT_TRUE(run.best.found);
}

// The acceptance test: the same seeded fault plan drives three runs.
//  (1) uninterrupted            -> the reference output
//  (2) failure budget of 1      -> deterministically killed at the first
//                                  injected fault, checkpointing every row
//  (3) resumed from (2)'s file  -> must complete and match (1) exactly
// Fault keys are row indices, so the resumed tail replays the same faults.
TEST_F(ResilienceTest, KilledAndResumedStudyIsBitIdentical) {
  const Study study = Study::FromJson(GridSpec());
  auto& faults = testing::FaultInjector::Global();
  testing::FaultPlan plan;
  plan.seed = 31337;
  plan.error_rate = 0.25;

  faults.Configure(plan);
  const StudyRun reference = study.RunResilient();
  ASSERT_TRUE(reference.status.complete);
  ASSERT_TRUE(reference.best.found);

  const std::string path = TempPath("study_ckpt");
  std::remove(path.c_str());

  faults.Configure(plan);
  RunContext interrupt_ctx;
  interrupt_ctx.set_failure_budget(1);
  StudyRunOptions interrupted_options;
  interrupted_options.ctx = &interrupt_ctx;
  interrupted_options.checkpoint_path = path;
  interrupted_options.checkpoint_every = 1;
  const StudyRun interrupted = study.RunResilient(interrupted_options);
  ASSERT_FALSE(interrupted.status.complete);
  EXPECT_EQ(interrupted.status.stop_reason, StopReason::kFailureBudget);
  EXPECT_EQ(interrupted.status.failures, 1u);
  ASSERT_LT(interrupted.csv_rows.size(), interrupted.total_rows);
  ASSERT_TRUE(std::filesystem::exists(path));

  faults.Configure(plan);
  RunContext resume_ctx;
  StudyRunOptions resume_options;
  resume_options.ctx = &resume_ctx;
  resume_options.checkpoint_path = path;
  resume_options.resume = true;
  const StudyRun resumed = study.RunResilient(resume_options);
  EXPECT_EQ(resumed.resumed_rows, interrupted.csv_rows.size());
  EXPECT_TRUE(resumed.status.complete);
  EXPECT_EQ(resumed.Csv(), reference.Csv());
  ASSERT_TRUE(resumed.best.found);
  EXPECT_EQ(resumed.best.row, reference.best.row);
  EXPECT_EQ(resumed.best.sample_rate, reference.best.sample_rate);  // exact
  EXPECT_EQ(resumed.best.exec.ToJson().Dump(),
            reference.best.exec.ToJson().Dump());

  std::remove(path.c_str());
}

TEST_F(ResilienceTest, ResumeOfACompleteRunIsANoop) {
  const Study study = Study::FromJson(GridSpec());
  const std::string path = TempPath("study_done");
  std::remove(path.c_str());

  StudyRunOptions options;
  options.checkpoint_path = path;
  const StudyRun first = study.RunResilient(options);
  ASSERT_TRUE(first.status.complete);

  options.resume = true;
  const StudyRun again = study.RunResilient(options);
  EXPECT_EQ(again.resumed_rows, again.total_rows);
  EXPECT_TRUE(again.status.complete);
  EXPECT_EQ(again.Csv(), first.Csv());
  EXPECT_EQ(again.best.row, first.best.row);

  std::remove(path.c_str());
}

TEST_F(ResilienceTest, ResumeRejectsACheckpointFromADifferentStudy) {
  const Study study = Study::FromJson(GridSpec());
  const std::string path = TempPath("study_mismatch");
  std::remove(path.c_str());

  StudyRunOptions options;
  options.checkpoint_path = path;
  (void)study.RunResilient(options);

  json::Value other_spec = GridSpec();
  other_spec["base_execution"]["batch_size"] = 128;
  const Study other = Study::FromJson(other_spec);
  StudyRunOptions resume_options;
  resume_options.checkpoint_path = path;
  resume_options.resume = true;
  EXPECT_THROW((void)other.RunResilient(resume_options), ConfigError);

  // Resume without a path to load from is a usage error, not a silent
  // fresh start.
  StudyRunOptions no_path;
  no_path.resume = true;
  EXPECT_THROW((void)study.RunResilient(no_path), ConfigError);

  std::remove(path.c_str());
}

// The resumed run compares every later row with the checkpoint's best and
// writes it to its next checkpoint, so a best that is not one of the
// completed rows, as enumerated, with a finite positive rate, is corrupt.
TEST_F(ResilienceTest, ResumeRejectsACorruptCheckpointBest) {
  // 16 rows on 64 GPUs, with feasible rows among the first 8.
  const Study study = Study::FromJson(json::Parse(R"({
    "application": "megatron_22b",
    "system": "a100_80g",
    "num_procs": 64,
    "base_execution": {"batch_size": 64, "recompute": "full"},
    "sweep": {"microbatch": [1, 2], "tensor_par": [8, 4, 2, 1],
              "pipeline_par": [1, 2], "data_par": "auto"}
  })"));
  const std::vector<Execution> rows = study.Enumerate();
  ASSERT_EQ(rows.size(), 16u);
  const std::string path = TempPath("study_bad_best");
  std::remove(path.c_str());
  // The checkpoint of a run stopped after 8 rows.
  StudyRunOptions partial;
  partial.checkpoint_path = path;
  partial.checkpoint_every = 8;
  {
    StudyCommit commit(study, partial);
    StageTable stages(study.application, study.system);
    for (std::uint64_t i = 0; i < 8; ++i) {
      commit.Commit(EvaluateStudyRow(stages, rows[i], i));
    }
  }
  const json::Value checkpoint = json::ParseFile(path);
  const json::Value& best = checkpoint.at("best");
  ASSERT_TRUE(best.GetBool("found", false));
  const std::int64_t best_row = best.at("row").AsInt();
  ASSERT_LT(best_row, 8);

  StudyRunOptions resume;
  resume.checkpoint_path = path;
  resume.resume = true;
  auto expect_rejected = [&](const std::string& text, const char* what) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << text;
    }
    try {
      (void)study.RunResilient(resume);
      ADD_FAILURE() << what << ": the resume accepted the checkpoint";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("its best"), std::string::npos)
          << what << ": " << e.what();
    }
  };
  auto with_best = [&](const json::Value& row, const json::Value& rate) {
    json::Value edited = checkpoint;
    edited["best"]["row"] = row;
    edited["best"]["sample_rate"] = rate;
    return edited.Dump(2);
  };
  // 1e999 parses to infinity, which no checkpoint write can serialize.
  std::string infinite = with_best(best_row, 7777777.5);
  infinite.replace(infinite.find("7777777.5"), 9, "1e999");
  expect_rejected(infinite, "an infinite rate");
  expect_rejected(with_best(99999, 1e30), "a row past the watermark");
  expect_rejected(with_best(-1, -5.0), "a negative row and rate");
  json::Value moved = checkpoint;
  moved["best"]["execution"] =
      rows[static_cast<std::size_t>(best_row + 1) % 8].ToJson();
  expect_rejected(moved.Dump(2), "another row's execution");

  std::remove(path.c_str());
}

TEST_F(ResilienceTest, StudyDeadlineStopsBeforeAnyRow) {
  const Study study = Study::FromJson(GridSpec());
  RunContext ctx;
  ctx.SetDeadline(0.0);
  StudyRunOptions options;
  options.ctx = &ctx;
  const StudyRun run = study.RunResilient(options);
  EXPECT_TRUE(run.csv_rows.empty());
  EXPECT_FALSE(run.status.complete);
  EXPECT_EQ(run.status.stop_reason, StopReason::kDeadline);
}

// Cancellation latency, deterministic half: a context cancelled before the
// search starts must prevent any of the grid's triples from being claimed.
TEST_F(ResilienceTest, PreCancelledExecSearchCompletesNoItems) {
  const Application app = presets::ApplicationByName("gpt3_175b");
  const System sys = presets::SystemByName("a100_80g").WithNumProcs(64);
  ThreadPool pool(4);
  RunContext ctx;
  ctx.Cancel();
  SearchConfig config;
  config.ctx = &ctx;
  const SearchResult r = FindOptimalExecution(
      app, sys, SearchSpace::MegatronBaseline(), config, pool);
  EXPECT_EQ(r.evaluated, 0u);
  EXPECT_FALSE(r.status.complete);
  EXPECT_EQ(r.status.items_completed, 0u);
  EXPECT_LT(r.status.items_completed, FactorTriples(64).size());
}

// Cancellation latency, mid-flight half: injected delays slow every
// evaluation down so a cancel issued shortly after the search starts lands
// while most of the grid is still unclaimed. The acceptance bound is the
// completed-item count staying below the full grid size.
TEST_F(ResilienceTest, MidRunCancelLeavesTheGridPartiallyEvaluated) {
  auto& faults = testing::FaultInjector::Global();
  testing::FaultPlan plan;
  plan.seed = 1;
  plan.delay_rate = 1.0;
  plan.delay_us = 2000;
  faults.Configure(plan);

  const Application app = presets::ApplicationByName("gpt3_175b");
  const System sys = presets::SystemByName("a100_80g").WithNumProcs(64);
  const std::size_t grid = FactorTriples(64).size();
  ThreadPool pool(4);
  RunContext ctx;
  SearchConfig config;
  config.ctx = &ctx;

  std::atomic<bool> done{false};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ctx.Cancel();
    done.store(true);
  });
  const SearchResult r = FindOptimalExecution(
      app, sys, SearchSpace::MegatronBaseline(), config, pool);
  canceller.join();
  ASSERT_TRUE(done.load());
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_FALSE(r.status.complete);
  // With ~2ms per evaluation and thousands of candidates per triple, the
  // 50ms cancel fires while nearly all triples are still queued.
  EXPECT_LT(r.status.items_completed, grid);
}

TEST_F(ResilienceTest, SystemSearchReportsCompleteAndCancelledRuns) {
  ThreadPool pool(2);
  SystemSearchOptions options;
  options.budget = 2e6;
  options.size_step = 32;
  const std::vector<SystemDesign> designs = {{40.0, 0.0}, {80.0, 0.0}};

  RunContext clean_ctx;
  options.ctx = &clean_ctx;
  const SystemSearchResult clean = RunSystemSearch(
      presets::Megatron22B(), designs, SearchSpace::MegatronBaseline(),
      options, pool);
  EXPECT_EQ(clean.entries.size(), 2u);
  EXPECT_TRUE(clean.status.complete);
  EXPECT_FALSE(clean.status.degraded());

  RunContext cancelled_ctx;
  cancelled_ctx.Cancel();
  options.ctx = &cancelled_ctx;
  const SystemSearchResult stopped = RunSystemSearch(
      presets::Megatron22B(), designs, SearchSpace::MegatronBaseline(),
      options, pool);
  EXPECT_FALSE(stopped.status.complete);
  EXPECT_EQ(stopped.status.stop_reason, StopReason::kCancelled);
  // A cancelled run evaluates no design: the search polls before each.
  EXPECT_TRUE(stopped.entries.empty());
}

}  // namespace
}  // namespace calculon
