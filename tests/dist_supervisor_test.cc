// End-to-end tests of the supervised multi-process fan-out: fork a real
// worker pool over a small study, kill workers with seeded process-level
// faults, and check the survivor rows are bit-identical to the in-process
// run while the quarantine list equals exactly the injected fault set.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/audit.h"
#include "dist/drivers.h"
#include "dist/jobs.h"
#include "dist/supervisor.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "hw/presets.h"
#include "models/presets.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/run_status_json.h"
#include "runner/study.h"
#include "search/exec_search.h"
#include "testing/fault_injection.h"
#include "util/run_context.h"

namespace calculon {
namespace {

json::Value SmallStudySpec() {
  // 16 rows: small enough to fork through quickly, large enough that the
  // pool dispatches several shards.
  return json::Parse(R"({
    "application": "megatron_22b",
    "system": "a100_80g",
    "num_procs": 64,
    "base_execution": {"batch_size": 64, "recompute": "full"},
    "sweep": {
      "tensor_par": [1, 2, 4, 8],
      "pipeline_par": [1, 2],
      "data_par": "auto",
      "microbatch": [1, 4]
    }
  })");
}

dist::DistOptions FastDist(int workers) {
  dist::DistOptions d;
  d.workers = workers;
  d.shard_size = 4;
  d.max_attempts = 3;
  d.backoff_base_ms = 1;  // keep retry loops fast in tests
  d.backoff_max_ms = 8;
  return d;
}

// The items whose seeded fault decision is a process-level kind — the
// exact set the supervised run must quarantine. A worker consults key
// item << shift: 0 for study rows, 32 for an exec search's triples.
std::set<std::uint64_t> ExpectedProcessFaultItems(
    const testing::FaultPlan& plan, std::uint64_t num_items, int shift = 0) {
  testing::FaultInjector injector;
  injector.Configure(plan);
  std::set<std::uint64_t> items;
  for (std::uint64_t i = 0; i < num_items; ++i) {
    if (testing::IsProcessFault(injector.Decide(i << shift))) items.insert(i);
  }
  return items;
}

// The a100_80g preset at 64 processors, the system the searches run on.
System A100With64Procs() {
  presets::SystemOptions so;
  so.num_procs = 64;
  return presets::A100(so);
}

// Search entries as %.17g JSON text: equal strings mean equal double bit
// patterns.
std::vector<std::string> EntryTexts(const std::vector<SearchEntry>& entries) {
  std::vector<std::string> out;
  for (const SearchEntry& e : entries) {
    out.push_back(e.exec.ToJson().Dump() + e.stats.ToJson().Dump());
  }
  return out;
}

// `n` audit pairs of megatron_22b on a100_80g and h100_80g in turn, each
// labelled with its preset and given its own fault-key range.
std::vector<dist::AuditPairSpec> AuditPairs(std::size_t n) {
  std::vector<dist::AuditPairSpec> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    const char* system = i % 2 == 0 ? "a100_80g" : "h100_80g";
    pairs.push_back(dist::AuditPairSpec{presets::Megatron22B(),
                                        presets::SystemByName(system), system,
                                        pairs.size() << 32});
  }
  return pairs;
}

// A small audit grid; {0} makes every AuditPair throw ("system needs >= 1
// processor").
analysis::AuditOptions SmallAuditOptions(
    std::vector<std::int64_t> proc_counts = {8, 16}) {
  analysis::AuditOptions options;
  options.proc_counts = std::move(proc_counts);
  options.max_splits = 4;
  return options;
}

// Starts a thread that cancels `ctx` once a row is committed (or after
// 30 s) and records when in `*at`, if given.
std::thread CancelOnceARowCommits(
    RunContext& ctx, std::chrono::steady_clock::time_point* at = nullptr) {
  return std::thread([&ctx, at] {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (ctx.items_completed() == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (at != nullptr) *at = std::chrono::steady_clock::now();
    ctx.Cancel();
  });
}

TEST(DistSupervisor, FaultFreeStudyIsBitIdenticalToInProcess) {
  const Study study = Study::FromJson(SmallStudySpec());

  const StudyRunOptions options;
  const StudyRun reference = study.RunResilient(options);
  const StudyRun supervised =
      dist::RunStudySupervised(study, options, FastDist(3));

  ASSERT_EQ(supervised.csv_rows.size(), reference.csv_rows.size());
  for (std::size_t i = 0; i < reference.csv_rows.size(); ++i) {
    EXPECT_EQ(supervised.csv_rows[i], reference.csv_rows[i]) << "row " << i;
  }
  EXPECT_EQ(supervised.best.found, reference.best.found);
  EXPECT_EQ(supervised.best.row, reference.best.row);
  EXPECT_TRUE(supervised.status.complete);
  EXPECT_FALSE(supervised.status.degraded());
}

// A checkpoint document with the status fields that time the run zeroed:
// two runs of one study differ in nothing else.
json::Value CheckpointWithoutTimes(const std::string& path) {
  json::Value doc = json::ParseFile(path);
  for (const char* field :
       {"elapsed_seconds", "start_unix_seconds", "end_unix_seconds"}) {
    EXPECT_TRUE(doc.at("status").contains(field)) << field;
    doc["status"][field] = 0.0;
  }
  return doc;
}

TEST(DistSupervisor, SupervisedCheckpointIsTheInProcessOne) {
  // The supervisor writes its checkpoints from the rows its commit holds,
  // in pieces; the final one must be the in-process run's, and each the
  // canonical rendering of its own document.
  const Study study = Study::FromJson(SmallStudySpec());
  const std::string dir = ::testing::TempDir();
  StudyRunOptions in_process;
  in_process.checkpoint_path = dir + "calculon_ckpt_in_process.json";
  in_process.checkpoint_every = 7;
  StudyRunOptions supervised = in_process;
  supervised.checkpoint_path = dir + "calculon_ckpt_supervised.json";
  std::remove(in_process.checkpoint_path.c_str());
  std::remove(supervised.checkpoint_path.c_str());

  const StudyRun reference = study.RunResilient(in_process);
  const StudyRun run =
      dist::RunStudySupervised(study, supervised, FastDist(2));
  ASSERT_EQ(run.Csv(), reference.Csv());
  ASSERT_TRUE(run.status.complete);

  std::ifstream in(supervised.checkpoint_path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, json::ParseFile(supervised.checkpoint_path).Dump(2) + "\n");
  EXPECT_EQ(CheckpointWithoutTimes(supervised.checkpoint_path).Dump(2),
            CheckpointWithoutTimes(in_process.checkpoint_path).Dump(2));
  std::remove(in_process.checkpoint_path.c_str());
  std::remove(supervised.checkpoint_path.c_str());
}

// Runs the small study supervised under a seeded abort/segv plan with
// `workers` workers, shards of `shard_size` and `max_attempts`, and checks
// that exactly the injected rows quarantine, each after its own
// max_attempts attempts, and nothing else does: deterministic faults
// re-fire on every retry, and the death of a worker on a fresh range
// blames nobody (at one attempt, a row charged once more would quarantine
// too). The run is degraded but completes.
void ExpectExactlyTheInjectedRowsQuarantine(int workers,
                                            std::uint64_t shard_size,
                                            int max_attempts) {
  SCOPED_TRACE(::testing::Message()
               << workers << " workers, shard " << shard_size << ", "
               << max_attempts << " attempts");
  const Study study = Study::FromJson(SmallStudySpec());
  const std::uint64_t rows = study.Enumerate().size();
  testing::FaultPlan plan;
  plan.seed = 42;
  plan.abort_rate = 0.10;
  plan.segv_rate = 0.10;
  const std::set<std::uint64_t> expected =
      ExpectedProcessFaultItems(plan, rows);
  ASSERT_FALSE(expected.empty()) << "seed injects nothing; pick another";
  ASSERT_LT(expected.size(), rows) << "seed kills everything";
  const StudyRun reference = study.RunResilient(StudyRunOptions{});

  RunContext ctx;
  StudyRunOptions options;
  options.ctx = &ctx;
  dist::DistOptions d = FastDist(workers);
  d.shard_size = shard_size;
  d.max_attempts = max_attempts;
  d.faults_spec = plan.ToSpec();
  const StudyRun supervised = dist::RunStudySupervised(study, options, d);

  std::set<std::uint64_t> quarantined;
  ASSERT_EQ(supervised.csv_rows.size(), reference.csv_rows.size());
  for (std::size_t i = 0; i < reference.csv_rows.size(); ++i) {
    if (supervised.csv_rows[i] == reference.csv_rows[i]) continue;
    quarantined.insert(i);
    EXPECT_NE(supervised.csv_rows[i].find("quarantined"), std::string::npos)
        << "row " << i << " differs but is not a quarantine row";
  }
  EXPECT_EQ(quarantined, expected);
  // Each quarantined row is one FailureRecord on the context.
  const RunStatus status = ctx.Snapshot();
  EXPECT_EQ(status.failures, expected.size());
  const std::string reason =
      "quarantined after " + std::to_string(max_attempts) + " attempts";
  for (const FailureRecord& record : status.failure_samples) {
    EXPECT_EQ(record.reason.rfind(reason, 0), 0u) << record.reason;
  }
  EXPECT_TRUE(supervised.status.complete);
  EXPECT_TRUE(supervised.status.degraded());
  EXPECT_EQ(supervised.status.items_completed, rows);
}

TEST(DistSupervisor, ProcessFaultsQuarantineExactlyTheInjectedItems) {
  ExpectExactlyTheInjectedRowsQuarantine(3, 4, 3);
}

TEST(DistSupervisor, CoalescedShardsQuarantineExactlyTheInjectedItems) {
  // A fresh range writes its acks in batches, so a death there cannot
  // name the item that killed the worker. Even at one attempt per item,
  // only the items whose fault decision is a process kind may quarantine.
  for (const int max_attempts : {1, 2}) {
    ExpectExactlyTheInjectedRowsQuarantine(3, 4, max_attempts);
  }
}

TEST(DistSupervisor, QueuedShardsOfADeadWorkerComeBackUncharged) {
  // One row per shard: cheap shards, so once the rows prove cheap a
  // worker is given 8 of them as one range and a seeded fault kills it
  // part-way through. A worker takes a range's rows in order, so the
  // shards after the one it died on never started and come back as they
  // were.
  for (const int max_attempts : {1, 3}) {
    for (const int workers : {1, 2}) {
      ExpectExactlyTheInjectedRowsQuarantine(workers, 1, max_attempts);
    }
  }
}

TEST(DistSupervisor, WorkerExitingZeroMidShardIsADeathNotASuccess) {
  const Study study = Study::FromJson(SmallStudySpec());
  const std::uint64_t rows = study.Enumerate().size();

  // Every item silently exits 0 before producing a result. The supervisor
  // must treat that as a worker death (retry, then quarantine) — never as
  // a completed shard.
  testing::FaultPlan plan;
  plan.seed = 7;
  plan.exit0_rate = 1.0;

  RunContext ctx;
  StudyRunOptions options;
  options.ctx = &ctx;
  dist::DistOptions d = FastDist(2);
  d.max_attempts = 2;
  d.faults_spec = plan.ToSpec();
  const StudyRun run = dist::RunStudySupervised(study, options, d);

  ASSERT_EQ(run.csv_rows.size(), rows);  // quarantine rows fill the CSV
  EXPECT_EQ(ctx.failures(), rows);
  const RunStatus status = ctx.Snapshot();
  ASSERT_FALSE(status.failure_samples.empty());
  EXPECT_NE(status.failure_samples[0].reason.find("exited with code 0"),
            std::string::npos)
      << status.failure_samples[0].reason;
}

TEST(DistSupervisor, HungWorkerIsKilledByTheActivityTimeout) {
  // One poison item that hangs its worker forever (well past the test).
  const json::Value spec = json::Parse(R"({
    "application": "megatron_22b",
    "system": "a100_80g",
    "num_procs": 64,
    "base_execution": {"batch_size": 64, "recompute": "full"},
    "sweep": {"tensor_par": [8]}
  })");
  const Study study = Study::FromJson(spec);
  ASSERT_EQ(study.Enumerate().size(), 1u);

  testing::FaultPlan plan;
  plan.seed = 1;
  plan.hang_rate = 1.0;
  plan.hang_s = 600.0;

  RunContext ctx;
  StudyRunOptions options;
  options.ctx = &ctx;
  dist::DistOptions d = FastDist(1);
  d.max_attempts = 2;
  d.hang_timeout_s = 0.3;
  d.faults_spec = plan.ToSpec();
  const StudyRun run = dist::RunStudySupervised(study, options, d);

  ASSERT_EQ(run.csv_rows.size(), 1u);
  EXPECT_EQ(ctx.failures(), 1u);
  const RunStatus status = ctx.Snapshot();
  ASSERT_EQ(status.failure_samples.size(), 1u);
  EXPECT_NE(status.failure_samples[0].reason.find("hung"), std::string::npos)
      << status.failure_samples[0].reason;
}

TEST(DistSupervisor, WorkersThatCannotStartHitTheStartupCap) {
  // Each worker parses the fault spec of its init frame and dies on one it
  // rejects, before it is ready. The supervisor gives up after a bounded
  // number of such deaths instead of respawning forever.
  const std::string log_dir = ::testing::TempDir() + "calculon_startup_cap_" +
                              std::to_string(::getpid());
  std::filesystem::create_directories(log_dir);
  dist::DistOptions options = FastDist(2);
  options.faults_spec = "bogus=1";
  options.worker_log_dir = log_dir;  // keeps their stderr out of the test's
  std::string what = "no ConfigError";
  try {
    dist::RunSupervised(
        *dist::MakeStudyJob(Study::FromJson(SmallStudySpec())), options,
        dist::SupervisorCallbacks{});
  } catch (const ConfigError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("consecutive workers died before becoming ready"),
            std::string::npos)
      << what;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  std::filesystem::remove_all(log_dir);
}

TEST(DistSupervisor, WorkerLogsGoToADirectoryTheSupervisorCreates) {
  // The log directory does not exist yet. The supervisor makes it before
  // the first fork, so the stderr of workers that cannot start lands in
  // their logs.
  const std::string root = ::testing::TempDir() + "calculon_new_logs_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  const std::string log_dir = root + "/nested/logs";
  dist::DistOptions options = FastDist(2);
  options.faults_spec = "bogus=1";
  options.worker_log_dir = log_dir;
  EXPECT_THROW(
      dist::RunSupervised(
          *dist::MakeStudyJob(Study::FromJson(SmallStudySpec())), options,
          dist::SupervisorCallbacks{}),
      ConfigError);
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  std::ifstream log(log_dir + "/worker-0.log");
  std::stringstream text;
  text << log.rdbuf();
  EXPECT_NE(text.str().find("fault spec: unknown key 'bogus'"),
            std::string::npos)
      << "worker-0.log: '" << text.str() << "'";
  std::filesystem::remove_all(root);
}

TEST(DistSupervisor, AWorkerLogDirectoryThatCannotBeMadeFailsBeforeAnyFork) {
  // A path under a regular file: no directory can be made there.
  const std::string file = ::testing::TempDir() + "calculon_log_file_" +
                           std::to_string(::getpid());
  std::ofstream(file) << "not a directory\n";
  const std::string log_dir = file + "/logs";
  dist::DistOptions options = FastDist(2);
  options.worker_log_dir = log_dir;
  std::uint64_t items = 0;
  dist::SupervisorCallbacks callbacks;
  callbacks.on_item = [&](std::uint64_t, std::string_view) {
    ++items;
    return true;
  };
  std::string what = "no ConfigError";
  try {
    dist::RunSupervised(
        *dist::MakeStudyJob(Study::FromJson(SmallStudySpec())), options,
        callbacks);
  } catch (const ConfigError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("cannot create the worker log directory '" + log_dir +
                      "'"),
            std::string::npos)
      << what;
  // No worker ran: any forked worker would have sent rows.
  EXPECT_EQ(items, 0u);
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  std::filesystem::remove(file);
}

TEST(DistSupervisor, SupervisedEvalMetricsMatchInProcessExactly) {
  // Workers instrument their own sweeps and the supervisor merges the
  // shipped snapshots; the aggregated counts must equal the in-process
  // engine's to the last evaluation.
  const Application app = presets::Megatron22B();
  const System sys = A100With64Procs();
  SearchConfig config;
  config.batch_size = 64;
  config.top_k = 4;

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  metrics.Enable();
  {
    ThreadPool pool(2);
    (void)FindOptimalExecution(app, sys, SearchSpace::MegatronBaseline(),
                               config, pool);
  }
  const obs::MetricsSnapshot in_process = metrics.Snapshot();
  ASSERT_GT(in_process.counters.at("exec_search.evaluated"), 0u);

  metrics.Reset();
  const SearchResult supervised = dist::FindOptimalExecutionSupervised(
      app, sys, SearchSpace::MegatronBaseline(), config, FastDist(3));
  const obs::MetricsSnapshot merged = metrics.Snapshot();
  metrics.Reset();
  metrics.Disable();

  // Counter and latency-histogram sample counts line up exactly with both
  // the in-process run and the wire-merged SearchResult tallies.
  EXPECT_EQ(merged.counters.at("exec_search.evaluated"),
            in_process.counters.at("exec_search.evaluated"));
  EXPECT_EQ(merged.counters.at("exec_search.evaluated"), supervised.evaluated);
  EXPECT_EQ(merged.counters.at("exec_search.feasible"),
            in_process.counters.at("exec_search.feasible"));
  EXPECT_EQ(merged.counters.at("exec_search.culled_triples"),
            in_process.counters.at("exec_search.culled_triples"));
  EXPECT_EQ(merged.histograms.at("exec_search.eval_latency_us").count,
            in_process.histograms.at("exec_search.eval_latency_us").count);
  EXPECT_EQ(merged.histograms.at("exec_search.eval_latency_us").count,
            supervised.evaluated);
  // The model's stage calls are counted per triple too, so they merge to
  // the in-process counts exactly.
  std::size_t stages = 0;
  for (const auto& [name, value] : in_process.counters) {
    if (name.rfind("model.stage.", 0) != 0) continue;
    ++stages;
    ASSERT_TRUE(merged.counters.contains(name)) << name;
    EXPECT_EQ(merged.counters.at(name), value) << name;
  }
  EXPECT_EQ(stages, 7u);
  EXPECT_LT(in_process.counters.at("model.stage.candidate.calls"),
            supervised.evaluated);
  // The per-worker tagged copies exist alongside the aggregate and sum to
  // the same total.
  std::uint64_t tagged = 0;
  for (const auto& [name, value] : merged.counters) {
    if (name.rfind("dist.worker.", 0) == 0 &&
        name.find(".exec_search.evaluated") != std::string::npos) {
      tagged += value;
    }
  }
  EXPECT_EQ(tagged, supervised.evaluated);

  // Both paths count one completed item per committed triple.
  ThreadPool pool(2);
  const SearchResult in_process_result = FindOptimalExecution(
      app, sys, SearchSpace::MegatronBaseline(), config, pool);
  EXPECT_EQ(supervised.status.items_completed,
            in_process_result.status.items_completed);
  EXPECT_EQ(supervised.status.items_completed,
            SearchTriples(app, sys, SearchSpace::MegatronBaseline(), config)
                .size());
}

TEST(DistSupervisor, WorkerHistogramOfAnotherLayoutIsACorruptFrame) {
  // The supervisor's registry already holds the latency histogram with
  // other bounds than the workers', so their snapshots cannot be merged.
  // Each is rejected on arrival as a corrupt frame (its worker dies with
  // its shard acked), and the search returns its results instead of
  // throwing from the merge after them.
  const Application app = presets::Megatron22B();
  const System sys = A100With64Procs();
  const SearchSpace space = SearchSpace::MegatronBaseline();
  SearchConfig config;
  config.batch_size = 64;
  config.top_k = 4;
  ThreadPool pool(1);
  const SearchResult reference =
      FindOptimalExecution(app, sys, space, config, pool);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  metrics.Enable();
  metrics.MergeHistogram("exec_search.eval_latency_us",
                         obs::HistogramSnapshot::WithLayout({1.0, 2.0}));
  SearchResult supervised;
  EXPECT_NO_THROW(supervised = dist::FindOptimalExecutionSupervised(
                      app, sys, space, config, FastDist(2)));
  const obs::MetricsSnapshot after = metrics.Snapshot();
  metrics.Reset();
  metrics.Disable();

  ASSERT_FALSE(reference.best.empty());
  EXPECT_EQ(EntryTexts(supervised.best), EntryTexts(reference.best));
  EXPECT_EQ(supervised.evaluated, reference.evaluated);
  EXPECT_EQ(supervised.feasible, reference.feasible);
  EXPECT_EQ(supervised.status.items_completed,
            reference.status.items_completed);
  EXPECT_EQ(after.histograms.at("exec_search.eval_latency_us").bounds,
            (std::vector<double>{1.0, 2.0}));
}

TEST(DistSupervisor, WorkerCountsPastTheExportLimitAreACorruptFrame) {
  // The supervisor's registry already holds exec_search.evaluated at
  // kMaxCount, so no worker's count of it can be added. Each snapshot is
  // rejected on arrival as a corrupt frame, the search returns its
  // results, and the registry still exports a document FromJson takes.
  const Application app = presets::Megatron22B();
  const System sys = A100With64Procs();
  const SearchSpace space = SearchSpace::MegatronBaseline();
  SearchConfig config;
  config.batch_size = 64;
  config.top_k = 4;
  ThreadPool pool(1);
  const SearchResult reference =
      FindOptimalExecution(app, sys, space, config, pool);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  metrics.Enable();
  metrics.GetCounter("exec_search.evaluated")->Increment(obs::kMaxCount);
  SearchResult supervised;
  EXPECT_NO_THROW(supervised = dist::FindOptimalExecutionSupervised(
                      app, sys, space, config, FastDist(2)));
  const obs::MetricsSnapshot after = metrics.Snapshot();
  const json::Value exported = metrics.ToJson();
  metrics.Reset();
  metrics.Disable();

  ASSERT_FALSE(reference.best.empty());
  EXPECT_EQ(EntryTexts(supervised.best), EntryTexts(reference.best));
  EXPECT_EQ(supervised.evaluated, reference.evaluated);
  EXPECT_EQ(supervised.status.items_completed,
            reference.status.items_completed);
  EXPECT_EQ(after.counters.at("exec_search.evaluated"), obs::kMaxCount);
  EXPECT_NO_THROW((void)obs::MetricsSnapshot::FromJson(exported));
}

TEST(DistSupervisor, ShutdownDrainSkipsAnAbandonedRunToReachTheTelemetry) {
  // One worker takes the whole study as one shard, each row delayed 10 ms,
  // so it writes one run per row. The run is cancelled once a row is
  // committed: the worker's later runs arrive only in the shutdown drain,
  // ahead of its first metrics snapshots (at the end of the shard and on
  // exit), which the drain reaches only by skipping the runs' lines.
  const Study study = Study::FromJson(SmallStudySpec());
  const std::uint64_t n = study.Enumerate().size();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  metrics.Enable();
  dist::DistOptions d = FastDist(1);
  d.shard_size = n;
  d.faults_spec = "seed=1,delay=1.0,delay_us=10000";
  RunContext ctx;
  StudyRunOptions options;
  options.ctx = &ctx;
  std::thread canceller = CancelOnceARowCommits(ctx);
  const StudyRun run = dist::RunStudySupervised(study, options, d);
  canceller.join();
  const obs::MetricsSnapshot merged = metrics.Snapshot();
  metrics.Reset();
  metrics.Disable();

  EXPECT_FALSE(run.status.complete);
  EXPECT_GE(run.csv_rows.size(), 1u);
  EXPECT_LT(run.csv_rows.size(), n);
  // The worker's snapshots count every row it evaluated: the whole shard.
  const std::string delays = "dist.worker.0.faults.injected.delay";
  ASSERT_TRUE(merged.counters.contains(delays));
  EXPECT_EQ(merged.counters.at(delays), n);
}

TEST(DistSupervisor, StopWithAHungWorkerShutsDownWithinOneDeadline) {
  // One worker takes a shard of 4 rows: row 0 is delayed 5 ms, so its
  // result flushes on its own, and row 1 hangs for 600 s. The run is
  // cancelled once row 0 is committed. The hang timeout lies beyond the
  // test, so the stop ends the hung row: the worker never reads "exit",
  // and it is SIGKILLed at the shutdown drain's 2 s deadline.
  testing::FaultPlan plan = testing::FaultPlan::FromSpec(
      "delay=0.5,delay_us=5000,hang=0.5,hang_s=600");
  testing::FaultInjector injector;
  do {
    injector.Configure(plan);
  } while ((injector.Decide(0) != testing::FaultAction::kDelay ||
            injector.Decide(1) != testing::FaultAction::kHang) &&
           ++plan.seed < 1000);
  ASSERT_LT(plan.seed, 1000u) << "no seed delays row 0 and hangs row 1";

  const Study study = Study::FromJson(SmallStudySpec());
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  metrics.Enable();
  dist::DistOptions d = FastDist(1);
  d.hang_timeout_s = 30.0;
  d.faults_spec = plan.ToSpec();
  RunContext ctx;
  StudyRunOptions options;
  options.ctx = &ctx;
  std::chrono::steady_clock::time_point cancelled;
  std::thread canceller = CancelOnceARowCommits(ctx, &cancelled);
  const StudyRun run = dist::RunStudySupervised(study, options, d);
  const auto returned = std::chrono::steady_clock::now();
  canceller.join();
  metrics.Reset();
  metrics.Disable();

  EXPECT_LT(std::chrono::duration<double>(returned - cancelled).count(), 3.0);
  EXPECT_FALSE(run.status.complete);
  // Every worker was reaped: this process has no child left.
  const pid_t child = ::waitpid(-1, nullptr, WNOHANG);
  const int error = errno;
  EXPECT_EQ(child, -1);
  EXPECT_EQ(error, ECHILD);
}

TEST(DistSupervisor, TelemetryOnKeepsStudyOutputBitIdentical) {
  const Study study = Study::FromJson(SmallStudySpec());
  const StudyRunOptions options;
  const StudyRun reference = study.RunResilient(options);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  metrics.Reset();
  metrics.Enable();
  recorder.Start();
  const StudyRun supervised =
      dist::RunStudySupervised(study, options, FastDist(3));
  recorder.Stop();
  const json::Value trace = recorder.ToJson();
  metrics.Reset();
  metrics.Disable();

  // Telemetry rides observational side channels, never the reorder
  // buffers: rows and best-candidate selection stay bit-identical.
  ASSERT_EQ(supervised.csv_rows.size(), reference.csv_rows.size());
  for (std::size_t i = 0; i < reference.csv_rows.size(); ++i) {
    EXPECT_EQ(supervised.csv_rows[i], reference.csv_rows[i]) << "row " << i;
  }
  EXPECT_EQ(supervised.best.row, reference.best.row);

  // The merged timeline carries the supervisor lane (pid 1) plus at least
  // one real worker lane with its process_name metadata.
  std::set<int> pids;
  std::set<int> named_worker_pids;
  for (const json::Value& e : trace.at("traceEvents").AsArray()) {
    const int pid = static_cast<int>(e.at("pid").AsInt());
    pids.insert(pid);
    if (e.at("ph").AsString() == "M" &&
        e.at("name").AsString() == "process_name" && pid != 1) {
      named_worker_pids.insert(pid);
    }
  }
  EXPECT_TRUE(pids.count(1) > 0);
  EXPECT_GE(pids.size(), 2u);
  EXPECT_FALSE(named_worker_pids.empty());
}

TEST(DistSupervisor, QuarantineAttachesAFlightRecorderPostMortem) {
  const Study study = Study::FromJson(SmallStudySpec());
  const std::uint64_t rows = study.Enumerate().size();

  testing::FaultPlan plan;
  plan.seed = 42;
  plan.segv_rate = 0.10;
  ASSERT_FALSE(ExpectedProcessFaultItems(plan, rows).empty());

  const std::string log_dir = ::testing::TempDir() + "calculon_flight_pm";
  std::filesystem::create_directories(log_dir);

  RunContext ctx;
  StudyRunOptions options;
  options.ctx = &ctx;
  dist::DistOptions d = FastDist(2);
  d.faults_spec = plan.ToSpec();
  d.worker_log_dir = log_dir;
  (void)dist::RunStudySupervised(study, options, d);

  const RunStatus status = ctx.Snapshot();
  ASSERT_FALSE(status.failure_samples.empty());
  for (const FailureRecord& record : status.failure_samples) {
    ASSERT_FALSE(record.flight_path.empty()) << record.reason;
    ASSERT_TRUE(std::filesystem::exists(record.flight_path))
        << record.flight_path;
    const json::Value doc = json::ParseFile(record.flight_path);
    EXPECT_GE(doc.at("pid").AsInt(), 1);
    EXPECT_FALSE(doc.at("description").AsString().empty());
    // The supervisor blames the first un-acked item of the dead worker's
    // shard, and its record holds the dispatch of that shard.
    EXPECT_EQ(doc.at("suspect").AsInt(),
              static_cast<std::int64_t>(record.item));
    const std::int64_t shard_begin = doc.at("shard").at("begin").AsInt();
    EXPECT_LE(shard_begin, doc.at("suspect").AsInt());
    EXPECT_GT(doc.at("shard").at("end").AsInt(), doc.at("suspect").AsInt());
    const json::Array& events = doc.at("events").AsArray();
    ASSERT_FALSE(events.empty());
    bool saw_shard_begin = false;
    for (const json::Value& e : events) {
      if (e.at("label").AsString() == "shard_begin" &&
          e.at("item").AsInt() == shard_begin) {
        saw_shard_begin = true;
      }
    }
    EXPECT_TRUE(saw_shard_begin);
    // The failure surfaces in the run-status JSON too.
    const json::Value as_json = ToJson(record);
    EXPECT_EQ(as_json.at("flight_path").AsString(), record.flight_path);
  }
  std::filesystem::remove_all(log_dir);
}

TEST(DistSupervisor, ExecSearchQuarantinesReachStatusWithoutAContext) {
  const Application app = presets::Megatron22B();
  const System sys = A100With64Procs();
  const SearchSpace space = SearchSpace::MegatronBaseline();
  SearchConfig config;  // no RunContext
  config.batch_size = 64;
  config.top_k = 4;

  testing::FaultPlan plan;
  plan.seed = 7;
  plan.segv_rate = 0.3;
  const std::uint64_t triples =
      SearchTriples(app, sys, space, config).size();
  const std::set<std::uint64_t> expected =
      ExpectedProcessFaultItems(plan, triples, 32);
  ASSERT_FALSE(expected.empty()) << "seed injects nothing; pick another";
  ASSERT_LT(expected.size(), triples) << "seed kills everything";

  ThreadPool pool(1);
  const SearchResult reference =
      FindOptimalExecution(app, sys, space, config, pool);
  dist::DistOptions d = FastDist(2);
  d.shard_size = 1;
  d.max_attempts = 1;
  d.faults_spec = plan.ToSpec();
  const SearchResult supervised =
      dist::FindOptimalExecutionSupervised(app, sys, space, config, d);

  EXPECT_LT(supervised.evaluated, reference.evaluated);
  EXPECT_EQ(supervised.status.failures, expected.size());
  EXPECT_TRUE(supervised.status.degraded());
  EXPECT_EQ(supervised.status.items_completed, triples - expected.size());
  std::set<std::uint64_t> quarantined;
  for (const FailureRecord& record : supervised.status.failure_samples) {
    quarantined.insert(record.item >> 32);
    EXPECT_NE(record.reason.find("quarantined"), std::string::npos)
        << record.reason;
    EXPECT_EQ(record.fingerprint.rfind("t=", 0), 0u) << record.fingerprint;
  }
  EXPECT_EQ(quarantined, expected);
}

TEST(DistSupervisor, StudyQuarantinesReachStatusWithoutAContext) {
  const Study study = Study::FromJson(SmallStudySpec());
  const std::uint64_t rows = study.Enumerate().size();

  testing::FaultPlan plan;
  plan.seed = 7;
  plan.segv_rate = 0.3;
  const std::set<std::uint64_t> expected =
      ExpectedProcessFaultItems(plan, rows);
  ASSERT_FALSE(expected.empty()) << "seed injects nothing; pick another";
  ASSERT_LT(expected.size(), rows) << "seed kills everything";

  dist::DistOptions d = FastDist(2);
  d.shard_size = 1;
  d.max_attempts = 1;
  d.faults_spec = plan.ToSpec();
  const StudyRun run =
      dist::RunStudySupervised(study, StudyRunOptions{}, d);  // no ctx

  ASSERT_EQ(run.csv_rows.size(), rows);
  EXPECT_TRUE(run.status.complete);
  EXPECT_TRUE(run.status.degraded());
  EXPECT_EQ(run.status.failures, expected.size());
  EXPECT_EQ(run.status.items_completed, rows);
  std::set<std::uint64_t> quarantined;
  for (const FailureRecord& record : run.status.failure_samples) {
    quarantined.insert(record.item);
  }
  EXPECT_EQ(quarantined, expected);
}

TEST(DistSupervisor, SupervisedCollectorsMatchInProcessExactly) {
  // keep_all_rates and keep_pareto travel over the wire: the supervised
  // search, committed in triple order, must equal the one-thread
  // in-process search, committed in the same order, bit for bit.
  const Application app = presets::Megatron22B();
  const System sys = A100With64Procs();
  const SearchSpace space = SearchSpace::SequenceParallel();
  SearchConfig config;
  config.batch_size = 64;
  config.top_k = 8;
  config.keep_all_rates = true;
  config.keep_pareto = true;

  ThreadPool pool(1);
  const SearchResult reference =
      FindOptimalExecution(app, sys, space, config, pool);
  const SearchResult supervised = dist::FindOptimalExecutionSupervised(
      app, sys, space, config, FastDist(2));

  ASSERT_FALSE(reference.best.empty());
  ASSERT_FALSE(reference.pareto.empty());
  EXPECT_EQ(EntryTexts(supervised.best), EntryTexts(reference.best));
  EXPECT_EQ(EntryTexts(supervised.pareto), EntryTexts(reference.pareto));
  ASSERT_EQ(supervised.all_rates.size(), reference.all_rates.size());
  for (std::size_t i = 0; i < reference.all_rates.size(); ++i) {
    EXPECT_EQ(supervised.all_rates[i].raw(), reference.all_rates[i].raw())
        << "rate " << i;
  }
  EXPECT_EQ(supervised.evaluated, reference.evaluated);
  EXPECT_EQ(supervised.feasible, reference.feasible);
  EXPECT_EQ(supervised.all_rates.size(), supervised.feasible);
}

// One frame of a worker's answer; a run header carries the raw result
// lines that followed it.
struct WireFrame {
  json::Value frame;
  std::vector<std::string> lines;
};

// Splits a worker's answer into its frames: each line is a JSON frame,
// except the `count` lines after an "items" header, which are its run.
std::vector<WireFrame> ParseWorkerStream(std::string_view stream) {
  std::vector<WireFrame> frames;
  std::size_t start = 0;
  std::int64_t run_left = 0;
  for (std::size_t nl; (nl = stream.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    const std::string_view line = stream.substr(start, nl - start);
    if (run_left > 0) {
      frames.back().lines.emplace_back(line);
      --run_left;
      continue;
    }
    frames.push_back({json::Parse(line), {}});
    if (frames.back().frame.GetString("type", "") == "items") {
      run_left = frames.back().frame.at("count").AsInt();
    }
  }
  EXPECT_EQ(start, stream.size()) << "a partial line at the end";
  EXPECT_EQ(run_left, 0) << "a run short of its lines at the end";
  return frames;
}

// Checks a worker's answer to the shard [0, n) of the job `spec`: ready,
// then runs whose lines are the results of items 0, 1, ..., n - 1 in
// order, each as the job evaluates it in this process, then shard_done.
// Returns the run sizes.
std::vector<std::size_t> ExpectRunsCoverTheShard(
    const Study& study, const std::vector<WireFrame>& frames,
    std::uint64_t n) {
  std::vector<std::size_t> runs;
  EXPECT_GE(frames.size(), 2u);
  if (frames.size() < 2) return runs;
  EXPECT_EQ(frames.front().frame.GetString("type", ""), "ready");
  const json::Value& done = frames.back().frame;
  EXPECT_EQ(done.GetString("type", ""), "shard_done");
  EXPECT_EQ(done.GetInt("begin", -1), 0);
  EXPECT_EQ(done.GetInt("end", -1), static_cast<std::int64_t>(n));
  const std::unique_ptr<dist::Job> job = dist::MakeStudyJob(study);
  std::uint64_t next = 0;
  for (std::size_t f = 1; f + 1 < frames.size(); ++f) {
    const WireFrame& run = frames[f];
    EXPECT_EQ(run.frame.GetString("type", ""), "items") << "frame " << f;
    EXPECT_EQ(run.frame.GetInt("begin", -1), static_cast<std::int64_t>(next));
    EXPECT_EQ(run.frame.GetInt("count", -1),
              static_cast<std::int64_t>(run.lines.size()));
    EXPECT_FALSE(run.lines.empty()) << "frame " << f;
    runs.push_back(run.lines.size());
    for (const std::string& line : run.lines) {
      EXPECT_EQ(line, job->RunItem(next)) << "item " << next;
      ++next;
    }
  }
  EXPECT_EQ(next, n);
  return runs;
}

// Forks a worker for the job of `study` on the command pipe `cmd` and the
// result channel `res`, sends it init, the shard [0, n) and exit, and
// closes every end but res[0]. Returns the fork's result.
pid_t ForkShardWorker(const Study& study, std::uint64_t n, bool ack_each,
                      const int cmd[2], const int res[2]) {
  const std::unique_ptr<dist::Job> job = dist::MakeStudyJob(study);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(cmd[1]);
    ::close(res[0]);
    ::_exit(dist::WorkerMain(*job, cmd[0], res[1]));
  }
  ::close(cmd[0]);
  ::close(res[1]);
  dist::FrameWriter writer(cmd[1]);
  EXPECT_TRUE(writer.WriteFrame(dist::InitFrame("")));
  json::Value shard;
  shard["type"] = "shard";
  shard["begin"] = 0;
  shard["end"] = static_cast<std::int64_t>(n);
  if (ack_each) shard["ack_each"] = true;
  EXPECT_TRUE(writer.WriteFrame(shard));
  json::Value exit_frame;
  exit_frame["type"] = "exit";
  EXPECT_TRUE(writer.WriteFrame(exit_frame));
  ::close(cmd[1]);
  return pid;
}

TEST(DistSupervisor, WorkerAnswersAShardWithOneFramePerFlush) {
  ASSERT_FALSE(obs::MetricsRegistry::Global().enabled());
  ASSERT_FALSE(obs::TraceRecorder::Global().enabled());
  const Study study = Study::FromJson(SmallStudySpec());
  const std::uint64_t n = study.Enumerate().size();

  int cmd[2];  // test writes commands, worker reads
  int res[2];  // worker writes frames, test reads
  ASSERT_EQ(::pipe(cmd), 0);
  ASSERT_EQ(::pipe(res), 0);
  const pid_t pid = ForkShardWorker(study, n, false, cmd, res);
  ASSERT_NE(pid, -1);

  std::string stream;
  char chunk[4096];
  for (ssize_t got; (got = ::read(res[0], chunk, sizeof chunk)) > 0;) {
    stream.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(res[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // With metrics and trace off, the result stream is all there is: one
  // run per flush, then shard_done.
  ExpectRunsCoverTheShard(study, ParseWorkerStream(stream), n);
}

// Runs a study worker over the shard [0, n) and counts the write()s that
// reach the reader for it: the result socket keeps message boundaries, so
// each write() arrives as one record. Returns the record count after the
// ready frame; `frames` receives every frame.
std::size_t ShardWrites(const Study& study, std::uint64_t n, bool ack_each,
                        std::vector<WireFrame>* frames) {
  int cmd[2];  // test writes commands, worker reads
  int res[2];  // worker writes records, test reads
  EXPECT_EQ(::pipe(cmd), 0);
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, res), 0);
  const pid_t pid = ForkShardWorker(study, n, ack_each, cmd, res);
  EXPECT_NE(pid, -1);

  std::vector<char> record(1 << 20);
  std::string stream;
  std::size_t records = 0;
  for (;;) {
    const ssize_t got = ::recv(res[0], record.data(), record.size(), 0);
    if (got <= 0) break;
    ++records;
    stream.append(record.data(), static_cast<std::size_t>(got));
  }
  ::close(res[0]);
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  *frames = ParseWorkerStream(stream);
  return records - 1;
}

TEST(DistSupervisor, WorkerWritesAShardOfCheapItemsInFewerWritesThanItems) {
  ASSERT_FALSE(obs::MetricsRegistry::Global().enabled());
  ASSERT_FALSE(obs::TraceRecorder::Global().enabled());
  const Study study = Study::FromJson(SmallStudySpec());
  const std::uint64_t n = study.Enumerate().size();

  // A fresh shard: each write (one per 1 ms at most) carries one run of
  // the results finished since the last, and shard_done rides the last.
  std::vector<WireFrame> frames;
  const std::size_t coalesced = ShardWrites(study, n, false, &frames);
  const std::vector<std::size_t> runs =
      ExpectRunsCoverTheShard(study, frames, n);
  EXPECT_GE(coalesced, 1u);
  EXPECT_LT(coalesced, n);
  EXPECT_LE(runs.size(), coalesced);
  EXPECT_GE(runs.size() + 1, coalesced);

  // A retried shard: one write per item, each a run of one result, then
  // one for shard_done.
  frames.clear();
  EXPECT_EQ(ShardWrites(study, n, true, &frames), n + 1);
  EXPECT_EQ(ExpectRunsCoverTheShard(study, frames, n),
            std::vector<std::size_t>(n, 1));
}

// 256 rows: enough that a worker works through many ranges of shards.
json::Value WideStudySpec() {
  return json::Parse(R"({
    "application": "megatron_22b",
    "system": "a100_80g",
    "num_procs": 64,
    "base_execution": {"batch_size": 64},
    "sweep": {
      "tensor_par": [1, 2, 4, 8],
      "pipeline_par": [1, 2, 4, 8],
      "data_par": "auto",
      "microbatch": [1, 2, 4, 8],
      "recompute": ["none", "full"],
      "optimizer_sharding": [false, true]
    }
  })");
}

TEST(DistSupervisor, ADueRetryGoesOutBeforeTheLastShards) {
  // Shards of one row, most rows delayed 200 us: cheap enough to go out
  // 8 to a range. One early row kills the one worker every time. Its
  // retries (at once, then after each backoff) wait for the worker to
  // finish the range it holds, and then go out before any fresh range:
  // the row resolves long before the sweep's tail.
  const std::unique_ptr<dist::Job> job =
      dist::MakeStudyJob(Study::FromJson(WideStudySpec()));
  const std::uint64_t rows = job->num_items();
  ASSERT_EQ(rows, 256u);
  testing::FaultPlan plan;
  plan.seed = 152;
  plan.delay_rate = 0.9;
  plan.delay_us = 200;
  plan.segv_rate = 0.01;
  const std::set<std::uint64_t> expected =
      ExpectedProcessFaultItems(plan, rows);
  ASSERT_EQ(expected.size(), 1u) << "pick another seed";
  ASSERT_LT(*expected.begin(), rows / 8) << "pick another seed";

  dist::DistOptions d = FastDist(1);
  d.shard_size = 1;
  d.faults_spec = plan.ToSpec();
  std::vector<std::uint64_t> arrived;
  std::vector<std::size_t> arrived_at_quarantine;
  std::vector<std::uint64_t> quarantined;
  dist::SupervisorCallbacks callbacks;
  callbacks.on_item = [&](std::uint64_t item, std::string_view) {
    arrived.push_back(item);
    return true;
  };
  callbacks.on_quarantine = [&](const FailureRecord& record) {
    quarantined.push_back(record.item);
    arrived_at_quarantine.push_back(arrived.size());
  };
  dist::RunSupervised(*job, d, callbacks);

  EXPECT_EQ(arrived.size(), rows - 1);
  ASSERT_EQ(quarantined, std::vector<std::uint64_t>(expected.begin(),
                                                    expected.end()));
  EXPECT_LT(arrived_at_quarantine.front(), rows / 2);
}

TEST(DistSupervisor, SlowShardsGoOutOneAtATime) {
  // Every row before the first injected death sleeps 2 ms, so shards take
  // longer than a worker's flush interval and the worker is given one
  // shard at a time, as a sweep of audit pairs is. Its post-mortem shows a
  // range of one shard and no dispatch past the shard it died on.
  const Study study = Study::FromJson(WideStudySpec());
  testing::FaultPlan plan;
  plan.seed = 2;
  plan.delay_rate = 0.9;
  plan.delay_us = 2000;
  plan.segv_rate = 0.1;
  testing::FaultInjector injector;
  injector.Configure(plan);
  std::uint64_t first_death = 0;
  while (injector.Decide(first_death) == testing::FaultAction::kDelay) {
    ++first_death;
  }
  ASSERT_EQ(injector.Decide(first_death), testing::FaultAction::kSegv)
      << "pick another seed";
  ASSERT_GE(first_death, 4u) << "pick another seed";

  const std::string log_dir = ::testing::TempDir() + "calculon_slow_shards_" +
                              std::to_string(::getpid());
  std::filesystem::remove_all(log_dir);
  std::filesystem::create_directories(log_dir);
  RunContext ctx;
  ctx.set_failure_budget(1);  // stop at the first quarantine
  StudyRunOptions options;
  options.ctx = &ctx;
  dist::DistOptions d = FastDist(1);
  d.shard_size = 1;
  d.max_attempts = 1;
  d.faults_spec = plan.ToSpec();
  d.worker_log_dir = log_dir;
  (void)dist::RunStudySupervised(study, options, d);

  // The first post-mortem is the first death's: the fresh shard.
  const json::Value doc = json::ParseFile(log_dir + "/flight-000-worker0.json");
  EXPECT_EQ(doc.at("shard").at("begin").AsInt(),
            static_cast<std::int64_t>(first_death));
  EXPECT_EQ(doc.at("shard").at("end").AsInt(),
            static_cast<std::int64_t>(first_death + 1));
  std::int64_t last_dispatched = -1;
  for (const json::Value& e : doc.at("events").AsArray()) {
    if (e.at("label").AsString() == "shard_begin") {
      last_dispatched = e.at("item").AsInt();
    }
  }
  EXPECT_EQ(last_dispatched, static_cast<std::int64_t>(first_death));
  std::filesystem::remove_all(log_dir);
}

TEST(DistSupervisor, CheapShardsGoOutEightToARange) {
  // Rows of a few us in shards of 2: once the first shard is back, shards
  // are cheap, and the worker is given kShardsPerDispatch of them at once,
  // as one range. The seeded death comes long after that, so its
  // post-mortem names a whole range, and no suspect: the worker may have
  // died past its first un-acked row.
  const Study study = Study::FromJson(WideStudySpec());
  const std::uint64_t rows = study.Enumerate().size();
  const std::uint64_t shard_size = 2;
  const std::uint64_t range = dist::kShardsPerDispatch * shard_size;
  testing::FaultPlan plan;
  plan.seed = 15;
  plan.segv_rate = 0.01;
  const std::set<std::uint64_t> expected =
      ExpectedProcessFaultItems(plan, rows);
  ASSERT_EQ(expected.size(), 1u) << "pick another seed";
  const std::uint64_t death = *expected.begin();
  // Several ranges come back before it, and the range it lies in is whole.
  ASSERT_GE(death, 4 * range) << "pick another seed";
  ASSERT_LE(death + range, rows) << "pick another seed";

  const std::string log_dir = ::testing::TempDir() + "calculon_cheap_range_" +
                              std::to_string(::getpid());
  std::filesystem::remove_all(log_dir);
  std::filesystem::create_directories(log_dir);
  RunContext ctx;
  StudyRunOptions options;
  options.ctx = &ctx;
  dist::DistOptions d = FastDist(1);
  d.shard_size = shard_size;
  d.faults_spec = plan.ToSpec();
  d.worker_log_dir = log_dir;
  (void)dist::RunStudySupervised(study, options, d);

  // The first post-mortem is the first death's: the fresh range.
  const json::Value doc = json::ParseFile(log_dir + "/flight-000-worker0.json");
  const std::int64_t begin = doc.at("shard").at("begin").AsInt();
  const std::int64_t end = doc.at("shard").at("end").AsInt();
  EXPECT_EQ(end - begin, static_cast<std::int64_t>(range));
  EXPECT_LE(begin, static_cast<std::int64_t>(death));
  EXPECT_GT(end, static_cast<std::int64_t>(death));
  EXPECT_FALSE(doc.contains("suspect"));
  // Its retries, one ack at a time, blame exactly the seeded row.
  const RunStatus status = ctx.Snapshot();
  ASSERT_EQ(status.failure_samples.size(), 1u);
  EXPECT_EQ(status.failure_samples.front().item, death);
  std::filesystem::remove_all(log_dir);
}

TEST(DistSupervisor, SupervisedAuditCountsEveryCompletedPair) {
  // In process (0 workers) and supervised alike.
  const std::vector<dist::AuditPairSpec> pairs = AuditPairs(2);
  for (int workers : {0, 2}) {
    SCOPED_TRACE(workers);
    RunContext ctx;
    std::uint64_t done = 0;
    dist::RunAuditSupervised(pairs, SmallAuditOptions(), FastDist(workers),
                             /*threads=*/1, ctx,
                             [&](std::uint64_t, analysis::AuditReport) {
                               ++done;
                             });
    EXPECT_EQ(done, pairs.size());
    EXPECT_EQ(ctx.items_completed(), pairs.size());
  }
}

// The names of the post-mortems under `dir`.
std::vector<std::string> FlightFiles(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("flight-", 0) == 0) names.push_back(name);
  }
  return names;
}

// A counter of the supervisor's, which it registers on every run while
// metrics are on.
std::uint64_t CounterOf(const obs::MetricsSnapshot& snapshot,
                        const std::string& name) {
  EXPECT_TRUE(snapshot.counters.contains(name)) << name;
  return snapshot.counters.contains(name) ? snapshot.counters.at(name) : 0;
}

TEST(DistSupervisor, StudyCommitFailureStopsThePoolAndPropagates) {
  // A checkpoint that cannot be written fails the study's commit. That is
  // the engine's failure, not the worker's whose row it was committing:
  // the pool shuts down and the error propagates, as in process.
  const Study study = Study::FromJson(SmallStudySpec());
  const std::string log_dir =
      ::testing::TempDir() + "calculon_study_commit_failure";
  std::filesystem::remove_all(log_dir);
  std::filesystem::create_directories(log_dir);
  StudyRunOptions options;
  options.checkpoint_path = log_dir + "/missing/ck.json";
  options.checkpoint_every = 3;
  // Up to the temp file's pid, the errors of both runs read the same.
  auto error_of = [&](const std::function<void()>& run) {
    try {
      run();
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      return what.substr(0, what.find(".tmp."));
    }
    return std::string("no ConfigError");
  };
  const std::string in_process =
      error_of([&] { (void)study.RunResilient(options); });
  ASSERT_NE(in_process.find("missing/ck.json"), std::string::npos)
      << in_process;

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  metrics.Enable();
  dist::DistOptions d = FastDist(2);
  d.worker_log_dir = log_dir;
  const std::string supervised =
      error_of([&] { (void)dist::RunStudySupervised(study, options, d); });
  const obs::MetricsSnapshot snapshot = metrics.Snapshot();
  metrics.Reset();
  metrics.Disable();

  EXPECT_EQ(supervised, in_process);
  EXPECT_EQ(FlightFiles(log_dir), std::vector<std::string>{});
  EXPECT_EQ(CounterOf(snapshot, "dist.restarts"), 0u);
  EXPECT_EQ(CounterOf(snapshot, "dist.quarantined"), 0u);
  std::filesystem::remove_all(log_dir);
}

TEST(DistSupervisor, AuditCommitFailureIsThePairsFailure) {
  // A pair whose commit throws fails alike in process (0 workers) and
  // supervised: its failure is recorded with the commit's message and the
  // audit goes on. No worker is blamed, killed or re-run for it.
  const std::vector<dist::AuditPairSpec> pairs = AuditPairs(2);
  const std::string log_dir =
      ::testing::TempDir() + "calculon_audit_commit_failure";
  for (int workers : {0, 2}) {
    SCOPED_TRACE(workers);
    std::filesystem::remove_all(log_dir);
    std::filesystem::create_directories(log_dir);

    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    metrics.Reset();
    metrics.Enable();
    dist::DistOptions d = FastDist(workers);
    d.worker_log_dir = log_dir;
    RunContext ctx;
    std::vector<std::uint64_t> committed;
    dist::RunAuditSupervised(
        pairs, SmallAuditOptions(), d, /*threads=*/1, ctx,
        [&](std::uint64_t item, analysis::AuditReport) {
          if (item == 0) throw ConfigError("cannot write the journal");
          committed.push_back(item);
        });
    const obs::MetricsSnapshot snapshot = metrics.Snapshot();
    metrics.Reset();
    metrics.Disable();

    EXPECT_EQ(committed, std::vector<std::uint64_t>{1});
    EXPECT_EQ(ctx.items_completed(), 1u);
    const RunStatus status = ctx.Snapshot();
    EXPECT_EQ(status.failures, 1u);
    ASSERT_EQ(status.failure_samples.size(), 1u);
    EXPECT_EQ(status.failure_samples[0].item, 0u);
    EXPECT_EQ(status.failure_samples[0].fingerprint, "");
    EXPECT_EQ(status.failure_samples[0].reason, "cannot write the journal");
    EXPECT_EQ(status.failure_samples[0].flight_path, "");
    EXPECT_EQ(FlightFiles(log_dir), std::vector<std::string>{});
    if (workers > 0) {  // the supervisor's own counters
      EXPECT_EQ(CounterOf(snapshot, "dist.restarts"), 0u);
      EXPECT_EQ(CounterOf(snapshot, "dist.quarantined"), 0u);
    }
  }
  std::filesystem::remove_all(log_dir);
}

// --- The audit driver's in-process half (0 workers) ---

// Each pair polls the context before it starts. Without that poll each
// pair's AuditPair would see the stop, return an empty report, and that
// report would be committed and counted as completed.
void ExpectStoppedContextAuditsNoPair(RunContext& ctx, StopReason reason) {
  std::atomic<int> committed{0};
  dist::RunAuditSupervised(AuditPairs(4), SmallAuditOptions(), FastDist(0),
                           /*threads=*/2, ctx,
                           [&](std::uint64_t, analysis::AuditReport) {
                             ++committed;
                           });
  EXPECT_EQ(committed.load(), 0);
  EXPECT_EQ(ctx.items_completed(), 0u);
  EXPECT_EQ(ctx.stop_reason(), reason);
}

TEST(AuditInProcess, CancelledContextAuditsNoPair) {
  RunContext ctx;
  ctx.Cancel();
  ExpectStoppedContextAuditsNoPair(ctx, StopReason::kCancelled);
}

TEST(AuditInProcess, ExpiredDeadlineAuditsNoPair) {
  RunContext ctx;
  ctx.SetDeadline(0.0);
  ExpectStoppedContextAuditsNoPair(ctx, StopReason::kDeadline);
}

TEST(AuditInProcess, ThrowingPairsAreFailuresAndTheAuditGoesOn) {
  const std::vector<dist::AuditPairSpec> pairs = AuditPairs(4);
  RunContext ctx;
  std::atomic<int> committed{0};
  dist::RunAuditSupervised(pairs, SmallAuditOptions({0}), FastDist(0),
                           /*threads=*/2, ctx,
                           [&](std::uint64_t, analysis::AuditReport) {
                             ++committed;
                           });
  EXPECT_EQ(committed.load(), 0);
  EXPECT_EQ(ctx.items_completed(), 0u);
  const RunStatus status = ctx.Snapshot();
  EXPECT_TRUE(status.complete);
  EXPECT_EQ(status.failures, pairs.size());
  std::set<std::uint64_t> items;
  for (const FailureRecord& record : status.failure_samples) {
    items.insert(record.item);
    ASSERT_LT(record.item, pairs.size());
    EXPECT_EQ(record.fingerprint, pairs[record.item].context_label);
    EXPECT_NE(record.reason.find(">= 1 processor"), std::string::npos)
        << record.reason;
  }
  EXPECT_EQ(items, (std::set<std::uint64_t>{0, 1, 2, 3}));
}

TEST(AuditInProcess, FailureBudgetStopsAfterTheFirstThrowingPair) {
  RunContext ctx;
  ctx.set_failure_budget(1);
  dist::RunAuditSupervised(AuditPairs(4), SmallAuditOptions({0}),
                           FastDist(0), /*threads=*/1, ctx,
                           [](std::uint64_t, analysis::AuditReport) {});
  EXPECT_EQ(ctx.failures(), 1u);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kFailureBudget);
  EXPECT_FALSE(ctx.Snapshot().complete);
}

// Aimed at TSan: a cancel from outside the pool while its threads audit
// and commit pairs is an ordinary data-race-free handoff.
TEST(AuditInProcess, ConcurrentCancellationIsClean) {
  const std::vector<dist::AuditPairSpec> pairs = AuditPairs(16);
  for (int round = 0; round < 3; ++round) {
    RunContext ctx;
    std::atomic<std::uint64_t> committed{0};
    std::thread canceller = CancelOnceARowCommits(ctx);
    dist::RunAuditSupervised(pairs, SmallAuditOptions(), FastDist(0),
                             /*threads=*/4, ctx,
                             [&](std::uint64_t, analysis::AuditReport) {
                               ++committed;
                             });
    canceller.join();
    EXPECT_TRUE(ctx.cancelled());
    EXPECT_GE(committed.load(), 1u);
    EXPECT_EQ(ctx.items_completed(), committed.load());
  }
}

TEST(DistSupervisor, ZeroWorkersFallsBackInProcess) {
  const Study study = Study::FromJson(SmallStudySpec());
  dist::DistOptions d;  // workers == 0: dist inactive
  EXPECT_FALSE(d.active());
  const StudyRun run = dist::RunStudySupervised(study, StudyRunOptions{}, d);
  EXPECT_EQ(run.csv_rows.size(), study.Enumerate().size());
  EXPECT_TRUE(run.status.complete);
}

}  // namespace
}  // namespace calculon
