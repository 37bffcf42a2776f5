// Command-line front end mirroring the original tool's entry points:
//
//   calculon_cli llm <app.json> <system.json> <execution.json> [out.json]
//       Run one performance calculation and print the full report; with
//       out.json, also dump the statistics as JSON.
//
//   calculon_cli llm-optimal-execution <app.json> <system.json> <batch>
//       Exhaustively search the execution space and print the best
//       strategy.
//
//   calculon_cli layers <app> <system> <exec.json>
//       Print the per-layer cost breakdown of one transformer block.
//
//   calculon_cli study <study.json> [out.csv] [resilience options]
//       Run a sweep described by a study specification (see
//       src/runner/study.h and configs/studies/) and emit a CSV. With
//       --checkpoint the completed rows are journaled and a killed run can
//       continue with --resume; Ctrl-C stops gracefully with the journal
//       and partial CSV intact.
//
// The sweeping subcommands (study, llm-optimal-execution) share the
// resilience options:
//   --deadline S         stop after S wall-clock seconds (partial results)
//   --failure-budget N   stop after N isolated evaluation failures
//   --faults SPEC        deterministic fault injection (testing), e.g.
//                        seed=42,throw=0.05; also read from CALCULON_FAULTS
//   --checkpoint PATH    (study) journal completed rows to PATH
//   --checkpoint-every N (study) journal every N rows (default 64)
//   --resume             (study) continue from the --checkpoint journal
//   --procs N            (llm-optimal-execution) size the system to N
//                        processors before searching
//   --workers N          run the sweep in N supervised worker processes
//                        (crash/hang isolation: a dying worker costs a
//                        retry, not the run; see docs/robustness.md)
//   --shard-size N       items per shard (default 16); a worker is given one
//                        shard at a time, or 8 while shards take under 1 ms
//   --hang-timeout S     SIGKILL a worker silent for S seconds (default 30)
//   --worker-logs DIR    capture worker stderr to DIR/worker-<n>.log
// plus the observability options (see docs/observability.md):
//   --trace FILE         record a Chrome trace-event / Perfetto timeline
//   --metrics FILE       export tool metrics (latency histograms,
//                        rejection counters) as JSON
//   --progress[=SECS]    periodic progress lines on stderr (default 2s)
// Each subcommand takes only the options it uses (llm: the observability
// options only); any other option is a usage error that names it.
// Exit codes: 0 complete, 1 infeasible/error, 2 usage (unknown flag,
//             missing or malformed value), 3 degraded (stopped early or
//             isolated failures).
//
//   calculon_cli presets [dir]
//       List the built-in application/system presets; with a directory,
//       export them all as JSON specification files.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/layer_report.h"
#include "core/perf_model.h"
#include "dist/drivers.h"
#include "hw/presets.h"
#include "models/presets.h"
#include "obs/cli_options.h"
#include "obs/progress.h"
#include "runner/run_status_json.h"
#include "runner/study.h"
#include "search/exec_search.h"
#include "testing/fault_injection.h"
#include "util/run_context.h"
#include "util/strings.h"

namespace {

using namespace calculon;

// Shared resilience options of the sweeping subcommands. Flags may appear
// anywhere after the subcommand; positional arguments keep their order.
struct ResilienceArgs {
  double deadline_s = 0.0;
  long long failure_budget = 0;
  std::string faults_spec;
  std::string checkpoint_path;
  long long checkpoint_every = 64;
  bool resume = false;
  long long procs = 0;  // llm-optimal-execution: system size override
  long long workers = 0;  // supervised worker processes (0: in-process)
  long long shard_size = 16;
  double hang_timeout_s = 30.0;
  std::string worker_log_dir;
  obs::ObsCliOptions obs;
  std::vector<std::string> positional;

  // Supervised fan-out configuration for the dist drivers. The faults
  // spec travels to the workers explicitly (they are fresh forks when it
  // came from CALCULON_FAULTS before the fork configured the parent).
  [[nodiscard]] dist::DistOptions Dist() const {
    dist::DistOptions d;
    d.workers = static_cast<int>(workers);
    d.shard_size = static_cast<std::uint64_t>(shard_size);
    d.hang_timeout_s = hang_timeout_s;
    d.worker_log_dir = worker_log_dir;
    const auto& plan = testing::FaultInjector::Global().plan();
    if (plan.enabled()) d.faults_spec = plan.ToSpec();
    return d;
  }
};

// The flags of a sweeping subcommand: its bounds, faults and supervised
// fan-out, plus `own`.
std::vector<std::string_view> SweepFlags(
    std::initializer_list<std::string_view> own) {
  std::vector<std::string_view> flags = {
      "--deadline",   "--failure-budget", "--faults",     "--workers",
      "--shard-size", "--hang-timeout",   "--worker-logs"};
  flags.insert(flags.end(), own);
  return flags;
}

// Malformed or out-of-range values throw UsageError, and so does any flag
// outside `takes`, the flags the subcommand uses besides the observability
// ones: a flag a subcommand would ignore is refused, not dropped.
ResilienceArgs ParseResilienceArgs(
    int argc, char** argv, const std::vector<std::string_view>& takes) {
  ResilienceArgs args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError(arg + " needs a value");
      return argv[++i];
    };
    if (args.obs.Consume(arg, next)) {
      // observability flags: --trace / --metrics / --progress
    } else if (arg.rfind("--", 0) != 0) {
      args.positional.push_back(arg);
    } else if (std::find(takes.begin(), takes.end(), arg) == takes.end()) {
      throw UsageError(StrFormat("%s takes no %s", argv[1], arg.c_str()));
    } else if (arg == "--deadline") {
      args.deadline_s = ParseSecondsFlag(arg, next());
    } else if (arg == "--failure-budget") {
      args.failure_budget = ParseIntFlag(arg, next(), 0);
    } else if (arg == "--faults") {
      args.faults_spec = next();
    } else if (arg == "--checkpoint") {
      args.checkpoint_path = next();
    } else if (arg == "--checkpoint-every") {
      args.checkpoint_every = ParseIntFlag(arg, next(), 1);
    } else if (arg == "--resume") {
      args.resume = true;
    } else if (arg == "--procs") {
      args.procs = ParseIntFlag(arg, next(), 1);
    } else if (arg == "--workers") {
      args.workers =
          ParseIntFlag(arg, next(), 0, std::numeric_limits<int>::max());
    } else if (arg == "--shard-size") {
      args.shard_size = ParseIntFlag(arg, next(), 1);
    } else if (arg == "--hang-timeout") {
      args.hang_timeout_s = ParseSecondsFlag(arg, next());
    } else if (arg == "--worker-logs") {
      args.worker_log_dir = next();
    }
  }
  return args;
}

// Applies the parsed flags onto a context (and the global fault injector);
// SIGINT/SIGTERM request a graceful stop through the same context.
void ConfigureContext(const ResilienceArgs& args, RunContext* ctx) {
  ctx->WatchSignals(true);
  RunContext::InstallSigintHandler();
  if (args.deadline_s > 0.0) ctx->SetDeadline(args.deadline_s);
  if (args.failure_budget > 0) {
    ctx->set_failure_budget(static_cast<std::uint64_t>(args.failure_budget));
  }
  auto& faults = testing::FaultInjector::Global();
  if (!args.faults_spec.empty()) {
    faults.Configure(testing::FaultPlan::FromSpec(args.faults_spec));
  } else {
    const auto env_plan = testing::FaultPlan::FromEnv();
    if (env_plan.enabled()) faults.Configure(env_plan);
  }
}

void PrintRunStatus(const RunStatus& status) {
  if (!status.degraded()) return;
  std::fprintf(stderr, "run status: %s\n", status.Summary().c_str());
  for (const FailureRecord& record : status.failure_samples) {
    std::fprintf(stderr, "FAILURE item=%llu worker=%u %s: %s\n",
                 static_cast<unsigned long long>(record.item), record.worker,
                 record.fingerprint.c_str(), record.reason.c_str());
    if (!record.flight_path.empty()) {
      std::fprintf(stderr, "  flight recorder post-mortem: %s\n",
                   record.flight_path.c_str());
    }
  }
}

// Spec arguments accept either a path to a JSON file or a preset name.
Application LoadApp(const std::string& arg) {
  if (std::filesystem::exists(arg)) {
    return Application::FromJson(json::ParseFile(arg));
  }
  return presets::ApplicationByName(arg);
}

System LoadSystem(const std::string& arg) {
  if (std::filesystem::exists(arg)) {
    return System::FromJson(json::ParseFile(arg));
  }
  return presets::SystemByName(arg);
}

int RunLlm(int argc, char** argv) {
  const ResilienceArgs args = ParseResilienceArgs(argc, argv, {});
  if (args.positional.size() < 3) {
    std::fprintf(stderr,
                 "usage: calculon_cli llm <app> <system> <exec.json> "
                 "[out.json] [--trace FILE] [--metrics FILE]\n");
    return 2;
  }
  const Application app = LoadApp(args.positional[0]);
  const Execution exec =
      Execution::FromJson(json::ParseFile(args.positional[2]));
  // The execution strategy decides how many processors are used; size the
  // system description to it (as the original tool does).
  const System sys =
      LoadSystem(args.positional[1]).WithNumProcs(exec.num_procs);
  // A single evaluation always samples its model-phase breakdown, so
  // `llm --trace` shows the phases of exactly this configuration.
  args.obs.Activate();
  const Result<Stats> r = CalculatePerformance(app, exec, sys);
  args.obs.Finish();
  if (!r.ok()) {
    std::fprintf(stderr, "infeasible: %s\n", r.detail().c_str());
    return 1;
  }
  std::printf("%s", r.value().Report().c_str());
  if (args.positional.size() > 3) {
    json::WriteFile(args.positional[3], r.value().ToJson());
    std::printf("stats written to %s\n", args.positional[3].c_str());
  }
  return 0;
}

int RunOptimalExecution(int argc, char** argv) {
  const ResilienceArgs args =
      ParseResilienceArgs(argc, argv, SweepFlags({"--procs"}));
  if (args.positional.size() < 3) {
    std::fprintf(stderr,
                 "usage: calculon_cli llm-optimal-execution <app> <system> "
                 "<batch> [out.json] [--procs N] [--deadline S] "
                 "[--failure-budget N] [--faults SPEC] [--trace FILE] "
                 "[--metrics FILE] [--progress[=SECS]]\n");
    return 2;
  }
  const Application app = LoadApp(args.positional[0]);
  System sys = LoadSystem(args.positional[1]);
  if (args.procs > 0) sys = sys.WithNumProcs(args.procs);
  RunContext ctx;
  ConfigureContext(args, &ctx);
  args.obs.Activate();
  SearchConfig config;
  config.batch_size = ParseIntFlag("<batch>", args.positional[2]);
  config.top_k = 1;
  config.ctx = &ctx;
  const SearchSpace space = SearchSpace::AllWithOffload();
  std::optional<obs::ProgressReporter> reporter;
  if (args.obs.progress) {
    obs::ProgressOptions popts;
    popts.interval_s = args.obs.progress_interval_s;
    popts.total = SearchTriples(app, sys, space, config).size();
    popts.label = "exec_search";
    reporter.emplace(&ctx, popts);
  }
  // The supervised driver forks before any ThreadPool exists in this
  // process (its in-process fallback builds one internally), keeping the
  // fork sites single-threaded.
  const SearchResult r = dist::FindOptimalExecutionSupervised(
      app, sys, space, config, args.Dist());
  if (reporter.has_value()) reporter->Stop();
  args.obs.Finish();
  std::printf("searched %llu strategies, %llu feasible\n",
              static_cast<unsigned long long>(r.evaluated),
              static_cast<unsigned long long>(r.feasible));
  PrintRunStatus(r.status);
  if (r.best.empty()) {
    std::fprintf(stderr, "no feasible execution\n");
    return 1;
  }
  std::printf("best execution:\n%s\n%s",
              r.best.front().exec.ToJson().Dump(2).c_str(),
              r.best.front().stats.Report().c_str());
  if (args.positional.size() > 3) {
    json::Value out;
    out["execution"] = r.best.front().exec.ToJson();
    out["stats"] = r.best.front().stats.ToJson();
    out["status"] = ToJson(r.status);
    json::WriteFile(args.positional[3], out);
    std::printf("result written to %s\n", args.positional[3].c_str());
  }
  return r.status.degraded() ? 3 : 0;
}

int RunLayers(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: calculon_cli layers <app> <system> <exec.json>\n");
    return 2;
  }
  const Application app = LoadApp(argv[2]);
  const Execution exec = Execution::FromJson(json::ParseFile(argv[4]));
  const System sys = LoadSystem(argv[3]).WithNumProcs(exec.num_procs);
  if (auto v = exec.Validate(app); !v.ok()) {
    std::fprintf(stderr, "invalid execution: %s\n", v.detail().c_str());
    return 1;
  }
  std::printf("%s", LayerReport(app, exec, sys).ToString().c_str());
  return 0;
}

int RunStudy(int argc, char** argv) {
  const ResilienceArgs args = ParseResilienceArgs(
      argc, argv,
      SweepFlags({"--checkpoint", "--checkpoint-every", "--resume"}));
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: calculon_cli study <study.json> [out.csv] "
                 "[--checkpoint PATH] [--checkpoint-every N] [--resume] "
                 "[--deadline S] [--failure-budget N] [--faults SPEC]\n");
    return 2;
  }
  const Study study = Study::FromJson(json::ParseFile(args.positional[0]));
  RunContext ctx;
  ConfigureContext(args, &ctx);
  args.obs.Activate();
  StudyRunOptions options;
  options.ctx = &ctx;
  options.checkpoint_path = args.checkpoint_path;
  options.checkpoint_every = static_cast<std::uint64_t>(args.checkpoint_every);
  options.resume = args.resume;
  std::optional<obs::ProgressReporter> reporter;
  if (args.obs.progress) {
    obs::ProgressOptions popts;
    popts.interval_s = args.obs.progress_interval_s;
    popts.total = study.Enumerate().size();
    popts.label = "study";
    reporter.emplace(&ctx, popts);
  }
  const StudyRun run = dist::RunStudySupervised(study, options, args.Dist());
  if (reporter.has_value()) reporter->Stop();
  args.obs.Finish();
  const std::string csv = run.Csv();
  if (args.positional.size() > 1) {
    std::ofstream out(args.positional[1]);
    out << csv;
    std::printf("%zu/%llu configurations (%llu resumed) written to %s\n",
                run.csv_rows.size(),
                static_cast<unsigned long long>(run.total_rows),
                static_cast<unsigned long long>(run.resumed_rows),
                args.positional[1].c_str());
  } else {
    std::printf("%s", csv.c_str());
  }
  if (run.best.found) {
    std::printf("best configuration (row %llu, %.6g samples/s):\n%s\n",
                static_cast<unsigned long long>(run.best.row),
                run.best.sample_rate.raw(),
                run.best.exec.ToJson().Dump(2).c_str());
  }
  PrintRunStatus(run.status);
  return run.status.degraded() ? 3 : 0;
}

int RunPresets(int argc, char** argv) {
  std::printf("applications:\n");
  for (const std::string& name : presets::ApplicationNames()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("systems:\n");
  for (const std::string& name : presets::SystemNames()) {
    std::printf("  %s\n", name.c_str());
  }
  if (argc > 2) {
    const std::filesystem::path dir(argv[2]);
    std::filesystem::create_directories(dir);
    for (const std::string& name : presets::ApplicationNames()) {
      json::WriteFile((dir / (name + ".json")).string(),
                      presets::ApplicationByName(name).ToJson());
    }
    for (const std::string& name : presets::SystemNames()) {
      json::WriteFile((dir / (name + ".json")).string(),
                      presets::SystemByName(name).ToJson());
    }
    std::printf("presets exported to %s\n", dir.string().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: calculon_cli {llm | llm-optimal-execution | layers | "
                 "study | presets} ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "llm") return RunLlm(argc, argv);
    if (cmd == "llm-optimal-execution") return RunOptimalExecution(argc, argv);
    if (cmd == "layers") return RunLayers(argc, argv);
    if (cmd == "study") return RunStudy(argc, argv);
    if (cmd == "presets") return RunPresets(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}
