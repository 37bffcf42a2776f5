// calculon-audit: model self-audit driver.
//
// Sweeps every application preset against every system preset (plus any
// JSON configurations under --config-dir) and asserts the analytic
// invariants of analysis/audit.h over a sampled execution grid. Exits
// non-zero when any invariant is violated; runs under ctest in the plain
// and sanitizer-instrumented builds.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/audit.h"
#include "dist/drivers.h"
#include "hw/presets.h"
#include "json/json.h"
#include "models/presets.h"
#include "obs/cli_options.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "testing/fault_injection.h"
#include "util/run_context.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using calculon::Application;
using calculon::System;
using calculon::analysis::AuditOptions;
using calculon::analysis::AuditReport;
using calculon::analysis::AuditViolation;
using calculon::ParseIntFlag;
using calculon::ParseSecondsFlag;

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: calculon-audit [options]\n"
      "  --apps a,b,...      audit only these applications\n"
      "  --systems x,y,...   audit only these systems\n"
      "  --config-dir DIR    also audit DIR/applications/*.json and\n"
      "                      DIR/systems/*.json\n"
      "  --procs n1,n2,...   system sizes to audit at (default ladder)\n"
      "  --max-splits N      (t,p,d) factorizations sampled per size\n"
      "  --threads N         worker threads (default: hardware)\n"
      "  --workers N         run pairs in N supervised worker processes\n"
      "                      (crash/hang isolation; see docs/robustness.md)\n"
      "  --shard-size N      pairs dispatched to a worker at a time\n"
      "  --hang-timeout S    SIGKILL a worker silent for S seconds\n"
      "  --worker-logs DIR   capture worker stderr to DIR/worker-<n>.log\n"
      "  --verbose           print a result row per (app, system) pair\n"
      "  --deadline S        stop after S wall-clock seconds (partial audit)\n"
      "  --failure-budget N  stop after N isolated evaluation failures\n"
      "  --faults SPEC       deterministic fault injection, e.g.\n"
      "                      seed=42,throw=0.02,error=0.02 (also read from\n"
      "                      the CALCULON_FAULTS environment variable)\n"
      "  --checkpoint PATH   journal completed pairs to PATH\n"
      "  --resume            skip pairs already journaled in --checkpoint\n"
      "%s"
      "exit codes: 0 clean, 1 invariant violations, 2 usage error,\n"
      "            3 degraded (stopped early or isolated failures)\n",
      calculon::obs::ObsCliOptions::UsageLines());
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// A sweep target with the label it is known by on the command line — the
// preset key or the config file's stem (System::name() is the hardware
// family, e.g. "h100", and is shared by several presets).
template <typename T>
struct Named {
  std::string label;
  T value;
};

template <typename T>
bool ContainsLabel(const std::vector<Named<T>>& items,
                   const std::string& label) {
  for (const Named<T>& item : items) {
    if (item.label == label) return true;
  }
  return false;
}

constexpr const char* kCheckpointFormat = "calculon-audit-checkpoint-v1";

using calculon::analysis::ReportFromJson;
using calculon::analysis::ReportToJson;

// Loads every *.json under dir (if it exists) through `parse`, skipping
// file stems that are already present (preset and config names overlap).
template <typename T, typename Parse>
void LoadConfigs(const std::string& dir, std::vector<Named<T>>* items,
                 Parse parse) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) return;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    if (ContainsLabel(*items, path.stem().string())) continue;
    items->push_back(Named<T>{path.stem().string(),
                              parse(calculon::json::ParseFile(path.string()))});
  }
}

}  // namespace

int main(int argc, char** argv) try {
  std::vector<std::string> want_apps;
  std::vector<std::string> want_systems;
  std::string config_dir;
  AuditOptions options;
  unsigned threads = 0;
  calculon::dist::DistOptions dist;
  dist.shard_size = 1;  // audit pairs are coarse; retry at pair granularity
  bool verbose = false;
  double deadline_s = 0.0;
  long long failure_budget = 0;
  std::string faults_spec;
  std::string checkpoint_path;
  bool resume = false;
  calculon::obs::ObsCliOptions obs_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "calculon-audit: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--apps") {
      want_apps = SplitCsv(next());
    } else if (arg == "--systems") {
      want_systems = SplitCsv(next());
    } else if (arg == "--config-dir") {
      config_dir = next();
    } else if (arg == "--procs") {
      for (const std::string& n : SplitCsv(next())) {
        options.proc_counts.push_back(ParseIntFlag(arg, n, 1));
      }
    } else if (arg == "--max-splits") {
      options.max_splits = static_cast<int>(
          ParseIntFlag(arg, next(), 1, std::numeric_limits<int>::max()));
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(
          ParseIntFlag(arg, next(), 0, std::numeric_limits<unsigned>::max()));
    } else if (arg == "--workers") {
      dist.workers = static_cast<int>(
          ParseIntFlag(arg, next(), 0, std::numeric_limits<int>::max()));
    } else if (arg == "--shard-size") {
      dist.shard_size =
          static_cast<std::uint64_t>(ParseIntFlag(arg, next(), 1));
    } else if (arg == "--hang-timeout") {
      dist.hang_timeout_s = ParseSecondsFlag(arg, next());
    } else if (arg == "--worker-logs") {
      dist.worker_log_dir = next();
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--deadline") {
      deadline_s = ParseSecondsFlag(arg, next());
    } else if (arg == "--failure-budget") {
      failure_budget = ParseIntFlag(arg, next(), 0);
    } else if (arg == "--faults") {
      faults_spec = next();
    } else if (arg == "--checkpoint") {
      checkpoint_path = next();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (obs_options.Consume(arg, [&] { return next(); })) {
      // observability flags: --trace / --metrics / --progress
    } else {
      std::fprintf(stderr, "calculon-audit: unknown option %s\n",
                   arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  // Assemble the sweep targets: all presets, plus JSON configurations.
  std::vector<Named<Application>> apps;
  for (const std::string& name : calculon::presets::ApplicationNames()) {
    apps.push_back({name, calculon::presets::ApplicationByName(name)});
  }
  std::vector<Named<System>> systems;
  for (const std::string& name : calculon::presets::SystemNames()) {
    systems.push_back({name, calculon::presets::SystemByName(name)});
  }
  if (!config_dir.empty()) {
    if (!std::filesystem::is_directory(config_dir)) {
      std::fprintf(stderr, "calculon-audit: --config-dir %s is not a directory\n",
                   config_dir.c_str());
      return 2;
    }
    LoadConfigs<Application>(config_dir + "/applications", &apps,
                             [](const calculon::json::Value& v) {
                               return Application::FromJson(v);
                             });
    LoadConfigs<System>(config_dir + "/systems", &systems,
                        [](const calculon::json::Value& v) {
                          return System::FromJson(v);
                        });
  }
  auto filter = [](auto* items, const std::vector<std::string>& want) {
    if (want.empty()) return;
    for (const std::string& name : want) {
      if (!ContainsLabel(*items, name)) {
        std::fprintf(stderr, "calculon-audit: unknown name %s\n",
                     name.c_str());
        std::exit(2);
      }
    }
    std::erase_if(*items, [&](const auto& item) {
      return std::find(want.begin(), want.end(), item.label) == want.end();
    });
  };
  filter(&apps, want_apps);
  filter(&systems, want_systems);

  if (resume && checkpoint_path.empty()) {
    std::fprintf(stderr, "calculon-audit: --resume requires --checkpoint\n");
    return 2;
  }

  // Resilience context: SIGINT/SIGTERM request a graceful stop (finish the
  // in-flight pair, journal, report partial results); deadline and failure
  // budget stop the same way.
  calculon::RunContext ctx;
  ctx.WatchSignals(true);
  calculon::RunContext::InstallSigintHandler();
  if (deadline_s > 0.0) ctx.SetDeadline(deadline_s);
  if (failure_budget > 0) {
    ctx.set_failure_budget(static_cast<std::uint64_t>(failure_budget));
  }
  auto& faults = calculon::testing::FaultInjector::Global();
  if (!faults_spec.empty()) {
    faults.Configure(calculon::testing::FaultPlan::FromSpec(faults_spec));
  } else {
    const auto env_plan = calculon::testing::FaultPlan::FromEnv();
    if (env_plan.enabled()) faults.Configure(env_plan);
  }
  obs_options.Activate();

  // The math helpers first: everything else samples the grid through them.
  AuditReport total = calculon::analysis::AuditMath();
  const std::uint64_t math_checks = total.checks;

  // One work item per (application, system) pair, journaled under its
  // key "application/system".
  struct Pair {
    const Named<Application>* app;
    const Named<System>* sys;
    std::string key;
    AuditReport report;
  };
  std::vector<Pair> pairs;
  for (const Named<Application>& app : apps) {
    for (const Named<System>& sys : systems) {
      pairs.push_back(Pair{&app, &sys, app.label + "/" + sys.label, {}});
    }
  }

  // Fingerprint of the audit configuration; guards checkpoints against
  // replay into a different sweep.
  std::uint64_t fp = calculon::kFnv1aOffsetBasis;
  for (const Pair& pair : pairs) fp = calculon::Fnv1a(fp, pair.key);
  std::string procs_desc;
  for (std::int64_t n : options.proc_counts) {
    procs_desc += std::to_string(n) + ",";
  }
  fp = calculon::Fnv1a(
      fp, calculon::StrFormat("procs=%s max_splits=%d", procs_desc.c_str(),
                              options.max_splits));
  const std::string fingerprint =
      calculon::StrFormat("%016llx", static_cast<unsigned long long>(fp));

  // done[i] != 0 means pairs[i].report is final (journaled or restored).
  std::vector<char> done(pairs.size(), 0);
  if (resume && std::filesystem::exists(checkpoint_path)) {
    const calculon::json::Value cp = calculon::json::ParseFile(checkpoint_path);
    if (cp.GetString("format", "") != kCheckpointFormat ||
        cp.at("fingerprint").AsString() != fingerprint) {
      std::fprintf(stderr,
                   "calculon-audit: %s is not a checkpoint of this sweep\n",
                   checkpoint_path.c_str());
      return 2;
    }
    const calculon::json::Value& cp_pairs = cp.at("pairs");
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (cp_pairs.contains(pairs[i].key)) {
        pairs[i].report = ReportFromJson(cp_pairs.at(pairs[i].key));
        done[i] = 1;
      }
    }
  }

  // The one journal commit, fed in process and by supervised workers
  // alike. A pair that observed a stop mid-sweep is partial: keep its
  // report for this process's summary but leave it out of the journal so
  // a resumed run re-audits it in full.
  calculon::Mutex checkpoint_mutex;
  auto commit_pair = [&](std::size_t i, AuditReport report) {
    pairs[i].report = std::move(report);
    if (ctx.cancelled()) return;
    calculon::MutexLock lock(checkpoint_mutex);
    done[i] = 1;
    if (checkpoint_path.empty()) return;
    // Tmp-file + rename keeps the previous journal intact if this write is
    // interrupted.
    calculon::json::Value cp;
    cp["format"] = kCheckpointFormat;
    cp["fingerprint"] = fingerprint;
    calculon::json::Object journal;
    for (std::size_t j = 0; j < pairs.size(); ++j) {
      if (done[j] != 0) journal[pairs[j].key] = ReportToJson(pairs[j].report);
    }
    cp["pairs"] = calculon::json::Value(std::move(journal));
    calculon::json::WriteFile(checkpoint_path, cp);  // atomic temp + rename
  };

  std::optional<calculon::obs::ProgressReporter> reporter;
  if (obs_options.progress) {
    calculon::obs::ProgressOptions popts;
    popts.interval_s = obs_options.progress_interval_s;
    popts.total = pairs.size();
    popts.label = "audit";
    reporter.emplace(&ctx, popts);
  }
  // The pairs the journal did not restore, in process or in supervised
  // worker processes (a crash or hang inside the model then quarantines
  // its pair instead of killing the audit). Restored pairs count as
  // completed items.
  const auto& plan = faults.plan();
  if (plan.enabled()) dist.faults_spec = plan.ToSpec();
  std::vector<calculon::dist::AuditPairSpec> specs;
  std::vector<std::size_t> orig;  // specs index -> pairs index
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (done[i] != 0) continue;
    specs.push_back(calculon::dist::AuditPairSpec{
        pairs[i].app->value, pairs[i].sys->value, pairs[i].sys->label,
        static_cast<std::uint64_t>(i) << 32});
    orig.push_back(i);
  }
  ctx.RecordCompleted(pairs.size() - specs.size());
  calculon::dist::RunAuditSupervised(
      specs, options, dist, threads, ctx,
      [&](std::uint64_t j, AuditReport report) {
        commit_pair(orig[j], std::move(report));
      });
  if (reporter.has_value()) reporter->Stop();

  calculon::Table table(
      {"application", "system", "evals", "feasible", "checks", "violations"});
  for (Pair& pair : pairs) {
    if (verbose || !pair.report.ok()) {
      table.AddRow({pair.app->label, pair.sys->label,
                    std::to_string(pair.report.evaluations),
                    std::to_string(pair.report.feasible),
                    std::to_string(pair.report.checks),
                    std::to_string(pair.report.violations.size() +
                                   pair.report.dropped)});
    }
    total.Merge(std::move(pair.report));
  }
  if (table.num_rows() > 0) std::printf("%s", table.ToString().c_str());

  constexpr std::size_t kMaxPrinted = 50;
  for (std::size_t i = 0;
       i < total.violations.size() && i < kMaxPrinted; ++i) {
    const AuditViolation& v = total.violations[i];
    std::printf("VIOLATION [%s] %s: %s\n", v.invariant.c_str(),
                v.context.c_str(), v.detail.c_str());
  }
  if (total.violations.size() + total.dropped > kMaxPrinted) {
    std::printf("... and %llu more violations\n",
                static_cast<unsigned long long>(
                    total.violations.size() + total.dropped - kMaxPrinted));
  }

  std::printf(
      "audited %zu applications x %zu systems: %llu evaluations "
      "(%llu feasible), %llu invariant checks (%llu math), "
      "%llu violations\n",
      apps.size(), systems.size(),
      static_cast<unsigned long long>(total.evaluations),
      static_cast<unsigned long long>(total.feasible),
      static_cast<unsigned long long>(total.checks),
      static_cast<unsigned long long>(math_checks),
      static_cast<unsigned long long>(total.violations.size() +
                                      total.dropped));

  const calculon::RunStatus status = ctx.Snapshot();
  const bool all_pairs_done =
      std::all_of(done.begin(), done.end(), [](char d) { return d != 0; });
  if (status.degraded() || !all_pairs_done) {
    std::printf("run status: %s\n", status.Summary().c_str());
    for (const calculon::FailureRecord& record : status.failure_samples) {
      std::printf("FAILURE item=%llu worker=%u %s: %s\n",
                  static_cast<unsigned long long>(record.item), record.worker,
                  record.fingerprint.c_str(), record.reason.c_str());
    }
  }
  obs_options.Finish();
  if (!total.ok()) return 1;
  if (status.degraded() || !all_pairs_done) return 3;
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "calculon-audit: %s\n", e.what());
  return 2;
}
