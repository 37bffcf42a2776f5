#include "dist/jobs.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "analysis/audit.h"
#include "core/perf_model.h"
#include "runner/run_status_json.h"
#include "runner/study.h"
#include "search/exec_search.h"
#include "util/error.h"

namespace calculon::dist {

namespace {

json::Value FailuresToJson(const std::vector<FailureRecord>& failures) {
  json::Array arr;
  arr.reserve(failures.size());
  for (const FailureRecord& f : failures) arr.push_back(ToJson(f));
  return json::Value(std::move(arr));
}

json::Value ExecutionsToJson(const std::vector<SearchEntry>& entries) {
  json::Array arr;
  arr.reserve(entries.size());
  for (const SearchEntry& entry : entries) arr.push_back(entry.exec.ToJson());
  return json::Value(std::move(arr));
}

// Re-evaluates shipped executions, in order, into search entries.
std::vector<SearchEntry> EntriesFromJson(const json::Value& v,
                                         StageTable& stages) {
  std::vector<SearchEntry> entries;
  for (const json::Value& exec_json : v.AsArray()) {
    Execution exec = Execution::FromJson(exec_json);
    Result<Stats> stats = stages.Evaluate(exec);
    if (!stats.ok()) continue;  // cannot happen for a shipped candidate
    entries.push_back({std::move(exec), std::move(stats).value()});
  }
  return entries;
}

// One study row per item, evaluated by EvaluateStudyRow — the row
// evaluator of Study::RunResilient — and shipped as StudyRowToLine text,
// so the CSV line and the raw sample-rate double are bit-identical to what
// the in-process loop commits. A worker's rows share its copy of one
// StageTable, which the parent, never running an item, leaves empty.
class StudyJob : public Job {
 public:
  explicit StudyJob(const json::Value& spec)
      : study_(Study::FromJson(spec.at("spec"))),
        execs_(study_.Enumerate()) {}

  [[nodiscard]] std::uint64_t num_items() const override {
    return execs_.size();
  }

  [[nodiscard]] std::uint64_t FaultKey(std::uint64_t item) const override {
    return item;
  }

  [[nodiscard]] std::string RunItem(std::uint64_t item) override {
    return StudyRowToLine(
        EvaluateStudyRow(stages_, execs_[item], FaultKey(item)));
  }

 private:
  const Study study_;
  // Declared after study_, whose application and system it references.
  StageTable stages_{study_.application, study_.system};
  const std::vector<Execution> execs_;
};

SearchConfig SearchConfigFromJson(const json::Value& v, RunContext* ctx) {
  SearchConfig config;
  config.batch_size = v.GetInt("batch_size", 0);
  config.top_k = static_cast<int>(v.GetInt("top_k", 10));
  config.keep_all_rates = v.GetBool("keep_all_rates", false);
  config.keep_pareto = v.GetBool("keep_pareto", false);
  config.ctx = ctx;
  return config;
}

// One exec-search (t, p, d) triple per item, swept by ExecSearch::Sweep
// with fault isolation (a worker-private context that never stops: the
// supervisor owns cancellation). Ships the triple's tallies, its top-k and
// Pareto executions, its sample rates, and its isolated hard failures.
class ExecSearchJob : public Job {
 public:
  explicit ExecSearchJob(const json::Value& spec)
      : app_(Application::FromJson(spec.at("application"))),
        sys_(System::FromJson(spec.at("system"))),
        space_(SearchSpace::FromJson(spec.at("space"))),
        config_(SearchConfigFromJson(spec.at("config"), &isolate_)),
        search_(app_, sys_, space_, config_) {}

  [[nodiscard]] std::uint64_t num_items() const override {
    return search_.triples().size();
  }

  [[nodiscard]] std::uint64_t FaultKey(std::uint64_t item) const override {
    // Evaluation keys inside triple i are (i << 32) + counter with a
    // 1-based counter, so (i << 32) itself is free for the process-level
    // decision of the whole triple.
    return item << 32;
  }

  [[nodiscard]] std::string RunItem(std::uint64_t item) override {
    const TripleSweep sweep = search_.Sweep(item);
    json::Value out;
    out["evaluated"] = static_cast<std::int64_t>(sweep.evaluated);
    out["feasible"] = static_cast<std::int64_t>(sweep.feasible);
    out["best"] = ExecutionsToJson(sweep.best);
    out["pareto"] = ExecutionsToJson(sweep.pareto);
    json::Array rates;
    rates.reserve(sweep.rates.size());
    for (PerSecond rate : sweep.rates) rates.emplace_back(rate.raw());
    out["rates"] = json::Value(std::move(rates));
    out["failures"] = FailuresToJson(sweep.failures);
    return out.Dump();
  }

 private:
  const Application app_;
  const System sys_;
  const SearchSpace space_;
  RunContext isolate_;
  const SearchConfig config_;
  const ExecSearch search_;
};

// One (application, system) audit pair per item. The worker runs the full
// AuditPair under a private RunContext and ships the report plus the
// isolated failures.
class AuditJob : public Job {
 public:
  explicit AuditJob(const json::Value& spec) {
    const json::Value& options = spec.at("options");
    for (const json::Value& n : options.at("proc_counts").AsArray()) {
      options_.proc_counts.push_back(n.AsInt());
    }
    options_.max_splits = static_cast<int>(options.GetInt("max_splits", 24));
    options_.rel_tol = options.GetDouble("rel_tol", 1e-9);
    options_.max_violations =
        static_cast<int>(options.GetInt("max_violations", 16));
    for (const json::Value& p : spec.at("pairs").AsArray()) {
      pairs_.push_back(AuditPairSpec{
          Application::FromJson(p.at("application")),
          System::FromJson(p.at("system")),
          p.at("context_label").AsString(),
          static_cast<std::uint64_t>(p.at("fault_key_base").AsInt())});
    }
  }

  [[nodiscard]] std::uint64_t num_items() const override {
    return pairs_.size();
  }

  [[nodiscard]] std::uint64_t FaultKey(std::uint64_t item) const override {
    return pairs_[item].fault_key_base;
  }

  [[nodiscard]] std::string RunItem(std::uint64_t item) override {
    const AuditPairSpec& pair = pairs_[item];
    RunContext local_ctx;
    local_ctx.set_max_failure_samples(std::numeric_limits<std::size_t>::max());
    analysis::AuditOptions options = options_;
    options.context_label = pair.context_label;
    options.ctx = &local_ctx;
    options.fault_key_base = pair.fault_key_base;
    const analysis::AuditReport report =
        analysis::AuditPair(pair.app, pair.sys, options);
    json::Value out;
    out["report"] = analysis::ReportToJson(report);
    out["failures"] = FailuresToJson(local_ctx.Snapshot().failure_samples);
    return out.Dump();
  }

 private:
  analysis::AuditOptions options_;
  std::vector<AuditPairSpec> pairs_;
};

}  // namespace

std::unique_ptr<Job> MakeJob(const json::Value& spec) {
  const std::string kind = spec.GetString("job", "");
  if (kind == "study") return std::make_unique<StudyJob>(spec);
  if (kind == "exec_search") return std::make_unique<ExecSearchJob>(spec);
  if (kind == "audit") return std::make_unique<AuditJob>(spec);
  throw ConfigError("dist: unknown job kind '" + kind + "'");
}

std::string StudyRowToLine(const StudyRowResult& row) {
  std::string line;
  line.reserve(row.csv.size() + 32);
  if (row.sample_rate) {
    // %.17g: the commit compares the exact value the worker computed.
    char buf[32];  // "-1.2345678901234567e-308" is 24 characters
    line.append(buf, std::to_chars(buf, buf + sizeof buf,
                                   row.sample_rate->raw(),
                                   std::chars_format::general, 17)
                         .ptr);
  }
  line += '\t';
  if (row.bad_config) json::AppendEscaped(line, *row.bad_config);
  line += '\t';
  line.append(row.csv, 0, row.csv.size() - (row.csv.ends_with('\n') ? 1 : 0));
  return line;
}

StudyRowResult StudyRowFromLine(std::string_view line) {
  const std::size_t rate_end = line.find('\t');
  const std::size_t bad_end = rate_end == std::string_view::npos
                                  ? rate_end
                                  : line.find('\t', rate_end + 1);
  if (bad_end == std::string_view::npos || bad_end + 1 == line.size()) {
    throw ConfigError(
        "dist: a study line needs a rate, a bad-config and a CSV field");
  }
  StudyRowResult row;
  const std::string_view rate = line.substr(0, rate_end);
  if (!rate.empty()) {
    const char* const last = rate.data() + rate.size();
    double value = 0.0;
    const std::from_chars_result r = std::from_chars(rate.data(), last, value);
    if (r.ec != std::errc() || r.ptr != last || !std::isfinite(value) ||
        value <= 0.0) {
      throw ConfigError(
          "dist: a study line's rate is not a finite positive number");
    }
    row.sample_rate = PerSecond(value);
  }
  const std::string_view bad =
      line.substr(rate_end + 1, bad_end - rate_end - 1);
  if (!bad.empty()) {
    // One JSON string exactly as StudyRowToLine escapes it, and nothing
    // more: the canonical rendering must give back the field.
    const json::Value detail = json::Parse(bad);
    std::string canonical;
    if (detail.is_string()) json::AppendEscaped(canonical, detail.AsString());
    if (canonical != bad) {
      throw ConfigError(
          "dist: a study line's bad-config field is not one JSON string");
    }
    row.bad_config = detail.AsString();
  }
  const std::string_view csv = line.substr(bad_end + 1);
  row.csv.reserve(csv.size() + 1);
  row.csv.append(csv);
  row.csv += '\n';
  return row;
}

TripleSweep TripleSweepFromJson(const json::Value& v, StageTable& stages) {
  TripleSweep sweep;
  sweep.evaluated = json::CountIn(v.at("evaluated").AsInt(), "evaluated");
  sweep.feasible = json::CountIn(v.at("feasible").AsInt(), "feasible");
  sweep.best = EntriesFromJson(v.at("best"), stages);
  sweep.pareto = EntriesFromJson(v.at("pareto"), stages);
  for (const json::Value& rate : v.at("rates").AsArray()) {
    sweep.rates.emplace_back(rate.AsDouble());
  }
  sweep.failures = FailuresFromJson(v.at("failures"));
  return sweep;
}

std::vector<FailureRecord> FailuresFromJson(const json::Value& v) {
  std::vector<FailureRecord> failures;
  for (const json::Value& f : v.AsArray()) {
    FailureRecord record;
    record.item = json::CountIn(f.GetInt("item", 0), "item");
    record.fingerprint = f.GetString("fingerprint", "");
    record.reason = f.GetString("reason", "");
    record.worker = static_cast<unsigned>(json::CountIn(
        f.GetInt("worker", 0), "worker", std::numeric_limits<unsigned>::max()));
    failures.push_back(std::move(record));
  }
  return failures;
}

}  // namespace calculon::dist
