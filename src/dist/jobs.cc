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

// Re-evaluates shipped executions, in order, into search entries. A
// worker ships feasible candidates only, so one that does not evaluate
// marks a corrupt line.
std::vector<SearchEntry> EntriesFromJson(const json::Value& v,
                                         StageTable& stages) {
  std::vector<SearchEntry> entries;
  for (const json::Value& exec_json : v.AsArray()) {
    Execution exec = Execution::FromJson(exec_json);
    Result<Stats> stats = stages.Evaluate(exec);
    if (!stats.ok()) {
      throw ConfigError("dist: a shipped execution does not evaluate: " +
                        stats.detail());
    }
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
  explicit StudyJob(Study study)
      : study_(std::move(study)), execs_(study_.Enumerate()) {}

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

SearchConfig WithContext(SearchConfig config, RunContext* ctx) {
  config.ctx = ctx;
  return config;
}

// One exec-search (t, p, d) triple per item, swept by ExecSearch::Sweep
// with fault isolation (a worker-private context that never stops: the
// supervisor owns cancellation). Ships the triple's tallies, its top-k and
// Pareto executions, its sample rates, and its isolated hard failures.
class ExecSearchJob : public Job {
 public:
  ExecSearchJob(const Application& app, const System& sys,
                const SearchSpace& space, const SearchConfig& config)
      : app_(app),
        sys_(sys),
        space_(space),
        search_(app_, sys_, space_, WithContext(config, &isolate_)) {}

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
  // Copies its config; references the members above.
  const ExecSearch search_;
};

// One (application, system) audit pair per item. The worker runs the full
// AuditPair under a private RunContext and ships the report plus the
// isolated failures.
class AuditJob : public Job {
 public:
  AuditJob(const std::vector<AuditPairSpec>& pairs,
           const analysis::AuditOptions& options)
      : pairs_(pairs), options_(options) {}

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
  const std::vector<AuditPairSpec> pairs_;
  const analysis::AuditOptions options_;
};

}  // namespace

std::unique_ptr<Job> MakeStudyJob(const Study& study) {
  return std::make_unique<StudyJob>(study);
}

std::unique_ptr<Job> MakeJob(const json::Value& spec) {
  const std::string kind = spec.GetString("job", "");
  if (kind != "study") {
    throw ConfigError("dist: unknown job kind '" + kind + "'");
  }
  return std::make_unique<StudyJob>(Study::FromJson(spec.at("spec")));
}

std::unique_ptr<Job> MakeExecSearchJob(const Application& app,
                                       const System& sys,
                                       const SearchSpace& space,
                                       const SearchConfig& config) {
  return std::make_unique<ExecSearchJob>(app, sys, space, config);
}

std::unique_ptr<Job> MakeAuditJob(const std::vector<AuditPairSpec>& pairs,
                                  const analysis::AuditOptions& options) {
  return std::make_unique<AuditJob>(pairs, options);
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

TripleSweep TripleSweepFromJson(const json::Value& v, int top_k,
                                StageTable& stages) {
  TripleSweep sweep;
  sweep.evaluated = json::CountIn(v.at("evaluated").AsInt(), "evaluated");
  sweep.feasible = json::CountIn(v.at("feasible").AsInt(), "feasible");
  sweep.best = EntriesFromJson(v.at("best"), stages);
  // ExecSearch::Commit merges top-k lists.
  if (!IsTopKList(sweep.best, top_k)) {
    throw ConfigError(
        "dist: an exec-search line's best list is out of order or longer "
        "than top_k");
  }
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
