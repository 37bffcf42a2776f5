#include "runner/study.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <string_view>
#include <type_traits>
#include <utility>

#include "hw/presets.h"
#include "models/presets.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/run_status_json.h"
#include "testing/fault_injection.h"
#include "util/check.h"
#include "util/fileio.h"
#include "util/mathutil.h"
#include "util/strings.h"
#include "util/units.h"

namespace calculon {
namespace {

// One parsed sweep value: the setter of the Execution field it names and
// the value, with booleans and enums carried as integers.
struct FieldValue {
  void (*set)(Execution&, std::int64_t);
  std::int64_t value;

  void ApplyTo(Execution& e) const { set(e, value); }
};

template <auto Field>
void SetField(Execution& e, std::int64_t v) {
  e.*Field = static_cast<std::remove_reference_t<decltype(e.*Field)>>(v);
}

// Parses one named field value. Throws ConfigError for unknown fields
// (catches typos in study specs loudly) and for ill-typed values.
FieldValue ParseField(const std::string& name, const json::Value& value) {
  using E = Execution;
  if (name == "tensor_par") return {SetField<&E::tensor_par>, value.AsInt()};
  if (name == "pipeline_par") {
    return {SetField<&E::pipeline_par>, value.AsInt()};
  }
  if (name == "data_par") return {SetField<&E::data_par>, value.AsInt()};
  if (name == "microbatch") return {SetField<&E::microbatch>, value.AsInt()};
  if (name == "batch_size") return {SetField<&E::batch_size>, value.AsInt()};
  if (name == "pp_interleaving") {
    return {SetField<&E::pp_interleaving>, value.AsInt()};
  }
  if (name == "recompute") {
    return {SetField<&E::recompute>,
            static_cast<std::int64_t>(RecomputeFromString(value.AsString()))};
  }
  if (name == "tp_overlap") {
    return {SetField<&E::tp_overlap>,
            static_cast<std::int64_t>(TpOverlapFromString(value.AsString()))};
  }
  if (name == "training") return {SetField<&E::training>, value.AsBool()};
  if (name == "fused_activation") {
    return {SetField<&E::fused_activation>, value.AsBool()};
  }
  if (name == "pp_1f1b") return {SetField<&E::pp_1f1b>, value.AsBool()};
  if (name == "pp_rs_ag") return {SetField<&E::pp_rs_ag>, value.AsBool()};
  if (name == "tp_rs_ag") return {SetField<&E::tp_rs_ag>, value.AsBool()};
  if (name == "seq_par") return {SetField<&E::seq_par>, value.AsBool()};
  if (name == "seq_par_ag_redo") {
    return {SetField<&E::seq_par_ag_redo>, value.AsBool()};
  }
  if (name == "dp_overlap") return {SetField<&E::dp_overlap>, value.AsBool()};
  if (name == "optimizer_sharding") {
    return {SetField<&E::optimizer_sharding>, value.AsBool()};
  }
  if (name == "weight_offload") {
    return {SetField<&E::weight_offload>, value.AsBool()};
  }
  if (name == "activation_offload") {
    return {SetField<&E::activation_offload>, value.AsBool()};
  }
  if (name == "optimizer_offload") {
    return {SetField<&E::optimizer_offload>, value.AsBool()};
  }
  throw ConfigError("study: unknown sweep field '" + name + "'");
}

constexpr const char* kCheckpointFormat = "calculon-study-checkpoint-v1";

// How Dump(2) renders the checkpoint's csv_rows array, a key of the
// top-level object: empty, and the separator before each element.
constexpr std::string_view kEmptyCheckpointRows = "\n  \"csv_rows\": []";
constexpr std::string_view kCheckpointRowSeparator = ",\n    ";

void AppendInt(std::string& out, std::int64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

// printf's %.<precision>g (general) or %.<precision>f (fixed): the
// standard defines to_chars with a format and a precision as printf with
// the matching conversion in the "C" locale.
void AppendDouble(std::string& out, double v, std::chars_format format,
                  int precision) {
  char buf[400];  // %.4f of DBL_MAX has 309 integer digits
  out.append(buf,
             std::to_chars(buf, buf + sizeof buf, v, format, precision).ptr);
}

// Compact configuration coordinates for failure records and quarantine
// reports.
std::string StudyRowFingerprint(const Execution& e) {
  return StrFormat("t=%lld p=%lld d=%lld mb=%lld batch=%lld il=%lld rc=%s",
                   static_cast<long long>(e.tensor_par),
                   static_cast<long long>(e.pipeline_par),
                   static_cast<long long>(e.data_par),
                   static_cast<long long>(e.microbatch),
                   static_cast<long long>(e.batch_size),
                   static_cast<long long>(e.pp_interleaving),
                   ToString(e.recompute));
}

// A resumed run compares every later row against the checkpoint's best
// and writes it to its next checkpoint, so the best must be one of the
// completed rows, as the study enumerates it, with a rate a feasible row
// can have. Throws ConfigError naming the checkpoint's best otherwise.
void CheckResumedBest(const std::string& path,
                      const std::vector<Execution>& execs,
                      const StudyRun& run) {
  const StudyBest& best = run.best;
  if (!best.found) return;
  const std::string what =
      "study: checkpoint " + path + " is corrupt: its best";
  if (best.row >= run.csv_rows.size()) {
    throw ConfigError(StrFormat(
        "%s row %llu is not one of its %zu completed rows", what.c_str(),
        static_cast<unsigned long long>(best.row), run.csv_rows.size()));
  }
  if (best.exec.ToJson().Dump() != execs[best.row].ToJson().Dump()) {
    throw ConfigError(StrFormat("%s execution is not row %llu's", what.c_str(),
                                static_cast<unsigned long long>(best.row)));
  }
  const double rate = best.sample_rate.raw();
  if (!std::isfinite(rate) || rate <= 0.0) {
    throw ConfigError(what + " sample rate is not a finite positive number");
  }
}

// Atomic checkpoint write (unique temp + fsync + rename inside
// WriteFileAtomic): a crash mid-write — even SIGKILL — leaves the previous
// checkpoint intact because the rename is the commit point.
void WriteCheckpointText(const std::string& path, const std::string& text) {
  CALC_TRACE_SPAN("io", "checkpoint_write");
  WriteFileAtomic(path, text);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled()) {
    metrics.GetCounter("study.checkpoint_writes")->Increment();
  }
}

// The checkpoint document of `run`, with `rows` as its csv_rows array.
json::Value CheckpointDocument(const std::string& fingerprint,
                               const StudyRun& run, json::Array rows) {
  json::Object obj;
  obj["format"] = kCheckpointFormat;
  obj["fingerprint"] = fingerprint;
  obj["completed"] = static_cast<std::int64_t>(run.csv_rows.size());
  obj["total_rows"] = static_cast<std::int64_t>(run.total_rows);
  obj["csv_rows"] = json::Value(std::move(rows));
  json::Object best;
  best["found"] = run.best.found;
  if (run.best.found) {
    best["row"] = static_cast<std::int64_t>(run.best.row);
    // Dumped as %.17g: lossless.
    best["sample_rate"] = run.best.sample_rate.raw();
    best["execution"] = run.best.exec.ToJson();
  }
  obj["best"] = json::Value(std::move(best));
  obj["status"] = ToJson(run.status);
  return json::Value(std::move(obj));
}

}  // namespace

void WriteStudyCheckpoint(const std::string& path, const json::Value& value) {
  WriteCheckpointText(path, value.Dump(2) + '\n');
}

json::Value StudyCheckpointToJson(const std::string& fingerprint,
                                  const StudyRun& run) {
  json::Array rows;
  rows.reserve(run.csv_rows.size());
  for (const std::string& row : run.csv_rows) rows.emplace_back(row);
  return CheckpointDocument(fingerprint, run, std::move(rows));
}

// Restores csv_rows and best from a checkpoint; throws ConfigError on a
// format or fingerprint mismatch.
void LoadStudyCheckpoint(const std::string& path,
                         const std::string& fingerprint, StudyRun* run) {
  const json::Value cp = json::ParseFile(path);
  if (cp.GetString("format", "") != kCheckpointFormat) {
    throw ConfigError("study: " + path + " is not a study checkpoint");
  }
  if (cp.at("fingerprint").AsString() != fingerprint) {
    throw ConfigError("study: checkpoint " + path +
                      " was written by a different study spec");
  }
  const auto completed = static_cast<std::uint64_t>(cp.at("completed").AsInt());
  const json::Array& rows = cp.at("csv_rows").AsArray();
  if (rows.size() != completed) {
    throw ConfigError("study: checkpoint " + path + " is corrupt: " +
                      std::to_string(rows.size()) + " rows but watermark " +
                      std::to_string(completed));
  }
  run->csv_rows.clear();
  run->csv_rows.reserve(rows.size());
  for (const json::Value& row : rows) run->csv_rows.push_back(row.AsString());
  const json::Value& best = cp.at("best");
  run->best = StudyBest{};
  if (best.GetBool("found", false)) {
    run->best.found = true;
    run->best.row = static_cast<std::uint64_t>(best.at("row").AsInt());
    run->best.sample_rate = PerSecond(best.at("sample_rate").AsDouble());
    run->best.exec = Execution::FromJson(best.at("execution"));
  }
}

Study Study::FromJson(const json::Value& spec) {
  Study study;
  const json::Value& app = spec.at("application");
  study.application = app.is_string()
                          ? presets::ApplicationByName(app.AsString())
                          : Application::FromJson(app);
  const json::Value& sys = spec.at("system");
  study.system = sys.is_string() ? presets::SystemByName(sys.AsString())
                                 : System::FromJson(sys);
  if (spec.contains("num_procs")) {
    study.system = study.system.WithNumProcs(spec.at("num_procs").AsInt());
  }
  if (spec.contains("base_execution")) {
    // Merge onto defaults: reuse FromJson by supplying required fields.
    json::Value base = spec.at("base_execution");
    base["num_procs"] = study.system.num_procs();
    if (!base.contains("tensor_par")) base["tensor_par"] = 1;
    if (!base.contains("pipeline_par")) base["pipeline_par"] = 1;
    if (!base.contains("data_par")) base["data_par"] = 1;
    if (!base.contains("batch_size")) {
      base["batch_size"] = study.system.num_procs();
    }
    study.base = Execution::FromJson(base);
  } else {
    study.base.num_procs = study.system.num_procs();
    study.base.batch_size = study.system.num_procs();
  }
  study.base.num_procs = study.system.num_procs();

  if (spec.contains("sweep")) {
    for (const auto& [name, values] : spec.at("sweep").AsObject()) {
      if (values.is_string() && values.AsString() == "auto") {
        if (name == "data_par") { study.auto_data_par = true; continue; }
        if (name == "tensor_par") { study.auto_tensor_par = true; continue; }
        if (name == "pipeline_par") {
          study.auto_pipeline_par = true;
          continue;
        }
        throw ConfigError("study: 'auto' only applies to parallelism axes");
      }
      study.axes.emplace_back(name, values.AsArray());
    }
  }
  const int autos = static_cast<int>(study.auto_data_par) +
                    static_cast<int>(study.auto_tensor_par) +
                    static_cast<int>(study.auto_pipeline_par);
  if (autos > 1) {
    throw ConfigError("study: at most one parallelism axis can be 'auto'");
  }
  return study;
}

json::Value Study::ToJson() const {
  json::Object spec;
  spec["application"] = application.ToJson();
  spec["system"] = system.ToJson();
  spec["base_execution"] = base.ToJson();
  json::Object sweep;
  for (const auto& [name, values] : axes) {
    json::Array arr;
    arr.reserve(values.size());
    for (const json::Value& v : values) arr.push_back(v);
    sweep[name] = json::Value(std::move(arr));
  }
  if (auto_data_par) sweep["data_par"] = "auto";
  if (auto_tensor_par) sweep["tensor_par"] = "auto";
  if (auto_pipeline_par) sweep["pipeline_par"] = "auto";
  spec["sweep"] = json::Value(std::move(sweep));
  return json::Value(std::move(spec));
}

std::vector<Execution> Study::Enumerate() const {
  // Parse every axis value once, in the order a depth-first walk of the
  // cross product first reaches it, so the first bad value raises the
  // ConfigError it always has: the first value of each axis down to the
  // first empty axis (the walk never passes an empty axis), then the
  // remaining values from the deepest reached axis up.
  const std::size_t n = axes.size();
  std::vector<std::vector<FieldValue>> parsed(n);
  std::size_t reached = 0;
  for (; reached < n && !axes[reached].second.empty(); ++reached) {
    parsed[reached].push_back(
        ParseField(axes[reached].first, axes[reached].second[0]));
  }
  for (std::size_t a = reached; a-- > 0;) {
    for (std::size_t j = 1; j < axes[a].second.size(); ++j) {
      parsed[a].push_back(ParseField(axes[a].first, axes[a].second[j]));
    }
  }
  if (reached < n) return {};  // an empty axis: no rows

  // Walk the cross product as an odometer, the last axis fastest: the
  // order of the depth-first walk.
  std::size_t rows = 1;
  for (const std::vector<FieldValue>& values : parsed) rows *= values.size();
  std::vector<Execution> execs;
  execs.reserve(rows);
  std::vector<std::size_t> digit(n, 0);
  Execution e = base;
  for (const std::vector<FieldValue>& values : parsed) values[0].ApplyTo(e);
  const std::int64_t procs = system.num_procs();
  // The 'auto' degree: procs over the product of the other two, when that
  // product is positive and divides procs. The degrees come from the spec,
  // so a product that overflows int64 derives nothing.
  auto derive = [procs](std::int64_t a, std::int64_t b, std::int64_t* out) {
    std::int64_t ab = 0;
    if (CheckedMul(a, b, &ab) && ab > 0 && procs % ab == 0) *out = procs / ab;
  };
  for (;;) {
    Execution& row = execs.emplace_back(e);
    if (auto_data_par) {
      derive(row.tensor_par, row.pipeline_par, &row.data_par);
    }
    if (auto_tensor_par) {
      derive(row.pipeline_par, row.data_par, &row.tensor_par);
    }
    if (auto_pipeline_par) {
      derive(row.tensor_par, row.data_par, &row.pipeline_par);
    }
    // Advance the deepest axis that has values left and restart every
    // axis below it at its first value.
    std::size_t a = n;
    while (a > 0 && digit[a - 1] + 1 == parsed[a - 1].size()) --a;
    if (a == 0) break;
    ++digit[a - 1];
    parsed[a - 1][digit[a - 1]].ApplyTo(e);
    for (std::size_t b = a; b < n; ++b) {
      digit[b] = 0;
      parsed[b][0].ApplyTo(e);
    }
  }
  return execs;
}

std::vector<StudyRow> Study::Run(RunContext* ctx) const {
  std::vector<StudyRow> rows;
  for (const Execution& e : Enumerate()) {
    if (ctx != nullptr && ctx->ShouldStop()) break;
    rows.emplace_back(e, CalculatePerformance(application, e, system));
  }
  return rows;
}

// FNV-1a over a canonical description of the study; hex-encoded. Any edit
// to the spec (model, system, base execution, axes) changes the value.
std::string Study::Fingerprint() const {
  std::uint64_t h = kFnv1aOffsetBasis;
  h = Fnv1a(h, application.ToJson().Dump());
  h = Fnv1a(h, system.ToJson().Dump());
  h = Fnv1a(h, base.ToJson().Dump());
  for (const auto& [name, values] : axes) {
    h = Fnv1a(h, name);
    for (const json::Value& v : values) h = Fnv1a(h, v.Dump());
  }
  h = Fnv1a(h, StrFormat("autos=%d%d%d", auto_tensor_par ? 1 : 0,
                         auto_pipeline_par ? 1 : 0, auto_data_par ? 1 : 0));
  return StrFormat("%016llx", static_cast<unsigned long long>(h));
}

StudyRowResult EvaluateStudyRow(StageTable& stages, const Execution& exec,
                                std::uint64_t fault_key) {
  auto& faults = testing::FaultInjector::Global();
  const Result<Stats> r = [&]() -> Result<Stats> {
    try {
      if (faults.enabled() && faults.MaybeInject(fault_key)) {
        return {Infeasible::kBadConfig, "injected fault"};
      }
      return stages.Evaluate(exec);
    } catch (const std::exception& ex) {
      return {Infeasible::kBadConfig, std::string(ex.what())};
    }
  }();
  StudyRowResult row;
  row.csv = StudyCsvRow(exec, r);
  if (r.ok()) {
    row.sample_rate = r.value().sample_rate;
  } else if (r.reason() == Infeasible::kBadConfig) {
    row.bad_config = r.detail();
  }
  return row;
}

StudyCommit::StudyCommit(const Study& study, const StudyRunOptions& options)
    : execs_(study.Enumerate()),
      fingerprint_(study.Fingerprint()),
      checkpoint_path_(options.checkpoint_path),
      checkpoint_every_(std::max<std::uint64_t>(1, options.checkpoint_every)),
      ctx_(options.ctx != nullptr ? options.ctx : &local_ctx_) {
  run_.total_rows = execs_.size();
  if (options.resume) {
    if (checkpoint_path_.empty()) {
      throw ConfigError("study: resume requires a checkpoint path");
    }
    if (std::filesystem::exists(checkpoint_path_)) {
      LoadStudyCheckpoint(checkpoint_path_, fingerprint_, &run_);
      if (run_.csv_rows.size() > execs_.size()) {
        throw ConfigError("study: checkpoint has more rows than the sweep");
      }
      CheckResumedBest(checkpoint_path_, execs_, run_);
    }
  }
  run_.resumed_rows = run_.csv_rows.size();
  if (!checkpoint_path_.empty()) {
    for (const std::string& csv : run_.csv_rows) AppendCheckpointRow(csv);
  }
}

void StudyCommit::AppendCheckpointRow(std::string_view csv) {
  checkpoint_rows_ += kCheckpointRowSeparator;
  json::AppendEscaped(checkpoint_rows_, csv);
}

void StudyCommit::WriteCheckpoint() const {
  // The rest of the document, dumped with an empty csv_rows array, which
  // the rows' text then fills: StudyCheckpointToJson(fingerprint_,
  // run_).Dump(2) + "\n", byte for byte.
  const std::string rest = CheckpointDocument(fingerprint_, run_, {}).Dump(2);
  if (checkpoint_rows_.empty()) {
    WriteCheckpointText(checkpoint_path_, rest + '\n');
    return;
  }
  const std::size_t empty_rows = rest.find(kEmptyCheckpointRows);
  CALC_CHECK(empty_rows != std::string::npos,
             "study checkpoint without its csv_rows key");
  // Where the array's ']' sits.
  const std::size_t close = empty_rows + kEmptyCheckpointRows.size() - 1;
  std::string text;
  text.reserve(rest.size() + checkpoint_rows_.size() + 4);
  text.append(rest, 0, close);
  text.append(checkpoint_rows_, 1);  // the first element has no ','
  text += "\n  ";
  text.append(rest, close);
  text += '\n';
  WriteCheckpointText(checkpoint_path_, text);
}

void StudyCommit::Commit(StudyRowResult row) {
  const std::uint64_t i = next_row();
  const Execution& e = execs_[i];
  // kBadConfig out of a well-formed row is a model bug (or an injected
  // fault), not a property of the configuration: count it against the
  // failure budget. Ordinary infeasibility reasons are expected rows.
  if (row.bad_config) {
    ctx_->RecordFailure(i, StudyRowFingerprint(e), std::move(*row.bad_config));
  }
  if (row.sample_rate && *row.sample_rate > run_.best.sample_rate) {
    run_.best.found = true;
    run_.best.row = i;
    run_.best.exec = e;
    run_.best.sample_rate = *row.sample_rate;
  }
  run_.csv_rows.push_back(std::move(row.csv));
  ctx_->RecordCompleted();
  if (checkpoint_path_.empty()) return;
  AppendCheckpointRow(run_.csv_rows.back());
  if (++since_checkpoint_ >= checkpoint_every_) {
    since_checkpoint_ = 0;
    WriteCheckpoint();
  }
}

void StudyCommit::Quarantine(FailureRecord record) {
  const Execution& e = execs_[next_row()];
  StudyRowResult row;
  row.csv =
      StudyCsvRow(e, Result<Stats>(Infeasible::kBadConfig, record.reason));
  // Keep the supervisor's evidence (worker, post-mortem path), scoped
  // with this row's coordinates.
  record.item = next_row();
  record.fingerprint = StudyRowFingerprint(e);
  ctx_->RecordFailure(std::move(record));
  Commit(std::move(row));
}

StudyRun StudyCommit::Finish() {
  run_.status = ctx_->Snapshot();
  run_.status.complete = run_.csv_rows.size() == execs_.size();
  if (!checkpoint_path_.empty()) WriteCheckpoint();
  return std::move(run_);
}

StudyRun Study::RunResilient(const StudyRunOptions& options) const {
  CALC_TRACE_SPAN("runner", "study");
  StudyCommit commit(*this, options);
  StageTable stages(application, system);
  const std::vector<Execution>& execs = commit.rows();
  for (std::uint64_t i = commit.next_row(); i < execs.size(); ++i) {
    if (commit.ctx()->ShouldStop()) break;
    commit.Commit(
        EvaluateStudyRow(stages, execs[i], options.fault_key_base + i));
  }
  return commit.Finish();
}

std::string StudyCsvHeader() {
  return "tensor_par,pipeline_par,data_par,microbatch,batch_size,"
         "pp_interleaving,recompute,feasible,reason,batch_time_s,"
         "sample_rate,mfu,hbm_bytes,tier2_bytes\n";
}

std::string StudyCsvRow(const Execution& e, const Result<Stats>& result) {
  std::string row;
  for (const std::int64_t field :
       {e.tensor_par, e.pipeline_par, e.data_par, e.microbatch, e.batch_size,
        e.pp_interleaving}) {
    AppendInt(row, field);
    row += ',';
  }
  row += ToString(e.recompute);
  row += ',';
  if (result.ok()) {
    const Stats& s = result.value();
    row += "1,,";
    AppendDouble(row, s.batch_time.raw(), std::chars_format::general, 6);
    row += ',';
    AppendDouble(row, s.sample_rate.raw(), std::chars_format::general, 6);
    row += ',';
    AppendDouble(row, s.mfu, std::chars_format::fixed, 4);
    row += ',';
    AppendDouble(row, s.tier1.Total().raw(), std::chars_format::fixed, 0);
    row += ',';
    AppendDouble(row, s.tier2.Total().raw(), std::chars_format::fixed, 0);
  } else {
    row += "0,";
    const std::size_t reason = row.size();
    row += result.detail();
    for (auto it = row.begin() + static_cast<std::ptrdiff_t>(reason);
         it != row.end(); ++it) {
      if (*it == ',' || *it == '\n') *it = ';';
    }
    row += ",,,,,";
  }
  row += '\n';
  return row;
}

std::string StudyCsv(const Study& study, const std::vector<StudyRow>& rows) {
  std::string csv = StudyCsvHeader();
  for (const StudyRow& row : rows) csv += StudyCsvRow(row.exec, row.result);
  (void)study;
  return csv;
}

std::string StudyRun::Csv() const {
  std::string csv = StudyCsvHeader();
  for (const std::string& row : csv_rows) csv += row;
  return csv;
}

}  // namespace calculon
