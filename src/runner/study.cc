#include "runner/study.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <sstream>
#include <utility>

#include "hw/presets.h"
#include "models/presets.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/run_status_json.h"
#include "testing/fault_injection.h"
#include "util/strings.h"
#include "util/units.h"

namespace calculon {
namespace {

// Applies one named field value onto an Execution. Throws ConfigError for
// unknown fields (catches typos in study specs loudly).
void ApplyField(Execution& e, const std::string& name,
                const json::Value& value) {
  if (name == "tensor_par") { e.tensor_par = value.AsInt(); return; }
  if (name == "pipeline_par") { e.pipeline_par = value.AsInt(); return; }
  if (name == "data_par") { e.data_par = value.AsInt(); return; }
  if (name == "microbatch") { e.microbatch = value.AsInt(); return; }
  if (name == "batch_size") { e.batch_size = value.AsInt(); return; }
  if (name == "pp_interleaving") {
    e.pp_interleaving = value.AsInt();
    return;
  }
  if (name == "recompute") {
    e.recompute = RecomputeFromString(value.AsString());
    return;
  }
  if (name == "tp_overlap") {
    e.tp_overlap = TpOverlapFromString(value.AsString());
    return;
  }
  if (name == "training") { e.training = value.AsBool(); return; }
  if (name == "fused_activation") {
    e.fused_activation = value.AsBool();
    return;
  }
  if (name == "pp_1f1b") { e.pp_1f1b = value.AsBool(); return; }
  if (name == "pp_rs_ag") { e.pp_rs_ag = value.AsBool(); return; }
  if (name == "tp_rs_ag") { e.tp_rs_ag = value.AsBool(); return; }
  if (name == "seq_par") { e.seq_par = value.AsBool(); return; }
  if (name == "seq_par_ag_redo") {
    e.seq_par_ag_redo = value.AsBool();
    return;
  }
  if (name == "dp_overlap") { e.dp_overlap = value.AsBool(); return; }
  if (name == "optimizer_sharding") {
    e.optimizer_sharding = value.AsBool();
    return;
  }
  if (name == "weight_offload") {
    e.weight_offload = value.AsBool();
    return;
  }
  if (name == "activation_offload") {
    e.activation_offload = value.AsBool();
    return;
  }
  if (name == "optimizer_offload") {
    e.optimizer_offload = value.AsBool();
    return;
  }
  throw ConfigError("study: unknown sweep field '" + name + "'");
}

// FNV-1a over a canonical description of the study; hex-encoded. Any edit
// to the spec (model, system, base execution, axes) changes the value.
std::uint64_t Fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr const char* kCheckpointFormat = "calculon-study-checkpoint-v1";

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

}  // namespace

// Atomic checkpoint write (unique temp + fsync + rename inside
// json::WriteFile → WriteFileAtomic): a crash mid-write — even SIGKILL —
// leaves the previous checkpoint intact because the rename is the commit
// point.
void WriteStudyCheckpoint(const std::string& path, const json::Value& value) {
  CALC_TRACE_SPAN("io", "checkpoint_write");
  json::WriteFile(path, value);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled()) {
    metrics.GetCounter("study.checkpoint_writes")->Increment();
  }
}

json::Value StudyCheckpointToJson(const std::string& fingerprint,
                                  const StudyRun& run) {
  json::Object obj;
  obj["format"] = kCheckpointFormat;
  obj["fingerprint"] = fingerprint;
  obj["completed"] = static_cast<std::int64_t>(run.csv_rows.size());
  obj["total_rows"] = static_cast<std::int64_t>(run.total_rows);
  json::Array rows;
  rows.reserve(run.csv_rows.size());
  for (const std::string& row : run.csv_rows) rows.emplace_back(row);
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
  std::vector<Execution> execs;
  std::function<void(std::size_t, Execution)> recurse =
      [&](std::size_t axis, Execution e) {
        if (axis == axes.size()) {
          const std::int64_t n = system.num_procs();
          if (auto_data_par && e.tensor_par * e.pipeline_par > 0 &&
              n % (e.tensor_par * e.pipeline_par) == 0) {
            e.data_par = n / (e.tensor_par * e.pipeline_par);
          }
          if (auto_tensor_par && e.pipeline_par * e.data_par > 0 &&
              n % (e.pipeline_par * e.data_par) == 0) {
            e.tensor_par = n / (e.pipeline_par * e.data_par);
          }
          if (auto_pipeline_par && e.tensor_par * e.data_par > 0 &&
              n % (e.tensor_par * e.data_par) == 0) {
            e.pipeline_par = n / (e.tensor_par * e.data_par);
          }
          execs.push_back(e);
          return;
        }
        for (const json::Value& value : axes[axis].second) {
          Execution next = e;
          ApplyField(next, axes[axis].first, value);
          recurse(axis + 1, next);
        }
      };
  recurse(0, base);
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

std::string Study::Fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
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

StudyRowResult EvaluateStudyRow(const Study& study, const Execution& exec,
                                std::uint64_t fault_key) {
  auto& faults = testing::FaultInjector::Global();
  const Result<Stats> r = [&]() -> Result<Stats> {
    try {
      if (faults.enabled() && faults.MaybeInject(fault_key)) {
        return {Infeasible::kBadConfig, "injected fault"};
      }
      return CalculatePerformance(study.application, exec, study.system);
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
    }
  }
  run_.resumed_rows = run_.csv_rows.size();
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
  if (!checkpoint_path_.empty() && ++since_checkpoint_ >= checkpoint_every_) {
    since_checkpoint_ = 0;
    WriteStudyCheckpoint(checkpoint_path_,
                         StudyCheckpointToJson(fingerprint_, run_));
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
  if (!checkpoint_path_.empty()) {
    WriteStudyCheckpoint(checkpoint_path_,
                         StudyCheckpointToJson(fingerprint_, run_));
  }
  return std::move(run_);
}

StudyRun Study::RunResilient(const StudyRunOptions& options) const {
  CALC_TRACE_SPAN("runner", "study");
  StudyCommit commit(*this, options);
  const std::vector<Execution>& execs = commit.rows();
  for (std::uint64_t i = commit.next_row(); i < execs.size(); ++i) {
    if (commit.ctx()->ShouldStop()) break;
    commit.Commit(
        EvaluateStudyRow(*this, execs[i], options.fault_key_base + i));
  }
  return commit.Finish();
}

std::string StudyCsvHeader() {
  return "tensor_par,pipeline_par,data_par,microbatch,batch_size,"
         "pp_interleaving,recompute,feasible,reason,batch_time_s,"
         "sample_rate,mfu,hbm_bytes,tier2_bytes\n";
}

std::string StudyCsvRow(const Execution& e, const Result<Stats>& result) {
  std::ostringstream os;
  os << e.tensor_par << ',' << e.pipeline_par << ',' << e.data_par << ','
     << e.microbatch << ',' << e.batch_size << ',' << e.pp_interleaving
     << ',' << ToString(e.recompute) << ',';
  if (result.ok()) {
    const Stats& s = result.value();
    os << "1,," << StrFormat("%.6g", s.batch_time.raw()) << ','
       << StrFormat("%.6g", s.sample_rate.raw()) << ','
       << StrFormat("%.4f", s.mfu) << ','
       << StrFormat("%.0f", s.tier1.Total().raw()) << ','
       << StrFormat("%.0f", s.tier2.Total().raw());
  } else {
    std::string reason = result.detail();
    for (char& c : reason) {
      if (c == ',' || c == '\n') c = ';';
    }
    os << "0," << reason << ",,,,,";
  }
  os << '\n';
  return os.str();
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
