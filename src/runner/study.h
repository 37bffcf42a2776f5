// JSON-driven study runner: the reusable front end for "sweep these knobs,
// give me a CSV" experiments, the day-to-day mode of using the tool.
//
// A study specification looks like:
//
//   {
//     "application": "gpt3_175b",          // preset name or inline object
//     "system": "a100_80g",                // preset name or inline object
//     "num_procs": 512,                    // optional system resize
//     "base_execution": {                  // defaults for unswept fields
//       "batch_size": 512, "recompute": "full"
//     },
//     "sweep": {                           // cross product of these axes
//       "tensor_par": [1, 2, 4, 8],
//       "pipeline_par": [8, 16],
//       "data_par": "auto",               // derived: procs / (t * p)
//       "microbatch": [1, 2, 4]
//     }
//   }
//
// Sweepable fields: tensor_par, pipeline_par, data_par, microbatch,
// batch_size, pp_interleaving, recompute, tp_overlap, and every boolean
// option of Execution. "auto" on one of tensor_par/pipeline_par/data_par
// derives it from the processor count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/perf_model.h"
#include "json/json.h"
#include "util/run_context.h"

namespace calculon {

struct StudyRow {
  Execution exec;
  Result<Stats> result;

  StudyRow(Execution e, Result<Stats> r)
      : exec(std::move(e)), result(std::move(r)) {}
};

// Options for Study::RunResilient.
struct StudyRunOptions {
  // Optional resilience context: cancellation / deadline / failure budget
  // observed between rows, failures recorded as FailureRecords.
  RunContext* ctx = nullptr;
  // When non-empty, a JSON journal of completed rows and the best-so-far
  // configuration is written here every `checkpoint_every` rows and at the
  // end (or at early stop), atomically (tmp file + rename).
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 64;
  // Load `checkpoint_path` first and continue from its watermark. The
  // checkpoint's study fingerprint must match; a stale checkpoint for a
  // different spec is a ConfigError, not silent corruption.
  bool resume = false;
};

// Best feasible configuration seen so far (ties keep the earliest row, so
// the winner is independent of where a run was interrupted and resumed).
struct StudyBest {
  bool found = false;
  std::uint64_t row = 0;  // enumeration index
  Execution exec;
  PerSecond sample_rate;
};

// Outcome of a resilient study run: completed rows as pre-formatted CSV
// data lines (stable across checkpoint/resume), the running best, and the
// run status (complete vs. stopped early, failure summary).
struct StudyRun {
  std::vector<std::string> csv_rows;  // one CSV data line per completed row
  StudyBest best;
  RunStatus status;
  std::uint64_t total_rows = 0;    // full cross-product size
  std::uint64_t resumed_rows = 0;  // rows restored from the checkpoint

  // Header plus every completed row.
  [[nodiscard]] std::string Csv() const;
};

struct Study {
  Application application;
  System system;
  Execution base;
  // Field name -> candidate JSON values; "auto" handled at run time.
  std::vector<std::pair<std::string, std::vector<json::Value>>> axes;
  bool auto_data_par = false;
  bool auto_tensor_par = false;
  bool auto_pipeline_par = false;

  [[nodiscard]] static Study FromJson(const json::Value& spec);

  // Canonical spec form (inline application/system/base_execution objects,
  // "auto" markers preserved). FromJson(ToJson()) reconstructs a study
  // with the same Fingerprint() — which is how a supervised dist worker
  // receives the exact study its parent is running.
  [[nodiscard]] json::Value ToJson() const;

  // Evaluates the full cross product (infeasible rows included, with their
  // reasons), each row by one-shot CalculatePerformance: the reference the
  // tests hold RunResilient() to. With a RunContext, polls it between rows
  // and returns the rows completed so far when the run is stopped;
  // RunResilient() is the fault-isolated/checkpointed variant.
  [[nodiscard]] std::vector<StudyRow> Run(RunContext* ctx = nullptr) const;

  // The cross product in deterministic enumeration order (the order Run()
  // evaluates); the unit of checkpoint/resume accounting.
  [[nodiscard]] std::vector<Execution> Enumerate() const;

  // Stable hash of the study definition (application, system, base
  // execution, axes). Guards checkpoints against being replayed into a
  // different study.
  [[nodiscard]] std::string Fingerprint() const;

  // Run() with fault isolation and checkpoint/resume: per-row exceptions
  // and model-bug Results (Infeasible::kBadConfig) become FailureRecords
  // instead of aborting the sweep; cancellation, deadlines and failure
  // budgets stop early with the completed prefix intact. A run resumed
  // from a checkpoint produces byte-identical CSV and best-configuration
  // output to an uninterrupted run. The rows share one StageTable, so a
  // row costs only the stages its inputs make new.
  [[nodiscard]] StudyRun RunResilient(const StudyRunOptions& options = {}) const;
};

// One evaluated study row, as the commit consumes it and a dist worker
// ships it back.
struct StudyRowResult {
  std::string csv;                       // the row's CSV data line
  std::optional<PerSecond> sample_rate;  // feasible rows
  // kBadConfig out of a well-formed row (a model bug or an injected
  // fault): the detail charged to the failure budget.
  std::optional<std::string> bad_config;
};

// Evaluates one enumerated row through the caller's StageTable, bound to
// the study's application and system, with the fault-isolation discipline
// of RunResilient: an injected error-fault or any thrown exception becomes
// an Infeasible::kBadConfig row instead of propagating. The single row
// evaluator of the in-process loop and the dist worker.
[[nodiscard]] StudyRowResult EvaluateStudyRow(StageTable& stages,
                                              const Execution& exec,
                                              std::uint64_t fault_key);

// The in-order commit of a resilient study run, shared by
// Study::RunResilient (fed by its own loop) and dist::RunStudySupervised
// (fed by worker results): resume, best row, failure charge, checkpoint
// cadence and status live here once. The rows and their escaped text are
// reserved for the whole study up front. Each committed row is
// JSON-escaped into the checkpoint's text once, and a checkpoint write
// hands that text to WriteFileAtomic as one piece between the document's
// head and tail, so no write renders or copies the rows again.
class StudyCommit {
 public:
  // Enumerates the study and, with options.resume, restores the
  // checkpoint (ConfigError on a mismatched or oversized one, or on a best
  // row that is not one of its completed rows as enumerated, with a finite
  // positive rate).
  StudyCommit(const Study& study, const StudyRunOptions& options);

  [[nodiscard]] const std::vector<Execution>& rows() const { return execs_; }
  // The row the next Commit() fills; the resume watermark before any.
  [[nodiscard]] std::uint64_t next_row() const {
    return run_.csv_rows.size();
  }
  // options.ctx, or a private context when the caller passed none, so the
  // returned status counts rows, failures and quarantines either way.
  [[nodiscard]] RunContext* ctx() { return ctx_; }

  // Commits row next_row().
  void Commit(StudyRowResult row);
  // Commits row next_row(), whose worker was quarantined, as an
  // infeasible "quarantined ..." row and records `record` as its failure.
  void Quarantine(FailureRecord record);
  // Final status and checkpoint.
  [[nodiscard]] StudyRun Finish();

 private:
  // Appends `csv` to checkpoint_rows_; the first call reserves the
  // buffer for every row.
  void AppendCheckpointRow(std::string_view csv);
  // Writes StudyCheckpointToJson(fingerprint_, run_), as
  // WriteStudyCheckpoint would, from checkpoint_rows_.
  void WriteCheckpoint() const;

  const std::vector<Execution> execs_;
  const std::string fingerprint_;
  const std::string checkpoint_path_;
  const std::uint64_t checkpoint_every_;
  RunContext local_ctx_;
  RunContext* const ctx_;
  StudyRun run_;
  std::uint64_t since_checkpoint_ = 0;
  // With a checkpoint path: the elements of the checkpoint's csv_rows
  // array as Dump(2) renders them, each after its ",\n    " separator.
  std::string checkpoint_rows_;
};

// Study checkpoint persistence (format marker, fingerprint guard, atomic
// writes). StudyCommit writes the bytes WriteStudyCheckpoint(path,
// StudyCheckpointToJson(fingerprint, run)) would.
void WriteStudyCheckpoint(const std::string& path, const json::Value& value);
[[nodiscard]] json::Value StudyCheckpointToJson(const std::string& fingerprint,
                                                const StudyRun& run);
void LoadStudyCheckpoint(const std::string& path,
                         const std::string& fingerprint, StudyRun* run);

// CSV with one row per configuration: the swept fields, feasibility, and
// the headline statistics.
[[nodiscard]] std::string StudyCsv(const std::vector<StudyRow>& rows);

// The header line and one data line (both newline-terminated) of the study
// CSV; StudyCsv and StudyRun::Csv are compositions of these. A data line is
// built in one reserved buffer, an infeasible row's explanation appended in
// place (InfeasibleError::AppendTo) with its ',' and '\n' made ';'.
[[nodiscard]] std::string StudyCsvHeader();
[[nodiscard]] std::string StudyCsvRow(const Execution& exec,
                                      const Result<Stats>& result);

}  // namespace calculon
