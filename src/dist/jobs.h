// Sweep jobs: the unit of work a supervised worker pool executes.
//
// A Job is a sweep expressed as an indexed list of independent items
// (study rows, exec-search triples, audit pairs). Each driver in
// dist/drivers.h builds its engine's job from the inputs it holds (the
// job owns copies of them), once, before the supervisor forks any
// worker; each worker evaluates the items it is assigned on its own copy
// with the engine's one item evaluator (EvaluateStudyRow,
// ExecSearch::Sweep, AuditPair).
// An item result is one line of text, with doubles written losslessly
// (%.17g): a study row is the StudyRowToLine text below, an exec-search
// triple or audit pair a compact JSON object. The parent decodes a line
// with StudyRowFromLine, or json::Parse and the *FromJson functions, into
// the engine's native item result and hands that to the engine's one
// commit (StudyCommit, ExecSearch::Commit) — the same commit the
// in-process loop feeds, so a supervised sweep merges to bit-identical
// output.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/audit.h"
#include "core/perf_model.h"
#include "hw/system.h"
#include "json/json.h"
#include "models/application.h"
#include "runner/study.h"
#include "search/exec_search.h"
#include "util/run_context.h"

namespace calculon::dist {

class Job {
 public:
  virtual ~Job() = default;

  [[nodiscard]] virtual std::uint64_t num_items() const = 0;

  // The deterministic fault-injection key of item `item` — consulted by
  // the worker (MaybeInjectProcess) immediately before evaluating it, so
  // a seeded process fault re-fires on every retry of the same item.
  [[nodiscard]] virtual std::uint64_t FaultKey(std::uint64_t item) const = 0;

  // Evaluates one item into its result line (no '\n'). Per-item model
  // failures are isolated inside the result (never thrown): a throw out of
  // RunItem means the job itself is broken and takes the worker down.
  [[nodiscard]] virtual std::string RunItem(std::uint64_t item) = 0;
};

// One study row per item, evaluated by EvaluateStudyRow and shipped as
// StudyRowToLine text.
[[nodiscard]] std::unique_ptr<Job> MakeStudyJob(const Study& study);

// The study job of `spec`, a {"job": "study", "spec": <Study::ToJson()>}
// object. Throws ConfigError on any other "job" kind or a malformed spec.
[[nodiscard]] std::unique_ptr<Job> MakeJob(const json::Value& spec);

// One (t, p, d) triple of ExecSearch(app, sys, space, config) per item,
// swept with fault isolation under a private RunContext that never stops
// (config.ctx is not consulted: the supervisor owns cancellation).
[[nodiscard]] std::unique_ptr<Job> MakeExecSearchJob(
    const Application& app, const System& sys, const SearchSpace& space,
    const SearchConfig& config);

// One "audit" item: an (application, system) pair, as the caller labels it.
struct AuditPairSpec {
  Application app;
  System sys;
  std::string context_label;
  std::uint64_t fault_key_base = 0;
};

// One pair per item, audited by AuditPair under `options` with the pair's
// context label and fault-key base, and a private RunContext whose
// failures the result line carries.
[[nodiscard]] std::unique_ptr<Job> MakeAuditJob(
    const std::vector<AuditPairSpec>& pairs,
    const analysis::AuditOptions& options);

// A "study" item result as one line of three tab-separated fields: the
// exact sample rate (%.17g; empty for an infeasible row), the bad-config
// detail as a JSON string literal (empty when there is none), then the
// CSV data line without its '\n'. The CSV line comes last because it may
// hold tabs; it holds no '\n' (StudyCsvRow maps those in reasons to ';').
[[nodiscard]] std::string StudyRowToLine(const StudyRowResult& row);

// The inverse of StudyRowToLine. Throws ConfigError on a missing field, a
// rate that is not a finite positive number written out in full, or
// bad-config text that is not exactly one JSON string as StudyRowToLine
// writes it.
[[nodiscard]] StudyRowResult StudyRowFromLine(std::string_view line);

// An "exec_search" item result. The worker ships executions only; their
// Stats are recomputed here by deterministic re-evaluation through
// `stages` (StageTable::Evaluate equals CalculatePerformance bit for bit),
// which is exact and keeps the frames small. One table per search serves
// every triple's entries, which share most of their block and partition
// stages. Throws ConfigError when a shipped execution does not evaluate
// (a worker ships feasible ones only) and when the best list is not a
// top-k list of `top_k` (IsTopKList), which ExecSearch::Commit's merge
// cannot take.
[[nodiscard]] TripleSweep TripleSweepFromJson(const json::Value& v,
                                              int top_k, StageTable& stages);

// The isolated failures of an "exec_search" or "audit" item result.
[[nodiscard]] std::vector<FailureRecord> FailuresFromJson(
    const json::Value& v);

}  // namespace calculon::dist
