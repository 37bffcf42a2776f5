// Sweep jobs: the unit of work a supervised worker pool executes.
//
// A Job is a sweep expressed as an indexed list of independent items
// (study rows, exec-search triples, audit pairs) that is fully described
// by one JSON spec. The supervisor builds the job from the spec once,
// before it forks any worker; each worker evaluates the items it is
// assigned on its own copy with the engine's one item evaluator
// (EvaluateStudyRow, ExecSearch::Sweep, AuditPair).
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

// Builds the job described by `spec`, a {"job": "<kind>", ...} object as
// produced by the drivers in dist/drivers.h. Kinds: "study",
// "exec_search", "audit". Throws ConfigError on an unknown kind or a
// malformed spec.
[[nodiscard]] std::unique_ptr<Job> MakeJob(const json::Value& spec);

// One "audit" item: an (application, system) pair, as the caller labels it.
struct AuditPairSpec {
  Application app;
  System sys;
  std::string context_label;
  std::uint64_t fault_key_base = 0;
};

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
// stages.
[[nodiscard]] TripleSweep TripleSweepFromJson(const json::Value& v,
                                              StageTable& stages);

// The isolated failures of an "exec_search" or "audit" item result.
[[nodiscard]] std::vector<FailureRecord> FailuresFromJson(
    const json::Value& v);

}  // namespace calculon::dist
