// Supervised front ends for the three sweep engines: the parent-side
// drivers that build the engine's job (dist/jobs.h) from their inputs,
// run it on a worker pool (dist/supervisor.h forks the workers with it)
// and feed the streamed results to the engine's own commit.
//
// Contract: for items untouched by process-level faults, a supervised run
// produces bit-identical output to the in-process engine. Each engine has
// one item evaluator and one commit, and the in-process loop and these
// drivers are two ways of feeding that commit: (a) the worker evaluates
// every item with the engine's evaluator (dist/jobs.h), (b) doubles travel
// as %.17g text (lossless), and (c) study rows and search triples reach
// StudyCommit / ExecSearch::Commit in item order, so checkpoints, CSV
// rows, best-candidate selection, collected rates and Pareto fronts, and
// the completed-item and failure counts replay the sequential loop's.
// Quarantined items are charged as FailureRecords on the run's status,
// whether or not the caller passed a RunContext — the run degrades (exit
// code 3 at the CLI) instead of dying.
//
// Each driver runs the in-process engine when dist is inactive
// (workers == 0), so callers always pass through one entry point; every
// search collector (keep_all_rates, keep_pareto) travels over the wire.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/audit.h"
#include "dist/jobs.h"
#include "dist/supervisor.h"
#include "hw/system.h"
#include "models/application.h"
#include "runner/study.h"
#include "search/exec_search.h"
#include "util/run_context.h"

namespace calculon::dist {

// Study::RunResilient across a supervised worker pool. Checkpoint/resume
// is StudyCommit's, so a study may be interrupted under one mode and
// resumed under the other. Quarantined rows appear in the CSV as
// infeasible rows with a "quarantined ..." reason and count as failures.
[[nodiscard]] StudyRun RunStudySupervised(const Study& study,
                                          const StudyRunOptions& options,
                                          const DistOptions& dist);

// FindOptimalExecution across a supervised worker pool, one (t, p, d)
// triple per item, committed in triple order.
[[nodiscard]] SearchResult FindOptimalExecutionSupervised(
    const Application& app, const System& sys, const SearchSpace& space,
    const SearchConfig& config, const DistOptions& dist);

// AuditPair for each pair, across a supervised worker pool or, when dist
// is inactive, in process on at most one thread per pair (`threads` 0:
// one per hardware thread). Each report goes, as it arrives, to
// `on_pair_done(i, report)` (the caller's journal commit; in process, on
// the pool's threads) and counts one completed item on `ctx`; a commit
// that throws is that pair's failure. In process each pair polls `ctx`
// before it starts, and an AuditPair that throws is that pair's failure.
// Worker-side failures and quarantines replay onto `ctx`. A pair whose
// AuditPair throws, or that is quarantined, is never committed (the
// caller's degraded-exit accounting treats it like a pair a stop
// interrupted).
void RunAuditSupervised(
    const std::vector<AuditPairSpec>& pairs,
    const analysis::AuditOptions& options, const DistOptions& dist,
    unsigned threads, RunContext& ctx,
    const std::function<void(std::uint64_t, analysis::AuditReport)>&
        on_pair_done);

}  // namespace calculon::dist
