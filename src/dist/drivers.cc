#include "dist/drivers.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/perf_model.h"
#include "json/json.h"
#include "obs/trace.h"
#include "util/threadpool.h"

namespace calculon::dist {

namespace {

// Runs `spec` on a supervised pool and feeds every item from `first_item`
// on to the engine's commit in item order: `commit(result)` for an item's
// result, `quarantine(record)` for a quarantined item. `decode` turns each
// result line into the engine's item result as it arrives, so a line that
// does not decode (a ConfigError out of `decode`) is charged to the worker
// that sent it. A commit that throws is the engine's own failure: it stops
// the pool and propagates, as in process. Results arrive in completion
// order; early ones wait here, decoded, until their predecessors resolve.
// A stopped run can leave gaps; with `past_gaps` the items resolved beyond
// the first gap are still fed, in item order, when the pool returns.
template <typename Item>
void RunInItemOrder(const json::Value& spec, std::uint64_t first_item,
                    const DistOptions& dist, RunContext* ctx, bool past_gaps,
                    const std::function<Item(std::string_view)>& decode,
                    const std::function<void(Item)>& commit,
                    const std::function<void(FailureRecord)>& quarantine) {
  std::map<std::uint64_t, std::variant<Item, FailureRecord>> pending;
  std::uint64_t next = first_item;
  auto release = [&](auto it) {
    if (auto* result = std::get_if<Item>(&it->second)) {
      commit(std::move(*result));
    } else {
      quarantine(std::move(std::get<FailureRecord>(it->second)));
    }
    pending.erase(it);
  };
  auto drain = [&] {
    for (auto it = pending.begin(); it != pending.end() && it->first == next;
         it = pending.begin(), ++next) {
      release(it);
    }
  };
  SupervisorCallbacks callbacks;
  callbacks.on_item = [&](std::uint64_t item, std::string_view line) {
    std::optional<Item> result;
    try {
      result.emplace(decode(line));
    } catch (const ConfigError&) {
      return false;
    }
    if (item == next) {  // in order: no need to buffer it
      commit(std::move(*result));
      ++next;
    } else {
      pending.emplace(item, std::move(*result));
    }
    drain();
    return true;
  };
  callbacks.on_quarantine = [&](const FailureRecord& record) {
    pending.emplace(record.item, record);
    drain();
  };
  RunSupervised(spec, dist, callbacks, first_item, ctx);
  while (past_gaps && !pending.empty()) release(pending.begin());
}

using PairDone = std::function<void(std::uint64_t, analysis::AuditReport)>;

// The one commit step of both audit halves: the report reaches the
// caller's commit and counts one completed item. A commit that throws is
// the pair's failure (charged to the committing pool participant, 0 in
// the supervisor), and the audit goes on.
void CommitPair(RunContext& ctx, const PairDone& on_pair_done,
                std::uint64_t item, analysis::AuditReport report) {
  try {
    on_pair_done(item, std::move(report));
    ctx.RecordCompleted();
  } catch (const std::exception& e) {
    ctx.RecordFailure(item, /*fingerprint=*/{}, e.what(),
                      ThreadPool::CurrentWorkerId());
  }
}

}  // namespace

StudyRun RunStudySupervised(const Study& study, const StudyRunOptions& options,
                            const DistOptions& dist) {
  if (!dist.active()) return study.RunResilient(options);
  CALC_TRACE_SPAN("dist", "study");
  StudyCommit commit(study, options);
  json::Value spec;
  spec["job"] = "study";
  spec["spec"] = study.ToJson();
  // CSV rows and checkpoints are a contiguous prefix: nothing past a gap.
  RunInItemOrder<StudyRowResult>(
      spec, commit.next_row(), dist, commit.ctx(), /*past_gaps=*/false,
      StudyRowFromLine,
      [&](StudyRowResult row) { commit.Commit(std::move(row)); },
      [&](FailureRecord record) { commit.Quarantine(std::move(record)); });
  return commit.Finish();
}

SearchResult FindOptimalExecutionSupervised(const Application& app,
                                            const System& sys,
                                            const SearchSpace& space,
                                            const SearchConfig& config,
                                            const DistOptions& dist) {
  if (!dist.active()) {
    ThreadPool pool;
    return FindOptimalExecution(app, sys, space, config, pool);
  }
  CALC_TRACE_SPAN("dist", "exec_search");
  ExecSearch search(app, sys, space, config);
  json::Value spec;
  spec["job"] = "exec_search";
  spec["application"] = app.ToJson();
  spec["system"] = sys.ToJson();
  spec["space"] = space.ToJson();
  json::Value cfg;
  cfg["batch_size"] = static_cast<std::int64_t>(config.batch_size);
  cfg["top_k"] = static_cast<std::int64_t>(config.top_k);
  cfg["keep_all_rates"] = config.keep_all_rates;
  cfg["keep_pareto"] = config.keep_pareto;
  spec["config"] = cfg;
  // The shipped entries' Stats, re-evaluated in this one thread through
  // one table for the whole search.
  StageTable stages(app, sys);
  // A stopped search keeps every triple that was swept, as in-process.
  RunInItemOrder<TripleSweep>(
      spec, 0, dist, search.ctx(), /*past_gaps=*/true,
      [&](std::string_view line) {
        return TripleSweepFromJson(json::Parse(line), config.top_k, stages);
      },
      [&](TripleSweep sweep) { search.Commit(std::move(sweep)); },
      [&](FailureRecord record) { search.Quarantine(std::move(record)); });
  return search.Finish();
}

void RunAuditSupervised(const std::vector<AuditPairSpec>& pairs,
                        const analysis::AuditOptions& options,
                        const DistOptions& dist, unsigned threads,
                        RunContext& ctx, const PairDone& on_pair_done) {
  if (!dist.active()) {
    // One pool item per pair, which polls `ctx` before it starts; a pair
    // whose AuditPair throws is that pair's failure.
    if (pairs.empty()) return;
    const unsigned wanted =
        threads != 0 ? threads : std::thread::hardware_concurrency();
    ThreadPool pool(
        static_cast<unsigned>(std::min<std::uint64_t>(wanted, pairs.size())));
    pool.ParallelFor(pairs.size(), [&](std::uint64_t i) {
      if (ctx.ShouldStop()) return;
      const AuditPairSpec& pair = pairs[i];
      CALC_TRACE_SPAN("audit", pair.app.name + "/" + pair.context_label);
      analysis::AuditOptions pair_options = options;
      pair_options.context_label = pair.context_label;
      pair_options.ctx = &ctx;
      pair_options.fault_key_base = pair.fault_key_base;
      analysis::AuditReport report;
      try {
        report = analysis::AuditPair(pair.app, pair.sys, pair_options);
      } catch (const std::exception& e) {
        ctx.RecordFailure(i, pair.context_label, e.what(),
                          ThreadPool::CurrentWorkerId());
        return;
      }
      CommitPair(ctx, on_pair_done, i, std::move(report));
    });
    return;
  }
  CALC_TRACE_SPAN("dist", "audit");
  json::Value spec;
  spec["job"] = "audit";
  json::Value opts;
  json::Array proc_counts;
  proc_counts.reserve(options.proc_counts.size());
  for (std::int64_t n : options.proc_counts) proc_counts.emplace_back(n);
  opts["proc_counts"] = json::Value(std::move(proc_counts));
  opts["max_splits"] = static_cast<std::int64_t>(options.max_splits);
  opts["rel_tol"] = options.rel_tol;
  opts["max_violations"] = static_cast<std::int64_t>(options.max_violations);
  spec["options"] = opts;
  json::Array pair_specs;
  pair_specs.reserve(pairs.size());
  for (const AuditPairSpec& pair : pairs) {
    json::Value p;
    p["application"] = pair.app.ToJson();
    p["system"] = pair.sys.ToJson();
    p["context_label"] = pair.context_label;
    p["fault_key_base"] = static_cast<std::int64_t>(pair.fault_key_base);
    pair_specs.push_back(std::move(p));
  }
  spec["pairs"] = json::Value(std::move(pair_specs));

  // The journal is keyed by pair, so pairs commit as they arrive.
  SupervisorCallbacks callbacks;
  callbacks.on_item = [&](std::uint64_t item, std::string_view line) {
    std::vector<FailureRecord> failures;
    analysis::AuditReport report;
    try {
      const json::Value result = json::Parse(line);
      failures = FailuresFromJson(result.at("failures"));
      report = analysis::ReportFromJson(result.at("report"));
    } catch (const ConfigError&) {
      return false;
    }
    for (FailureRecord& f : failures) ctx.RecordFailure(std::move(f));
    CommitPair(ctx, on_pair_done, item, std::move(report));
    return true;
  };
  callbacks.on_quarantine = [&](const FailureRecord& record) {
    FailureRecord scoped = record;
    scoped.fingerprint = pairs[record.item].context_label;
    ctx.RecordFailure(std::move(scoped));
  };
  RunSupervised(spec, dist, callbacks, 0, &ctx);
}

}  // namespace calculon::dist
