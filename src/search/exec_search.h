// Optimal-execution search engine (Section 5.1).
//
// Exhaustively enumerates execution strategies — the (t, p, d) split,
// micro-batch size, and every optimization knob of Table 1 — evaluates each
// with the analytical model, and returns the top performers. Evaluation is
// spread over a thread pool; each candidate costs microseconds, so spaces
// of millions of configurations complete in minutes on a desktop.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/perf_model.h"
#include "json/json.h"
#include "util/mathutil.h"
#include "util/threadpool.h"
#include "util/run_context.h"

namespace calculon {

// Which knobs the sweep explores. Fixed aspects of the strategy (e.g. "the
// paper's Fig. 5(a) uses only the original Megatron optimizations") are
// expressed by narrowing the candidate lists.
struct SearchSpace {
  std::vector<Recompute> recompute = {Recompute::kNone, Recompute::kAttnOnly,
                                      Recompute::kFull};
  // (tp_rs_ag, seq_par, seq_par_ag_redo) variants to try.
  struct TpCommVariant {
    bool tp_rs_ag = false;
    bool seq_par = false;
    bool ag_redo = false;
  };
  std::vector<TpCommVariant> tp_comm = {{false, false, false},
                                        {true, false, false},
                                        {true, true, false},
                                        {true, true, true}};
  std::vector<TpOverlap> tp_overlap = {TpOverlap::kNone, TpOverlap::kPipe,
                                       TpOverlap::kRing};
  std::vector<bool> fused_activation = {false, true};
  std::vector<bool> dp_overlap = {false, true};
  std::vector<bool> optimizer_sharding = {false, true};
  std::vector<bool> pp_1f1b = {true};
  std::vector<bool> pp_rs_ag = {false, true};
  bool sweep_interleaving = true;  // divisors of blocks-per-stage (else 1)

  // Offload combinations (weights, activations, optimizer). The default
  // tries none and all-three; systems without a tier-2 memory silently
  // reduce to none.
  struct OffloadVariant {
    bool weights = false;
    bool activations = false;
    bool optimizer = false;
  };
  std::vector<OffloadVariant> offload = {{false, false, false},
                                         {true, true, true}};

  // Partition constraints (the studies often pin one degree).
  std::int64_t min_tensor_par = 1;
  std::int64_t max_tensor_par = 1'000'000'000;
  std::int64_t min_pipeline_par = 1;
  std::int64_t max_pipeline_par = 1'000'000'000;
  std::int64_t min_data_par = 1;
  std::int64_t max_data_par = 1'000'000'000;

  std::int64_t max_microbatch = 1'000'000'000;

  // The paper's original-optimizations space (Fig. 5(a)): full recompute
  // on/off, plain all-reduce TP, 1F1B, no overlap, no sharding, no offload.
  [[nodiscard]] static SearchSpace MegatronBaseline();
  // Adds sequence parallelism + selective recompute (Fig. 5(b)).
  [[nodiscard]] static SearchSpace SequenceParallel();
  // The full Table 1 space without offloading.
  [[nodiscard]] static SearchSpace AllOptimizations();
  // The full Table 1 space including offloading.
  [[nodiscard]] static SearchSpace AllWithOffload();

  // Lossless JSON round-trip (FromJson(ToJson()) sweeps the identical
  // space in the identical order) — how a supervised dist worker receives
  // the space its parent is searching.
  [[nodiscard]] json::Value ToJson() const;
  [[nodiscard]] static SearchSpace FromJson(const json::Value& v);
};

struct SearchEntry {
  Execution exec;
  Stats stats;
};

// Sorted bounded insert into a top-k list: higher sample rate first, lower
// tier-1 memory breaking ties.
void InsertTopK(std::vector<SearchEntry>& best, int top_k, Execution exec,
                Stats stats);

struct SearchResult {
  std::vector<SearchEntry> best;  // sorted by descending sample rate
  std::uint64_t evaluated = 0;    // total calculations performed
  std::uint64_t feasible = 0;     // configurations that could run
  // Sample rate of every feasible configuration (collected when
  // `keep_all_rates` is set; used for the Fig. 6 histogram/CDF).
  std::vector<PerSecond> all_rates;
  // Non-dominated strategies in (batch time, tier-1 memory, tier-2 memory),
  // sorted by ascending batch time (collected when `keep_pareto` is set) —
  // the Section 4.2 "minimize time or memory, as desired" trade-off.
  std::vector<SearchEntry> pareto;
  // Failure summary of the sweep: whether the whole space was enumerated,
  // why it stopped early, the triples completed, and the isolated hard
  // failures and quarantines — with or without a caller RunContext.
  RunStatus status;
};

struct SearchConfig {
  std::int64_t batch_size = 0;  // 0: default to num_procs samples
  int top_k = 10;
  bool keep_all_rates = false;
  bool keep_pareto = false;
  // Optional resilience context. When set, the sweep observes cancellation/
  // deadline/failure-budget between evaluations, and hard failures
  // (exceptions out of the model, kBadConfig hard-error Results, injected
  // faults) are isolated into `SearchResult::status` instead of aborting
  // the whole search. When null, exceptions propagate (fail-fast).
  RunContext* ctx = nullptr;
};

// Searches all execution strategies for `app` on `sys` (using
// `sys.num_procs()` processors): an ExecSearch whose triples a ThreadPool
// sweeps, committed in completion order.
[[nodiscard]] SearchResult FindOptimalExecution(const Application& app,
                                                const System& sys,
                                                const SearchSpace& space,
                                                const SearchConfig& config,
                                                ThreadPool& pool);

// The candidate (t, p, d) partitionings FindOptimalExecution sweeps, after
// structural filtering, in the order it sweeps them. The index into this
// vector is the stable per-triple work-unit id (it seeds the
// fault-injection key), so a dist worker sweeping triple i reproduces the
// in-process search's evaluations for triple i exactly.
[[nodiscard]] std::vector<Triple> SearchTriples(const Application& app,
                                                const System& sys,
                                                const SearchSpace& space,
                                                const SearchConfig& config);

// Outcome of sweeping a single (t, p, d) triple — the only per-triple
// result. A ThreadPool thread produces it in-process, a supervised dist
// worker ships it over the wire, and ExecSearch::Commit folds it into the
// SearchResult either way. `rejected` is indexed by Infeasible; `failures`
// are the isolated hard failures, replayed onto the run's RunContext by
// the commit.
struct TripleSweep {
  std::vector<SearchEntry> best;  // the triple's top-k, sorted
  std::uint64_t evaluated = 0;
  std::uint64_t feasible = 0;
  std::vector<std::uint64_t> rejected;
  std::vector<PerSecond> rates;       // every feasible rate (keep_all_rates)
  std::vector<SearchEntry> pareto;    // the triple's front (keep_pareto)
  std::vector<FailureRecord> failures;
};

// One execution search, split into the halves every execution path
// shares: the per-triple evaluator (Sweep) and the commit
// (Commit/Quarantine/Finish). FindOptimalExecution feeds the commit from a
// ThreadPool; dist::FindOptimalExecutionSupervised from worker results, in
// triple order; a dist worker runs only Sweep. Counting, failure replay
// and collection therefore happen once, for both paths.
class ExecSearch {
 public:
  ExecSearch(const Application& app, const System& sys,
             const SearchSpace& space, const SearchConfig& config);
  // The search keeps references to `app`, `sys` and `space`, so none of
  // them may be a temporary.
  ExecSearch(Application&&, const System&, const SearchSpace&,
             const SearchConfig&) = delete;
  ExecSearch(const Application&, System&&, const SearchSpace&,
             const SearchConfig&) = delete;
  ExecSearch(const Application&, const System&, SearchSpace&&,
             const SearchConfig&) = delete;

  // SearchTriples(): item i of the search is triples()[i].
  [[nodiscard]] const std::vector<Triple>& triples() const {
    return triples_;
  }
  // The run's accounting context: config.ctx, or a private one when the
  // caller passed none, so the returned status counts completed triples
  // and quarantines either way.
  [[nodiscard]] RunContext* ctx() { return ctx_; }

  // Sweeps triples()[index], publishes its exec_search.evaluated,
  // .feasible and .rejected.* counters and merges its
  // exec_search.eval_latency_us samples. With config.ctx, polls it for a
  // stop and isolates hard failures (exceptions, kBadConfig Results,
  // injected faults) into the result; without, exceptions propagate.
  // Safe to call concurrently.
  [[nodiscard]] TripleSweep Sweep(std::uint64_t index) const;

  // Folds one triple's sweep into the result, replays its failures onto
  // ctx() and counts it as a completed item. Callers serialize commits.
  void Commit(TripleSweep sweep);
  // Records triple `record.item`, whose worker was quarantined, as a
  // failure on ctx().
  void Quarantine(FailureRecord record);
  // Publishes exec_search.culled_triples and returns the result with its
  // Pareto front and status.
  [[nodiscard]] SearchResult Finish();

 private:
  const Application& app_;
  const System& sys_;
  const SearchSpace& space_;
  const SearchConfig config_;
  const std::vector<Triple> triples_;
  // exec_search.eval_latency_us's bucket layout, fixed per search:
  // DefaultLatencyBoundsUs() when metrics were on at construction, else
  // empty, and a sweep skips even its clock reads.
  const std::vector<double> latency_bounds_;
  RunContext local_ctx_;
  RunContext* const ctx_;
  // Until Finish(), result_.pareto holds every committed triple's front in
  // commit order; reducing them in that order equals merging as they came.
  SearchResult result_;
};

// ExecSearch(app, sys, space, config).Sweep(index) with the fault
// isolation of a search that has a RunContext (config.ctx is not
// consulted): the work a dist worker does for triple `index`.
[[nodiscard]] TripleSweep SweepTriple(const Application& app,
                                      const System& sys,
                                      const SearchSpace& space,
                                      const SearchConfig& config,
                                      std::uint64_t index);

}  // namespace calculon
