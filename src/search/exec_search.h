// Optimal-execution search engine (Section 5.1).
//
// Exhaustively enumerates execution strategies — the (t, p, d) split,
// micro-batch size, and every optimization knob of Table 1 — evaluates each
// with the analytical model, and returns the top performers. Evaluation is
// spread over a thread pool; a candidate costs about 40 ns on one thread,
// so spaces of millions of configurations complete in seconds.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/perf_model.h"
#include "util/mathutil.h"
#include "util/sync.h"
#include "util/thread_annotations.h"
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
};

struct SearchEntry {
  Execution exec;
  Stats stats;
};

// The search's order on results: true when `a` ranks before `b`, by
// higher sample rate, then lower tier-1 memory. Two results neither ranks
// before the other tie.
[[nodiscard]] bool RanksBefore(const Stats& a, const Stats& b);

// The reference top-k semantics, which TopK and MergeTopK reproduce: a
// sorted bounded insert into `best`, after every entry the new one does
// not rank before (so on ties the earlier entry stays first), keeping at
// most `top_k` entries (none when top_k <= 0).
void InsertTopK(std::vector<SearchEntry>& best, int top_k,
                const Execution& exec, const Stats& stats);

// Whether `best` is a top-k list: at most `top_k` long (empty when
// top_k <= 0) and in RanksBefore order.
[[nodiscard]] bool IsTopKList(const std::vector<SearchEntry>& best,
                              int top_k);

// A triple's top-k list, offered one candidate at a time: the list
// InsertTopK of each candidate in turn builds, at a fraction of its cost.
// A candidate is compared with the current k-th entry by reference before
// anything is copied; an admitted one is copied once, into a new slot or
// the slot of the entry it evicts, and only 4-byte slot indices are kept
// in order. Storage grows with the entries held, never to top_k up front,
// since a caller may ask for a large top_k.
class TopK {
 public:
  explicit TopK(int top_k);  // keeps nothing when top_k <= 0

  void Offer(const Execution& exec, const Stats& stats);
  // The entries in RanksBefore order.
  [[nodiscard]] std::vector<SearchEntry> Take() &&;

 private:
  std::size_t k_;
  std::vector<SearchEntry> slots_;
  std::vector<std::uint32_t> order_;  // slot indices, best first
};

// Two top-k lists (IsTopKList) merged stably, `committed` first on ties,
// and cut at top_k: the list InsertTopK of each of `sweep`'s entries in
// turn into `committed` builds.
[[nodiscard]] std::vector<SearchEntry> MergeTopK(
    std::vector<SearchEntry> committed, std::vector<SearchEntry> sweep,
    int top_k);

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
  // 0: default to num_procs samples; a negative value is a ConfigError.
  std::int64_t batch_size = 0;
  int top_k = 10;  // 0 keeps no entries; a negative value is a ConfigError
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
  std::vector<SearchEntry> best;  // the triple's top-k (IsTopKList)
  std::uint64_t evaluated = 0;
  std::uint64_t feasible = 0;
  std::vector<std::uint64_t> rejected;
  std::vector<PerSecond> rates;       // every feasible rate (keep_all_rates)
  std::vector<SearchEntry> pareto;    // the triple's front (keep_pareto)
  std::vector<FailureRecord> failures;
};

// The block stage's layer half (EvaluateBlockLayers) on one system, by
// BlockKey::LayersOf, the block key without pipeline_par and pp_rs_ag:
// filled lazily, and shared by every sweep of one search, pool threads
// included, so a search computes each half once per distinct key and
// process, where its (t, p, d) triples and both pp_rs_ag variants would
// each compute it again. Keys spread over kStripes stripes, each a lock
// over a map, and a lookup holds its stripe's lock only to find or to
// insert (a thread that finds it held spins briefly before it sleeps): a
// miss computes outside any lock and the first insert wins. So no thread
// waits while another computes, two threads that miss on one key at once
// both compute it (to equal bits), and a computation that throws stores
// nothing.
class BlockLayerTable {
 public:
  // The layer half of `exec` on `proc` and `tp_net`, the network
  // NetworkForSpan(exec.tensor_par) of the table's one system.
  [[nodiscard]] BlockCosts Get(const Application& app, const Execution& exec,
                               const Processor& proc, const Network& tp_net);

 private:
  static constexpr std::size_t kStripes = 16;
  struct Stripe {
    Mutex mutex;
    std::map<BlockKey, BlockCosts> layers CALC_GUARDED_BY(mutex);
  };
  std::array<Stripe, kStripes> stripes_;
};

// One execution search, split into the halves every execution path
// shares: the per-triple evaluator (Sweep) and the commit
// (Commit/Quarantine/Finish). FindOptimalExecution feeds the commit from a
// ThreadPool; dist::FindOptimalExecutionSupervised from worker results, in
// triple order; a dist worker runs only Sweep. Counting, failure replay
// and collection therefore happen once, for both paths.
class ExecSearch {
 public:
  // Throws ConfigError when config.top_k or config.batch_size is negative.
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
  // Safe to call concurrently. Each block slot of the sweep looks its
  // layer half up in the search's BlockLayerTable and adds its own PP
  // boundary (AddPpBoundary), so the result is the one a fresh search
  // gives, whichever sweeps ran before or run beside it. The triple's
  // top-k comes from a TopK collector.
  [[nodiscard]] TripleSweep Sweep(std::uint64_t index) const;

  // Folds one triple's sweep into the result, replays its failures onto
  // ctx() and counts it as a completed item. The top-k lists merge
  // (MergeTopK), so sweep.best must be a top-k list of config.top_k (a
  // supervised search's decoder refuses any other). Callers serialize
  // commits.
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
  // Sweep's only shared state: a cache, so a const Sweep may fill it. A
  // supervised search is built in the parent, which never sweeps, so each
  // worker fills its own copy from empty.
  mutable BlockLayerTable layers_;
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
