#include "search/exec_search.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/pareto.h"
#include "testing/fault_injection.h"
#include "util/check.h"
#include "util/mathutil.h"
#include "util/strings.h"

namespace calculon {

SearchSpace SearchSpace::MegatronBaseline() {
  SearchSpace s;
  s.recompute = {Recompute::kNone, Recompute::kFull};
  s.tp_comm = {{false, false, false}};
  s.tp_overlap = {TpOverlap::kNone};
  s.fused_activation = {false};
  s.dp_overlap = {false};
  // Optimizer sharding predates Megatron's pipeline work (Table 1, 2019)
  // and is part of the paper's Section 4 baseline memory-saving set.
  s.optimizer_sharding = {false, true};
  s.pp_rs_ag = {false};
  s.offload = {{false, false, false}};
  return s;
}

SearchSpace SearchSpace::SequenceParallel() {
  SearchSpace s = MegatronBaseline();
  s.recompute = {Recompute::kNone, Recompute::kAttnOnly, Recompute::kFull};
  s.tp_comm = {{false, false, false},
               {true, true, false},
               {true, true, true}};
  s.pp_rs_ag = {false, true};
  return s;
}

SearchSpace SearchSpace::AllOptimizations() {
  SearchSpace s;  // defaults are the full space
  s.offload = {{false, false, false}};
  return s;
}

SearchSpace SearchSpace::AllWithOffload() {
  SearchSpace s;
  s.offload = {{false, false, false}, {true, false, false},
               {false, true, false}, {false, false, true},
               {true, true, true}};
  return s;
}

namespace {

// One slot per Infeasible enumerator (kNone..kBadConfig).
constexpr std::size_t kNumInfeasible =
    static_cast<std::size_t>(Infeasible::kBadConfig) + 1;

// The stripe of `key`, a BlockKey::LayersOf: Fibonacci hashing of the
// fields such a key varies in, whose top bits depend on all of them.
std::size_t StripeOf(const BlockKey& key, std::size_t stripes) {
  std::uint64_t h = static_cast<std::uint64_t>(key.tensor_par);
  h = h * 1'000'003u + static_cast<std::uint64_t>(key.microbatch);
  h = h * 32u + (static_cast<std::uint64_t>(key.tp_rs_ag) |
                 static_cast<std::uint64_t>(key.seq_par) << 1 |
                 static_cast<std::uint64_t>(key.seq_par_ag_redo) << 2 |
                 static_cast<std::uint64_t>(key.fused_activation) << 3 |
                 static_cast<std::uint64_t>(key.training) << 4);
  return static_cast<std::size_t>((h * 0x9E3779B97F4A7C15u) >> 32) % stripes;
}

// MutexLock for a stripe, which is held only for one map lookup or insert:
// a thread that finds it held retries TryLock up to kSpins times before it
// sleeps in Lock. Threads sweeping triples of one t meet the same keys at
// the same moments, and at 4 threads a plain MutexLock doubled the
// search's voluntary context switches.
class CALC_SCOPED_CAPABILITY StripeLock {
 public:
  explicit StripeLock(Mutex& mutex) CALC_ACQUIRE(mutex) : mutex_(mutex) {
    for (int spin = 0; spin < kSpins; ++spin) {
      if (mutex_.TryLock()) return;
    }
    mutex_.Lock();
  }
  ~StripeLock() CALC_RELEASE() { mutex_.Unlock(); }

  StripeLock(const StripeLock&) = delete;
  StripeLock& operator=(const StripeLock&) = delete;

 private:
  static constexpr int kSpins = 128;
  Mutex& mutex_;
};

}  // namespace

bool RanksBefore(const Stats& a, const Stats& b) {
  if (a.sample_rate != b.sample_rate) return a.sample_rate > b.sample_rate;
  return a.tier1.Total() < b.tier1.Total();
}

void InsertTopK(std::vector<SearchEntry>& best, int top_k,
                const Execution& exec, const Stats& stats) {
  if (top_k <= 0) return;
  if (static_cast<int>(best.size()) == top_k &&
      !RanksBefore(stats, best.back().stats)) {
    return;
  }
  auto pos = std::upper_bound(best.begin(), best.end(), stats,
                              [](const Stats& a, const SearchEntry& b) {
                                return RanksBefore(a, b.stats);
                              });
  best.insert(pos, SearchEntry{exec, stats});
  if (static_cast<int>(best.size()) > top_k) best.pop_back();
}

bool IsTopKList(const std::vector<SearchEntry>& best, int top_k) {
  return best.size() <= static_cast<std::size_t>(std::max(top_k, 0)) &&
         std::is_sorted(best.begin(), best.end(),
                        [](const SearchEntry& a, const SearchEntry& b) {
                          return RanksBefore(a.stats, b.stats);
                        });
}

TopK::TopK(int top_k)
    : k_(top_k > 0 ? static_cast<std::size_t>(top_k) : 0) {}

void TopK::Offer(const Execution& exec, const Stats& stats) {
  const bool full = order_.size() == k_;
  if (full && (k_ == 0 || !RanksBefore(stats, slots_[order_.back()].stats))) {
    return;
  }
  // After every held entry the candidate does not rank before; when full,
  // before the last, which it evicts.
  const auto pos = std::upper_bound(
      order_.begin(), order_.end(), stats,
      [this](const Stats& a, std::uint32_t slot) {
        return RanksBefore(a, slots_[slot].stats);
      });
  if (full) {
    const std::uint32_t slot = order_.back();
    slots_[slot] = {exec, stats};
    std::move_backward(pos, order_.end() - 1, order_.end());
    *pos = slot;
  } else {
    order_.insert(pos, static_cast<std::uint32_t>(slots_.size()));
    slots_.push_back({exec, stats});
  }
}

std::vector<SearchEntry> TopK::Take() && {
  std::vector<SearchEntry> best;
  best.reserve(order_.size());
  for (std::uint32_t slot : order_) best.push_back(slots_[slot]);
  return best;
}

std::vector<SearchEntry> MergeTopK(std::vector<SearchEntry> committed,
                                   std::vector<SearchEntry> sweep,
                                   int top_k) {
  const std::size_t k = top_k > 0 ? static_cast<std::size_t>(top_k) : 0;
  std::vector<SearchEntry> merged;
  merged.reserve(std::min(k, committed.size() + sweep.size()));
  auto a = committed.begin();
  auto b = sweep.begin();
  while (merged.size() < k && (a != committed.end() || b != sweep.end())) {
    // A sweep entry goes first only when it ranks before the committed one.
    const bool from_sweep = b != sweep.end() &&
                            (a == committed.end() ||
                             RanksBefore(b->stats, a->stats));
    merged.push_back(from_sweep ? *b++ : *a++);
  }
  return merged;
}

BlockCosts BlockLayerTable::Get(const Application& app, const Execution& exec,
                                const Processor& proc, const Network& tp_net) {
  const BlockKey key = BlockKey::LayersOf(exec);
  Stripe& stripe = stripes_[StripeOf(key, kStripes)];
  {
    StripeLock lock(stripe.mutex);
    if (auto it = stripe.layers.find(key); it != stripe.layers.end()) {
      return it->second;
    }
  }
  const BlockCosts layers = EvaluateBlockLayers(app, exec, proc, tp_net);
  StripeLock lock(stripe.mutex);
  stripe.layers.emplace(key, layers);
  return layers;
}

namespace {

std::string TripleLabel(const Triple& tr) {
  return StrFormat("t=%lld p=%lld d=%lld", static_cast<long long>(tr.t),
                   static_cast<long long>(tr.p), static_cast<long long>(tr.d));
}

// Compact configuration coordinates for FailureRecords: enough to replay
// the exact evaluation that faulted.
std::string ExecFingerprint(const Execution& e) {
  return StrFormat(
      "t=%lld p=%lld d=%lld mb=%lld batch=%lld il=%lld rc=%s%s%s%s%s%s%s%s",
      static_cast<long long>(e.tensor_par),
      static_cast<long long>(e.pipeline_par),
      static_cast<long long>(e.data_par),
      static_cast<long long>(e.microbatch),
      static_cast<long long>(e.batch_size),
      static_cast<long long>(e.pp_interleaving), ToString(e.recompute),
      e.tp_rs_ag ? " tp_rs_ag" : "", e.seq_par ? " seq_par" : "",
      e.fused_activation ? " fused" : "", e.dp_overlap ? " dp_ovl" : "",
      e.optimizer_sharding ? " shard" : "", e.pp_rs_ag ? " pp_rs_ag" : "",
      e.any_offload() ? " offload" : "");
}

// Calls of each model stage in one triple's sweep, in plain integers so
// the candidate loop shares nothing; ExecSearch::Sweep publishes them as
// model.stage.<name>.calls once per triple.
struct StageCalls {
  std::uint64_t place = 0;
  std::uint64_t validate_partition = 0;
  std::uint64_t validate_options = 0;
  std::uint64_t block = 0;
  std::uint64_t capacity = 0;
  std::uint64_t partition = 0;
  std::uint64_t candidate = 0;
};

// The stage results a candidate shares with its neighbours in the loop
// nest (SweepTripleInto says which). A slot left empty is filled by the
// first candidate that reaches its stage; a block slot takes its layer
// half from `layers`, which every triple of the search shares.
struct SharedStages {
  BlockLayerTable& layers;
  const Result<Placement>& placement;
  const Result<std::monostate>& partition_checks;
  std::optional<BlockCosts>& block;
  std::optional<PartitionCosts>& partition;
  // The tier-1 verdict without offload; null for an offload candidate,
  // whose capacity stage runs per candidate.
  std::optional<Result<MemoryBreakdown>>* tier1;
};

// One candidate through the model's stages, in CalculatePerformance's
// order, reusing every stage `shared` already holds. Equal to
// CalculatePerformance(app, e, sys) when `shared` holds e's placement and
// partition checks and stages of candidates equal to e in what each reads.
[[nodiscard]] Result<Stats> EvaluateStaged(const Application& app,
                                           const Execution& e,
                                           const System& sys,
                                           const SharedStages& shared,
                                           StageCalls& calls) {
  // PlaceExecution: the processor count holds by construction, then
  // Validate's two halves, then the networks.
  if (!shared.partition_checks.ok()) {
    return shared.partition_checks.error().Restated();
  }
  ++calls.validate_options;
  if (auto v = e.ValidateOptions(); !v.ok()) return v.error().Restated();
  if (!shared.placement.ok()) return shared.placement.error();
  const Placement& placement = shared.placement.value();
  ModelPhases phases;
  if (!shared.block.has_value()) {
    // EvaluateBlock, with its layer half looked up once per slot.
    BlockCosts block =
        shared.layers.Get(app, e, sys.proc(), *placement.tp_net);
    AddPpBoundary(app, e, placement, block);
    shared.block = block;
    ++calls.block;
    phases.End("block");
  }
  std::optional<Result<MemoryBreakdown>> own_tier1;
  std::optional<Result<MemoryBreakdown>>& tier1 =
      shared.tier1 != nullptr ? *shared.tier1 : own_tier1;
  if (!tier1.has_value()) {
    tier1 = CheckCapacity(app, e, sys.proc(), *shared.block);
    ++calls.capacity;
    phases.End("capacity");
  }
  if (!tier1->ok()) return tier1->error();
  if (!shared.partition.has_value()) {
    shared.partition =
        EvaluatePartition(app, e, sys.proc(), placement, *shared.block);
    ++calls.partition;
    phases.End("partition");
  }
  ++calls.candidate;
  return EvaluateCandidate(app, e, sys, placement, *shared.block,
                           tier1->value(), *shared.partition, phases);
}

void AppendFailure(std::vector<FailureRecord>& failures, std::uint64_t key,
                   const Execution& e, std::string reason) {
  failures.push_back({key, ExecFingerprint(e), std::move(reason),
                      ThreadPool::CurrentWorkerId(), {}});
}

// The fault guard's first half: applies the fault injected for `key`, if
// any, and records it in `failures`. True when the candidate drew a throw
// or error fault (a kBadConfig rejection); a delay fault only sleeps.
// Every candidate consumes its key here, before any verdict is read, so a
// candidate the sweep decides without evaluating draws its fault as a
// one-shot evaluation would.
[[nodiscard]] bool DrawFault(const Execution& e, std::uint64_t key,
                             std::vector<FailureRecord>& failures) {
  auto& faults = testing::FaultInjector::Global();
  if (!faults.enabled()) return false;
  try {
    if (!faults.MaybeInject(key)) return false;
    AppendFailure(failures, key, e,
                  Result<Stats>(Infeasible::kBadConfig, "injected fault")
                      .detail());
  } catch (const std::exception& ex) {
    AppendFailure(failures, key, e, ex.what());
  }
  return true;
}

// The fault guard's second half: evaluates one candidate with exceptions
// escaping the model and kBadConfig hard-error Results recorded in
// `failures` instead of aborting the sweep.
[[nodiscard]] Result<Stats> GuardedEvaluate(
    const Application& app, const Execution& e, const System& sys,
    const SharedStages& shared, StageCalls& calls, std::uint64_t key,
    std::vector<FailureRecord>& failures) {
  try {
    Result<Stats> r = EvaluateStaged(app, e, sys, shared, calls);
    // A hard error out of a structurally valid configuration (the model's
    // non-finite screen) is a model bug, not a property of the swept
    // configuration — record it, don't hide it among infeasibles.
    if (!r.ok() && r.reason() == Infeasible::kBadConfig) {
      AppendFailure(failures, key, e, r.detail());
    }
    return r;
  } catch (const std::exception& ex) {
    AppendFailure(failures, key, e, ex.what());
    return Result<Stats>(Infeasible::kBadConfig, std::string(ex.what()));
  }
}

// The rejection an outer loop level already fixed for a candidate: its
// failed partition checks, or the tier-1 rejection its overlap variants
// share; kNone when it must be evaluated. A hard error is never shared, so
// each candidate that meets one records its own failure.
[[nodiscard]] Infeasible SharedVerdict(const SharedStages& shared) {
  Infeasible reason = shared.partition_checks.reason();
  if (reason == Infeasible::kNone && shared.tier1 != nullptr &&
      shared.tier1->has_value()) {
    reason = (*shared.tier1)->reason();
  }
  return reason == Infeasible::kBadConfig ? Infeasible::kNone : reason;
}

// Sweeps every candidate of one (t, p, d) triple into `out`, its top-k
// into `best` and its front into `pareto`: the single
// evaluation-order-defining loop nest, run once per triple by
// ExecSearch::Sweep in every execution path. Candidates evaluated before
// a cooperative stop on config.ctx are kept — partial results survive a
// cancelled sweep. With `latency`, each candidate's time (back-to-back
// clock reads: its evaluation plus the previous candidate's bookkeeping)
// is observed into it.
//
// Each model stage runs at the loop level where its inputs change, and a
// candidate whose verdict an outer level already fixed is counted with it
// without being evaluated again:
//   * the networks, once per triple;
//   * Validate's partition checks, once per (microbatch, interleaving,
//     TP-comm variant); when they fail, every candidate below shares the
//     reason;
//   * the block stage, once per (microbatch, TP-comm variant, fused,
//     pp_rs_ag) slot, and the partition stage once per block and
//     sharding. A slot's layer half comes from `layers`, the search's
//     table, which computes it once per distinct key for all the search's
//     triples and both pp_rs_ag variants; only the PP boundary is the
//     slot's own;
//   * the tier-1 verdict of a candidate without offload, once per
//     (microbatch, interleaving, recompute, TP-comm variant, fused,
//     sharding, 1F1B, pp_rs_ag, offload) point, by its first overlap
//     variant that passes validation, and shared by the point's other
//     tp_overlap x dp_overlap variants. This is exact for three reasons:
//     neither the capacity stage nor the block stage reads the overlap
//     options; Validate reads them only where the sweep collapses their
//     lists (t = 1 gives {none}, d = 1 gives {false}); and the sweep
//     always trains, so no inference-only check reads dp_overlap. Every
//     variant of the point therefore passes validation with the first and
//     meets the same capacity stage.
// A candidate without a shared verdict runs the option checks and the
// stages no earlier candidate ran for it. Loop order, evaluation keys,
// fault injection, the latency sample and the collectors stay per
// candidate, so the result is the one-shot reference's bit for bit
// (tests/search_bruteforce_test.cc).
void SweepTripleInto(const Application& app, const System& sys,
                     const SearchSpace& space, const SearchConfig& config,
                     Triple tr, std::uint64_t idx,
                     BlockLayerTable& layers,
                     obs::HistogramSnapshot* latency, TripleSweep& out,
                     TopK& best, ParetoFront& pareto, StageCalls& calls) {
  RunContext* const ctx = config.ctx;
  const std::int64_t batch =
      config.batch_size > 0 ? config.batch_size : sys.num_procs();
  Execution e;
  e.num_procs = sys.num_procs();
  e.tensor_par = tr.t;
  e.pipeline_par = tr.p;
  e.data_par = tr.d;
  e.batch_size = batch;

  // Contextual knob lists: degenerate degrees collapse their options.
  const bool has_tp = tr.t > 1;
  const bool has_pp = tr.p > 1;
  const bool has_dp = tr.d > 1;

  static const std::vector<SearchSpace::TpCommVariant> kNoTp = {
      {false, false, false}};
  static const std::vector<TpOverlap> kNoOverlap = {TpOverlap::kNone};
  static const std::vector<bool> kFalseOnly = {false};
  static const std::vector<bool> kTrueOnly = {true};
  static const std::vector<SearchSpace::OffloadVariant> kNoOffload = {
      {false, false, false}};

  const auto& tp_comm = has_tp ? space.tp_comm : kNoTp;
  const auto& tp_overlap = has_tp ? space.tp_overlap : kNoOverlap;
  const auto& fused_activation = space.fused_activation;
  const auto& dp_overlap = has_dp ? space.dp_overlap : kFalseOnly;
  const auto& sharding = has_dp ? space.optimizer_sharding : kFalseOnly;
  const auto& one_f_one_b = has_pp ? space.pp_1f1b : kTrueOnly;
  const auto& pp_rs_ag = (has_pp && has_tp) ? space.pp_rs_ag : kFalseOnly;
  const auto& offload =
      sys.proc().mem2.present() ? space.offload : kNoOffload;

  const std::int64_t bpp = CeilDiv(app.num_blocks, tr.p);
  std::vector<std::int64_t> interleavings = {1};
  if (space.sweep_interleaving && has_pp) {
    interleavings = Divisors(bpp);
  }

  std::vector<std::int64_t> microbatches;
  for (std::int64_t m : Divisors(batch / tr.d)) {
    if (m <= space.max_microbatch) microbatches.push_back(m);
  }

  const Result<Placement> placement = PlaceNetworks(e, sys);
  ++calls.place;
  // The current (microbatch, interleaving)'s partition checks, one per
  // TP-comm variant.
  std::vector<Result<std::monostate>> partition_checks(
      tp_comm.size(), Result<std::monostate>(std::monostate{}));
  // The current microbatch's block stages, one per (TP-comm variant,
  // fused, pp_rs_ag) position, and their partition stages, one per block
  // and sharding.
  const std::size_t fn = fused_activation.size();
  const std::size_t sn = sharding.size();
  const std::size_t bn = one_f_one_b.size();
  const std::size_t pn = pp_rs_ag.size();
  const std::size_t on = offload.size();
  std::vector<std::optional<BlockCosts>> blocks(tp_comm.size() * fn * pn);
  std::vector<std::optional<PartitionCosts>> partitions(blocks.size() * sn);
  // The current (microbatch, interleaving, recompute, TP-comm variant)'s
  // tier-1 verdicts, one per (fused, sharding, 1F1B, pp_rs_ag, offload)
  // point; offload points leave theirs empty.
  std::vector<std::optional<Result<MemoryBreakdown>>> tier1(fn * sn * bn *
                                                            pn * on);
  double last_us = latency != nullptr ? obs::MonotonicMicros() : 0.0;
  auto observe_latency = [&] {
    if (latency == nullptr) return;
    const double now_us = obs::MonotonicMicros();
    latency->Observe(now_us - last_us);
    last_us = now_us;
  };

  for (std::int64_t m : microbatches) {
    e.microbatch = m;
    std::fill(blocks.begin(), blocks.end(), std::nullopt);
    std::fill(partitions.begin(), partitions.end(), std::nullopt);
    for (std::int64_t il : interleavings) {
      e.pp_interleaving = il;
      for (std::size_t ti = 0; ti < tp_comm.size(); ++ti) {
        e.seq_par = tp_comm[ti].seq_par;
        partition_checks[ti] = e.ValidatePartition(app);
        ++calls.validate_partition;
      }
      for (Recompute rc : space.recompute) {
        e.recompute = rc;
        if (ctx != nullptr && ctx->ShouldStop()) return;
        for (std::size_t ti = 0; ti < tp_comm.size(); ++ti) {
          e.tp_rs_ag = tp_comm[ti].tp_rs_ag;
          e.seq_par = tp_comm[ti].seq_par;
          e.seq_par_ag_redo = tp_comm[ti].ag_redo;
          std::fill(tier1.begin(), tier1.end(), std::nullopt);
          for (TpOverlap ov : tp_overlap) {
            e.tp_overlap = ov;
            for (std::size_t fi = 0; fi < fn; ++fi) {
              e.fused_activation = fused_activation[fi];
              for (bool dpo : dp_overlap) {
                e.dp_overlap = dpo;
                for (std::size_t si = 0; si < sn; ++si) {
                  e.optimizer_sharding = sharding[si];
                  for (std::size_t bi = 0; bi < bn; ++bi) {
                    e.pp_1f1b = one_f_one_b[bi];
                    for (std::size_t pi = 0; pi < pn; ++pi) {
                      e.pp_rs_ag = pp_rs_ag[pi];
                      const std::size_t block_at = (ti * fn + fi) * pn + pi;
                      const std::size_t point_at =
                          (((fi * sn + si) * bn + bi) * pn + pi) * on;
                      for (std::size_t oi = 0; oi < on; ++oi) {
                        e.weight_offload = offload[oi].weights;
                        e.activation_offload = offload[oi].activations;
                        e.optimizer_offload = offload[oi].optimizer;
                        const SharedStages shared{
                            layers, placement, partition_checks[ti],
                            blocks[block_at],
                            partitions[block_at * sn + si],
                            e.any_offload() ? nullptr
                                            : &tier1[point_at + oi]};

                        ++out.evaluated;
                        // Evaluation key: deterministic per configuration
                        // regardless of thread interleaving (triple index
                        // in the high bits, per-triple counter below).
                        const std::uint64_t key = (idx << 32) + out.evaluated;
                        const Infeasible decided =
                            ctx != nullptr && DrawFault(e, key, out.failures)
                                ? Infeasible::kBadConfig
                                : SharedVerdict(shared);
                        if (decided != Infeasible::kNone) {
                          observe_latency();
                          ++out.rejected[static_cast<std::size_t>(decided)];
                          continue;
                        }
                        Result<Stats> r =
                            ctx != nullptr
                                ? GuardedEvaluate(app, e, sys, shared, calls,
                                                  key, out.failures)
                                : EvaluateStaged(app, e, sys, shared, calls);
                        observe_latency();
                        if (!r.ok()) {
                          ++out.rejected[static_cast<std::size_t>(
                              r.reason())];
                          continue;
                        }
                        ++out.feasible;
                        if (config.keep_all_rates) {
                          out.rates.push_back(r.value().sample_rate);
                        }
                        if (config.keep_pareto) {
                          pareto.Insert(e, r.value());
                        }
                        best.Offer(e, r.value());
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

std::vector<Triple> SearchTriples(const Application& app, const System& sys,
                                  const SearchSpace& space,
                                  const SearchConfig& config) {
  const std::int64_t n = sys.num_procs();
  const std::int64_t batch = config.batch_size > 0 ? config.batch_size : n;
  std::vector<Triple> triples;
  for (const Triple& tr : FactorTriples(n)) {
    if (tr.t < space.min_tensor_par || tr.t > space.max_tensor_par) continue;
    if (tr.p < space.min_pipeline_par || tr.p > space.max_pipeline_par) {
      continue;
    }
    if (tr.d < space.min_data_par || tr.d > space.max_data_par) continue;
    if (tr.t > app.attn_heads || app.attn_heads % tr.t != 0) continue;
    if (tr.p > app.num_blocks) continue;
    if (batch % tr.d != 0) continue;
    triples.push_back(tr);
  }
  return triples;
}

ExecSearch::ExecSearch(const Application& app, const System& sys,
                       const SearchSpace& space, const SearchConfig& config)
    : app_(app),
      sys_(sys),
      space_(space),
      config_(config),
      triples_(SearchTriples(app, sys, space, config)),
      latency_bounds_(obs::MetricsRegistry::Global().enabled()
                          ? obs::DefaultLatencyBoundsUs()
                          : std::vector<double>{}),
      ctx_(config.ctx != nullptr ? config.ctx : &local_ctx_) {
  if (config.top_k < 0) {
    throw ConfigError(StrFormat("exec search: top_k %d is negative",
                                config.top_k));
  }
  if (config.batch_size < 0) {
    throw ConfigError(StrFormat("exec search: batch_size %lld is negative",
                                static_cast<long long>(config.batch_size)));
  }
}

TripleSweep ExecSearch::Sweep(std::uint64_t index) const {
  const Triple tr = triples_.at(index);
  CALC_TRACE_SPAN("search", "triple " + TripleLabel(tr));
  TripleSweep out;
  out.rejected.assign(kNumInfeasible, 0);
  ParetoFront pareto;
  // exec_search.eval_latency_us: observed into a plain per-sweep histogram
  // and merged once, so evaluations never contend on the shared one.
  const bool timed = !latency_bounds_.empty();
  obs::HistogramSnapshot latency;
  if (timed) latency = obs::HistogramSnapshot::WithLayout(latency_bounds_);
  StageCalls calls;
  TopK best(config_.top_k);
  SweepTripleInto(app_, sys_, space_, config_, tr, index, layers_,
                  timed ? &latency : nullptr, out, best, pareto, calls);
  out.best = std::move(best).Take();
  if (timed) {
    obs::MetricsRegistry::Global().MergeHistogram(
        "exec_search.eval_latency_us", latency);
  }
  out.pareto = std::move(pareto).TakeEntries();

  // The only writer of these counters, in whichever process swept the
  // triple: a supervised worker's registry carries them to the supervisor,
  // which sums the workers' snapshots into the same names.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled()) {
    metrics.GetCounter("exec_search.evaluated")->Increment(out.evaluated);
    metrics.GetCounter("exec_search.feasible")->Increment(out.feasible);
    for (std::size_t i = 1; i < kNumInfeasible; ++i) {  // skip kNone
      if (out.rejected[i] == 0) continue;
      metrics
          .GetCounter("exec_search.rejected." +
                      obs::MetricNameSegment(
                          ToString(static_cast<Infeasible>(i))))
          ->Increment(out.rejected[i]);
    }
    const std::pair<const char*, std::uint64_t> stages[] = {
        {"model.stage.place.calls", calls.place},
        {"model.stage.validate_partition.calls", calls.validate_partition},
        {"model.stage.validate_options.calls", calls.validate_options},
        {"model.stage.block.calls", calls.block},
        {"model.stage.capacity.calls", calls.capacity},
        {"model.stage.partition.calls", calls.partition},
        {"model.stage.candidate.calls", calls.candidate}};
    for (const auto& [name, count] : stages) {
      metrics.GetCounter(name)->Increment(count);
    }
  }
  return out;
}

void ExecSearch::Commit(TripleSweep sweep) {
  result_.evaluated += sweep.evaluated;
  result_.feasible += sweep.feasible;
  CALC_DCHECK(IsTopKList(sweep.best, config_.top_k),
              "a triple's best list is out of order or past top_k=%d",
              config_.top_k);
  result_.best = MergeTopK(std::move(result_.best), std::move(sweep.best),
                           config_.top_k);
  result_.all_rates.insert(result_.all_rates.end(), sweep.rates.begin(),
                           sweep.rates.end());
  result_.pareto.insert(result_.pareto.end(),
                        std::make_move_iterator(sweep.pareto.begin()),
                        std::make_move_iterator(sweep.pareto.end()));
  for (FailureRecord& failure : sweep.failures) {
    ctx_->RecordFailure(std::move(failure));
  }
  ctx_->RecordCompleted();
}

void ExecSearch::Quarantine(FailureRecord record) {
  record.fingerprint = TripleLabel(triples_.at(record.item));
  record.item <<= 32;  // the triple's evaluation-key range
  ctx_->RecordFailure(std::move(record));
}

SearchResult ExecSearch::Finish() {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled()) {
    metrics.GetCounter("exec_search.culled_triples")
        ->Increment(FactorTriples(sys_.num_procs()).size() - triples_.size());
  }
  CALC_TRACE_COUNTER("exec_search.evaluated", result_.evaluated);
  result_.pareto = ExtractParetoFront(result_.pareto);
  result_.status = ctx_->Snapshot();
  return std::move(result_);
}

TripleSweep SweepTriple(const Application& app, const System& sys,
                        const SearchSpace& space, const SearchConfig& config,
                        std::uint64_t index) {
  RunContext isolate;
  SearchConfig isolated = config;
  isolated.ctx = &isolate;
  return ExecSearch(app, sys, space, isolated).Sweep(index);
}

SearchResult FindOptimalExecution(const Application& app, const System& sys,
                                  const SearchSpace& space,
                                  const SearchConfig& config,
                                  ThreadPool& pool) {
  CALC_TRACE_SPAN("search", "exec_search");
  ExecSearch search(app, sys, space, config);
  Mutex commit_mutex;
  pool.ParallelFor(search.triples().size(), [&](std::uint64_t idx) {
    if (config.ctx != nullptr && config.ctx->ShouldStop()) return;
    TripleSweep sweep = search.Sweep(idx);
    MutexLock lock(commit_mutex);
    search.Commit(std::move(sweep));
  });
  return search.Finish();
}

}  // namespace calculon
