#include "analysis/audit.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <limits>
#include <optional>
#include <set>
#include <tuple>

#include "core/block.h"
#include "core/perf_model.h"
#include "core/pipeline.h"
#include "core/stats.h"
#include "util/threadpool.h"
#include "testing/fault_injection.h"
#include "util/mathutil.h"
#include "util/strings.h"

namespace calculon::analysis {

void AuditReport::Merge(AuditReport other) {
  evaluations += other.evaluations;
  feasible += other.feasible;
  checks += other.checks;
  dropped += other.dropped;
  violations.insert(violations.end(),
                    std::make_move_iterator(other.violations.begin()),
                    std::make_move_iterator(other.violations.end()));
}

namespace {

// Scale-aware relative difference (absolute near zero).
double RelDiff(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) / scale;
}

// Collects invariant outcomes against one shared report. The context string
// carries the coordinates of the configuration under test so a violation is
// reproducible from its message alone.
class Auditor {
 public:
  Auditor(AuditReport* report, const AuditOptions& options)
      : report_(report), options_(options) {}

  void set_context(std::string context) { context_ = std::move(context); }

  [[nodiscard]] const AuditOptions& options() const { return options_; }

  bool Check(bool condition, const char* invariant, std::string detail) {
    ++report_->checks;
    if (condition) return true;
    if (report_->violations.size() <
        static_cast<std::size_t>(options_.max_violations)) {
      report_->violations.push_back(
          AuditViolation{invariant, context_, std::move(detail)});
    } else {
      ++report_->dropped;
    }
    return false;
  }

  // actual == expected within the relative tolerance.
  bool CheckClose(double actual, double expected, const char* invariant) {
    return Check(RelDiff(actual, expected) <= options_.rel_tol, invariant,
                 StrFormat("got %.17g, expected %.17g", actual, expected));
  }

  // a <= b within the relative tolerance.
  bool CheckLe(double a, double b, const char* invariant) {
    const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
    return Check(a - b <= options_.rel_tol * scale, invariant,
                 StrFormat("%.17g > %.17g", a, b));
  }

  // v is a finite non-negative number (every reported time/byte quantity).
  bool CheckFiniteNonNeg(double v, const char* invariant) {
    return Check(std::isfinite(v) && v >= 0.0, invariant,
                 StrFormat("got %.17g", v));
  }

  // Typed forms: both sides must carry the same dimension; the comparison
  // itself happens on the raw values (a report-format boundary).
  template <int B, int S, int F>
  bool CheckClose(Quantity<B, S, F> actual, Quantity<B, S, F> expected,
                  const char* invariant) {
    return CheckClose(actual.raw(), expected.raw(), invariant);
  }
  template <int B, int S, int F>
  bool CheckLe(Quantity<B, S, F> a, Quantity<B, S, F> b,
               const char* invariant) {
    return CheckLe(a.raw(), b.raw(), invariant);
  }

 private:
  AuditReport* report_;
  const AuditOptions& options_;
  std::string context_;
};

std::string ExecContext(const Application& app, const std::string& sys_label,
                        const Execution& e) {
  return StrFormat(
      "%s/%s n=%lld t=%lld p=%lld d=%lld mb=%lld batch=%lld rc=%s%s%s%s",
      app.name.c_str(), sys_label.c_str(),
      static_cast<long long>(e.num_procs),
      static_cast<long long>(e.tensor_par),
      static_cast<long long>(e.pipeline_par),
      static_cast<long long>(e.data_par),
      static_cast<long long>(e.microbatch),
      static_cast<long long>(e.batch_size), ToString(e.recompute),
      e.tp_rs_ag ? " opt" : "", e.any_offload() ? " offload" : "",
      e.training ? "" : " inference");
}

// Evaluates one configuration, bumping the evaluation counters and checking
// the infeasibility-reporting contract (a rejection always says why). With a
// RunContext, exceptions and model-bug Results are isolated into
// FailureRecords: an injected fault only degrades the run, while a genuine
// throw out of the model additionally counts as a violation.
[[nodiscard]] Result<Stats> Evaluate(const Application& app,
                                     const System& sys,
                                     const std::string& sys_label,
                                     const Execution& exec,
                                     AuditReport* report, Auditor* audit) {
  const AuditOptions& options = audit->options();
  const std::uint64_t key = options.fault_key_base + report->evaluations;
  ++report->evaluations;
  auto& faults = testing::FaultInjector::Global();
  Result<Stats> res = [&]() -> Result<Stats> {
    try {
      if (faults.enabled() && faults.MaybeInject(key)) {
        return {Infeasible::kBadConfig, "injected fault"};
      }
      return CalculatePerformance(app, exec, sys);
    } catch (const testing::InjectedFault& ex) {
      return {Infeasible::kBadConfig, std::string(ex.what())};
    } catch (const std::exception& ex) {
      audit->set_context(ExecContext(app, sys_label, exec));
      audit->Check(false, "evaluation-throws", ex.what());
      return {Infeasible::kBadConfig, std::string(ex.what())};
    }
  }();
  if (res.ok()) {
    ++report->feasible;
  } else {
    if (options.ctx != nullptr && res.reason() == Infeasible::kBadConfig) {
      options.ctx->RecordFailure(key, ExecContext(app, sys_label, exec),
                                 res.detail(), ThreadPool::CurrentWorkerId());
    }
    audit->set_context(ExecContext(app, sys_label, exec));
    audit->Check(res.reason() != Infeasible::kNone && !res.detail().empty(),
                 "infeasible-has-reason", res.detail());
  }
  return res;
}

// Invariants of a single feasible result, cross-checked against an
// independent recomputation from the block model.
void CheckStats(const Application& app, const System& sys,
                const std::string& sys_label, const Execution& exec,
                const Stats& stats, Auditor& audit) {
  const Processor& proc = sys.proc();
  const TimeBreakdown& t = stats.time;
  audit.set_context(ExecContext(app, sys_label, exec));

  // --- Every reported quantity is a finite non-negative number ---
  const struct {
    const char* name;
    double value;
  } fields[] = {
      {"time.fw_pass", t.fw_pass.raw()},
      {"time.bw_pass", t.bw_pass.raw()},
      {"time.fw_recompute", t.fw_recompute.raw()},
      {"time.optim_step", t.optim_step.raw()},
      {"time.pp_bubble", t.pp_bubble.raw()},
      {"time.tp_comm", t.tp_comm.raw()},
      {"time.pp_comm", t.pp_comm.raw()},
      {"time.dp_comm", t.dp_comm.raw()},
      {"time.offload", t.offload.raw()},
      {"tier1.weights", stats.tier1.weights.raw()},
      {"tier1.activations", stats.tier1.activations.raw()},
      {"tier1.weight_grads", stats.tier1.weight_grads.raw()},
      {"tier1.act_grads", stats.tier1.act_grads.raw()},
      {"tier1.optimizer", stats.tier1.optimizer.raw()},
      {"tier2.total", stats.tier2.Total().raw()},
      {"tp_comm_total", stats.tp_comm_total.raw()},
      {"pp_comm_total", stats.pp_comm_total.raw()},
      {"dp_comm_total", stats.dp_comm_total.raw()},
      {"offload_total", stats.offload_total.raw()},
      {"offload_bw_required", stats.offload_bw_required.raw()},
      {"offload_bytes", stats.offload_bytes.raw()},
  };
  for (const auto& f : fields) {
    audit.Check(std::isfinite(f.value) && f.value >= 0.0, "finite-non-negative",
                StrFormat("%s = %.17g", f.name, f.value));
  }

  // --- The breakdown sums to the reported total ---
  audit.CheckClose(stats.batch_time, t.Total(), "time-breakdown-sum");
  audit.CheckClose(stats.sample_rate * stats.batch_time,
                   static_cast<double>(exec.batch_size),
                   "sample-rate-roundtrip");

  // --- MFU matches its definition and stays physical ---
  const Flops useful = ModelFlopsPerSample(app, exec.training) *
                       static_cast<double>(exec.batch_size);
  audit.CheckClose(stats.mfu,
                   useful / (stats.batch_time *
                             static_cast<double>(sys.num_procs()) *
                             proc.matrix.peak_flops()),
                   "mfu-definition");
  // No matrix op beats the curve's top efficiency, so neither does MFU
  // (docs/MODEL.md §11): the bound the system search prunes with.
  const double top_efficiency =
      proc.matrix.MaxRate() / proc.matrix.peak_flops();
  audit.Check(stats.mfu > 0.0 && stats.mfu <= top_efficiency, "mfu-range",
              StrFormat("mfu = %.17g, top matrix efficiency %.17g", stats.mfu,
                        top_efficiency));

  // --- Compute times re-derived layer by layer ---
  const BlockModel block = BuildBlock(app, exec);
  Seconds fw_block;
  Seconds bw_block;
  for (const Layer& l : block.layers) {
    fw_block += proc.OpTime(l.kind, l.fw_flops, l.fw_bytes);
    bw_block += proc.OpTime(l.kind, l.bw_flops, l.bw_bytes);
  }
  Seconds recompute_block;
  if (exec.recompute == Recompute::kFull) {
    recompute_block = fw_block;
  } else if (exec.recompute == Recompute::kAttnOnly) {
    for (std::size_t idx : block.attn_recompute_layers) {
      const Layer& l = block.layers[idx];
      recompute_block += proc.OpTime(l.kind, l.fw_flops, l.fw_bytes);
    }
  }
  const std::int64_t bpp = CeilDiv(app.num_blocks, exec.pipeline_par);
  const double nb = static_cast<double>(bpp);
  const double nm = static_cast<double>(exec.MicrobatchesPerPipeline());
  if (app.vocab_size == 0) {
    audit.CheckClose(t.fw_pass, nm * nb * fw_block, "fw-layer-sum");
    audit.CheckClose(t.bw_pass, nm * nb * bw_block, "bw-layer-sum");
    audit.CheckClose(t.fw_recompute, nm * nb * recompute_block,
                     "recompute-layer-sum");
  } else {
    // Vocabulary work on the edge stages only adds time.
    audit.CheckLe(nm * nb * fw_block, t.fw_pass, "fw-layer-lower-bound");
    audit.CheckLe(nm * nb * bw_block, t.bw_pass, "bw-layer-lower-bound");
  }

  // --- Disabled parallelism modes report no time ---
  if (exec.tensor_par == 1) {
    audit.CheckClose(t.tp_comm + stats.tp_comm_total, Seconds(0.0),
                     "tp-comm-zero-without-tp");
  }
  if (exec.pipeline_par == 1) {
    audit.CheckClose(t.pp_comm + t.pp_bubble + stats.pp_comm_total,
                     Seconds(0.0), "pp-zero-without-pp");
  }
  if (exec.data_par == 1 || !exec.training) {
    audit.CheckClose(t.dp_comm + stats.dp_comm_total, Seconds(0.0),
                     "dp-comm-zero-without-dp");
  }
  if (!exec.training) {
    audit.CheckClose(t.fw_recompute + t.optim_step, Seconds(0.0),
                     "inference-skips-training-phases");
    if (app.vocab_size == 0) {
      audit.CheckClose(t.bw_pass, Seconds(0.0), "inference-has-no-backward");
    }
  }

  // --- Exposed communication never exceeds busy communication ---
  audit.CheckLe(t.tp_comm, stats.tp_comm_total, "tp-exposed-le-total");
  audit.CheckLe(t.pp_comm, stats.pp_comm_total, "pp-exposed-le-total");
  audit.CheckLe(t.dp_comm, stats.dp_comm_total, "dp-exposed-le-total");

  // --- Memory tiers: within capacity; tier-2 used only when offloading ---
  audit.CheckLe(stats.tier1.Total(), proc.mem1.capacity(), "tier1-capacity");
  if (proc.mem2.present()) {
    audit.CheckLe(stats.tier2.Total(), proc.mem2.capacity(),
                  "tier2-capacity");
  }
  if (!exec.any_offload()) {
    // Mixed-dimension sum on purpose: each term must individually be zero,
    // so the check collapses them through raw().
    audit.CheckClose(stats.tier2.Total().raw() + t.offload.raw() +
                         stats.offload_total.raw() +
                         stats.offload_bytes.raw() +
                         stats.offload_bw_required.raw(),
                     0.0, "offload-zero-when-disabled");
  }

  // --- Tier-1 breakdown re-derived from the block model ---
  if (!exec.any_offload() && app.vocab_size == 0) {
    const double shard =
        exec.optimizer_sharding ? static_cast<double>(exec.data_par) : 1.0;
    const PipelineShape shape{exec.pipeline_par, exec.pp_interleaving,
                              exec.MicrobatchesPerPipeline(), exec.pp_1f1b};
    const double in_flight =
        exec.training ? InFlightMicrobatches(shape) : 1.0;
    const Bytes wgrad = block.WeightGradBytes();
    audit.CheckClose(stats.tier1.weights, block.WeightBytes() * nb,
                     "mem-weights-rederived");
    audit.CheckClose(stats.tier1.weight_grads,
                     wgrad * nb / shard +
                         (exec.training ? wgrad : Bytes(0.0)),
                     "mem-weight-grads-rederived");
    audit.CheckClose(stats.tier1.activations,
                     block.ActStoredBytes(exec.recompute) * nb * in_flight +
                         block.ActStoredBytes(Recompute::kNone),
                     "mem-activations-rederived");
    audit.CheckClose(stats.tier1.act_grads, block.act_grad_working_bytes,
                     "mem-act-grads-rederived");
    audit.CheckClose(stats.tier1.optimizer,
                     block.OptimizerBytes() * nb / shard,
                     "mem-optimizer-rederived");
  }
}

// Cross-result invariants between two recompute modes of the same
// configuration: the baseline passes are untouched and the model FLOPs are
// conserved (recomputation only adds work, it never changes what a batch
// computes).
void CheckRecomputePair(const Application& app, const std::string& sys_label,
                        const Execution& exec_hi, const Stats& base,
                        const Stats& more, Auditor& audit) {
  audit.set_context(ExecContext(app, sys_label, exec_hi));
  audit.CheckClose(more.time.fw_pass, base.time.fw_pass,
                   "recompute-preserves-fw");
  audit.CheckClose(more.time.bw_pass, base.time.bw_pass,
                   "recompute-preserves-bw");
  audit.CheckLe(base.time.fw_recompute, more.time.fw_recompute,
                "recompute-monotone");
  // mfu * batch_time == model_flops * batch / (procs * peak): constant
  // across recompute modes — FLOP conservation.
  audit.CheckClose(more.mfu * more.batch_time, base.mfu * base.batch_time,
                   "flop-conservation-across-recompute");
  if (!exec_hi.any_offload()) {
    audit.CheckLe(more.tier1.activations, base.tier1.activations,
                  "recompute-shrinks-activations");
  }
}

void AuditBundle(const Application& app, const System& sys,
                 const std::string& sys_label, const Execution& base,
                 AuditReport* report, Auditor& audit) {
  // Recompute-mode trio on the same coordinates.
  const Recompute modes[] = {Recompute::kNone, Recompute::kAttnOnly,
                             Recompute::kFull};
  std::optional<Stats> by_mode[3];
  Execution exec_of[3];
  // The outer sweep polls RunContext between bundles; this trio is bounded.
  for (int i = 0; i < 3; ++i) {  // a bounded trio: no poll
    Execution e = base;
    e.recompute = modes[i];
    exec_of[i] = e;
    Result<Stats> res = Evaluate(app, sys, sys_label, e, report, &audit);
    if (res.ok()) {
      by_mode[i] = std::move(res).value();
      CheckStats(app, sys, sys_label, e, *by_mode[i], audit);
    }
  }
  if (by_mode[0]) {
    audit.set_context(ExecContext(app, sys_label, exec_of[0]));
    audit.CheckClose(by_mode[0]->time.fw_recompute, Seconds(0.0),
                     "no-recompute-means-no-recompute-time");
  }
  for (int i = 1; i < 3; ++i) {
    if (by_mode[0] && by_mode[i]) {
      CheckRecomputePair(app, sys_label, exec_of[i], *by_mode[0],
                         *by_mode[i], audit);
    }
  }
  if (by_mode[0] && by_mode[2] && app.vocab_size == 0) {
    // Full recomputation repeats the whole forward pass.
    audit.set_context(ExecContext(app, sys_label, exec_of[2]));
    audit.CheckClose(by_mode[2]->time.fw_recompute, by_mode[0]->time.fw_pass,
                     "full-recompute-equals-fw-pass");
  }

  // Offload twin: every tensor family offloaded. Offloading is a memory
  // play — it can only add exposed transfer time, never speed up a batch.
  if (sys.proc().mem2.present() && base.training) {
    Execution off = base;
    off.weight_offload = true;
    off.activation_offload = true;
    off.optimizer_offload = true;
    Result<Stats> res = Evaluate(app, sys, sys_label, off, report, &audit);
    if (res.ok()) {
      const Stats& o = res.value();
      CheckStats(app, sys, sys_label, off, o, audit);
      if (by_mode[0]) {
        const Stats& b = *by_mode[0];
        audit.set_context(ExecContext(app, sys_label, off));
        audit.CheckLe(b.batch_time, o.batch_time,
                      "offload-never-beats-no-offload");
        audit.CheckClose(o.batch_time, b.batch_time + o.time.offload,
                         "offload-only-adds-exposed-transfer");
        audit.CheckClose(o.time.fw_pass, b.time.fw_pass,
                         "offload-preserves-fw");
        audit.CheckClose(o.time.bw_pass, b.time.bw_pass,
                         "offload-preserves-bw");
        audit.CheckClose(o.time.dp_comm, b.time.dp_comm,
                         "offload-preserves-dp-comm");
        audit.CheckLe(o.tier1.Total(), b.tier1.Total(),
                      "offload-frees-tier1");
      }
    }
  }
}

void AuditSplit(const Application& app, const System& sys,
                const std::string& sys_label, const Triple& s,
                std::int64_t mb, AuditReport* report, Auditor& audit) {
  Execution base;
  base.num_procs = sys.num_procs();
  base.tensor_par = s.t;
  base.pipeline_par = s.p;
  base.data_par = s.d;
  base.microbatch = mb;
  const std::int64_t nm = std::max<std::int64_t>(s.p, 2);
  base.batch_size = s.d * mb * nm;

  // Plain Megatron-style mapping with every optimization off.
  AuditBundle(app, sys, sys_label, base, report, audit);

  // The same split with the optimization families that apply switched on
  // (the full-bundle regime of Section 5.4).
  Execution opt = base;
  opt.fused_activation = true;
  if (s.t > 1) {
    opt.tp_rs_ag = true;
    opt.tp_overlap = TpOverlap::kRing;
    if (app.seq_size % s.t == 0) {
      opt.seq_par = true;
      opt.seq_par_ag_redo = true;
    }
  }
  if (s.d > 1) {
    opt.dp_overlap = true;
    opt.optimizer_sharding = true;
  }
  if (s.p > 1) {
    const std::int64_t bpp = CeilDiv(app.num_blocks, s.p);
    opt.pp_interleaving = std::min<std::int64_t>(2, bpp);
    if (s.t > 1) opt.pp_rs_ag = true;
  }
  AuditBundle(app, sys, sys_label, opt, report, audit);

  // Forward-only serving on the plain mapping.
  Execution inf = base;
  inf.training = false;
  inf.batch_size = s.d * mb;
  Result<Stats> res = Evaluate(app, sys, sys_label, inf, report, &audit);
  if (res.ok()) CheckStats(app, sys, sys_label, inf, res.value(), audit);
}

}  // namespace

AuditReport AuditMath() {
  AuditReport report;
  AuditOptions options;
  Auditor audit(&report, options);
  audit.set_context("math helpers");

  std::vector<std::int64_t> ns;
  for (std::int64_t n = 1; n <= 64; ++n) ns.push_back(n);
  for (std::int64_t n : {96, 100, 105, 128, 240, 360, 512, 1024, 3072, 4096,
                         12288}) {
    ns.push_back(n);
  }

  for (std::int64_t n : ns) {
    const std::vector<std::int64_t> divs = Divisors(n);
    audit.Check(!divs.empty() && divs.front() == 1 && divs.back() == n,
                "divisors-bracket",
                StrFormat("n=%lld", static_cast<long long>(n)));
    const std::set<std::int64_t> dset(divs.begin(), divs.end());
    audit.Check(dset.size() == divs.size(), "divisors-unique",
                StrFormat("n=%lld", static_cast<long long>(n)));
    bool sorted = true;
    bool divide = true;
    bool closed = true;  // d | n implies (n/d) | n — divisor set round-trip
    for (std::size_t i = 0; i < divs.size(); ++i) {
      if (i > 0 && divs[i - 1] >= divs[i]) sorted = false;
      if (n % divs[i] != 0) divide = false;
      if (dset.count(n / divs[i]) == 0) closed = false;
    }
    audit.Check(sorted, "divisors-ascending",
                StrFormat("n=%lld", static_cast<long long>(n)));
    audit.Check(divide, "divisors-divide",
                StrFormat("n=%lld", static_cast<long long>(n)));
    audit.Check(closed, "divisors-complement-closed",
                StrFormat("n=%lld", static_cast<long long>(n)));

    // NextDivisor returns the minimal divisor >= lo.
    for (std::int64_t lo = 1; lo <= std::min<std::int64_t>(n + 1, 70);
         ++lo) {
      const std::int64_t nd = NextDivisor(n, lo);
      bool minimal = n % nd == 0;
      if (lo <= n) {
        if (nd < lo) minimal = false;
        for (std::int64_t d : divs) {
          if (d >= lo && d < nd) minimal = false;
        }
      } else if (nd != n) {
        minimal = false;
      }
      audit.Check(minimal, "next-divisor-minimal",
                  StrFormat("n=%lld lo=%lld got %lld",
                            static_cast<long long>(n),
                            static_cast<long long>(lo),
                            static_cast<long long>(nd)));
    }

    // FactorTriples: every triple multiplies back to n; the enumeration is
    // duplicate-free and complete (sum over t of |Divisors(n/t)|).
    const std::vector<Triple> triples = FactorTriples(n);
    std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t>> tset;
    bool products = true;
    for (const Triple& tr : triples) {
      if (tr.t * tr.p * tr.d != n) products = false;
      tset.insert({tr.t, tr.p, tr.d});
    }
    audit.Check(products, "factor-triples-product",
                StrFormat("n=%lld", static_cast<long long>(n)));
    audit.Check(tset.size() == triples.size(), "factor-triples-unique",
                StrFormat("n=%lld", static_cast<long long>(n)));
    std::size_t expected = 0;
    for (std::int64_t t : divs) expected += Divisors(n / t).size();
    audit.Check(triples.size() == expected, "factor-triples-complete",
                StrFormat("n=%lld got %zu want %zu",
                          static_cast<long long>(n), triples.size(),
                          expected));
  }

  // CeilDiv round-trip: q is the least integer with q*b >= a.
  for (std::int64_t a : {0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 1000, 12288}) {
    for (std::int64_t b : {1, 2, 3, 7, 8, 16, 64, 4096}) {
      const std::int64_t q = CeilDiv(a, b);
      audit.Check(q * b >= a && (a == 0 ? q == 0 : (q - 1) * b < a),
                  "ceil-div-roundtrip",
                  StrFormat("a=%lld b=%lld q=%lld",
                            static_cast<long long>(a),
                            static_cast<long long>(b),
                            static_cast<long long>(q)));
    }
  }

  // CheckedMul flags exactly the products that do not fit.
  std::int64_t out = 0;
  audit.Check(CheckedMul(1 << 20, 1 << 20, &out) && out == (1LL << 40),
              "checked-mul-fits", "2^20 * 2^20");
  audit.Check(CheckedMul(-4, 6, &out) && out == -24, "checked-mul-fits",
              "-4 * 6");
  audit.Check(!CheckedMul(1LL << 32, 1LL << 32, &out), "checked-mul-flags",
              "2^32 * 2^32");
  audit.Check(!CheckedMul(std::numeric_limits<std::int64_t>::min(), -1, &out),
              "checked-mul-flags", "INT64_MIN * -1");
  return report;
}

AuditReport AuditPair(const Application& app, const System& base_sys,
                      const AuditOptions& options) {
  AuditReport report;
  Auditor audit(&report, options);
  const std::string sys_label = options.context_label.empty()
                                    ? base_sys.name()
                                    : options.context_label;

  std::vector<std::int64_t> counts = options.proc_counts;
  if (counts.empty()) {
    for (std::int64_t n :
         {std::int64_t{8}, std::int64_t{64}, std::int64_t{512},
          base_sys.num_procs()}) {
      if (n <= base_sys.num_procs()) counts.push_back(n);
    }
  }
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  for (std::int64_t n : counts) {
    if (options.ctx != nullptr && options.ctx->ShouldStop()) break;
    const System sys = base_sys.WithNumProcs(n);
    std::vector<Triple> splits = FactorTriples(n);
    const std::size_t cap = static_cast<std::size_t>(
        std::max(options.max_splits, 1));
    if (splits.size() > cap) {
      // Even stride through the ordered enumeration keeps TP-heavy,
      // PP-heavy, DP-heavy, and mixed splits all represented.
      std::vector<Triple> sampled;
      sampled.reserve(cap);
      for (std::size_t k = 0; k < cap; ++k) {
        sampled.push_back(splits[k * splits.size() / cap]);
      }
      splits = std::move(sampled);
    }
    for (const Triple& split : splits) {
      if (options.ctx != nullptr && options.ctx->ShouldStop()) break;
      for (std::int64_t mb : {std::int64_t{1}, std::int64_t{2}}) {
        AuditSplit(app, sys, sys_label, split, mb, &report, audit);
      }
    }
  }
  return report;
}

json::Value ReportToJson(const AuditReport& report) {
  json::Value v;
  v["evaluations"] = static_cast<std::int64_t>(report.evaluations);
  v["feasible"] = static_cast<std::int64_t>(report.feasible);
  v["checks"] = static_cast<std::int64_t>(report.checks);
  v["dropped"] = static_cast<std::int64_t>(report.dropped);
  json::Array violations;
  for (const AuditViolation& violation : report.violations) {
    json::Value vj;
    vj["invariant"] = violation.invariant;
    vj["context"] = violation.context;
    vj["detail"] = violation.detail;
    violations.push_back(std::move(vj));
  }
  v["violations"] = json::Value(std::move(violations));
  return v;
}

AuditReport ReportFromJson(const json::Value& v) {
  AuditReport report;
  report.evaluations = json::CountIn(v.at("evaluations").AsInt(),
                                     "evaluations");
  report.feasible = json::CountIn(v.at("feasible").AsInt(), "feasible");
  report.checks = json::CountIn(v.at("checks").AsInt(), "checks");
  report.dropped = json::CountIn(v.at("dropped").AsInt(), "dropped");
  for (const json::Value& vj : v.at("violations").AsArray()) {
    report.violations.push_back(AuditViolation{vj.at("invariant").AsString(),
                                               vj.at("context").AsString(),
                                               vj.at("detail").AsString()});
  }
  return report;
}

}  // namespace calculon::analysis
