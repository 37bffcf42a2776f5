#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "hw/presets.h"
#include "models/presets.h"
#include "obs/metrics.h"
#include "search/exec_search.h"
#include "testing/fault_injection.h"
#include "util/error.h"
#include "util/mathutil.h"
#include "util/units.h"

namespace calculon::testing {
namespace {

// Injected faults are counted by the global metrics registry, so every
// test runs with it enabled and empty, and leaves it as it found it and
// the process-wide injector disabled.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    was_enabled_ = metrics.enabled();
    saved_ = metrics.Snapshot();
    metrics.Reset();
    metrics.Enable();
  }
  void TearDown() override {
    FaultInjector::Global().Reset();
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    metrics.Reset();
    metrics.Ingest(saved_, "");
    if (!was_enabled_) metrics.Disable();
  }

  // faults.injected.<kind> as the registry counts it.
  static std::uint64_t Injected(const char* kind) {
    return obs::MetricsRegistry::Global()
        .GetCounter(std::string("faults.injected.") + kind)
        ->value();
  }
  // Throws + errors: the number of FailureRecords a resilient sweep that
  // evaluated every key must report.
  static std::uint64_t InjectedFailures() {
    return Injected("throw") + Injected("error");
  }

 private:
  bool was_enabled_ = false;
  obs::MetricsSnapshot saved_;
};

TEST_F(FaultInjectionTest, SpecParsesAllKeys) {
  const FaultPlan plan =
      FaultPlan::FromSpec("seed=42,throw=0.05,error=0.01,delay=0.2,delay_us=50");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.throw_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan.error_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan.delay_rate, 0.2);
  EXPECT_EQ(plan.delay_us, 50);
  EXPECT_TRUE(plan.enabled());
}

TEST_F(FaultInjectionTest, EmptySpecIsDisabled) {
  const FaultPlan plan = FaultPlan::FromSpec("");
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(FaultPlan{}.enabled());
}

TEST_F(FaultInjectionTest, MalformedSpecsThrow) {
  EXPECT_THROW((void)FaultPlan::FromSpec("bogus=1"), ConfigError);
  EXPECT_THROW((void)FaultPlan::FromSpec("throw=1.5"), ConfigError);
  EXPECT_THROW((void)FaultPlan::FromSpec("throw=-0.1"), ConfigError);
  EXPECT_THROW((void)FaultPlan::FromSpec("throw=abc"), ConfigError);
  EXPECT_THROW((void)FaultPlan::FromSpec("throw=0.6,error=0.6"), ConfigError);
}

// A numeric value that does not parse whole, or lies outside its range, is
// refused naming its key, never read as 0 or wrapped.
TEST_F(FaultInjectionTest, MalformedNumbersThrowNamingTheKey) {
  const char* const bad[] = {
      "seed=abc", "seed=-1", "seed=", "seed=1x", "seed=1.5",
      "seed=18446744073709551616",  // 2^64
      "delay_us=abc", "delay_us=-5", "delay_us=", "delay_us=5.5",
      "delay_us=2147483648",  // 2^31
      "hang_s=abc", "hang_s=-1", "hang_s=", "hang_s=inf", "hang_s=nan",
      "hang_s=1e999", "hang_s=1e300", "hang_s=1000000000.5", "throw=",
      "throw=nan"};
  for (const char* spec : bad) {
    const std::string key(spec, std::strchr(spec, '='));
    try {
      (void)FaultPlan::FromSpec(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("fault spec: " + key + " ", 0), 0u)
          << spec << ": " << what;
    }
  }
  // The edges of each range are accepted.
  const FaultPlan plan = FaultPlan::FromSpec(
      "seed=18446744073709551615,delay_us=2147483647,hang_s=0");
  EXPECT_EQ(plan.seed, UINT64_MAX);
  EXPECT_EQ(plan.delay_us, INT_MAX);
  EXPECT_EQ(plan.hang_s, 0.0);
  EXPECT_EQ(FaultPlan::FromSpec("delay_us=0,hang_s=2.5e1").hang_s, 25.0);
  EXPECT_EQ(FaultPlan::FromSpec("hang_s=1e9").hang_s, 1e9);
}

TEST_F(FaultInjectionTest, FromEnvReadsTheVariable) {
  ::setenv("CALCULON_FAULTS_TEST", "seed=7,error=0.5", 1);
  const FaultPlan plan = FaultPlan::FromEnv("CALCULON_FAULTS_TEST");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.error_rate, 0.5);
  ::unsetenv("CALCULON_FAULTS_TEST");
  EXPECT_FALSE(FaultPlan::FromEnv("CALCULON_FAULTS_TEST").enabled());
}

TEST_F(FaultInjectionTest, DecisionsAreAPureFunctionOfSeedAndKey) {
  FaultPlan plan;
  plan.seed = 123;
  plan.throw_rate = 0.05;
  plan.error_rate = 0.05;
  plan.delay_rate = 0.05;
  FaultInjector a;
  FaultInjector b;
  a.Configure(plan);
  b.Configure(plan);
  for (std::uint64_t key = 0; key < 20000; ++key) {
    ASSERT_EQ(a.Decide(key), b.Decide(key)) << "key " << key;
    ASSERT_EQ(a.Decide(key), a.Decide(key)) << "key " << key;  // stateless
  }
  // A different seed produces a different fault set.
  plan.seed = 124;
  b.Configure(plan);
  int differing = 0;
  for (std::uint64_t key = 0; key < 20000; ++key) {
    if (a.Decide(key) != b.Decide(key)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST_F(FaultInjectionTest, RatesAreHonouredOverTheKeySpace) {
  FaultPlan plan;
  plan.seed = 99;
  plan.throw_rate = 0.05;
  plan.error_rate = 0.10;
  FaultInjector injector;
  injector.Configure(plan);
  constexpr std::uint64_t kKeys = 200000;
  std::uint64_t throws = 0;
  std::uint64_t errors = 0;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const FaultAction action = injector.Decide(key);
    if (action == FaultAction::kThrow) ++throws;
    if (action == FaultAction::kError) ++errors;
  }
  // Within 20% relative of the configured rates — loose enough to be
  // deterministic-proof, tight enough to catch a broken hash.
  EXPECT_NEAR(static_cast<double>(throws) / kKeys, 0.05, 0.01);
  EXPECT_NEAR(static_cast<double>(errors) / kKeys, 0.10, 0.02);
}

TEST_F(FaultInjectionTest, MaybeInjectCountsEveryInjectionExactly) {
  FaultPlan plan;
  plan.seed = 5;
  plan.throw_rate = 0.04;
  plan.error_rate = 0.04;
  plan.delay_rate = 0.02;
  plan.delay_us = 1;
  FaultInjector injector;
  injector.Configure(plan);
  constexpr std::uint64_t kKeys = 5000;
  std::uint64_t predicted_throws = 0;
  std::uint64_t predicted_errors = 0;
  std::uint64_t predicted_delays = 0;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    switch (injector.Decide(key)) {
      case FaultAction::kThrow: ++predicted_throws; break;
      case FaultAction::kError: ++predicted_errors; break;
      case FaultAction::kDelay: ++predicted_delays; break;
      case FaultAction::kNone: break;
      // The plan configures no process-level kinds.
      case FaultAction::kAbort:
      case FaultAction::kSegv:
      case FaultAction::kHang:
      case FaultAction::kExit0:
        ADD_FAILURE() << "unexpected process fault for key " << key;
        break;
    }
  }
  ASSERT_GT(predicted_throws, 0u);
  ASSERT_GT(predicted_errors, 0u);
  std::uint64_t caught = 0;
  std::uint64_t errored = 0;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    try {
      if (injector.MaybeInject(key)) ++errored;
    } catch (const InjectedFault&) {
      ++caught;
    }
  }
  EXPECT_EQ(caught, predicted_throws);
  EXPECT_EQ(errored, predicted_errors);
  EXPECT_EQ(Injected("throw"), predicted_throws);
  EXPECT_EQ(Injected("error"), predicted_errors);
  EXPECT_EQ(Injected("delay"), predicted_delays);
  EXPECT_EQ(InjectedFailures(), predicted_throws + predicted_errors);
}

TEST_F(FaultInjectionTest, ResetLeavesTheInjectorInert) {
  FaultPlan plan;
  plan.seed = 1;
  plan.error_rate = 1.0;
  FaultInjector injector;
  injector.Configure(plan);
  EXPECT_TRUE(injector.MaybeInject(0));
  EXPECT_EQ(Injected("error"), 1u);
  injector.Reset();
  EXPECT_FALSE(injector.enabled());
  EXPECT_FALSE(injector.MaybeInject(0));  // inert when disabled
  EXPECT_EQ(Injected("error"), 1u);       // and counts nothing more
}

// The acceptance property: a seeded ~5% fault run over the GPT-3
// execution-search grid completes, returns partial results, and the
// failure summary counts exactly the injected faults.
TEST_F(FaultInjectionTest, Gpt3GridFiveInjectedPercentCountsExactly) {
  auto& faults = FaultInjector::Global();
  FaultPlan plan;
  plan.seed = 20260805;
  plan.throw_rate = 0.025;
  plan.error_rate = 0.025;
  faults.Configure(plan);

  const Application app = presets::ApplicationByName("gpt3_175b");
  const System sys = presets::SystemByName("a100_80g").WithNumProcs(64);
  ThreadPool pool(4);
  RunContext ctx;
  SearchConfig config;
  config.top_k = 3;
  config.ctx = &ctx;
  const SearchResult r = FindOptimalExecution(
      app, sys, SearchSpace::MegatronBaseline(), config, pool);

  EXPECT_TRUE(r.status.complete);  // faults are isolated, not fatal
  EXPECT_TRUE(r.status.degraded());
  EXPECT_GT(r.status.failures, 0u);
  EXPECT_EQ(r.status.failures, InjectedFailures());
  EXPECT_FALSE(r.status.failure_samples.empty());
  EXPECT_FALSE(r.best.empty());  // the surviving grid still yields a best
  EXPECT_GT(r.feasible, 0u);
}

// The same grid, same seed, run twice: identical failure sets (the hash is
// interleaving-independent), so resilient sweeps are reproducible.
TEST_F(FaultInjectionTest, Gpt3GridFaultsAreReproducibleAcrossThreadCounts) {
  const Application app = presets::ApplicationByName("gpt3_175b");
  const System sys = presets::SystemByName("a100_80g").WithNumProcs(64);
  FaultPlan plan;
  plan.seed = 77;
  plan.throw_rate = 0.03;
  plan.error_rate = 0.02;

  auto run = [&](unsigned threads) {
    FaultInjector::Global().Configure(plan);
    ThreadPool pool(threads);
    RunContext ctx;
    SearchConfig config;
    config.ctx = &ctx;
    const SearchResult r = FindOptimalExecution(
        app, sys, SearchSpace::MegatronBaseline(), config, pool);
    return std::make_pair(r.status.failures, r.evaluated);
  };
  const auto [failures1, evaluated1] = run(1);
  const auto [failures4, evaluated4] = run(4);
  EXPECT_EQ(failures1, failures4);
  EXPECT_EQ(evaluated1, evaluated4);
  EXPECT_GT(failures1, 0u);
}

// Visits the candidates of triple `tr` in SweepTripleInto's order, as the
// collapsed lists of a degenerate degree leave them.
template <typename Visit>
void ForEachCandidate(const Application& app, const System& sys,
                      const SearchSpace& space, std::int64_t batch, Triple tr,
                      Visit visit) {
  const bool tp = tr.t > 1;
  const bool pp = tr.p > 1;
  const bool dp = tr.d > 1;
  const std::vector<SearchSpace::TpCommVariant> tp_comm =
      tp ? space.tp_comm : std::vector<SearchSpace::TpCommVariant>{{}};
  const std::vector<TpOverlap> tp_overlap =
      tp ? space.tp_overlap : std::vector<TpOverlap>{TpOverlap::kNone};
  const std::vector<bool> dp_overlap =
      dp ? space.dp_overlap : std::vector<bool>{false};
  const std::vector<bool> sharding =
      dp ? space.optimizer_sharding : std::vector<bool>{false};
  const std::vector<bool> one_f_one_b =
      pp ? space.pp_1f1b : std::vector<bool>{true};
  const std::vector<bool> pp_rs_ag =
      pp && tp ? space.pp_rs_ag : std::vector<bool>{false};
  const std::vector<SearchSpace::OffloadVariant> offload =
      sys.proc().mem2.present()
          ? space.offload
          : std::vector<SearchSpace::OffloadVariant>{{}};
  std::vector<std::int64_t> interleavings = {1};
  if (space.sweep_interleaving && pp) {
    interleavings = Divisors(CeilDiv(app.num_blocks, tr.p));
  }
  Execution e;
  e.num_procs = sys.num_procs();
  e.tensor_par = tr.t;
  e.pipeline_par = tr.p;
  e.data_par = tr.d;
  e.batch_size = batch;
  for (std::int64_t m : Divisors(batch / tr.d)) {
    if (m > space.max_microbatch) continue;
    e.microbatch = m;
    for (std::int64_t il : interleavings) {
      e.pp_interleaving = il;
      for (Recompute rc : space.recompute) {
        e.recompute = rc;
        for (const auto& tpc : tp_comm) {
          e.tp_rs_ag = tpc.tp_rs_ag;
          e.seq_par = tpc.seq_par;
          e.seq_par_ag_redo = tpc.ag_redo;
          for (TpOverlap ov : tp_overlap) {
            e.tp_overlap = ov;
            for (bool fused : space.fused_activation) {
              e.fused_activation = fused;
              for (bool dpo : dp_overlap) {
                e.dp_overlap = dpo;
                for (bool sh : sharding) {
                  e.optimizer_sharding = sh;
                  for (bool f1b : one_f_one_b) {
                    e.pp_1f1b = f1b;
                    for (bool ppr : pp_rs_ag) {
                      e.pp_rs_ag = ppr;
                      for (const auto& off : offload) {
                        e.weight_offload = off.weights;
                        e.activation_offload = off.activations;
                        e.optimizer_offload = off.optimizer;
                        visit(e);
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

// The sweep decides two kinds of candidates without evaluating them: those
// whose (microbatch, interleaving, TP-comm variant) fails the partition
// checks, and the overlap variants of a point whose tier-1 verdict is
// already a rejection. Each must still consume its fault key: a sweep with
// a throw+error plan must record exactly the failures of a naive loop that
// calls MaybeInject for every key, then evaluates one-shot.
TEST_F(FaultInjectionTest, DecidedCandidatesStillConsumeTheirFaultKeys) {
  auto& faults = FaultInjector::Global();
  std::mt19937_64 rng(18);
  auto below = [&](std::uint64_t n) { return rng() % n; };
  const char* const apps[] = {"gpt3_13b", "megatron_22b", "chinchilla_70b",
                              "gpt3_175b"};
  std::uint64_t interleave_rule = 0;  // candidates failing nm % p
  std::uint64_t shared_memory = 0;    // memory rejections after the first
                                      // overlap variant of their point
  std::uint64_t failures = 0;
  for (int draw = 0; draw < 24; ++draw) {
    const Application app = presets::ApplicationByName(apps[below(4)]);
    presets::SystemOptions o;
    o.num_procs = below(2) == 0 ? 32 : 64;
    o.hbm_capacity = GiB(below(2) == 0 ? 24.0 : 80.0);
    if (below(3) == 0) o.offload_capacity = GiB(512.0);
    const System sys = presets::A100(o);
    SearchSpace space;
    space.recompute = {Recompute::kNone, Recompute::kFull};
    space.tp_comm = {{false, false, false}, {true, true, false}};
    space.tp_overlap = {TpOverlap::kNone, TpOverlap::kPipe, TpOverlap::kRing};
    space.tp_overlap.erase(space.tp_overlap.begin() +
                           static_cast<std::ptrdiff_t>(below(3)));
    space.dp_overlap = {below(2) == 0, true};
    space.dp_overlap[1] = !space.dp_overlap[0];
    space.fused_activation = {below(2) == 0};
    space.optimizer_sharding = {false, true};
    space.pp_rs_ag = {false};
    space.sweep_interleaving = true;
    space.offload = {{}, {true, true, true}};
    space.max_microbatch = 4;
    SearchConfig config;
    config.batch_size = o.num_procs * (below(2) == 0 ? 1 : 3);

    // A triple that keeps both overlap lists: t, p and d all above 1.
    const std::vector<Triple> triples = SearchTriples(app, sys, space, config);
    std::vector<std::uint64_t> eligible;
    for (std::uint64_t i = 0; i < triples.size(); ++i) {
      if (triples[i].t > 1 && triples[i].p > 1 && triples[i].d > 1) {
        eligible.push_back(i);
      }
    }
    ASSERT_FALSE(eligible.empty());
    const std::uint64_t idx = eligible[below(eligible.size())];
    const Triple tr = triples[idx];

    FaultPlan plan;
    plan.seed = 1000 + static_cast<std::uint64_t>(draw);
    plan.throw_rate = 0.04;
    plan.error_rate = 0.04;

    // The naive reference.
    faults.Configure(plan);
    obs::MetricsRegistry::Global().Reset();
    std::vector<std::uint64_t> rejected(
        static_cast<std::size_t>(Infeasible::kBadConfig) + 1, 0);
    std::uint64_t feasible = 0;
    std::vector<std::pair<std::uint64_t, std::string>> records;
    std::uint64_t counter = 0;
    ForEachCandidate(
        app, sys, space, config.batch_size, tr, [&](const Execution& e) {
          const std::uint64_t key = (idx << 32) + ++counter;
          Infeasible reason = Infeasible::kNone;
          try {
            if (faults.MaybeInject(key)) {
              reason = Infeasible::kBadConfig;
              records.emplace_back(
                  key, Result<Stats>(reason, "injected fault").detail());
            } else {
              const Result<Stats> r = CalculatePerformance(app, e, sys);
              reason = r.reason();
              if (reason == Infeasible::kBadConfig) {
                records.emplace_back(key, r.detail());
              }
            }
          } catch (const std::exception& ex) {
            reason = Infeasible::kBadConfig;
            records.emplace_back(key, ex.what());
          }
          if (reason == Infeasible::kNone) {
            ++feasible;
          } else {
            ++rejected[static_cast<std::size_t>(reason)];
          }
          if (e.pp_interleaving > 1 &&
              e.MicrobatchesPerPipeline() % e.pipeline_par != 0) {
            ++interleave_rule;
          }
          if (reason == Infeasible::kMemoryCapacity && !e.any_offload() &&
              (e.tp_overlap != space.tp_overlap[0] ||
               e.dp_overlap != space.dp_overlap[0])) {
            ++shared_memory;
          }
        });
    const std::uint64_t naive_injected = InjectedFailures();

    faults.Configure(plan);
    obs::MetricsRegistry::Global().Reset();
    const TripleSweep sweep = SweepTriple(app, sys, space, config, idx);
    const std::string where = "draw " + std::to_string(draw) + ": " +
                              app.name + ", t=" + std::to_string(tr.t) +
                              " p=" + std::to_string(tr.p) +
                              " d=" + std::to_string(tr.d);
    EXPECT_EQ(sweep.evaluated, counter) << where;
    EXPECT_EQ(sweep.rejected, rejected) << where;
    EXPECT_EQ(sweep.feasible, feasible) << where;
    EXPECT_EQ(InjectedFailures(), naive_injected) << where;
    ASSERT_EQ(sweep.failures.size(), records.size()) << where;
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(sweep.failures[i].item, records[i].first) << where;
      EXPECT_EQ(sweep.failures[i].reason, records[i].second) << where;
    }
    failures += records.size();
  }
  // Both shared verdicts fired, and faults landed among the candidates.
  EXPECT_GT(interleave_rule, 0u);
  EXPECT_GT(shared_memory, 0u);
  EXPECT_GT(failures, 0u);
}

}  // namespace
}  // namespace calculon::testing
