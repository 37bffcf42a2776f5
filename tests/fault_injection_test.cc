#include <gtest/gtest.h>

#include <cstdlib>
#include <cstdint>

#include "hw/presets.h"
#include "models/presets.h"
#include "search/exec_search.h"
#include "testing/fault_injection.h"
#include "util/error.h"

namespace calculon::testing {
namespace {

// Every test leaves the process-wide injector disabled.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
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
  EXPECT_EQ(injector.injected_throws(), predicted_throws);
  EXPECT_EQ(injector.injected_errors(), predicted_errors);
  EXPECT_EQ(injector.injected_delays(), predicted_delays);
  EXPECT_EQ(injector.injected_failures(), predicted_throws + predicted_errors);
}

TEST_F(FaultInjectionTest, ConfigureZeroesTheCounters) {
  FaultPlan plan;
  plan.seed = 1;
  plan.error_rate = 1.0;
  FaultInjector injector;
  injector.Configure(plan);
  EXPECT_TRUE(injector.MaybeInject(0));
  EXPECT_EQ(injector.injected_errors(), 1u);
  injector.Configure(plan);
  EXPECT_EQ(injector.injected_errors(), 0u);
  injector.Reset();
  EXPECT_FALSE(injector.enabled());
  EXPECT_FALSE(injector.MaybeInject(0));  // inert when disabled
  EXPECT_EQ(injector.injected_errors(), 0u);
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
  EXPECT_EQ(r.status.failures, faults.injected_failures());
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

}  // namespace
}  // namespace calculon::testing
