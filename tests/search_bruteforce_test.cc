// Cross-checks the search engine against a straightforward brute-force
// enumeration on a small space: the fast path must find exactly the same
// optimum and the same feasible count as the naive loop.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/perf_model.h"
#include "hw/presets.h"
#include "models/presets.h"
#include "search/exec_search.h"
#include "search/pareto.h"
#include "util/mathutil.h"
#include "util/units.h"

namespace calculon {
namespace {

TEST(SearchBruteForce, MatchesNaiveEnumeration) {
  const Application app = presets::Megatron22B();
  presets::SystemOptions o;
  o.num_procs = 16;
  const System sys = presets::A100(o);
  const std::int64_t batch = 32;

  // Naive: loop every combination of the MegatronBaseline space by hand.
  PerSecond best_rate(0.0);
  std::uint64_t feasible = 0;
  for (const Triple& tr : FactorTriples(16)) {
    if (tr.t > app.attn_heads || app.attn_heads % tr.t != 0) continue;
    if (tr.p > app.num_blocks) continue;
    if (batch % tr.d != 0) continue;
    for (std::int64_t m : Divisors(batch / tr.d)) {
      const std::int64_t bpp =
          (app.num_blocks + tr.p - 1) / tr.p;
      std::vector<std::int64_t> interleavings = {1};
      if (tr.p > 1) interleavings = Divisors(bpp);
      for (std::int64_t il : interleavings) {
        for (Recompute rc : {Recompute::kNone, Recompute::kFull}) {
          const std::vector<bool> shardings =
              tr.d > 1 ? std::vector<bool>{false, true}
                       : std::vector<bool>{false};
          for (bool sh : shardings) {
            Execution e;
            e.num_procs = 16;
            e.tensor_par = tr.t;
            e.pipeline_par = tr.p;
            e.data_par = tr.d;
            e.batch_size = batch;
            e.microbatch = m;
            e.pp_interleaving = il;
            e.recompute = rc;
            e.optimizer_sharding = sh;
            const auto r = CalculatePerformance(app, e, sys);
            if (!r.ok()) continue;
            ++feasible;
            best_rate = std::max(best_rate, r.value().sample_rate);
          }
        }
      }
    }
  }
  ASSERT_GT(feasible, 0u);

  ThreadPool pool(3);
  SearchConfig config;
  config.batch_size = batch;
  const SearchResult result = FindOptimalExecution(
      app, sys, SearchSpace::MegatronBaseline(), config, pool);
  EXPECT_EQ(result.feasible, feasible);
  ASSERT_FALSE(result.best.empty());
  EXPECT_DOUBLE_EQ(result.best.front().stats.sample_rate.raw(),
                   best_rate.raw());
}

// --- Differential oracle ----------------------------------------------------
//
// SweepTriple is the search's fast path; one-shot CalculatePerformance is
// the reference. Over seeded random draws of (application, system,
// sub-space, triple) the sweep must return exactly what a naive loop of
// one-shot evaluations feeding InsertTopK returns, to the last bit, and a
// StageTable (the study runner's evaluator) must return each candidate's
// one-shot result. A pinned digest of the one-shot results keeps the
// reference itself from drifting.

// Portable draws: mt19937_64's output sequence is fixed by the standard,
// unlike the std distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed) {}
  std::uint64_t Below(std::uint64_t n) { return gen_() % n; }
  bool Coin() { return Below(2) == 1; }
  template <typename T>
  T Pick(std::initializer_list<T> items) {
    return *(items.begin() + Below(items.size()));
  }

 private:
  std::mt19937_64 gen_;
};

std::vector<bool> RandomBools(Rng& rng) {
  std::vector<bool> v(1 + rng.Below(2));
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.Coin();
  return v;
}

SearchSpace RandomSpace(Rng& rng) {
  SearchSpace s;
  s.recompute.assign(1 + rng.Below(3), Recompute::kNone);
  for (Recompute& r : s.recompute) {
    r = rng.Pick({Recompute::kNone, Recompute::kAttnOnly, Recompute::kFull});
  }
  // Mostly the four meaningful variants, sometimes any bool triple (the
  // model rejects the incompatible ones).
  s.tp_comm.assign(1 + rng.Below(3), {});
  for (auto& v : s.tp_comm) {
    const std::uint64_t k = rng.Below(5);
    v = k == 4 ? SearchSpace::TpCommVariant{rng.Coin(), rng.Coin(), rng.Coin()}
               : SearchSpace::TpCommVariant{k > 0, k > 1, k > 2};
  }
  s.tp_overlap.assign(1 + rng.Below(2), TpOverlap::kNone);
  for (TpOverlap& o : s.tp_overlap) {
    o = rng.Pick({TpOverlap::kNone, TpOverlap::kPipe, TpOverlap::kRing});
  }
  s.fused_activation = RandomBools(rng);
  s.dp_overlap = RandomBools(rng);
  s.optimizer_sharding = RandomBools(rng);
  s.pp_1f1b = RandomBools(rng);
  s.pp_rs_ag = RandomBools(rng);
  s.sweep_interleaving = rng.Coin();
  s.offload.assign(1 + rng.Below(2), {});
  for (auto& v : s.offload) {
    v = rng.Below(3) == 0
            ? SearchSpace::OffloadVariant{}
            : SearchSpace::OffloadVariant{rng.Coin(), rng.Coin(), rng.Coin()};
  }
  s.max_microbatch = rng.Pick<std::int64_t>({1, 2, 4, 1'000'000'000});
  return s;
}

System RandomSystem(Rng& rng) {
  presets::SystemOptions o;
  o.num_procs = rng.Pick<std::int64_t>({8, 12, 16, 24, 32, 64});
  o.nvlink_domain = rng.Pick<std::int64_t>({4, 8});
  o.hbm_capacity = GiB(rng.Pick<double>({24.0, 40.0, 80.0}));
  if (rng.Coin()) {  // a tier-2 memory, sometimes too small to hold much
    o.offload_capacity = GiB(rng.Pick<double>({16.0, 512.0}));
    o.offload_bandwidth = BytesPerSecond(rng.Pick<double>({25e9, 100e9}));
  }
  switch (rng.Below(3)) {
    case 0: return presets::A100(o);
    case 1: return presets::H100(o);
    default: return presets::H100Nvl256(o);
  }
}

// Every field of a Stats, each to 17 significant digits: equal dumps are
// bit-identical values.
std::string DumpStats(const Stats& s) {
  const double fields[] = {
      s.time.fw_pass.raw(),        s.time.bw_pass.raw(),
      s.time.fw_recompute.raw(),   s.time.optim_step.raw(),
      s.time.pp_bubble.raw(),      s.time.tp_comm.raw(),
      s.time.pp_comm.raw(),        s.time.dp_comm.raw(),
      s.time.offload.raw(),        s.tier1.weights.raw(),
      s.tier1.activations.raw(),   s.tier1.weight_grads.raw(),
      s.tier1.act_grads.raw(),     s.tier1.optimizer.raw(),
      s.tier2.weights.raw(),       s.tier2.activations.raw(),
      s.tier2.weight_grads.raw(),  s.tier2.act_grads.raw(),
      s.tier2.optimizer.raw(),     s.batch_time.raw(),
      s.sample_rate.raw(),         s.mfu,
      s.tp_comm_total.raw(),       s.pp_comm_total.raw(),
      s.dp_comm_total.raw(),       s.offload_total.raw(),
      s.offload_bw_required.raw(), s.offload_bytes.raw()};
  std::string out;
  char buf[32];
  for (double f : fields) {
    std::snprintf(buf, sizeof(buf), "%.17g ", f);
    out += buf;
  }
  return out;
}

std::string DumpEntries(const std::vector<SearchEntry>& entries) {
  std::string out;
  for (const SearchEntry& e : entries) {
    out += e.exec.ToJson().Dump() + " " + DumpStats(e.stats) + "\n";
  }
  return out;
}

// 64-bit FNV-1a.
class Fnv1a {
 public:
  void Add(const std::string& s) {
    for (unsigned char c : s) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ULL;
    }
    hash_ ^= 0xff;  // record separator
    hash_ *= 0x100000001b3ULL;
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// A result as the digest records it: every Stats field, or the reason
// and its detail.
std::string ResultText(const Result<Stats>& r) {
  return r.ok() ? DumpStats(r.value())
                : std::string(ToString(r.reason())) + "|" + r.detail();
}

// A candidate and the text of its one-shot result.
struct OneShot {
  Execution exec;
  std::string result;
};

// Feeds one one-shot result of `exec` to the digest and returns its text.
// A feasible result must also stay under the sample-rate ceiling the
// system search prunes with (docs/MODEL.md §11).
std::string AddResult(Fnv1a& digest, const Application& app,
                      const System& sys, const Execution& exec,
                      const Result<Stats>& r) {
  if (r.ok()) {
    EXPECT_LE(r.value().sample_rate.raw(),
              SampleRateCeiling(app, sys.proc(), sys.num_procs(),
                                exec.training)
                  .raw())
        << app.name << ": " << exec.ToJson().Dump();
  }
  std::string text = ResultText(r);
  digest.Add(text);
  return text;
}

// The naive reference for one triple: SweepTripleInto's loop nest written
// out, each candidate evaluated one-shot and fed to the collectors in
// order. Every fourth candidate also feeds the digest an inference twin.
// `oneshots` receives every candidate the digest saw with its result, and
// for every sixteenth candidate a twin that differs only in
// datatype_bytes, which no sweep varies, kept out of the digest.
TripleSweep NaiveSweep(const Application& app, const System& sys,
                       const SearchSpace& space, const SearchConfig& config,
                       Triple tr, Fnv1a& digest,
                       std::vector<OneShot>* oneshots) {
  TripleSweep out;
  out.rejected.assign(static_cast<std::size_t>(Infeasible::kBadConfig) + 1,
                      0);
  ParetoFront pareto;
  const std::int64_t batch =
      config.batch_size > 0 ? config.batch_size : sys.num_procs();
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
                        ++out.evaluated;
                        const Result<Stats> r =
                            CalculatePerformance(app, e, sys);
                        oneshots->push_back(
                            {e, AddResult(digest, app, sys, e, r)});
                        if (out.evaluated % 4 == 0) {
                          // Inference, with and without the training-only
                          // options the model rejects for it.
                          Execution inf = e;
                          inf.training = false;
                          if (out.evaluated % 8 == 0) {
                            inf.recompute = Recompute::kNone;
                            inf.optimizer_sharding = false;
                            inf.dp_overlap = false;
                            inf.optimizer_offload = false;
                          }
                          oneshots->push_back(
                              {inf, AddResult(digest, app, sys, inf,
                                              CalculatePerformance(
                                                  app, inf, sys))});
                        }
                        if (out.evaluated % 16 == 0) {
                          Execution wide = e;
                          wide.datatype_bytes =
                              out.evaluated % 32 == 0 ? 4 : 1;
                          oneshots->push_back(
                              {wide, ResultText(CalculatePerformance(
                                         app, wide, sys))});
                        }
                        if (!r.ok()) {
                          ++out.rejected[static_cast<std::size_t>(
                              r.reason())];
                          continue;
                        }
                        ++out.feasible;
                        if (config.keep_all_rates) {
                          out.rates.push_back(r.value().sample_rate);
                        }
                        if (config.keep_pareto) pareto.Insert({e, r.value()});
                        InsertTopK(out.best, config.top_k, e, r.value());
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
  out.pareto = std::move(pareto).TakeEntries();
  return out;
}

// The candidate count of one triple's sweep, without evaluating any.
std::uint64_t CandidateCount(const Application& app, const System& sys,
                             const SearchSpace& space, std::int64_t batch,
                             Triple tr) {
  std::uint64_t mbs = 0;
  for (std::int64_t m : Divisors(batch / tr.d)) {
    if (m <= space.max_microbatch) ++mbs;
  }
  const std::uint64_t ils =
      space.sweep_interleaving && tr.p > 1
          ? Divisors(CeilDiv(app.num_blocks, tr.p)).size()
          : 1;
  auto n = [](bool on, std::size_t size) -> std::uint64_t {
    return on ? size : 1;
  };
  return mbs * ils * space.recompute.size() *
         n(tr.t > 1, space.tp_comm.size()) *
         n(tr.t > 1, space.tp_overlap.size()) *
         space.fused_activation.size() * n(tr.d > 1, space.dp_overlap.size()) *
         n(tr.d > 1, space.optimizer_sharding.size()) *
         n(tr.p > 1, space.pp_1f1b.size()) *
         n(tr.p > 1 && tr.t > 1, space.pp_rs_ag.size()) *
         n(sys.proc().mem2.present(), space.offload.size());
}

TEST(SearchBruteForce, SweepTripleMatchesOneShotReferenceOnRandomDraws) {
  const std::vector<std::string> apps = presets::ApplicationNames();
  ASSERT_EQ(apps.size(), 11u);
  Rng rng(20231112);
  Fnv1a digest;
  std::uint64_t candidates = 0;
  int draws = 0;
  int tier2_draws = 0;
  while (candidates < 100'000) {
    const Application app = presets::ApplicationByName(
        apps[static_cast<std::size_t>(draws) % apps.size()]);
    const System sys = RandomSystem(rng);
    const SearchSpace space = RandomSpace(rng);
    SearchConfig config;
    config.batch_size = sys.num_procs() * rng.Pick<std::int64_t>({1, 2, 3});
    config.top_k = static_cast<int>(1 + rng.Below(12));
    config.keep_all_rates = true;
    config.keep_pareto = true;
    const std::vector<Triple> triples =
        SearchTriples(app, sys, space, config);
    if (triples.empty()) continue;
    const std::uint64_t index = rng.Below(triples.size());
    const Triple tr = triples[index];
    const std::uint64_t count =
        CandidateCount(app, sys, space, config.batch_size, tr);
    if (count > 6000) continue;  // keep the test's run time bounded
    ++draws;
    if (sys.proc().mem2.present()) ++tier2_draws;

    std::vector<OneShot> oneshots;
    const TripleSweep naive =
        NaiveSweep(app, sys, space, config, tr, digest, &oneshots);
    const TripleSweep fast = SweepTriple(app, sys, space, config, index);
    const std::string where =
        "draw " + std::to_string(draws) + ": " + app.name + " on " +
        std::to_string(sys.num_procs()) + " procs, t=" +
        std::to_string(tr.t) + " p=" + std::to_string(tr.p) +
        " d=" + std::to_string(tr.d) + ", space " + space.ToJson().Dump();

    // The same candidates through one StageTable, in a shuffled order, so
    // its entries are reused across loop levels in every direction. The
    // shuffle draws from its own generator: the draws above stay pinned.
    Rng order(static_cast<std::uint64_t>(draws));
    for (std::size_t i = oneshots.size(); i > 1; --i) {
      std::swap(oneshots[i - 1], oneshots[order.Below(i)]);
    }
    StageTable stages(app, sys);
    for (const OneShot& c : oneshots) {
      ASSERT_EQ(ResultText(stages.Evaluate(c.exec)), c.result)
          << where << ", candidate " << c.exec.ToJson().Dump();
    }
    ASSERT_EQ(naive.evaluated, count) << where;
    ASSERT_EQ(fast.evaluated, naive.evaluated) << where;
    ASSERT_EQ(fast.feasible, naive.feasible) << where;
    ASSERT_EQ(fast.rejected, naive.rejected) << where;
    ASSERT_EQ(fast.failures.size(),
              naive.rejected[static_cast<std::size_t>(Infeasible::kBadConfig)])
        << where;
    ASSERT_EQ(fast.rates.size(), naive.rates.size()) << where;
    for (std::size_t i = 0; i < naive.rates.size(); ++i) {
      ASSERT_EQ(fast.rates[i].raw(), naive.rates[i].raw())
          << where << ", feasible candidate " << i;
    }
    ASSERT_EQ(DumpEntries(fast.best), DumpEntries(naive.best)) << where;
    ASSERT_EQ(DumpEntries(fast.pareto), DumpEntries(naive.pareto)) << where;
    candidates += count;
  }
  EXPECT_GE(draws, 100);
  EXPECT_GT(tier2_draws, 0);
  EXPECT_LT(tier2_draws, draws);

  // The one-shot results' digest: re-record it only with a deliberate
  // change to what the model computes or how it explains a rejection.
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest.value());
  EXPECT_STREQ(hex, "dfb31b361ab50ff3")
      << "one-shot results changed over " << draws << " draws, "
      << candidates << " candidates";
}

// --- Top-k collection ------------------------------------------------------
//
// InsertTopK is the reference semantics of the search's top-k lists. A
// triple's list comes from a TopK collector and the search's from
// MergeTopK of the committed list and each triple's, so both must give
// the list sequential InsertTopK gives, ties included.

// `n` entries with heavy ties: a rate of 4 values and a tier-1 total of 3,
// each entry told apart by its microbatch, which is its index.
std::vector<SearchEntry> TiedStream(Rng& rng, std::size_t n) {
  std::vector<SearchEntry> stream(n);
  for (std::size_t i = 0; i < n; ++i) {
    stream[i].exec.microbatch = static_cast<std::int64_t>(i);
    stream[i].stats.sample_rate =
        PerSecond(1.0 + static_cast<double>(rng.Below(4)));
    stream[i].stats.tier1.weights =
        Bytes(1.0 + static_cast<double>(rng.Below(3)));
  }
  return stream;
}

std::vector<std::int64_t> Ids(const std::vector<SearchEntry>& list) {
  std::vector<std::int64_t> ids;
  for (const SearchEntry& e : list) ids.push_back(e.exec.microbatch);
  return ids;
}

TEST(SearchBruteForce, TopKCollectorAndMergeMatchSequentialInsertTopK) {
  Rng rng(34);
  int cases = 0;
  int full = 0;
  for (const int k : {0, 1, 2, 7, 100}) {
    for (int c = 0; c < 4000; ++c) {
      const std::vector<SearchEntry> stream = TiedStream(rng, rng.Below(401));
      std::vector<SearchEntry> reference;
      TopK collector(k);
      for (const SearchEntry& e : stream) {
        InsertTopK(reference, k, e.exec, e.stats);
        collector.Offer(e.exec, e.stats);
      }
      ASSERT_TRUE(IsTopKList(reference, k));
      ASSERT_EQ(Ids(std::move(collector).Take()), Ids(reference))
          << "k=" << k << ", case " << c;
      // The stream split at a random cut: a committed list, then a
      // triple's.
      const std::size_t cut = rng.Below(stream.size() + 1);
      std::vector<SearchEntry> committed;
      TopK triple(k);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        if (i < cut) {
          InsertTopK(committed, k, stream[i].exec, stream[i].stats);
        } else {
          triple.Offer(stream[i].exec, stream[i].stats);
        }
      }
      ASSERT_EQ(Ids(MergeTopK(std::move(committed), std::move(triple).Take(),
                              k)),
                Ids(reference))
          << "k=" << k << ", case " << c << ", cut " << cut;
      full += k > 0 && reference.size() == static_cast<std::size_t>(k);
      ++cases;
    }
  }
  EXPECT_EQ(cases, 20000);
  EXPECT_GT(full, 10000);  // most lists filled up and then evicted
}

// Whole SweepTriple results against the naive reference at the top_k
// the benchmark and Fig. 6 use, where most lists are full and the
// collector evicts.
TEST(SearchBruteForce, SweepTripleKeepsTheReferencesTop100) {
  const std::vector<std::string> apps = presets::ApplicationNames();
  Rng rng(34);
  std::uint64_t candidates = 0;
  int draws = 0;
  int full = 0;
  while (candidates < 40'000) {
    const Application app = presets::ApplicationByName(
        apps[static_cast<std::size_t>(draws) % apps.size()]);
    const System sys = RandomSystem(rng);
    const SearchSpace space = RandomSpace(rng);
    SearchConfig config;
    config.batch_size = sys.num_procs() * rng.Pick<std::int64_t>({1, 2, 3});
    config.top_k = 100;
    const std::vector<Triple> triples =
        SearchTriples(app, sys, space, config);
    if (triples.empty()) continue;
    const std::uint64_t index = rng.Below(triples.size());
    const std::uint64_t count = CandidateCount(
        app, sys, space, config.batch_size, triples[index]);
    if (count > 6000) continue;
    ++draws;
    Fnv1a digest;
    std::vector<OneShot> oneshots;
    const TripleSweep naive = NaiveSweep(app, sys, space, config,
                                         triples[index], digest, &oneshots);
    const TripleSweep fast = SweepTriple(app, sys, space, config, index);
    const std::string where = "draw " + std::to_string(draws) + ": " +
                              app.name + ", triple " + std::to_string(index) +
                              ", space " + space.ToJson().Dump();
    ASSERT_EQ(fast.feasible, naive.feasible) << where;
    ASSERT_EQ(DumpEntries(fast.best), DumpEntries(naive.best)) << where;
    full += naive.best.size() == 100;
    candidates += count;
  }
  EXPECT_GT(full, 0);
}

}  // namespace
}  // namespace calculon
