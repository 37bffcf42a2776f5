// The benchmark binary. One process runs one workload for one seed:
//
//   perfbench --workload exec_search --seed 7 --seconds 15
//             --golden perfbench/golden/exec_search.json
//             --work-dir .bench_work --out result.json
//
// The untraced binary (perfbench) times the workload's answers and writes
// the end-to-end metrics; perfbench_traced additionally runs the per-layer
// probes (probes.h). --record-golden re-records the golden digests.
// perfbench/run.py builds both and is the command users run.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "common.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "probes.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace json = calculon::json;

constexpr int kSetupRepeats = 15;
constexpr std::size_t kTailBeyond = 10;
// ReferenceKernelSeconds() on the host the benchmark was defined on
// (Intel Xeon, 4 vCPUs, typical load). Answer CPU times are scaled by
// kReferenceNominalS / (the run's median kernel time, measured around
// every answer), so a host that runs every instruction slower for a while
// (a busy SMT sibling, lower clocks) does not read as a slower program.
constexpr double kReferenceNominalS = 0.0035;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string golden;
  std::string record_golden;
  std::string work_dir = ".bench_work";
  std::string out;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --golden FILE [--work-dir DIR] "
               "[--out FILE] [--record-golden FILE]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--golden") {
      a.golden = v;
    } else if (flag == "--record-golden") {
      a.record_golden = v;
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--out") {
      a.out = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.record_golden.empty() && a.golden.empty()) {
    Usage("--golden is required");
  }
  return a;
}

// splitmix64: a portable, seedable generator for the answer order.
std::uint64_t SplitMix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Round `round`'s order of the pool: a seeded Fisher-Yates shuffle.
std::vector<std::size_t> RoundOrder(std::size_t n, std::uint64_t seed,
                                    std::uint64_t round) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed * 0x100000001b3ull + round;
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(SplitMix(state) % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

class Golden {
 public:
  explicit Golden(const std::string& path) : doc_(json::ParseFile(path)) {}

  [[nodiscard]] const json::Value* Item(const std::string& key) const {
    const json::Value& items = doc_.at("items");
    return items.contains(key) ? &items.at(key) : nullptr;
  }

 private:
  json::Value doc_;
};

struct Checked {
  bool ok = false;
  std::uint64_t candidates = 0;  // the golden count (0 when unknown)
  std::string why;
};

// One answer, timed by the caller, checked against the golden record.
Checked RunAndCheck(Workload& w, const Golden& golden, std::size_t item) {
  Checked c;
  const std::string key = w.ItemKey(item);
  const json::Value* g = golden.Item(key);
  if (g != nullptr) {
    c.candidates = static_cast<std::uint64_t>(g->at("candidates").AsInt());
  }
  ItemOutput out;
  try {
    out = w.RunItem(item);
  } catch (const std::exception& e) {
    c.why = key + ": threw: " + e.what();
    return c;
  }
  if (out.hard_failure) {
    c.why = key + ": hard failure: " + out.note;
  } else if (g == nullptr) {
    c.why = key + ": no golden record";
  } else if (out.digest != g->at("digest").AsString()) {
    c.why = key + ": digest " + out.digest + " != golden " +
            g->at("digest").AsString();
  } else if (out.candidates != 0 && out.candidates != c.candidates) {
    c.why = key + ": candidate count " + std::to_string(out.candidates) +
            " != golden " + std::to_string(c.candidates);
  } else {
    c.ok = true;
  }
  return c;
}

json::Value CountersWithPrefix(const std::string& prefix) {
  json::Value out = json::Value(json::Object{});
  for (const auto& [name, value] :
       calculon::obs::MetricsRegistry::Global().Snapshot().counters) {
    if (name.rfind(prefix, 0) == 0) {
      out[name] = static_cast<std::int64_t>(value);
    }
  }
  return out;
}

// Runs every pool item once with the metrics registry on and writes the
// golden digests, candidate counts, and per-reason rejection counters.
int RecordGolden(Workload& w, const std::string& path) {
  auto& metrics = calculon::obs::MetricsRegistry::Global();
  metrics.Enable();
  w.Setup();
  json::Value items = json::Value(json::Object{});
  for (std::size_t i = 0; i < w.num_items(); ++i) {
    metrics.Reset();
    const auto t0 = Clock::now();
    const ItemOutput out = w.RunItem(i);
    const double s = SecondsSince(t0);
    if (out.hard_failure) {
      std::fprintf(stderr, "%s: hard failure: %s\n", w.ItemKey(i).c_str(),
                   out.note.c_str());
      return 1;
    }
    const std::string reference = w.ReferenceDigest(i);
    if (!reference.empty() && reference != out.digest) {
      std::fprintf(stderr, "%s: digest %s differs from the reference %s\n",
                   w.ItemKey(i).c_str(), out.digest.c_str(),
                   reference.c_str());
      return 1;
    }
    json::Value counters = CountersWithPrefix("exec_search.");
    std::uint64_t candidates = out.candidates;
    if (counters.contains("exec_search.evaluated")) {
      candidates = static_cast<std::uint64_t>(
          counters.at("exec_search.evaluated").AsInt());
    }
    json::Value rec;
    rec["digest"] = out.digest;
    rec["candidates"] = static_cast<std::int64_t>(candidates);
    rec["counters"] = std::move(counters);
    items[w.ItemKey(i)] = std::move(rec);
    std::printf("%-32s %10llu candidates %8.3f s\n", w.ItemKey(i).c_str(),
                static_cast<unsigned long long>(candidates), s);
  }
  json::Value doc;
  doc["workload"] = w.name();
  doc["items"] = std::move(items);
  json::WriteFile(path, doc, 1);
  return 0;
}

json::Value MetricsJson(const std::map<std::string, Metric>& metrics) {
  json::Value out = json::Value(json::Object{});
  for (const auto& [name, m] : metrics) {
    out[name]["value"] = m.value;
    out[name]["unit"] = m.unit;
  }
  return out;
}

json::Value Manifest(const Args& a, const Workload& w) {
  json::Value m;
  m["workload"] = a.workload;
  m["seed"] = static_cast<std::int64_t>(a.seed);
  m["trace"] = a.trace;
  m["build_type"] = PERFBENCH_BUILD_TYPE;
  m["compiler"] = PERFBENCH_COMPILER;
#ifdef CALCULON_NO_OBS
  m["calculon_no_obs"] = true;
#else
  m["calculon_no_obs"] = false;
#endif
  m["threads"] = static_cast<std::int64_t>(w.threads());
  m["workers"] = w.workers();
  m["nproc"] = static_cast<std::int64_t>(Nproc());
  m["cpu_model"] = CpuModel();
  return m;
}

struct LoopResult {
  std::vector<double> answer_s;
  std::vector<double> answer_cpu_s;
  std::vector<double> answer_ref_s;
  std::vector<double> answer_norm_s;  // answer_cpu_s scaled to nominal speed
  std::vector<std::string> answer_key;
  std::uint64_t candidates = 0;  // golden counts of the answers that passed
  std::uint64_t attempted = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

// The closed loop: whole seed-shuffled rounds of the pool, at least
// `min_rounds`, until `seconds` have passed. Rounds are numbered from 1
// (round 0's first answer is the warm-up).
LoopResult Loop(Workload& w, const Golden& golden, std::uint64_t seed,
                int min_rounds, double seconds, bool traced,
                std::vector<std::string>* failures) {
  LoopResult r;
  // The reference kernel runs on as many cores as the workload keeps busy.
  const unsigned ref_threads = std::max(
      w.threads(), static_cast<unsigned>(w.workers()) + 1);
  const ResourceUsage usage0 = CurrentUsage();
  const auto start = Clock::now();
  for (int round = 0;; ++round) {
    if (round >= min_rounds && SecondsSince(start) >= seconds) break;
    const auto order =
        RoundOrder(w.pool_size(), seed, static_cast<std::uint64_t>(round) + 1);
    for (std::size_t item : order) {
      const double ref0 = ReferenceKernelSeconds(ref_threads);
      allocs::SetCounting(traced);
      const double cpu0 = CurrentUsage().cpu_s;
      const auto t0 = Clock::now();
      Checked c;
      {
        ScopedSpan span("bench", w.ItemKey(item));
        c = RunAndCheck(w, golden, item);
      }
      r.answer_s.push_back(SecondsSince(t0));
      r.answer_cpu_s.push_back(CurrentUsage().cpu_s - cpu0);
      r.answer_key.push_back(w.ItemKey(item));
      allocs::SetCounting(false);
      r.answer_ref_s.push_back(
          0.5 * (ref0 + ReferenceKernelSeconds(ref_threads)));
      ++r.attempted;
      if (c.ok) {
        r.candidates += c.candidates;
      } else {
        failures->push_back(c.why);
      }
    }
  }
  r.wall_s = SecondsSince(start);
  r.cpu_s = CurrentUsage().cpu_s - usage0.cpu_s;
  // One factor per run (the median kernel time): robust to a single
  // kernel run that an interrupt or a neighbour stretched.
  const double scale = kReferenceNominalS / Median(r.answer_ref_s);
  for (double c : r.answer_cpu_s) r.answer_norm_s.push_back(c * scale);
  return r;
}

int Run(const Args& a) {
  const auto process_start = Clock::now();
  std::filesystem::create_directories(a.work_dir);
  std::unique_ptr<Workload> w = MakeWorkload(a.workload, a.work_dir);
  if (!a.record_golden.empty()) return RecordGolden(*w, a.record_golden);

  const Golden golden(a.golden);
  SpanRecorder& spans = SpanRecorder::Get();
  if (a.trace && !allocs::Installed()) {
    throw std::runtime_error("--trace 1 needs the perfbench_traced binary");
  }
  if (a.trace) spans.Enable();

  // Set-up, several times; the median CPU time is setup_s.
  std::vector<double> setup_cpu;
  std::vector<double> setup_wall;
  for (int i = 0; i < kSetupRepeats; ++i) {
    // This thread's CPU clock (ns resolution) plus reaped workers.
    const double cpu0 = ThreadCpuSeconds() + ChildrenCpuSeconds();
    const auto t0 = Clock::now();
    {
      ScopedSpan span("bench", "setup");
      w->Setup();
    }
    setup_wall.push_back(SecondsSince(t0));
    setup_cpu.push_back(ThreadCpuSeconds() + ChildrenCpuSeconds() - cpu0);
  }

  // Untimed: the model-fidelity check, then the first answer (wakes every
  // vCPU, fills caches, finishes lazy set-up).
  const double model_err = ModelErrorPct();
  std::vector<std::string> failures;
  {
    ScopedSpan span("bench", "warmup");
    const std::size_t item = w->num_items() > w->pool_size()
                                 ? w->pool_size()
                                 : RoundOrder(w->pool_size(), a.seed, 0)[0];
    const Checked c = RunAndCheck(*w, golden, item);
    if (!c.ok) failures.push_back("warm-up " + c.why);
  }
  const double first_answer_s = SecondsSince(process_start);

  std::map<std::string, Metric> metrics;
  json::Value info;
  info["process_start_to_first_answer_s"] = first_answer_s;
  std::uint64_t attempted = 0;
  std::size_t answers = 0;
  if (!a.trace) {
    const LoopResult r = Loop(*w, golden, a.seed, w->min_rounds(), a.seconds,
                              /*traced=*/false, &failures);
    attempted = r.attempted;
    answers = r.answer_s.size();
    const std::size_t n_ref =
        static_cast<std::size_t>(w->min_rounds()) * w->pool_size();
    const double tail_q = TailQuantile(n_ref, kTailBeyond);
    info["answers"] = static_cast<std::int64_t>(answers);
    json::Array per_answer;
    for (std::size_t i = 0; i < answers; ++i) {
      per_answer.emplace_back(json::Array{json::Value(r.answer_key[i]),
                                          json::Value(r.answer_s[i]),
                                          json::Value(r.answer_cpu_s[i]),
                                          json::Value(r.answer_ref_s[i])});
    }
    info["per_answer_key_wall_cpu_ref"] = json::Value(std::move(per_answer));
    info["answer_cpu_s_tail_percentile"] = 100.0 * tail_q;
    info["answers_beyond_tail"] = static_cast<std::int64_t>(
        static_cast<double>(answers) * (1.0 - tail_q));
    info["loop_wall_s"] = r.wall_s;
    info["loop_cpu_s"] = r.cpu_s;
    // Wall-clock counterparts, for reference only: on a shared host they
    // move with the neighbours' load (see README.md, "Noise").
    const auto candidates = static_cast<double>(r.candidates);
    info["evals_per_wall_s"] = candidates / r.wall_s;
    info["answer_wall_s_p50"] = Median(r.answer_s);
    info["answer_wall_s_tail"] = Quantile(r.answer_s, tail_q);
    info["setup_wall_s"] = Median(setup_wall);
    double answer_cpu = 0.0;
    for (double c : r.answer_norm_s) answer_cpu += c;
    metrics["evals_per_cpu_s"] = {candidates / answer_cpu, "1/s"};
    metrics["answer_cpu_s_p50"] = {Median(r.answer_norm_s), "s"};
    metrics["answer_cpu_s_tail"] = {Quantile(r.answer_norm_s, tail_q), "s"};
    metrics["setup_s"] = {Median(setup_cpu), "s"};
    metrics["peak_rss_mib"] = {CurrentUsage().peak_rss_mib, "MiB"};
    metrics["model_err_pct"] = {model_err, "%"};
    // The untraced run carries no hooks: no counter, no spans.
    if (allocs::Installed() || !spans.spans().empty()) {
      failures.push_back("untraced run carries the allocation hook or spans");
    }
  } else {
    // One round untraced, then the same round traced (spans + allocation
    // counting): their difference is the tracing overhead.
    spans.Disable();
    const LoopResult plain =
        Loop(*w, golden, a.seed, 1, 0.0, /*traced=*/false, &failures);
    spans.Enable();
    const LoopResult traced =
        Loop(*w, golden, a.seed, 1, 0.0, /*traced=*/true, &failures);
    attempted = plain.attempted + traced.attempted;
    answers = plain.answer_s.size() + traced.answer_s.size();
    metrics["trace.overhead_pct"] = {
        100.0 * (traced.cpu_s - plain.cpu_s) / plain.cpu_s, "%"};
    metrics["run.cpu_per_wall"] = {plain.cpu_s / plain.wall_s, "ratio"};
    for (const auto& [name, value] :
         RunLayerProbes(
             a.work_dir,
             std::filesystem::path(a.golden).parent_path().string(),
             &failures)) {
      metrics[name] = value;
    }
  }
  attempted = std::max<std::uint64_t>(attempted, 1);
  info["error_rate"] =
      static_cast<double>(failures.size()) / static_cast<double>(attempted);

  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  std::printf("workload %s seed %llu trace %d: %zu answers\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0, answers);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-40s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }

  json::Value result;
  result["correct"] = failures.empty();
  result["attempted"] = static_cast<std::int64_t>(attempted);
  result["failed"] = static_cast<std::int64_t>(
      std::min<std::uint64_t>(failures.size(), attempted));
  result["metrics"] = MetricsJson(metrics);
  if (a.trace) {
    std::string span_path = a.work_dir + "/spans.json";
    if (!a.out.empty()) {
      span_path = std::filesystem::path(a.out).replace_extension().string() +
                  "-spans.json";
    }
    spans.WriteJson(span_path);
    json::Value self = json::Value(json::Object{});
    for (const auto& [layer, s] : spans.SelfSecondsByLayer()) self[layer] = s;
    info["span_self_s"] = std::move(self);
    info["spans_file"] = span_path;
  }
  result["info"] = std::move(info);
  result["manifest"] = Manifest(a, *w);
  if (!a.out.empty()) json::WriteFile(a.out, result, 1);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
