#include "probes.h"

#include <unistd.h>

#include <algorithm>
#include <stdexcept>

#include "alloc_count.h"
#include "common.h"
#include "core/block.h"
#include "core/offload.h"
#include "core/pipeline.h"
#include "dist/drivers.h"
#include "dist/jobs.h"
#include "dist/wire.h"
#include "hw/presets.h"
#include "models/presets.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/study.h"
#include "search/pricing.h"
#include "search/system_search.h"
#include "spans.h"
#include "util/mathutil.h"
#include "util/threadpool.h"

namespace perfbench {
namespace {

using namespace calculon;

// Keeps results observable so timed calls are not optimised away.
volatile double g_sink = 0.0;

// Every `stride`-th candidate of the search space, in the search's own
// nesting order (triples, then microbatch, interleaving, and the knobs).
std::vector<Execution> SampleCandidates(const Application& app,
                                        const System& sys,
                                        const SearchSpace& space,
                                        std::size_t stride) {
  std::vector<Execution> out;
  const std::int64_t batch = sys.num_procs();
  const bool tier2 = sys.proc().mem2.present();
  std::size_t n = 0;
  for (const Triple& tr : SearchTriples(app, sys, space, {})) {
    Execution e;
    e.num_procs = sys.num_procs();
    e.tensor_par = tr.t;
    e.pipeline_par = tr.p;
    e.data_par = tr.d;
    e.batch_size = batch;
    std::vector<std::int64_t> ils = {1};
    if (tr.p > 1) ils = Divisors(CeilDiv(app.num_blocks, tr.p));
    const std::vector<SearchSpace::TpCommVariant> no_tp = {{}};
    const std::vector<SearchSpace::OffloadVariant> no_off = {{}};
    const auto& tpc_list = tr.t > 1 ? space.tp_comm : no_tp;
    const auto& off_list = tier2 ? space.offload : no_off;
    for (std::int64_t m : Divisors(batch / tr.d)) {
      if (m > space.max_microbatch) continue;
      e.microbatch = m;
      for (std::int64_t il : ils) {
        e.pp_interleaving = il;
        for (Recompute rc : space.recompute) {
          e.recompute = rc;
          for (const auto& tpc : tpc_list) {
            e.tp_rs_ag = tpc.tp_rs_ag;
            e.seq_par = tpc.seq_par;
            e.seq_par_ag_redo = tpc.ag_redo;
            for (bool dpo : space.dp_overlap) {
              e.dp_overlap = dpo && tr.d > 1;
              for (const auto& off : off_list) {
                e.weight_offload = off.weights;
                e.activation_offload = off.activations;
                e.optimizer_offload = off.optimizer;
                if (n++ % stride == 0) out.push_back(e);
              }
            }
          }
        }
      }
    }
  }
  return out;
}

std::string ReasonSlug(Infeasible reason) {
  return reason == Infeasible::kNone
             ? "feasible"
             : obs::MetricNameSegment(ToString(reason));
}

// Per-call time of `fn` in ns: the median over `batches` batches of
// `calls` calls (single calls are below the clock's resolution).
template <typename Fn>
double BatchedNs(int batches, int calls, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn(i);
    per_call.push_back(SecondsSince(t0) * 1e9 / calls);
  }
  return Median(per_call);
}

struct Probe {
  std::map<std::string, Metric> metrics;
  std::vector<std::string>* failures;

  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  void Fail(const std::string& why) { failures->push_back("probe " + why); }
};

System Fig6System() {
  presets::SystemOptions o;
  o.num_procs = 4096;
  return presets::H100(o);
}

// --- core, models, hw, search.topk ---------------------------------------

void ProbeCore(Probe& p) {
  ScopedSpan span("core", "probe");
  // Fig. 6's space, and Table 3's smallest offload design at a size where
  // some offloaded candidates overflow its DDR.
  const Application app = presets::Gpt3_175B();
  const System fig6 = Fig6System();
  const System offload = SystemDesign{20.0, 256.0}.Build(256);
  struct Set {
    const System* sys;
    std::vector<Execution> cands;
  };
  std::vector<Set> sets = {
      {&fig6, SampleCandidates(app, fig6, SearchSpace::AllOptimizations(), 7)},
      {&offload,
       SampleCandidates(app, offload, SearchSpace::AllWithOffload(), 3)}};

  std::map<std::string, std::vector<double>> eval_us;
  double allocs_feasible = 0.0;
  double allocs_rejected = 0.0;
  std::size_t n_feasible = 0;
  std::size_t n_total = 0;
  std::vector<SearchEntry> feasible;
  const Execution* offload_exec = nullptr;
  allocs::SetCounting(true);
  for (const Set& s : sets) {
    ScopedSpan eval_span("core", "CalculatePerformance");
    for (const Execution& e : s.cands) {
      const std::uint64_t a0 = allocs::Count();
      const auto t0 = Clock::now();
      const Result<Stats> r = CalculatePerformance(app, e, *s.sys);
      const double us = SecondsSince(t0) * 1e6;
      const auto allocs = static_cast<double>(allocs::Count() - a0);
      eval_us[ReasonSlug(r.reason())].push_back(us);
      ++n_total;
      if (r.ok()) {
        ++n_feasible;
        allocs_feasible += allocs;
        if (feasible.size() < 4096) feasible.push_back({e, r.value()});
        if (e.any_offload() && offload_exec == nullptr) offload_exec = &e;
      } else {
        allocs_rejected += allocs;
      }
    }
  }
  allocs::SetCounting(false);
  for (const char* slug :
       {"feasible", "insufficient_memory_capacity",
        "dp_microbatch_does_not_divide_batch",
        "insufficient_offload_capacity"}) {
    const std::vector<double>& v = eval_us[slug];
    if (v.empty()) p.Fail(std::string("core: no ") + slug + " candidates");
    p.Set(std::string("core.eval_us.") + slug + ".p50", Quantile(v, 0.5),
          "us");
    p.Set(std::string("core.eval_us.") + slug + ".p99", Quantile(v, 0.99),
          "us");
  }
  p.Set("core.feasible_share",
        static_cast<double>(n_feasible) / static_cast<double>(n_total),
        "ratio");
  p.Set("core.allocs_per_eval.feasible",
        allocs_feasible / static_cast<double>(std::max<std::size_t>(n_feasible, 1)),
        "count");
  p.Set("core.allocs_per_eval.rejected",
        allocs_rejected /
            static_cast<double>(std::max<std::size_t>(n_total - n_feasible, 1)),
        "count");
  if (feasible.empty() || offload_exec == nullptr) {
    p.Fail("core: no feasible (offload) candidates");
    return;
  }

  {
    ScopedSpan s("core", "BuildBlock");
    std::vector<double> us;
    for (const SearchEntry& f : feasible) {
      const auto t0 = Clock::now();
      const BlockModel b = BuildBlock(app, f.exec);
      us.push_back(SecondsSince(t0) * 1e6);
      g_sink = g_sink + b.FwFlops().raw();
    }
    p.Set("core.block_us", Median(us), "us");
  }
  {
    ScopedSpan s("core", "ComputeOffload");
    const Execution& e = *offload_exec;
    const BlockModel b = BuildBlock(app, e);
    OffloadInputs in;
    in.weights = e.weight_offload;
    in.activations = e.activation_offload;
    in.optimizer = e.optimizer_offload;
    in.weight_block = b.WeightBytes();
    in.weight_grad_block = b.WeightGradBytes();
    in.act_block = b.ActStoredBytes(e.recompute);
    in.optim_block = b.OptimizerBytes();
    in.blocks_per_proc = e.BlocksPerProc(app);
    in.microbatches = e.MicrobatchesPerPipeline();
    in.act_in_flight = 2.0;
    in.fw_block_time = Seconds(1e-3);
    in.bw_block_time = Seconds(2e-3);
    in.fw_phase_total = Seconds(1.0);
    in.bw_phase_total = Seconds(2.0);
    in.optim_phase_total = Seconds(0.1);
    const Memory& mem2 = offload.proc().mem2;
    p.Set("core.offload_us", 1e-3 * BatchedNs(21, 2000, [&](int i) {
            in.act_in_flight = 1.0 + (i & 7);
            g_sink = g_sink + ComputeOffload(in, mem2).exposed_time.raw();
          }),
          "us");
  }
  {
    ScopedSpan s("core", "PipelineBubbleTime");
    PipelineShape shape;
    shape.stages = 16;
    shape.interleaving = 2;
    p.Set("core.bubble_ns", BatchedNs(21, 20000, [&](int i) {
            shape.microbatches = 16 + (i & 63);
            g_sink = g_sink +
                     PipelineBubbleTime(shape, Seconds(1e-3)).raw();
          }),
          "ns");
  }
  {
    ScopedSpan s("models", "Execution::Validate");
    const std::vector<Execution>& c = sets[0].cands;
    p.Set("models.validate_us", 1e-3 * BatchedNs(5, static_cast<int>(c.size()),
                                                 [&](int i) {
            g_sink = g_sink +
                     (c[static_cast<std::size_t>(i)].Validate(app).ok() ? 1 : 0);
          }),
          "us");
  }
  {
    ScopedSpan s("hw", "Processor::OpTime");
    const Processor& proc = fig6.proc();
    p.Set("hw.optime_ns", BatchedNs(21, 20000, [&](int i) {
            g_sink = g_sink + proc.OpTime(ComputeKind::kMatrix,
                                          Flops(1e9 * (1 + (i & 255))),
                                          Bytes(1e6 * (1 + (i & 127))))
                                  .raw();
          }),
          "ns");
  }
  {
    ScopedSpan s("hw", "Network::CollectiveTime");
    const Network& net = fig6.networks().front();
    p.Set("hw.collective_ns", BatchedNs(21, 20000, [&](int i) {
            g_sink = g_sink + net.CollectiveTime(Collective::kAllReduce,
                                                 2 + (i & 6),
                                                 Bytes(1e6 * (1 + (i & 255))))
                                  .raw();
          }),
          "ns");
  }
  {
    ScopedSpan s("search", "InsertTopK");
    const int n = static_cast<int>(feasible.size());
    std::vector<SearchEntry> best;
    p.Set("search.topk_insert_ns", BatchedNs(7, n, [&](int i) {
            if (i == 0) best.clear();
            const SearchEntry& f = feasible[static_cast<std::size_t>(i)];
            InsertTopK(best, 100, f.exec, f.stats);
          }),
          "ns");
  }
}

// --- search triples and pool scaling -------------------------------------

void ProbeSearchAndPool(Probe& p) {
  const Application app = presets::Gpt3_175B();
  const System sys = Fig6System();
  const SearchSpace space = SearchSpace::AllOptimizations();
  SearchConfig config;
  config.top_k = 100;
  const unsigned n = Nproc();

  // SweepTriple per index, one thread: the 1-thread cost of Fig. 6.
  std::vector<double> triple_s;
  {
    ScopedSpan s("search", "SweepTriple");
    const std::size_t count = SearchTriples(app, sys, space, config).size();
    for (std::size_t i = 0; i < count; ++i) {
      const auto t0 = Clock::now();
      const TripleSweep t = SweepTriple(app, sys, space, config, i);
      triple_s.push_back(SecondsSince(t0));
      g_sink = g_sink + static_cast<double>(t.evaluated);
    }
  }
  double one_thread = 0.0;
  for (double s : triple_s) one_thread += s;
  const double max_s = *std::max_element(triple_s.begin(), triple_s.end());
  p.Set("search.triples_per_answer", static_cast<double>(triple_s.size()),
        "count");
  p.Set("search.triple_s.p50", Median(triple_s), "s");
  p.Set("search.triple_s.max", max_s, "s");
  p.Set("search.triple_imbalance", max_s / Median(triple_s), "ratio");

  ThreadPool pool(n);
  {
    ScopedSpan s("util", "ParallelFor(Fig. 6)");
    const auto t0 = Clock::now();
    const SearchResult r = FindOptimalExecution(app, sys, space, config, pool);
    p.Set("pool.efficiency.fig6", one_thread / (n * SecondsSince(t0)),
          "ratio");
    g_sink = g_sink + static_cast<double>(r.evaluated);
  }
  {
    ScopedSpan s("util", "ParallelFor(empty)");
    std::vector<double> us;
    for (int i = 0; i < 2000; ++i) {
      const auto t0 = Clock::now();
      pool.ParallelFor(n, [](std::uint64_t) {});
      us.push_back(SecondsSince(t0) * 1e6);
    }
    p.Set("pool.parallel_for_us", Median(us), "us");
  }
  {
    // The codesign pass on the four 256 GiB-DDR designs for GPT-3 175B.
    ScopedSpan s("util", "ParallelFor(codesign)");
    SystemSearchOptions options;
    options.budget = 125e6;
    options.size_step = 512;
    auto pass = [&](ThreadPool& tp) {
      Digest d;
      for (double hbm : {20.0, 40.0, 80.0, 120.0}) {
        const SystemSearchEntry e = EvaluateDesign(
            app, SystemDesign{hbm, 256.0}, ReducedSpace(true), options, tp);
        d.AddDouble(e.sample_rate.raw());
      }
      return d.Hex();
    };
    ThreadPool single(1);
    auto t0 = Clock::now();
    const std::string d1 = pass(single);
    const double t1 = SecondsSince(t0);
    const ResourceUsage u0 = CurrentUsage();
    t0 = Clock::now();
    const std::string dn = pass(pool);
    const double tn = SecondsSince(t0);
    const ResourceUsage u1 = CurrentUsage();
    if (d1 != dn) p.Fail("pool: 1-thread and N-thread codesign differ");
    p.Set("pool.efficiency.codesign", t1 / (n * tn), "ratio");
    p.Set("pool.cpu_per_wall", (u1.cpu_s - u0.cpu_s) / tn, "ratio");
  }
  {
    // Fig. 6-size search, supervised against in-process at equal
    // parallelism (the trimmed space of the Fig. 6 harness).
    ScopedSpan s("dist", "FindOptimalExecutionSupervised");
    SearchSpace trimmed = space;
    trimmed.tp_overlap = {TpOverlap::kNone, TpOverlap::kRing};
    trimmed.pp_rs_ag = {false};
    const int workers = StudyWorkers();
    ThreadPool equal(static_cast<unsigned>(workers));
    auto t0 = Clock::now();
    const SearchResult in_process =
        FindOptimalExecution(app, sys, trimmed, config, equal);
    const double t_in = SecondsSince(t0);
    dist::DistOptions d;
    d.workers = workers;
    t0 = Clock::now();
    const SearchResult supervised =
        dist::FindOptimalExecutionSupervised(app, sys, trimmed, config, d);
    const double t_sup = SecondsSince(t0);
    if (SearchDigest(in_process) != SearchDigest(supervised)) {
      p.Fail("dist: supervised exec search differs from in-process");
    }
    p.Set("dist.exec_search_overhead_pct", 100.0 * (t_sup - t_in) / t_in,
          "%");
  }
}

// --- runner and dist (study) ---------------------------------------------

void ProbeStudy(Probe& p, const std::string& work_dir) {
  const Study study = Study::FromJson(StudySpec(4096));
  {
    ScopedSpan s("runner", "Study::Enumerate");
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      const std::vector<Execution> e = study.Enumerate();
      ms.push_back(SecondsSince(t0) * 1e3);
      g_sink = g_sink + static_cast<double>(e.size());
    }
    p.Set("runner.enumerate_ms", Median(ms), "ms");
  }
  {
    ScopedSpan s("runner", "StudyCsvRow");
    const std::vector<StudyRow> rows = study.Run();
    const int n = static_cast<int>(rows.size());
    p.Set("runner.csv_row_us", 1e-3 * BatchedNs(3, n, [&](int i) {
            g_sink = g_sink + static_cast<double>(
                                  StudyCsvRow(rows[static_cast<std::size_t>(i)]
                                                  .exec,
                                              rows[static_cast<std::size_t>(i)]
                                                  .result)
                                      .size());
          }),
          "us");
  }
  StudyRun in_process;
  double t_in = 0.0;
  {
    ScopedSpan s("runner", "Study::RunResilient");
    const auto t0 = Clock::now();
    in_process = study.RunResilient({});
    t_in = SecondsSince(t0);
  }
  {
    ScopedSpan s("runner", "WriteStudyCheckpoint");
    const json::Value cp =
        StudyCheckpointToJson(study.Fingerprint(), in_process);
    std::vector<double> ms;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      WriteStudyCheckpoint(work_dir + "/probe.ckpt", cp);
      ms.push_back(SecondsSince(t0) * 1e3);
    }
    p.Set("runner.checkpoint_write_ms", Median(ms), "ms");
  }

  const int workers = StudyWorkers();
  {
    ScopedSpan s("dist", "fork+ready");
    dist::DistOptions d;
    d.workers = workers;
    d.shard_size = 1;
    const Study tiny = Study::FromJson(StartupSpec(workers));
    std::vector<double> ms;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      const StudyRun r = dist::RunStudySupervised(tiny, {}, d);
      ms.push_back(SecondsSince(t0) * 1e3);
      if (r.csv_rows.size() != static_cast<std::size_t>(workers)) {
        p.Fail("dist: worker start-up study incomplete");
      }
    }
    p.Set("dist.fork_ready_ms", Median(ms), "ms");
  }
  {
    ScopedSpan s("dist", "RunStudySupervised");
    dist::DistOptions d;
    d.workers = workers;
    const auto t0 = Clock::now();
    const StudyRun supervised = dist::RunStudySupervised(study, {}, d);
    const double t_sup = SecondsSince(t0);
    if (supervised.Csv() != in_process.Csv()) {
      p.Fail("dist: supervised study CSV differs from in-process");
    }
    const auto rows = static_cast<double>(supervised.total_rows);
    p.Set("dist.item_overhead_us", 1e6 * (t_sup - t_in) / rows, "us");
    p.Set("dist.worker_busy_frac", t_in / (workers * t_sup), "ratio");
  }
  {
    ScopedSpan s("dist", "FrameWriter/FrameReader");
    json::Value spec;
    spec["job"] = "study";
    spec["spec"] = study.ToJson();
    spec["fault_key_base"] = 0;
    const std::unique_ptr<dist::Job> job = dist::MakeJob(spec);
    std::vector<json::Value> frames;
    double bytes = 0.0;
    for (std::uint64_t i = 0; i < job->num_items(); i += 7) {
      json::Value f;
      f["type"] = "item";
      f["index"] = static_cast<std::int64_t>(i);
      f["result"] = job->RunItem(i);
      bytes += static_cast<double>(f.Dump(0).size() + 1);
      frames.push_back(std::move(f));
    }
    p.Set("dist.frame_bytes_per_item",
          bytes / static_cast<double>(frames.size()), "bytes");
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
    dist::FrameWriter writer(fds[1]);
    dist::FrameReader reader(fds[0]);
    std::vector<double> enc_us;
    std::vector<double> dec_us;
    json::Value back;
    for (const json::Value& f : frames) {
      auto t0 = Clock::now();
      const bool wrote = writer.WriteFrame(f);
      enc_us.push_back(SecondsSince(t0) * 1e6);
      t0 = Clock::now();
      bool got = false;
      while (wrote && !got) {
        if (reader.Fill() != dist::FrameReader::FillStatus::kData) break;
        got = reader.NextFrame(&back);
      }
      dec_us.push_back(SecondsSince(t0) * 1e6);
      if (!got || !(back == f)) {
        p.Fail("dist: frame did not round-trip");
        break;
      }
    }
    ::close(fds[0]);
    ::close(fds[1]);
    p.Set("dist.frame_encode_us", Median(enc_us), "us");
    p.Set("dist.frame_decode_us", Median(dec_us), "us");
  }
}

// --- obs ------------------------------------------------------------------

void ProbeObs(Probe& p, const std::string& golden_dir) {
  // exec_search's cheapest answer, one thread, with nothing, the metrics
  // registry, or the trace recorder on, in alternation.
  ScopedSpan span("obs", "metrics/trace on vs off");
  const Application app = presets::Megatron22B();
  presets::SystemOptions o;
  o.num_procs = 16;
  const System sys = presets::H100(o);
  ThreadPool pool(1);
  SearchConfig config;
  config.top_k = 100;
  config.keep_all_rates = true;
  auto& metrics = obs::MetricsRegistry::Global();
  auto& trace = obs::TraceRecorder::Global();
  std::vector<double> off;
  std::vector<double> with_metrics;
  std::vector<double> with_trace;
  std::string reference;
  for (int rep = 0; rep < 5; ++rep) {
    for (int mode = 0; mode < 3; ++mode) {
      if (mode == 1) metrics.Enable();
      if (mode == 2) trace.Start();
      const auto t0 = Clock::now();
      const SearchResult r = FindOptimalExecution(
          app, sys, SearchSpace::AllOptimizations(), config, pool);
      const double s = SecondsSince(t0);
      if (mode == 1) {
        metrics.Disable();
        const auto c = metrics.Snapshot().counters;
        std::uint64_t rejected = 0;
        for (const auto& [name, v] : c) {
          if (name.rfind("exec_search.rejected.", 0) == 0) rejected += v;
        }
        // The per-reason counts must also match the golden record.
        const json::Value golden =
            json::ParseFile(golden_dir + "/exec_search.json")
                .at("items")
                .at("megatron_22b@16")
                .at("counters");
        std::size_t matched = 0;
        for (const auto& [name, v] : c) {
          if (name.rfind("exec_search.", 0) != 0) continue;
          ++matched;
          if (!golden.contains(name) ||
              static_cast<std::uint64_t>(golden.at(name).AsInt()) != v) {
            p.Fail("obs: counter " + name + " differs from the golden record");
          }
        }
        if (matched != golden.AsObject().size()) {
          p.Fail("obs: exec_search counters missing from the run");
        }
        if (c.at("exec_search.evaluated") != r.evaluated ||
            c.at("exec_search.feasible") != r.feasible ||
            rejected != r.evaluated - r.feasible) {
          p.Fail("obs: exec_search counters disagree with the result");
        }
        metrics.Reset();
      }
      if (mode == 2) {
        trace.Stop();
        (void)trace.DrainChunk();
      }
      const std::string d = SearchDigest(r);
      if (reference.empty()) reference = d;
      if (d != reference) p.Fail("obs: observed search differs");
      (mode == 0 ? off : mode == 1 ? with_metrics : with_trace).push_back(s);
    }
  }
  const double base = Median(off);
  p.Set("obs.metrics_overhead_pct", 100.0 * (Median(with_metrics) - base) / base,
        "%");
  p.Set("obs.trace_overhead_pct", 100.0 * (Median(with_trace) - base) / base,
        "%");
}

}  // namespace

std::map<std::string, Metric> RunLayerProbes(
    const std::string& work_dir, const std::string& golden_dir,
    std::vector<std::string>* failures) {
  Probe p{{}, failures};
  ProbeCore(p);
  ProbeSearchAndPool(p);
  ProbeStudy(p, work_dir);
  ProbeObs(p, golden_dir);
  return p.metrics;
}

}  // namespace perfbench
