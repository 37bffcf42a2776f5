#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common.h"
#include "dist/drivers.h"
#include "hw/presets.h"
#include "models/presets.h"
#include "runner/study.h"
#include "search/exec_search.h"
#include "search/pricing.h"
#include "search/system_search.h"
#include "util/threadpool.h"

namespace perfbench {

using namespace calculon;

unsigned Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

int StudyWorkers() { return static_cast<int>(std::max(1u, Nproc() - 1)); }

std::string SearchDigest(const SearchResult& r) {
  Digest d;
  for (const SearchEntry& e : r.best) {
    d.Add(e.exec.ToJson().Dump());
    d.Add(e.stats.ToJson().Dump());
  }
  d.Add(r.evaluated);
  d.Add(r.feasible);
  // The sample-rate histogram of Fig. 6(a): 10 bins relative to the best.
  std::vector<std::uint64_t> bins(10, 0);
  if (!r.best.empty()) {
    const double best = r.best.front().stats.sample_rate.raw();
    for (PerSecond rate : r.all_rates) {
      const auto b = static_cast<std::size_t>(rate.raw() / best * 10.0);
      ++bins[std::min<std::size_t>(b, 9)];
    }
  }
  for (std::uint64_t b : bins) d.Add(b);
  return d.Hex();
}

namespace {

std::string FailureNote(const RunStatus& status) {
  if (!status.failure_samples.empty()) {
    return status.failure_samples.front().reason;
  }
  return status.Summary();
}

// ---------------------------------------------------------------------------
// exec_search: Table-1-space optimal-execution searches on H100 systems
// without tier-2 memory, one thread, top-100 with every sample rate kept.

struct ExecPair {
  const char* app;
  std::int64_t procs;
};

// The timed pool: LLM presets at system sizes whose untrimmed searches take
// a fifth of a second on one core, so a run has enough answers for a tail
// percentile. Fig. 6's GPT-3 175B on 4,096 GPUs (2-3 s) comes last and is
// answered first, as the untimed warm-up.
constexpr ExecPair kExecPairs[] = {
    {"gpt3_6p7b", 16},      {"gpt3_13b", 16},     {"gpt3_13b", 32},
    {"megatron_22b", 16},   {"anthropic_52b", 16}, {"chinchilla_70b", 16},
    {"llama2_70b", 16},     {"gpt3_175b", 16},    {"bloom_176b", 16},
    {"turing_530b", 32},    {"megatron_1t", 16},  {"megatron_1t", 24},
    {"gpt3_175b", 4096},
};
constexpr std::size_t kExecPool = std::size(kExecPairs) - 1;

class ExecSearchWorkload : public Workload {
 public:
  const char* name() const override { return "exec_search"; }
  unsigned threads() const override { return 1; }
  int min_rounds() const override { return 6; }

  void Setup() override {
    apps_.clear();
    systems_.clear();
    triples_ = 0;  // counted so set-up pays for SearchTriples
    space_ = SearchSpace::AllOptimizations();
    for (const ExecPair& p : kExecPairs) {
      apps_.push_back(presets::ApplicationByName(p.app));
      presets::SystemOptions o;
      o.num_procs = p.procs;
      systems_.push_back(presets::H100(o));
      triples_ += SearchTriples(apps_.back(), systems_.back(), space_, {})
                      .size();
    }
    pool_ = std::make_unique<ThreadPool>(1);
  }

  std::size_t pool_size() const override { return kExecPool; }
  std::size_t num_items() const override { return std::size(kExecPairs); }
  std::string ItemKey(std::size_t i) const override {
    return std::string(kExecPairs[i].app) + "@" +
           std::to_string(kExecPairs[i].procs);
  }

  ItemOutput RunItem(std::size_t i) override {
    RunContext ctx;
    SearchConfig config;
    config.top_k = 100;
    config.keep_all_rates = true;
    config.ctx = &ctx;
    const SearchResult r =
        FindOptimalExecution(apps_[i], systems_[i], space_, config, *pool_);
    ItemOutput out;
    out.digest = SearchDigest(r);
    out.candidates = r.evaluated;
    if (r.status.degraded()) {
      out.hard_failure = true;
      out.note = FailureNote(r.status);
    }
    return out;
  }

 private:
  SearchSpace space_;
  std::vector<Application> apps_;
  std::vector<System> systems_;
  std::size_t triples_ = 0;
  std::unique_ptr<ThreadPool> pool_;
};

// ---------------------------------------------------------------------------
// codesign: Table 3's 16 H100 HBM3 x DDR5 designs x 3 LLMs under a $125M
// budget, size step 512, the reduced space with offload variants where the
// design has DDR. `nproc` threads.

}  // namespace

SearchSpace ReducedSpace(bool with_offload) {
  SearchSpace s;
  s.tp_comm = {{false, false, false}, {true, true, true}};
  s.tp_overlap = {TpOverlap::kRing};
  s.fused_activation = {true};
  s.dp_overlap = {true};
  s.optimizer_sharding = {true};
  s.pp_rs_ag = {false};
  s.max_microbatch = 8;
  s.offload = with_offload
                  ? std::vector<SearchSpace::OffloadVariant>{
                        {false, false, false}, {true, true, true}}
                  : std::vector<SearchSpace::OffloadVariant>{
                        {false, false, false}};
  return s;
}

namespace {

constexpr const char* kCodesignApps[] = {"gpt3_175b", "turing_530b",
                                         "megatron_1t"};
constexpr double kBudget = 125e6;

class CodesignWorkload : public Workload {
 public:
  const char* name() const override { return "codesign"; }
  unsigned threads() const override { return Nproc(); }
  int min_rounds() const override { return 3; }

  void Setup() override {
    designs_ = Table3Designs();
    apps_.clear();
    for (const char* a : kCodesignApps) {
      apps_.push_back(presets::ApplicationByName(a));
    }
    options_ = SystemSearchOptions{};
    options_.budget = kBudget;
    options_.size_step = 512;
    triples_ = 0;  // counted so set-up pays for SearchTriples
    for (const SystemDesign& design : designs_) {
      const SearchSpace space = ReducedSpace(design.ddr_gib > 0.0);
      const System sys = design.Build(design.MaxGpus(kBudget));
      for (const Application& app : apps_) {
        triples_ += SearchTriples(app, sys, space, {}).size();
      }
    }
    pool_ = std::make_unique<ThreadPool>(Nproc());
  }

  std::size_t pool_size() const override {
    return designs_.size() * apps_.size();
  }
  std::string ItemKey(std::size_t i) const override {
    const SystemDesign& design = designs_[i / apps_.size()];
    return design.Label() + "/" + kCodesignApps[i % apps_.size()];
  }

  ItemOutput RunItem(std::size_t i) override {
    const SystemDesign& design = designs_[i / apps_.size()];
    const Application& app = apps_[i % apps_.size()];
    RunContext ctx;
    SystemSearchOptions options = options_;
    options.ctx = &ctx;
    const SystemSearchEntry e = EvaluateDesign(
        app, design, ReducedSpace(design.ddr_gib > 0.0), options, *pool_);
    ItemOutput out;
    Digest d;
    d.Add(static_cast<std::uint64_t>(e.max_gpus));
    d.Add(static_cast<std::uint64_t>(e.used_gpus));
    d.Add(static_cast<std::uint64_t>(e.feasible));
    d.AddDouble(e.sample_rate.raw());
    d.AddDouble(e.perf_per_million);
    if (e.feasible) d.Add(e.best_exec.ToJson().Dump());
    out.digest = d.Hex();
    const RunStatus status = ctx.Snapshot();
    if (status.degraded()) {
      out.hard_failure = true;
      out.note = FailureNote(status);
    }
    return out;
  }

 private:
  std::vector<SystemDesign> designs_;
  std::vector<Application> apps_;
  SystemSearchOptions options_;
  std::size_t triples_ = 0;
  std::unique_ptr<ThreadPool> pool_;
};

// ---------------------------------------------------------------------------
// study_supervised: a study cross product of GPT-3 175B on h100_80g_offload
// at 4,096 processors, run through RunStudySupervised with nproc - 1
// workers and a checkpoint at a fixed interval. The pool's studies differ
// in global batch size, so each answer has the same row count.

constexpr std::int64_t kStudyBatches[] = {512, 1024, 1536, 2048, 3072, 4096};
constexpr std::uint64_t kCheckpointEvery = 4096;
constexpr std::uint64_t kShardSize = 16;  // the DistOptions default

}  // namespace

json::Value StudySpec(std::int64_t batch) {
  auto list = [](std::initializer_list<json::Value> values) {
    return json::Value(json::Array(values));
  };
  json::Value spec;
  spec["application"] = "gpt3_175b";
  spec["system"] = "h100_80g_offload";
  spec["num_procs"] = 4096;
  spec["base_execution"]["batch_size"] = batch;
  spec["base_execution"]["fused_activation"] = true;
  json::Value& sweep = spec["sweep"];
  sweep["tensor_par"] = list({1, 2, 4, 8});
  sweep["pipeline_par"] = list({4, 8, 16, 32, 64});
  sweep["data_par"] = "auto";
  sweep["microbatch"] = list({1, 2, 4});
  sweep["pp_interleaving"] = list({1, 2, 4});
  sweep["recompute"] = list({"none", "attn", "full"});
  sweep["tp_overlap"] = list({"none", "ring"});
  sweep["dp_overlap"] = list({false, true});
  sweep["optimizer_sharding"] = list({false, true});
  sweep["weight_offload"] = list({false, true});
  return spec;
}

// `rows` single-row shards of the same application and system.
json::Value StartupSpec(int rows) {
  json::Value spec = StudySpec(kStudyBatches[0]);
  json::Array mb;
  for (int i = 1; i <= rows; ++i) mb.emplace_back(i);
  json::Value sweep;
  sweep["tensor_par"] = json::Value(json::Array{json::Value(8)});
  sweep["pipeline_par"] = json::Value(json::Array{json::Value(8)});
  sweep["data_par"] = "auto";
  sweep["microbatch"] = json::Value(std::move(mb));
  spec["sweep"] = std::move(sweep);
  return spec;
}

namespace {

dist::DistOptions StudyDist(std::uint64_t shard_size) {
  dist::DistOptions d;
  d.workers = StudyWorkers();
  d.shard_size = shard_size;
  return d;
}

class StudyWorkload : public Workload {
 public:
  explicit StudyWorkload(std::string work_dir)
      : checkpoint_(std::move(work_dir) + "/study.ckpt") {}

  const char* name() const override { return "study_supervised"; }
  unsigned threads() const override { return 1; }
  int workers() const override { return StudyWorkers(); }
  int min_rounds() const override { return 8; }

  void Setup() override {
    studies_.clear();
    for (std::int64_t batch : kStudyBatches) {
      studies_.push_back(Study::FromJson(StudySpec(batch)));
    }
    // Fork + ready of the workers: one row per worker, one row per shard,
    // so every worker is forked, initialised and answers once.
    const StudyRun run = dist::RunStudySupervised(
        Study::FromJson(StartupSpec(workers())), {}, StudyDist(1));
    if (run.csv_rows.size() != static_cast<std::size_t>(workers())) {
      throw std::runtime_error("study_supervised: worker start-up failed");
    }
  }

  std::string ReferenceDigest(std::size_t i) override {
    Digest d;
    d.Add(studies_[i].RunResilient({}).Csv());
    return d.Hex();
  }

  std::size_t pool_size() const override { return studies_.size(); }
  std::string ItemKey(std::size_t i) const override {
    return "batch" + std::to_string(kStudyBatches[i]);
  }

  ItemOutput RunItem(std::size_t i) override {
    RunContext ctx;
    StudyRunOptions options;
    options.ctx = &ctx;
    options.checkpoint_path = checkpoint_;
    options.checkpoint_every = kCheckpointEvery;
    const StudyRun run = dist::RunStudySupervised(studies_[i], options,
                                                 StudyDist(kShardSize));
    ItemOutput out;
    Digest d;
    d.Add(run.Csv());
    out.digest = d.Hex();
    out.candidates = run.total_rows;
    const RunStatus status = ctx.Snapshot();
    if (status.degraded() || !run.status.complete) {
      out.hard_failure = true;
      out.note = FailureNote(status);
    }
    return out;
  }

 private:
  std::string checkpoint_;
  std::vector<Study> studies_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& work_dir) {
  if (name == "exec_search") return std::make_unique<ExecSearchWorkload>();
  if (name == "codesign") return std::make_unique<CodesignWorkload>();
  if (name == "study_supervised") {
    return std::make_unique<StudyWorkload>(work_dir);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::vector<std::string> WorkloadNames() {
  return {"exec_search", "codesign", "study_supervised"};
}

double ModelErrorPct() {
  struct Case {
    Application app;
    std::int64_t procs, t, p, d, batch, microbatch;
    double selene_full, selene_seqsel;  // measured batch times (s)
  };
  const Case cases[] = {
      {presets::Megatron22B(), 8, 8, 1, 1, 4, 2, 1.42, 1.10},
      {presets::Gpt3_175B(), 512, 8, 8, 8, 512, 1, 18.13, 13.75},
      {presets::TuringNlg530B(), 280, 8, 35, 1, 280, 1, 49.05, 37.83},
      {presets::Megatron1T(), 512, 8, 64, 1, 512, 1, 94.42, 71.49},
  };
  double total = 0.0;
  int n = 0;
  for (int seq_sel = 0; seq_sel <= 1; ++seq_sel) {
    for (const Case& c : cases) {
      presets::SystemOptions so;
      so.num_procs = c.procs;
      Execution e;
      e.num_procs = c.procs;
      e.tensor_par = c.t;
      e.pipeline_par = c.p;
      e.data_par = c.d;
      e.batch_size = c.batch;
      e.microbatch = c.microbatch;
      if (seq_sel != 0) {
        e.recompute = Recompute::kAttnOnly;
        e.tp_rs_ag = true;
        e.seq_par = true;
        e.seq_par_ag_redo = true;
      } else {
        e.recompute = Recompute::kFull;
      }
      const Result<Stats> r = CalculatePerformance(c.app, e, presets::A100(so));
      if (!r.ok()) {
        throw std::runtime_error("Table 2 case infeasible: " + r.detail());
      }
      const double selene = seq_sel != 0 ? c.selene_seqsel : c.selene_full;
      total += std::abs(r.value().batch_time.raw() - selene) / selene;
      ++n;
    }
  }
  return 100.0 * total / n;
}

}  // namespace perfbench
