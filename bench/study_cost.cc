// What a study row costs, in process and supervised: wall time, the
// calling process's CPU time (RUSAGE_SELF; the supervisor's, in a
// supervised run) and the reaped workers' CPU time (RUSAGE_CHILDREN), each
// in microseconds per row.
//
// Three studies of GPT-3 175B on 4,096 processors:
//   * on h100_80g at batch 4,096, the 92,160-row study, in process and
//     with 1 and 3 workers at shard 16, each with no checkpoint and with a
//     checkpoint every 4,096 rows;
//   * its 11,520-row core (no tp_rs_ag, pp_rs_ag or pp_interleaving axis),
//     in process with no checkpoint and with one every 64 and 4,096 rows;
//   * on h100_80g_offload at batch 1,024, the 8,640-row study of
//     perfbench's study_supervised workload (its axes), in process and
//     with 3 workers at shard 16, each with no checkpoint and with one
//     every 4,096 rows.
// Each line is one run, so repeat the binary to see the spread.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <string>

#include "dist/drivers.h"
#include "json/json.h"
#include "runner/study.h"
#include "util/strings.h"
#include "util/table.h"

namespace calculon {
namespace {

json::Value StudySpec(bool full) {
  auto list = [](std::initializer_list<json::Value> values) {
    return json::Value(json::Array(values));
  };
  json::Value spec;
  spec["application"] = "gpt3_175b";
  spec["system"] = "h100_80g";
  spec["num_procs"] = 4096;
  spec["base_execution"]["batch_size"] = 4096;
  json::Value& sweep = spec["sweep"];
  sweep["tensor_par"] = list({1, 2, 4, 8, 16});
  sweep["pipeline_par"] = list({1, 2, 4, 8, 16, 32});
  sweep["data_par"] = "auto";
  sweep["microbatch"] = list({1, 2, 4, 8});
  sweep["recompute"] = list({"none", "attn", "full"});
  sweep["tp_overlap"] = list({"none", "ring"});
  sweep["dp_overlap"] = list({false, true});
  sweep["optimizer_sharding"] = list({false, true});
  sweep["fused_activation"] = list({false, true});
  sweep["seq_par"] = list({false, true});
  if (full) {
    sweep["tp_rs_ag"] = list({false, true});
    sweep["pp_rs_ag"] = list({false, true});
    sweep["pp_interleaving"] = list({1, 2});
  }
  return spec;
}

// The axes of perfbench's study_supervised studies (perfbench/src/
// workloads.cc), at batch 1,024: 8,640 rows.
json::Value PerfbenchStudySpec() {
  auto list = [](std::initializer_list<json::Value> values) {
    return json::Value(json::Array(values));
  };
  json::Value spec;
  spec["application"] = "gpt3_175b";
  spec["system"] = "h100_80g_offload";
  spec["num_procs"] = 4096;
  spec["base_execution"]["batch_size"] = 1024;
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

double CpuSeconds(int who) {
  struct rusage usage {};
  ::getrusage(who, &usage);
  auto seconds = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Runs `study` once with `workers` (0: in process) and a checkpoint every
// `every` rows (0: none), and adds its per-row costs to `table`.
void Measure(const Study& study, int workers, std::uint64_t every,
             const std::string& checkpoint, Table& table) {
  StudyRunOptions options;
  if (every > 0) {
    options.checkpoint_path = checkpoint;
    options.checkpoint_every = every;
  }
  dist::DistOptions dist;
  dist.workers = workers;
  dist.shard_size = 16;
  const double self0 = CpuSeconds(RUSAGE_SELF);
  const double children0 = CpuSeconds(RUSAGE_CHILDREN);
  const auto t0 = std::chrono::steady_clock::now();
  const StudyRun run = dist::RunStudySupervised(study, options, dist);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  const double self = CpuSeconds(RUSAGE_SELF) - self0;
  const double children = CpuSeconds(RUSAGE_CHILDREN) - children0;
  std::filesystem::remove(checkpoint);
  const double rows = static_cast<double>(run.csv_rows.size());
  table.AddRow(
      {StrFormat("%llu", static_cast<unsigned long long>(run.total_rows)),
       workers == 0 ? std::string("in process")
                    : StrFormat("%d worker%s, shard 16", workers,
                                workers == 1 ? "" : "s"),
       every == 0 ? std::string("none")
                  : StrFormat("%llu", static_cast<unsigned long long>(every)),
       StrFormat("%.2f", 1e6 * wall / rows), StrFormat("%.2f", 1e6 * self / rows),
       workers == 0 ? std::string("-")
                    : StrFormat("%.2f", 1e6 * children / rows)});
}

}  // namespace
}  // namespace calculon

int main() {
  using calculon::Study;
  const std::string checkpoint =
      (std::filesystem::temp_directory_path() /
       calculon::StrFormat("calculon_study_cost_%d.ckpt",
                           static_cast<int>(::getpid())))
          .string();
  calculon::Table table({"rows", "run", "checkpoint every", "wall us/row",
                         "self CPU us/row", "worker CPU us/row"});
  const Study full = Study::FromJson(calculon::StudySpec(true));
  for (const int workers : {0, 1, 3}) {
    for (const std::uint64_t every : {std::uint64_t{0}, std::uint64_t{4096}}) {
      calculon::Measure(full, workers, every, checkpoint, table);
    }
  }
  table.AddRule();
  const Study core = Study::FromJson(calculon::StudySpec(false));
  for (const std::uint64_t every :
       {std::uint64_t{0}, std::uint64_t{64}, std::uint64_t{4096}}) {
    calculon::Measure(core, 0, every, checkpoint, table);
  }
  table.AddRule();
  const Study perfbench = Study::FromJson(calculon::PerfbenchStudySpec());
  for (const int workers : {0, 3}) {
    for (const std::uint64_t every : {std::uint64_t{0}, std::uint64_t{4096}}) {
      calculon::Measure(perfbench, workers, every, checkpoint, table);
    }
  }
  std::printf(
      "Study row cost: GPT-3 175B on 4,096 processors; h100_80g at batch "
      "4,096 (92,160 and 11,520 rows), h100_80g_offload at batch 1,024 "
      "(8,640 rows) (one run per line; self CPU is the supervisor's in a "
      "supervised run)\n\n%s",
      table.ToString().c_str());
  return 0;
}
