#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "dist/drivers.h"
#include "hw/presets.h"
#include "models/presets.h"
#include "runner/study.h"
#include "util/strings.h"
#include "util/units.h"

namespace calculon {
namespace {

json::Value BasicSpec() {
  return json::Parse(R"({
    "application": "megatron_22b",
    "system": "a100_80g",
    "num_procs": 64,
    "base_execution": {"batch_size": 64, "recompute": "full"},
    "sweep": {
      "tensor_par": [1, 2, 4, 8],
      "pipeline_par": [1, 2],
      "data_par": "auto",
      "microbatch": [1, 4]
    }
  })");
}

TEST(Study, ParsesSpecAndSizesSystem) {
  const Study study = Study::FromJson(BasicSpec());
  EXPECT_EQ(study.application.name, "megatron_22b");
  EXPECT_EQ(study.system.num_procs(), 64);
  EXPECT_EQ(study.base.batch_size, 64);
  EXPECT_EQ(study.base.recompute, Recompute::kFull);
  EXPECT_TRUE(study.auto_data_par);
  EXPECT_EQ(study.axes.size(), 3u);  // t, p, microbatch
}

// A checkpoint records its study's fingerprint, and --resume rejects one
// that differs: a changed value would turn every existing checkpoint into
// a ConfigError.
TEST(Study, FingerprintOfTheShippedSweepIsPinned) {
  const Study study = Study::FromJson(json::ParseFile(
      std::string(CALCULON_CONFIG_DIR) + "/studies/parallelism_sweep.json"));
  EXPECT_EQ(study.Fingerprint(), "c84fa53c015aef3c");
}

TEST(Study, RunsFullCrossProduct) {
  const Study study = Study::FromJson(BasicSpec());
  const auto rows = study.Run();
  EXPECT_EQ(rows.size(), 4u * 2u * 2u);
  int feasible = 0;
  for (const StudyRow& row : rows) {
    // "auto" derived d = 64 / (t * p).
    EXPECT_EQ(row.exec.tensor_par * row.exec.pipeline_par *
                  row.exec.data_par,
              64);
    if (row.result.ok()) ++feasible;
  }
  EXPECT_GT(feasible, 0);
}

TEST(Study, InlineApplicationAndSystem) {
  json::Value spec = BasicSpec();
  spec["application"] = json::Parse(R"({
    "name": "tiny", "hidden": 1024, "attn_heads": 16,
    "seq_size": 512, "num_blocks": 8
  })");
  const Study study = Study::FromJson(spec);
  EXPECT_EQ(study.application.name, "tiny");
  EXPECT_EQ(study.application.feedforward, 4096);
}

TEST(Study, SweepsBooleanAndEnumFields) {
  const json::Value spec = json::Parse(R"({
    "application": "megatron_22b",
    "system": "a100_80g",
    "num_procs": 8,
    "base_execution": {"tensor_par": 8, "batch_size": 8},
    "sweep": {
      "recompute": ["none", "attn", "full"],
      "fused_activation": [false, true]
    }
  })");
  const auto rows = Study::FromJson(spec).Run();
  EXPECT_EQ(rows.size(), 6u);
  // All six must be structurally valid on 8 GPUs.
  for (const StudyRow& row : rows) {
    EXPECT_TRUE(row.result.ok()) << row.result.detail();
  }
}

TEST(Study, RejectsUnknownFieldAndDoubleAuto) {
  json::Value bad = BasicSpec();
  bad["sweep"]["warp_drive"] = json::Parse("[1]");
  EXPECT_THROW((void)Study::FromJson(bad).Run(), ConfigError);

  json::Value two_autos = BasicSpec();
  two_autos["sweep"].AsObject().erase("tensor_par");
  two_autos["sweep"]["tensor_par"] = "auto";
  EXPECT_THROW(Study::FromJson(two_autos), ConfigError);
}

TEST(Study, EnumeratesTheCrossProductLastAxisFastest) {
  // Axes come in key order (microbatch, pipeline_par, tensor_par); the
  // last varies fastest, and "auto" data_par is derived per row.
  const std::vector<Execution> rows =
      Study::FromJson(BasicSpec()).Enumerate();
  ASSERT_EQ(rows.size(), 16u);
  std::size_t i = 0;
  for (const std::int64_t mb : {1, 4}) {
    for (const std::int64_t p : {1, 2}) {
      for (const std::int64_t t : {1, 2, 4, 8}) {
        EXPECT_EQ(rows[i].microbatch, mb) << i;
        EXPECT_EQ(rows[i].pipeline_par, p) << i;
        EXPECT_EQ(rows[i].tensor_par, t) << i;
        EXPECT_EQ(rows[i].data_par, 64 / (t * p)) << i;
        EXPECT_EQ(rows[i].recompute, Recompute::kFull) << i;
        ++i;
      }
    }
  }
}

// The message of the ConfigError Enumerate() throws for `sweep`, or "" when
// it throws nothing.
std::string EnumerateError(const char* sweep) {
  json::Value spec = BasicSpec();
  spec["sweep"] = json::Parse(sweep);
  try {
    (void)Study::FromJson(spec).Enumerate();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(Study, EnumerateRaisesTheErrorADepthFirstWalkReachesFirst) {
  // The walk reaches every axis's first value before any second value, so
  // the bad first value of a later axis wins over a bad second value.
  EXPECT_NE(EnumerateError(R"({"microbatch": [1, 2.5],
                               "tensor_par": ["x"]})")
                .find("expected number, got string"),
            std::string::npos);
  EXPECT_NE(EnumerateError(R"({"microbatch": [1, 2.5],
                               "tensor_par": [1, "x"]})")
                .find("expected number, got string"),
            std::string::npos);
  // Second values are reached from the last axis up.
  EXPECT_NE(EnumerateError(R"({"microbatch": [1, "x"],
                               "tensor_par": [1, 2.5]})")
                .find("2.5 is not an integer"),
            std::string::npos);
  // The walk never passes an empty axis: nothing after it is parsed, and
  // there are no rows, but the values before it still are.
  EXPECT_EQ(EnumerateError(R"({"microbatch": [], "warp_drive": [1]})"), "");
  EXPECT_NE(EnumerateError(R"({"microbatch": [1, 2.5], "recompute": []})")
                .find("2.5 is not an integer"),
            std::string::npos);
  json::Value spec = BasicSpec();
  spec["sweep"] = json::Parse(R"({"microbatch": [], "tensor_par": [1]})");
  EXPECT_TRUE(Study::FromJson(spec).Enumerate().empty());
}

TEST(Study, CsvHasHeaderAndOneRowPerConfig) {
  const Study study = Study::FromJson(BasicSpec());
  const auto rows = study.Run();
  const std::string csv = StudyCsv(study, rows);
  const auto lines = Split(Trim(csv), '\n');
  EXPECT_EQ(lines.size(), rows.size() + 1);
  EXPECT_TRUE(StartsWith(lines[0], "tensor_par,pipeline_par"));
  // Infeasible rows carry a reason and empty metrics.
  bool saw_infeasible = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].find(",0,") != std::string::npos) saw_infeasible = true;
  }
  (void)saw_infeasible;  // presence depends on the space; header check above
}

TEST(Study, DefaultsWithoutBaseExecution) {
  const json::Value spec = json::Parse(R"({
    "application": "megatron_22b",
    "system": "a100_80g",
    "num_procs": 16,
    "sweep": {"tensor_par": [8], "pipeline_par": [2]}
  })");
  const auto rows = Study::FromJson(spec).Run();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].exec.batch_size, 16);  // defaults to num_procs
}

// --- Random studies ---------------------------------------------------------
//
// RunResilient evaluates its rows through one StageTable, in the order the
// study enumerates them; Run() evaluates each row one-shot. Over seeded
// random studies the two must give the same CSV, byte for byte, and the
// same best row with a bit-equal rate, in process and under supervision.

// Portable draws: mt19937_64's output sequence is fixed by the standard.
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

// The fields a study sweeps.
constexpr const char* kSweepFields[] = {
    "tensor_par",         "pipeline_par",       "data_par",
    "microbatch",         "batch_size",         "pp_interleaving",
    "recompute",          "tp_overlap",         "training",
    "fused_activation",   "pp_1f1b",            "pp_rs_ag",
    "tp_rs_ag",           "seq_par",            "seq_par_ag_redo",
    "dp_overlap",         "optimizer_sharding", "weight_offload",
    "activation_offload", "optimizer_offload"};

// One to three values of `field`, repeats allowed.
json::Value RandomAxis(const std::string& field, std::int64_t procs,
                       Rng& rng) {
  json::Array values(1 + rng.Below(3));
  for (json::Value& v : values) {
    if (field == "tensor_par" || field == "pipeline_par" ||
        field == "data_par") {
      v = rng.Pick<std::int64_t>({1, 2, 4, 8});
    } else if (field == "microbatch") {
      v = rng.Pick<std::int64_t>({1, 2, 4});
    } else if (field == "batch_size") {
      v = procs * rng.Pick<std::int64_t>({1, 2, 4});
    } else if (field == "pp_interleaving") {
      v = rng.Pick<std::int64_t>({1, 2, 3});
    } else if (field == "recompute") {
      v = rng.Pick<const char*>({"none", "attn", "full"});
    } else if (field == "tp_overlap") {
      v = rng.Pick<const char*>({"none", "pipe", "ring"});
    } else {
      v = rng.Below(3) == 0;  // an option on is more often ruled out
    }
  }
  return json::Value(std::move(values));
}

System RandomStudySystem(Rng& rng, bool tier2) {
  presets::SystemOptions o;
  o.num_procs = rng.Pick<std::int64_t>({8, 16, 32, 64});
  o.hbm_capacity = GiB(rng.Pick<double>({40.0, 80.0}));
  if (tier2) {
    o.offload_capacity = GiB(rng.Pick<double>({64.0, 512.0}));
    o.offload_bandwidth = BytesPerSecond(rng.Pick<double>({25e9, 100e9}));
  }
  return rng.Coin() ? presets::A100(o) : presets::H100(o);
}

// A study of `app` on a random system: a base execution whose degrees
// cover the processors and whose options are random, a random subset of
// the sweepable fields (at most `max_rows` rows), and sometimes one
// "auto" parallelism axis.
json::Value RandomStudySpec(const std::string& app, bool tier2,
                            std::uint64_t max_rows, Rng& rng) {
  const System sys = RandomStudySystem(rng, tier2);
  const std::int64_t procs = sys.num_procs();
  json::Value base;
  const std::int64_t t = rng.Pick<std::int64_t>({1, 2, 4, 8});
  const std::int64_t p = rng.Pick<std::int64_t>({1, 2, 4});
  base["tensor_par"] = t;
  base["pipeline_par"] = p;
  base["data_par"] = procs / (t * p);
  base["batch_size"] = procs * rng.Pick<std::int64_t>({1, 2, 4});
  base["microbatch"] = rng.Pick<std::int64_t>({1, 2});
  // Options the base degrees allow, mostly: a swept field may still
  // pair them with degrees or options that rule them out.
  const bool training = rng.Below(5) != 0;
  base["training"] = training;
  base["recompute"] =
      training ? rng.Pick<const char*>({"none", "attn", "full"}) : "none";
  const std::uint64_t tp_comm = t > 1 ? rng.Below(4) : 0;
  base["tp_rs_ag"] = tp_comm > 0;
  base["seq_par"] = tp_comm > 1;
  base["seq_par_ag_redo"] = tp_comm > 2;
  base["tp_overlap"] =
      t > 1 ? rng.Pick<const char*>({"none", "pipe", "ring"}) : "none";
  base["fused_activation"] = rng.Coin();
  base["pp_1f1b"] = rng.Coin();
  base["pp_rs_ag"] = t > 1 && p > 1 && rng.Coin();
  const bool dp = training && procs / (t * p) > 1;
  base["dp_overlap"] = dp && rng.Coin();
  base["optimizer_sharding"] = dp && rng.Coin();
  base["weight_offload"] = tier2 && rng.Below(3) == 0;
  base["activation_offload"] = tier2 && rng.Below(3) == 0;
  base["optimizer_offload"] = tier2 && training && rng.Below(3) == 0;

  json::Value sweep = json::Value(json::Object{});
  std::uint64_t rows = 1;
  for (const char* field : kSweepFields) {
    if (rng.Below(3) != 0) continue;
    const json::Value axis = RandomAxis(field, procs, rng);
    if (rows * axis.AsArray().size() > max_rows) continue;
    rows *= axis.AsArray().size();
    sweep[field] = axis;
  }
  if (rng.Below(4) != 0) {
    const char* derived =
        rng.Pick<const char*>({"tensor_par", "pipeline_par", "data_par"});
    sweep[derived] = "auto";
  }
  json::Value spec;
  spec["application"] = app;
  spec["system"] = sys.ToJson();
  spec["base_execution"] = base;
  spec["sweep"] = sweep;
  return spec;
}

TEST(Study, RandomStudiesThroughTheStageTableMatchTheOneShotRunner) {
  const std::vector<std::string> apps = presets::ApplicationNames();
  ASSERT_EQ(apps.size(), 11u);
  Rng rng(20261017);
  std::uint64_t rows = 0;
  std::uint64_t feasible = 0;
  int supervised = 0;
  for (int draw = 0; draw < 660; ++draw) {
    const bool tier2 = draw % 2 == 1;
    const json::Value spec = RandomStudySpec(
        apps[static_cast<std::size_t>(draw / 2) % apps.size()], tier2, 2000,
        rng);
    const Study study = Study::FromJson(spec);
    const std::string where =
        "draw " + std::to_string(draw) + ": " + spec.Dump();
    const std::vector<StudyRow> reference = study.Run();
    const StudyRun run = study.RunResilient();
    ASSERT_EQ(run.Csv(), StudyCsv(study, reference)) << where;

    // The best row of the one-shot rows: ties keep the earliest.
    bool found = false;
    std::uint64_t best_row = 0;
    double best_rate = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (!reference[i].result.ok()) continue;
      ++feasible;
      const double rate = reference[i].result.value().sample_rate.raw();
      if (rate > best_rate) {
        found = true;
        best_row = i;
        best_rate = rate;
      }
    }
    rows += reference.size();
    ASSERT_EQ(run.best.found, found) << where;
    if (found) {
      EXPECT_EQ(run.best.row, best_row) << where;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(run.best.sample_rate.raw()),
                std::bit_cast<std::uint64_t>(best_rate))
          << where;
    }

    if (draw % 31 != 7) continue;
    for (const std::uint64_t shard_size :
         {std::uint64_t{1}, std::uint64_t{7}}) {
      dist::DistOptions d;
      d.workers = 2;
      d.shard_size = shard_size;
      const StudyRun sup = dist::RunStudySupervised(study, {}, d);
      ++supervised;
      ASSERT_EQ(sup.Csv(), run.Csv()) << where << ", shard " << shard_size;
      EXPECT_EQ(sup.best.found, run.best.found) << where;
      EXPECT_EQ(sup.best.row, run.best.row) << where;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sup.best.sample_rate.raw()),
                std::bit_cast<std::uint64_t>(run.best.sample_rate.raw()))
          << where;
    }
  }
  // Enough rows reach the candidate stage to exercise the table.
  EXPECT_GT(rows, 50'000u);
  EXPECT_GT(feasible, 2'000u);
  EXPECT_GE(supervised, 8);
}


std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// StudyCommit writes each checkpoint from its rows' escaped text instead of
// rendering StudyCheckpointToJson; at every write the file must hold that
// rendering byte for byte. Rows come from EvaluateStudyRow, with bad-config
// rows and quarantines whose free text needs every kind of JSON escape.
TEST(Study, EveryCheckpointWriteIsTheReferenceRendering) {
  const Study study = Study::FromJson(BasicSpec());
  const std::vector<Execution> rows = study.Enumerate();
  ASSERT_EQ(rows.size(), 16u);
  const std::string fingerprint = study.Fingerprint();
  const std::string path =
      ::testing::TempDir() + "calculon_checkpoint_bytes.json";
  const std::string nasty =
      "bad \"quote\" back\\slash\ttab\nnewline\r\x01\x02\x1f\x7f, end";

  // Row i through the commit, and the same row into `mirror`, the run the
  // commit holds: every 5th row is a bad-config row, every 7th quarantined.
  StageTable stages(study.application, study.system);
  auto commit_row = [&](StudyCommit& commit, StudyRun& mirror,
                        std::uint64_t i) {
    const std::string detail = nasty + " " + std::to_string(i);
    if (i % 7 == 3) {
      FailureRecord record;
      record.reason = detail;
      commit.Quarantine(record);
      mirror.csv_rows.push_back(StudyCsvRow(
          rows[i], Result<Stats>(Infeasible::kBadConfig, detail)));
      return;
    }
    StudyRowResult row = EvaluateStudyRow(stages, rows[i], i);
    if (i % 5 == 1) {
      row.csv = StudyCsvRow(rows[i],
                            Result<Stats>(Infeasible::kBadConfig, detail));
      row.sample_rate.reset();
      row.bad_config = detail;
    }
    if (row.sample_rate && *row.sample_rate > mirror.best.sample_rate) {
      mirror.best = StudyBest{true, i, rows[i], *row.sample_rate};
    }
    mirror.csv_rows.push_back(row.csv);
    commit.Commit(std::move(row));
  };
  auto reference = [&](const StudyRun& run) {
    return StudyCheckpointToJson(fingerprint, run).Dump(2) + "\n";
  };

  for (const std::uint64_t every : {1, 3, 64}) {
    for (const bool resumed : {false, true}) {
      SCOPED_TRACE(StrFormat("checkpoint_every %llu%s",
                             static_cast<unsigned long long>(every),
                             resumed ? ", resumed" : ""));
      std::remove(path.c_str());
      StudyRunOptions options;
      options.checkpoint_path = path;
      options.checkpoint_every = every;
      StudyRun mirror;
      mirror.total_rows = rows.size();
      std::uint64_t first = 0;
      if (resumed) {
        // A run stopped after 9 rows, resumed from its final checkpoint.
        StudyCommit stopped(study, options);
        for (; first < 9; ++first) commit_row(stopped, mirror, first);
        const StudyRun partial = stopped.Finish();
        ASSERT_EQ(ReadText(path), reference(partial));
        options.resume = true;
      }
      StudyCommit commit(study, options);
      std::uint64_t writes = 0;
      for (std::uint64_t i = first; i < rows.size(); ++i) {
        commit_row(commit, mirror, i);
        if ((i - first + 1) % every == 0) {
          ++writes;
          ASSERT_EQ(ReadText(path), reference(mirror)) << "after row " << i;
        }
      }
      EXPECT_EQ(writes, (rows.size() - first) / every);
      const StudyRun done = commit.Finish();
      EXPECT_EQ(done.csv_rows, mirror.csv_rows);
      EXPECT_EQ(ReadText(path), reference(done));
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace calculon
