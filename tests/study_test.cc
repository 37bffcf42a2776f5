#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "runner/study.h"
#include "util/strings.h"

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

}  // namespace
}  // namespace calculon
