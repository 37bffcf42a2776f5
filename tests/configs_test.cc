// Every JSON specification file shipped in configs/ must parse, validate,
// and (for executions/studies) actually run.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/perf_model.h"
#include "hw/system.h"
#include "models/application.h"
#include "runner/study.h"

namespace calculon {
namespace {

namespace fs = std::filesystem;

fs::path ConfigDir() { return fs::path(CALCULON_CONFIG_DIR); }

std::vector<fs::path> JsonFiles(const char* subdir) {
  std::vector<fs::path> files;
  const fs::path dir = ConfigDir() / subdir;
  if (!fs::exists(dir)) return files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(Configs, DirectoryIsShipped) {
  ASSERT_TRUE(fs::exists(ConfigDir())) << ConfigDir();
  EXPECT_FALSE(JsonFiles("applications").empty());
  EXPECT_FALSE(JsonFiles("systems").empty());
  EXPECT_FALSE(JsonFiles("executions").empty());
  EXPECT_FALSE(JsonFiles("studies").empty());
}

TEST(Configs, ApplicationsLoadAndValidate) {
  for (const fs::path& file : JsonFiles("applications")) {
    const Application app = Application::FromJson(json::ParseFile(file));
    EXPECT_NO_THROW(app.Validate()) << file;
    EXPECT_GT(app.TotalParameters(), 0) << file;
  }
}

TEST(Configs, SystemsLoadAndRoundTrip) {
  for (const fs::path& file : JsonFiles("systems")) {
    const System sys = System::FromJson(json::ParseFile(file));
    EXPECT_GE(sys.num_procs(), 1) << file;
    EXPECT_EQ(System::FromJson(sys.ToJson()).ToJson(), sys.ToJson()) << file;
  }
}

TEST(Configs, ExecutionsRunAgainstTheirModels) {
  // Shipped execution specs name their model in the filename prefix.
  for (const fs::path& file : JsonFiles("executions")) {
    const Execution exec = Execution::FromJson(json::ParseFile(file));
    const std::string stem = file.stem().string();
    Application app;
    if (stem.rfind("gpt3_175b", 0) == 0) {
      app = Application::FromJson(
          json::ParseFile(ConfigDir() / "applications/gpt3_175b.json"));
    } else if (stem.rfind("megatron_1t", 0) == 0) {
      app = Application::FromJson(
          json::ParseFile(ConfigDir() / "applications/megatron_1t.json"));
    } else {
      FAIL() << "execution spec with unknown model prefix: " << file;
    }
    const System sys =
        System::FromJson(
            json::ParseFile(ConfigDir() / "systems/a100_80g.json"))
            .WithNumProcs(exec.num_procs);
    const auto r = CalculatePerformance(app, exec, sys);
    EXPECT_TRUE(r.ok()) << file << ": " << r.detail();
  }
}

TEST(Configs, StudiesParseAndRun) {
  for (const fs::path& file : JsonFiles("studies")) {
    const Study study = Study::FromJson(json::ParseFile(file));
    const auto rows = study.Run();
    EXPECT_FALSE(rows.empty()) << file;
    std::size_t feasible = 0;
    for (const StudyRow& row : rows) {
      if (row.result.ok()) ++feasible;
    }
    EXPECT_GT(feasible, 0u) << file;
    EXPECT_FALSE(StudyCsv(rows).empty()) << file;
  }
}

}  // namespace
}  // namespace calculon
