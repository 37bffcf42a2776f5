// Tests for the progress reporter (src/obs/progress.h): the ETA math and
// line format are pinned exactly; the reporter itself is exercised against
// a live RunContext writing to a temporary stream.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "obs/progress.h"
#include "util/run_context.h"

namespace calculon::obs {
namespace {

TEST(ProgressMath, RatePerSec) {
  EXPECT_DOUBLE_EQ(ProgressReporter::RatePerSec(50, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(ProgressReporter::RatePerSec(0, 10.0), 0.0);
  // No elapsed time: no rate (never divides by zero).
  EXPECT_DOUBLE_EQ(ProgressReporter::RatePerSec(50, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ProgressReporter::RatePerSec(50, -1.0), 0.0);
}

TEST(ProgressMath, EtaSeconds) {
  // 50 of 200 in 10s -> 5/s -> 150 remaining -> 30s.
  EXPECT_DOUBLE_EQ(ProgressReporter::EtaSeconds(50, 200, 10.0), 30.0);
  // Done (or past total): zero.
  EXPECT_DOUBLE_EQ(ProgressReporter::EtaSeconds(200, 200, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(ProgressReporter::EtaSeconds(250, 200, 10.0), 0.0);
  // Unknown total: zero (the line omits the ETA instead).
  EXPECT_DOUBLE_EQ(ProgressReporter::EtaSeconds(50, 0, 10.0), 0.0);
  // No observed rate yet: unknowable.
  EXPECT_TRUE(std::isinf(ProgressReporter::EtaSeconds(0, 200, 10.0)));
  EXPECT_TRUE(std::isinf(ProgressReporter::EtaSeconds(0, 200, 0.0)));
}

TEST(ProgressMath, FormatLineWithKnownTotal) {
  EXPECT_EQ(ProgressReporter::FormatLine("exec_search", 50, 200, 2, 10.0),
            "[exec_search] 50/200 (25.0%) | 5.0/s | eta 30.0s | failures 2");
}

TEST(ProgressMath, FormatLineWithUnknownTotalIsRateOnly) {
  EXPECT_EQ(ProgressReporter::FormatLine("audit", 30, 0, 0, 10.0),
            "[audit] 30 done | 3.0/s | failures 0");
}

TEST(ProgressMath, FormatLineWithNoRateShowsUnknownEta) {
  EXPECT_EQ(ProgressReporter::FormatLine("run", 0, 10, 0, 10.0),
            "[run] 0/10 (0.0%) | 0.0/s | eta ? | failures 0");
}

TEST(ProgressReporterTest, FinalLineReflectsContextCounters) {
  RunContext ctx;
  ctx.RecordCompleted(7);
  ctx.RecordFailure(3, "cfg", "boom");

  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  {
    ProgressOptions options;
    options.interval_s = 60.0;  // only the final line fires in this test
    options.total = 10;
    options.label = "test";
    options.out = out;
    ProgressReporter reporter(&ctx, options);
    reporter.Stop();
    reporter.Stop();  // idempotent
  }

  std::rewind(out);
  char buffer[256] = {};
  ASSERT_NE(std::fgets(buffer, sizeof(buffer), out), nullptr);
  const std::string line(buffer);
  std::fclose(out);
  EXPECT_NE(line.find("[test] 7/10 (70.0%)"), std::string::npos) << line;
  EXPECT_NE(line.find("failures 1"), std::string::npos) << line;
}

TEST(ProgressReporterTest, PeriodicLinesAppearWhileRunning) {
  RunContext ctx;
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  {
    ProgressOptions options;
    options.interval_s = 0.01;
    options.label = "tick";
    options.out = out;
    ProgressReporter reporter(&ctx, options);
    for (int i = 0; i < 5; ++i) {
      ctx.RecordCompleted();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }  // destructor stops and emits the final line

  std::rewind(out);
  int lines = 0;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), out) != nullptr) ++lines;
  std::fclose(out);
  EXPECT_GE(lines, 2);  // at least one periodic line plus the final one
}

TEST(ProgressReporterTest, DestructorAloneEmitsFinalLine) {
  RunContext ctx;
  ctx.RecordCompleted(3);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  {
    ProgressOptions options;
    options.interval_s = 60.0;
    options.label = "dtor";
    options.out = out;
    ProgressReporter reporter(&ctx, options);
  }
  std::rewind(out);
  char buffer[256] = {};
  ASSERT_NE(std::fgets(buffer, sizeof(buffer), out), nullptr);
  EXPECT_NE(std::string(buffer).find("[dtor] 3 done"), std::string::npos);
  std::fclose(out);
}

}  // namespace
}  // namespace calculon::obs
