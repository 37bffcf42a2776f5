// End-to-end: the shipped rule set must run clean over this repository
// (the same invariant the calculon_lint_clean ctest and the CI lint job
// enforce), and the SARIF serialization must be a well-formed document
// whose partial fingerprints stay stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "json/json.h"
#include "staticlint/diagnostics.h"
#include "staticlint/engine.h"
#include "staticlint/lexer.h"
#include "staticlint/rules.h"

namespace calculon::staticlint {
namespace {

#ifndef CALCULON_SOURCE_DIR
#error "CALCULON_SOURCE_DIR must be defined by the build"
#endif

std::vector<SourceFile> RepoTree() {
  return LoadTree(CALCULON_SOURCE_DIR);
}

TEST(SelfCleanTest, TreeLoadsLibraryLayers) {
  std::vector<SourceFile> files = RepoTree();
  // The tree is non-trivial and includes the staticlint sources themselves.
  EXPECT_GT(files.size(), 50u);
  bool saw_self = false;
  for (const SourceFile& f : files) {
    saw_self = saw_self || f.path == "src/staticlint/rules.cc";
  }
  EXPECT_TRUE(saw_self);
}

TEST(SelfCleanTest, RepositoryLintsCleanUnderShippedPolicy) {
  std::vector<SourceFile> files = RepoTree();
  LintResult result = RunLint(files, ProjectConfig::Default());
  std::string report;
  for (const Diagnostic& d : result.findings) report += FormatHuman(d) + "\n";
  EXPECT_TRUE(result.findings.empty()) << report;
}

TEST(SelfCleanTest, SeededViolationIsDetected) {
  // The clean-tree test above would also pass if the tool were inert; prove
  // it bites by appending one seeded violation to the real tree.
  std::vector<SourceFile> files = RepoTree();
  files.push_back(MakeSourceFile("src/util/seeded_violation.h",
                                 "std::cout << 1; // and no guard\n"));
  LintResult result = RunLint(files, ProjectConfig::Default());
  bool saw_cout = false;
  bool saw_guard = false;
  for (const Diagnostic& d : result.findings) {
    if (d.path != "src/util/seeded_violation.h") continue;
    saw_cout = saw_cout || d.rule == "std-cout";
    saw_guard = saw_guard || d.rule == "pragma-once";
  }
  EXPECT_TRUE(saw_cout);
  EXPECT_TRUE(saw_guard);
}

TEST(SelfCleanTest, FormattingInTheRealForkChildIsFlagged) {
  // fork-safety finds the child block of SpawnWorker's ::fork() in the
  // real source: a StrFormat seeded into it is the one finding in the file.
  const std::string path = "src/dist/supervisor.cc";
  const std::string anchor =
      "    for (const WorkerSlot& other : pool.slots) {\n";
  std::vector<SourceFile> files = RepoTree();
  int seeded_line = 0;
  for (SourceFile& f : files) {
    if (f.path != path) continue;
    std::string text = f.text;
    const std::size_t at = text.find(anchor);
    ASSERT_NE(at, std::string::npos) << "the child block moved in " << path;
    text.insert(at, "    (void)StrFormat(\"%d\", 1);\n");
    seeded_line = 1 + static_cast<int>(std::count(
                          text.begin(),
                          text.begin() + static_cast<std::ptrdiff_t>(at),
                          '\n'));
    f = MakeSourceFile(path, std::move(text));
  }
  ASSERT_GT(seeded_line, 0) << path << " is not in the tree";

  LintOptions options;
  options.rule_filter = {"fork-safety"};
  const LintResult result = RunLint(files, ProjectConfig::Default(), options);
  std::vector<int> lines;
  for (const Diagnostic& d : result.findings) lines.push_back(d.line);
  EXPECT_EQ(lines, std::vector<int>{seeded_line});
}

Diagnostic MakeDiag(const std::string& rule, const std::string& path,
                    int line, const std::string& excerpt) {
  Diagnostic d;
  d.rule = rule;
  d.path = path;
  d.line = line;
  d.message = "message for " + rule;
  d.excerpt = excerpt;
  return d;
}

TEST(BaselineTest, FingerprintIgnoresLineNumbers) {
  Diagnostic a = MakeDiag("raw-boundary", "src/a/x.cc", 10, "b.raw();");
  Diagnostic b = MakeDiag("raw-boundary", "src/a/x.cc", 99, "b.raw();");
  EXPECT_EQ(FingerprintHex(a), FingerprintHex(b));
  // ... but distinguishes rule, path and content.
  Diagnostic c = MakeDiag("raw-boundary", "src/a/y.cc", 10, "b.raw();");
  Diagnostic d = MakeDiag("raw-boundary", "src/a/x.cc", 10, "c.raw();");
  EXPECT_NE(FingerprintHex(a), FingerprintHex(c));
  EXPECT_NE(FingerprintHex(a), FingerprintHex(d));
  EXPECT_EQ(FingerprintHex(a).size(), 16u);
}

// Code scanning matches findings across runs by partialFingerprints; a
// changed hash would re-open every known finding as new.
TEST(SarifTest, PartialFingerprintIsPinned) {
  EXPECT_EQ(FingerprintHex(MakeDiag("naked-new", "src/a/x.cc", 5,
                                    "auto* p = new int(1);")),
            "d706c1788919dbbe");
}

TEST(SarifTest, DocumentIsWellFormed) {
  Diagnostic d;
  d.rule = "naked-new";
  d.path = "src/a/x.cc";
  d.line = 5;
  d.col = 12;
  d.message = "naked new";
  d.excerpt = "auto* p = new int(1);";

  json::Value sarif = ToSarif(RuleCatalog(), {d});
  // Round-trip through the serializer and parser: the document survives.
  json::Value parsed = json::Parse(sarif.Dump(2));

  EXPECT_EQ(parsed.at("version").AsString(), "2.1.0");
  const json::Array& runs = parsed.at("runs").AsArray();
  ASSERT_EQ(runs.size(), 1u);
  const json::Value& driver = runs[0].at("tool").at("driver");
  EXPECT_EQ(driver.at("name").AsString(), "calculon-lint");
  EXPECT_EQ(driver.at("rules").AsArray().size(), RuleCatalog().size());

  const json::Array& results = runs[0].at("results").AsArray();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].at("ruleId").AsString(), "naked-new");
  const json::Value& loc =
      results[0].at("locations").AsArray()[0].at("physicalLocation");
  EXPECT_EQ(loc.at("artifactLocation").at("uri").AsString(), "src/a/x.cc");
  EXPECT_EQ(loc.at("region").at("startLine").AsInt(), 5);
  EXPECT_FALSE(
      results[0].at("partialFingerprints").AsObject().empty());
}

TEST(SarifTest, EmptyRunIsStillValid) {
  json::Value sarif = ToSarif(RuleCatalog(), {});
  json::Value parsed = json::Parse(sarif.Dump());
  EXPECT_EQ(parsed.at("runs").AsArray()[0].at("results").AsArray().size(),
            0u);
}

}  // namespace
}  // namespace calculon::staticlint
