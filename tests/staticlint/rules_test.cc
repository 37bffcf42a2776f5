// Rule tests: each rule gets positive fixtures (a seeded violation it must
// flag) and negative fixtures (idiomatic code it must not flag), driven
// through in-memory SourceFiles and a reduced ProjectConfig.
#include "staticlint/rules.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "staticlint/lexer.h"
#include "util/error.h"

namespace calculon::staticlint {
namespace {

ProjectConfig TestConfig() {
  ProjectConfig config;
  config.include_root = "src";
  config.layer_deps = {{"a", {}}, {"b", {"a"}}};
  config.raw_boundary_prefixes = {"src/a/json_io."};
  return config;
}

std::vector<Diagnostic> RunRule(RuleFn fn,
                            const std::vector<SourceFile>& files,
                            const ProjectConfig& config) {
  std::vector<Diagnostic> out;
  fn(files, config, &out);
  return out;
}

std::vector<SourceFile> One(const std::string& path,
                            const std::string& text) {
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile(path, text));
  return files;
}

// -------------------------------------------------------------- raw boundary

TEST(RawBoundaryTest, FlagsRawOutsideBoundary) {
  auto files = One("src/a/model.cc",
                   "double f(Bytes b) {\n"
                   "  return b.raw();\n"
                   "}\n");
  auto out = RunRule(CheckRawBoundary, files, TestConfig());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "raw-boundary");
  EXPECT_EQ(out[0].line, 2);
}

TEST(RawBoundaryTest, AllowsBoundaryFile) {
  auto files = One("src/a/json_io.cc",
                   "double f(Bytes b) { return b.raw(); }\n");
  EXPECT_TRUE(RunRule(CheckRawBoundary, files, TestConfig()).empty());
}

TEST(RawBoundaryTest, HonorsUnitOkOnRawLine) {
  auto files = One("src/a/model.cc",
                   "double f(Bytes b) {\n"
                   "  return b.raw();  // unit-ok: report boundary\n"
                   "}\n");
  EXPECT_TRUE(RunRule(CheckRawBoundary, files, TestConfig()).empty());
}

TEST(RawBoundaryTest, HonorsUnitOkAnywhereInStatement) {
  // Multi-line statement: the marker sits on the first line, the .raw()
  // call on a continuation line.
  auto files = One("src/a/model.cc",
                   "void f(Bytes b) {\n"
                   "  CALC_DCHECK(ok,  // unit-ok: diagnostic message\n"
                   "              \"b = %g\",\n"
                   "              b.raw());\n"
                   "}\n");
  EXPECT_TRUE(RunRule(CheckRawBoundary, files, TestConfig()).empty());
}

TEST(RawDoubleTest, FlagsQuantityNamedDoubleInModelHeader) {
  ProjectConfig config = TestConfig();
  config.dimensional_header_prefixes = {"src/a/"};
  config.quantity_name_fragments = {"bytes", "latency"};
  auto files = One("src/a/model.h",
                   "#pragma once\n"
                   "struct Link { double latency_s; };\n");
  auto out = RunRule(CheckRawDouble, files, config);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "raw-double");
  EXPECT_EQ(out[0].line, 2);
}

TEST(RawDoubleTest, IgnoresNonQuantityNamesAndNonHeaders) {
  ProjectConfig config = TestConfig();
  config.dimensional_header_prefixes = {"src/a/"};
  config.quantity_name_fragments = {"bytes"};
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile("src/a/model.h",
                                 "#pragma once\n"
                                 "double efficiency;\n"));
  files.push_back(MakeSourceFile("src/a/model.cc",
                                 "double bytes_used = 0.0;\n"));
  files.push_back(MakeSourceFile("src/b/other.h",
                                 "#pragma once\n"
                                 "double bytes_used;\n"));
  EXPECT_TRUE(RunRule(CheckRawDouble, files, config).empty());
}

TEST(RawDoubleTest, HonorsUnitOkMarker) {
  ProjectConfig config = TestConfig();
  config.dimensional_header_prefixes = {"src/a/"};
  config.quantity_name_fragments = {"bytes"};
  auto files = One("src/a/model.h",
                   "#pragma once\n"
                   "double bytes_log10;  // unit-ok: log-space scalar\n");
  EXPECT_TRUE(RunRule(CheckRawDouble, files, config).empty());
}

TEST(RawBoundaryTest, MarkerInStringDoesNotSuppress) {
  auto files = One("src/a/model.cc",
                   "double f(Bytes b) {\n"
                   "  const char* s = \"unit-ok\"; return b.raw();\n"
                   "}\n");
  auto out = RunRule(CheckRawBoundary, files, TestConfig());
  EXPECT_EQ(out.size(), 1u);
}

// ----------------------------------------------------------- banned patterns

TEST(QuantityVarargsTest, FlagsQuantityThroughPrintf) {
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile("src/a/api.h",
                                 "#pragma once\n"
                                 "[[nodiscard]] Seconds Elapsed();\n"));
  files.push_back(MakeSourceFile("src/a/use.cc",
                                 "void f() {\n"
                                 "  printf(\"t = %g\", Elapsed());\n"
                                 "}\n"));
  auto out = RunRule(CheckQuantityVarargs, files, TestConfig());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "quantity-varargs");
  EXPECT_EQ(out[0].path, "src/a/use.cc");
}

TEST(QuantityVarargsTest, RawCallIsFine) {
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile("src/a/api.h",
                                 "#pragma once\n"
                                 "[[nodiscard]] Seconds Elapsed();\n"));
  files.push_back(MakeSourceFile("src/a/use.cc",
                                 "void f() {\n"
                                 "  printf(\"t = %g\", Elapsed().raw());\n"
                                 "}\n"));
  EXPECT_TRUE(RunRule(CheckQuantityVarargs, files, TestConfig()).empty());
}

TEST(QuantityVarargsTest, FormatArgumentsAreNotVarargs) {
  // The quantity call inside the *format* argument list position (before
  // the last string literal) is not passed through varargs.
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile("src/a/api.h",
                                 "#pragma once\n"
                                 "[[nodiscard]] Seconds Elapsed();\n"));
  files.push_back(MakeSourceFile(
      "src/a/use.cc",
      "void f() {\n"
      "  CALC_DCHECK(Elapsed() > Seconds(0.0), \"must be positive\");\n"
      "}\n"));
  EXPECT_TRUE(RunRule(CheckQuantityVarargs, files, TestConfig()).empty());
}

TEST(NakedNewTest, FlagsNewInLibraryCode) {
  auto files = One("src/a/alloc.cc",
                   "void f() { auto* p = new int(3); }\n");
  auto out = RunRule(CheckNakedNew, files, TestConfig());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "naked-new");
}

TEST(NakedNewTest, MakeUniqueIsFine) {
  auto files = One("src/a/alloc.cc",
                   "void f() { auto p = std::make_unique<int>(3); }\n");
  EXPECT_TRUE(RunRule(CheckNakedNew, files, TestConfig()).empty());
}

TEST(StdCoutTest, FlagsCoutInLibraryCode) {
  auto files = One("src/a/report.cc",
                   "#include <iostream>\n"
                   "void f() { std::cout << \"hi\"; }\n");
  auto out = RunRule(CheckStdCout, files, TestConfig());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "std-cout");
}

TEST(StdCoutTest, AllowedInCliFiles) {
  auto files = One("src/a/report_main.cc",
                   "#include <iostream>\n"
                   "int main() { std::cout << \"hi\"; }\n");
  EXPECT_TRUE(RunRule(CheckStdCout, files, TestConfig()).empty());
}

TEST(StdCoutTest, AllowedOutsideSrc) {
  auto files = One("examples/demo.cpp",
                   "#include <iostream>\n"
                   "int main() { std::cout << \"hi\"; }\n");
  EXPECT_TRUE(RunRule(CheckStdCout, files, TestConfig()).empty());
}

// ------------------------------------------------------------ header hygiene

TEST(PragmaOnceTest, FlagsUnguardedHeader) {
  auto files = One("src/a/open.h", "int x;\n");
  auto out = RunRule(CheckPragmaOnce, files, TestConfig());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "pragma-once");
}

TEST(PragmaOnceTest, AcceptsPragmaOnceAndClassicGuard) {
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile("src/a/modern.h",
                                 "// comment first is fine\n"
                                 "#pragma once\nint x;\n"));
  files.push_back(MakeSourceFile("src/a/classic.h",
                                 "#ifndef A_CLASSIC_H\n"
                                 "#define A_CLASSIC_H\n"
                                 "int y;\n"
                                 "#endif\n"));
  EXPECT_TRUE(RunRule(CheckPragmaOnce, files, TestConfig()).empty());
}

TEST(PragmaOnceTest, SourceFilesAreIgnored) {
  auto files = One("src/a/impl.cc", "int x;\n");
  EXPECT_TRUE(RunRule(CheckPragmaOnce, files, TestConfig()).empty());
}

TEST(SelfContainedHeaderTest, FlagsMissingProvider) {
  auto files = One("src/a/uses_vector.h",
                   "#pragma once\n"
                   "std::vector<int> Items();\n");
  auto out = RunRule(CheckSelfContainedHeader, files, TestConfig());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "self-contained-header");
  EXPECT_NE(out[0].message.find("vector"), std::string::npos);
}

TEST(SelfContainedHeaderTest, AcceptsAnyListedProvider) {
  // size_t is satisfied by either <cstddef> or <cstdint>.
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile("src/a/one.h",
                                 "#pragma once\n#include <cstddef>\n"
                                 "std::size_t N();\n"));
  files.push_back(MakeSourceFile("src/a/two.h",
                                 "#pragma once\n#include <cstdint>\n"
                                 "std::size_t M();\n"));
  EXPECT_TRUE(RunRule(CheckSelfContainedHeader, files, TestConfig()).empty());
}

// --------------------------------------------------------------- fork-safety

constexpr const char kForkChildFormats[] =
    "int WorkerMain(int in, int out);\n"
    "bool Spawn() {\n"
    "  const pid_t pid = ::fork();\n"
    "  if (pid == -1) return false;\n"
    "  if (pid == 0) {\n"
    "    const std::string path = StrFormat(\"w-%d.log\", 1);\n"
    "    ::_exit(WorkerMain(0, 1));\n"
    "  }\n"
    "  return true;\n"
    "}\n";

TEST(ForkSafetyTest, FlagsFormattingInChildRegion) {
  auto files = One("src/dist/spawn.cc", kForkChildFormats);
  auto out = RunRule(CheckForkSafety, files, TestConfig());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "fork-safety");
  EXPECT_EQ(out[0].line, 6);
  EXPECT_NE(out[0].message.find("StrFormat"), std::string::npos);
  EXPECT_NE(out[0].message.find("line 3"), std::string::npos);
}

TEST(ForkSafetyTest, FingerprintIsContentStable) {
  auto files = One("src/dist/spawn.cc", kForkChildFormats);
  auto out = RunRule(CheckForkSafety, files, TestConfig());
  ASSERT_EQ(out.size(), 1u);
  const std::string fp = FingerprintHex(out[0]);

  // Unrelated lines above shift every line number; the fingerprint holds.
  auto shifted = One("src/dist/spawn.cc",
                     "// comment\n// comment\n\n" +
                         std::string(kForkChildFormats));
  auto out2 = RunRule(CheckForkSafety, shifted, TestConfig());
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_NE(out2[0].line, out[0].line);
  EXPECT_EQ(FingerprintHex(out2[0]), fp);
}

TEST(ForkSafetyTest, FlagsTransitiveViolationThroughResolvedCall) {
  // The rule does not follow calls: a project helper is rejected at its
  // call site, whatever it does, so an allocation behind it cannot hide.
  auto files = One("src/dist/spawn.cc",
                   "void Prepare() { auto* p = new int(1); }\n"
                   "bool Spawn() {\n"
                   "  const pid_t pid = ::fork();\n"
                   "  if (pid == 0) {\n"
                   "    Prepare();\n"
                   "    ::_exit(0);\n"
                   "  }\n"
                   "  return true;\n"
                   "}\n");
  auto out = RunRule(CheckForkSafety, files, TestConfig());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 5);
  EXPECT_NE(out[0].message.find("Prepare"), std::string::npos);
}

TEST(ForkSafetyTest, AcceptsAsyncSignalSafeChild) {
  // The supervisor's pattern: loops, conditions and field reads around
  // ::-qualified system calls, then ::_exit(WorkerMain(...)). The parent
  // side after the child block is not checked.
  auto files = One("src/dist/spawn.cc",
                   "int WorkerMain(int in, int out) { return 0; }\n"
                   "bool Spawn(const Pool& pool, const char* log) {\n"
                   "  const pid_t pid = ::fork();\n"
                   "  if (pid == -1) {\n"
                   "    Report(StrFormat(\"fork failed\"));\n"
                   "    return false;\n"
                   "  }\n"
                   "  if (pid == 0) {\n"
                   "    for (const Slot& other : pool.slots) {\n"
                   "      if (other.fd != -1) ::close(other.fd);\n"
                   "    }\n"
                   "    if (log != nullptr) {\n"
                   "      const int fd = ::open(log, O_WRONLY, 0644);\n"
                   "      ::dup2(fd, 2);\n"
                   "    }\n"
                   "    ::_exit(WorkerMain(0, 1));\n"
                   "  }\n"
                   "  Register(pid, StrFormat(\"%d\", pid));\n"
                   "  return true;\n"
                   "}\n");
  EXPECT_TRUE(RunRule(CheckForkSafety, files, TestConfig()).empty());
}

TEST(ForkSafetyTest, WorkerEntryIsATraversalBoundary) {
  // WorkerMain itself allocates (it is allowed to: it sets up the worker
  // loop); the child block handing over to it stays clean.
  auto files = One("src/dist/spawn.cc",
                   "int WorkerMain(int in, int out) {\n"
                   "  auto* arena = new char[1024];\n"
                   "  return arena[0];\n"
                   "}\n"
                   "bool Spawn() {\n"
                   "  const pid_t pid = ::fork();\n"
                   "  if (pid == 0) { ::_exit(WorkerMain(0, 1)); }\n"
                   "  return true;\n"
                   "}\n");
  EXPECT_TRUE(RunRule(CheckForkSafety, files, TestConfig()).empty());
}

TEST(ForkSafetyTest, FlagsMemberNamespacedAndBareWorkerCalls) {
  // Only a leading `::` marks a system call, and WorkerMain is allowed
  // only as the argument of ::_exit.
  auto files = One("src/dist/spawn.cc",
                   "bool Spawn(const std::string& log) {\n"
                   "  const pid_t pid = ::fork();\n"
                   "  if (pid == 0) {\n"
                   "    ::open(log.c_str(), 0);\n"
                   "    const auto n = std::strlen(\"x\");\n"
                   "    WorkerMain(0, 1);\n"
                   "    ::_exit(0);\n"
                   "  }\n"
                   "  return true;\n"
                   "}\n");
  auto out = RunRule(CheckForkSafety, files, TestConfig());
  std::vector<int> lines;
  for (const Diagnostic& d : out) lines.push_back(d.line);
  EXPECT_EQ(lines, (std::vector<int>{4, 5, 6}));
}

TEST(ForkSafetyTest, ForkWithoutAChildBlockIsFlagged) {
  // A child side the rule cannot find is a finding, not a pass.
  auto files = One("src/dist/spawn.cc",
                   "bool Spawn() {\n"
                   "  const pid_t pid = ::fork();\n"
                   "  if (pid != 0) return pid > 0;\n"
                   "  Child();\n"
                   "}\n"
                   "void Later(int x) {\n"
                   "  if (x == 0) { Log(); }\n"
                   "}\n");
  auto out = RunRule(CheckForkSafety, files, TestConfig());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 2);
  EXPECT_NE(out[0].message.find("no `if (pid == 0)"), std::string::npos);
}

// ------------------------------------------------------------ engine / RunLint

TEST(RunLintTest, SortsFindingsAndAppliesRuleFilter) {
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile("src/a/zzz.h", "int x;\n"));
  files.push_back(MakeSourceFile("src/a/aaa.cc",
                                 "void f() { auto* p = new int(1); }\n"));
  LintResult all = RunLint(files, TestConfig());
  // naked-new in aaa.cc, pragma-once in zzz.h.
  ASSERT_EQ(all.findings.size(), 2u);
  EXPECT_EQ(all.findings[0].path, "src/a/aaa.cc");  // sorted by path
  EXPECT_EQ(all.findings[1].path, "src/a/zzz.h");

  LintOptions only_new;
  only_new.rule_filter = {"naked-new"};
  LintResult filtered = RunLint(files, TestConfig(), only_new);
  ASSERT_EQ(filtered.findings.size(), 1u);
  EXPECT_EQ(filtered.findings[0].rule, "naked-new");
}

TEST(RunLintTest, LintOkSuppressesOnSameLine) {
  auto files = One("src/a/alloc.cc",
                   "void f() {\n"
                   "  auto* p = new int(1);  // lint-ok(naked-new): arena\n"
                   "}\n");
  EXPECT_EQ(RunRule(CheckNakedNew, files, TestConfig()).size(), 1u);
  EXPECT_TRUE(RunLint(files, TestConfig()).findings.empty());
}

TEST(RunLintTest, ParallelRunMatchesSerialAndTimesEachRule) {
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile("src/a/zzz.h", "int x;\n"));
  files.push_back(MakeSourceFile("src/a/aaa.cc",
                                 "void f() { auto* p = new int(1); }\n"));
  files.push_back(MakeSourceFile("src/a/cout.cc",
                                 "void g() { std::cout << 1; }\n"));
  const LintResult result = RunLint(files, TestConfig());
  std::vector<std::string> found;
  for (const Diagnostic& d : result.findings) found.push_back(d.rule);
  EXPECT_EQ(found, (std::vector<std::string>{"naked-new", "std-cout",
                                             "pragma-once"}));
  // One wall time per rule, in registry order, for the latency gate.
  ASSERT_EQ(result.timings.size(), Registry().size());
  for (std::size_t i = 0; i < Registry().size(); ++i) {
    EXPECT_EQ(result.timings[i].rule, Registry()[i].info.id);
  }
  EXPECT_GT(result.total_seconds, 0.0);
}

TEST(RunLintTest, RejectsUnknownRuleIds) {
  // A filter naming no rule would run nothing and report a clean tree.
  auto files = One("src/a/alloc.cc",
                   "void f() { auto* p = new int(1); }\n");
  LintOptions options;
  options.rule_filter = {"naked-new", "no-such-rule", "guarded-field"};
  try {
    (void)RunLint(files, TestConfig(), options);
    FAIL() << "unknown rule ids were accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-rule"), std::string::npos) << what;
    EXPECT_NE(what.find("guarded-field"), std::string::npos) << what;
    EXPECT_EQ(what.find("naked-new"), std::string::npos) << what;
  }
}

TEST(RunLintTest, RegistryHasTenRulesWithUniqueIds) {
  const auto& rules = Registry();
  EXPECT_EQ(rules.size(), 10u);
  std::set<std::string> ids;
  for (const Rule& r : rules) {
    EXPECT_TRUE(ids.insert(r.info.id).second) << "duplicate " << r.info.id;
    EXPECT_FALSE(r.info.summary.empty());
    EXPECT_FALSE(r.info.help.empty());
  }
  EXPECT_EQ(RuleCatalog().size(), rules.size());
}

TEST(DeclIndexTest, CollectsQuantityReturningNames) {
  auto files = One("src/a/api.h",
                   "#pragma once\n"
                   "[[nodiscard]] Result<int> Load(const std::string& p);\n"
                   "[[nodiscard]] Seconds Elapsed();\n"
                   "void Plain();\n");
  DeclIndex index = BuildDeclIndex(files, TestConfig());
  EXPECT_EQ(index.quantity_returning.count("Elapsed"), 1u);
  EXPECT_EQ(index.quantity_returning.count("Load"), 0u);
  EXPECT_EQ(index.quantity_returning.count("Plain"), 0u);
}

}  // namespace
}  // namespace calculon::staticlint
