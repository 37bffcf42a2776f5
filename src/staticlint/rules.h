// The pluggable rule engine of calculon-lint.
//
// A rule is a pure function over the lexed tree: it sees every file plus
// the project policy and appends Diagnostics. Rules never read the
// filesystem, so tests drive them with in-memory fixture snippets.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "staticlint/diagnostics.h"
#include "staticlint/token.h"

namespace calculon::staticlint {

// The project policy: which layers may include which, where Quantity::raw()
// is a legal boundary, and which files are CLI entry points. Default() is
// the checked-in calculon policy (mirrored in DESIGN.md); tests build
// reduced configs.
struct ProjectConfig {
  // Include root for quoted includes ("util/check.h" resolves against it).
  std::string include_root = "src";

  // layer -> layers it may include (its own layer is always allowed).
  std::map<std::string, std::set<std::string>> layer_deps;

  // Path prefixes (repo-relative) where .raw() is an allowed boundary.
  std::vector<std::string> raw_boundary_prefixes;

  // Headers under these prefixes must not declare raw `double`s with
  // quantity-like names (the raw-double rule; use src/util/quantity.h).
  std::vector<std::string> dimensional_header_prefixes;

  // Identifier fragments that mark a name as quantity-like.
  std::vector<std::string> quantity_name_fragments;

  // Path suffixes marking CLI entry points (std::cout allowed there).
  std::vector<std::string> cli_suffixes = {"_main.cc"};

  // Path prefixes exempt from library-code rules entirely (generated /
  // fixture trees nested under a scanned root).
  std::vector<std::string> exempt_prefixes;

  // Known Quantity type names (return types treated as dimensional).
  std::set<std::string> quantity_types = {
      "Bytes",          "Seconds",       "Flops",
      "BytesPerSecond", "FlopsPerSecond", "PerSecond"};

  // printf-style varargs sinks checked by the quantity-varargs rule.
  std::set<std::string> varargs_sinks = {
      "printf",   "fprintf",    "sprintf",          "snprintf",
      "vprintf",  "vfprintf",   "vsnprintf",        "CALC_CHECK",
      "CALC_DCHECK"};

  [[nodiscard]] static ProjectConfig Default();

  [[nodiscard]] bool InLayerRoot(const std::string& path) const;
  [[nodiscard]] bool IsCli(const std::string& path) const;
  [[nodiscard]] bool IsExempt(const std::string& path) const;
  [[nodiscard]] bool IsRawBoundary(const std::string& path) const;
};

// One registered rule: catalog metadata plus the checker.
using RuleFn = void (*)(const std::vector<SourceFile>&, const ProjectConfig&,
                        std::vector<Diagnostic>*);
struct Rule {
  RuleInfo info;
  RuleFn fn;
};

// All registered rules, in catalog order.
[[nodiscard]] const std::vector<Rule>& Registry();

// RuleInfo table for SARIF.
[[nodiscard]] std::vector<RuleInfo> RuleCatalog();

struct LintOptions {
  // Run only these rule ids (empty = all). RunLint throws ConfigError
  // when one of them names no registered rule.
  std::set<std::string> rule_filter;
};

// Wall time of one rule's run, for the CI latency gate (--timing).
struct RuleTiming {
  std::string rule;
  double seconds = 0.0;
};

struct LintResult {
  std::vector<Diagnostic> findings;  // sorted by path, line, rule
  std::vector<RuleTiming> timings;   // registry order; one entry per rule run
  double total_seconds = 0.0;        // wall time of the whole rule pass
};

// Runs every (selected) rule over the tree and applies inline
// `// lint-ok(rule)` suppressions, the only way to silence a finding.
[[nodiscard]] LintResult RunLint(const std::vector<SourceFile>& files,
                                 const ProjectConfig& config,
                                 const LintOptions& options = {});

// Individual rule entry points (exposed for focused unit tests).
void CheckLayering(const std::vector<SourceFile>& files,
                   const ProjectConfig& config,
                   std::vector<Diagnostic>* out);
void CheckIncludeCycles(const std::vector<SourceFile>& files,
                        const ProjectConfig& config,
                        std::vector<Diagnostic>* out);
void CheckRawBoundary(const std::vector<SourceFile>& files,
                      const ProjectConfig& config,
                      std::vector<Diagnostic>* out);
void CheckRawDouble(const std::vector<SourceFile>& files,
                    const ProjectConfig& config,
                    std::vector<Diagnostic>* out);
void CheckQuantityVarargs(const std::vector<SourceFile>& files,
                          const ProjectConfig& config,
                          std::vector<Diagnostic>* out);
void CheckNakedNew(const std::vector<SourceFile>& files,
                   const ProjectConfig& config,
                   std::vector<Diagnostic>* out);
void CheckStdCout(const std::vector<SourceFile>& files,
                  const ProjectConfig& config,
                  std::vector<Diagnostic>* out);
void CheckPragmaOnce(const std::vector<SourceFile>& files,
                     const ProjectConfig& config,
                     std::vector<Diagnostic>* out);
void CheckSelfContainedHeader(const std::vector<SourceFile>& files,
                              const ProjectConfig& config,
                              std::vector<Diagnostic>* out);
void CheckForkSafety(const std::vector<SourceFile>& files,
                     const ProjectConfig& config,
                     std::vector<Diagnostic>* out);

// Used by the quantity-varargs rule and exposed for tests: the names of
// functions whose declared return type is a quantity type, collected from
// every file in the tree.
struct DeclIndex {
  std::set<std::string> quantity_returning;
};
[[nodiscard]] DeclIndex BuildDeclIndex(const std::vector<SourceFile>& files,
                                       const ProjectConfig& config);

}  // namespace calculon::staticlint
