#include "staticlint/rules.h"

#include <algorithm>
#include <chrono>

#include "staticlint/match.h"
#include "util/error.h"

namespace calculon::staticlint {

ProjectConfig ProjectConfig::Default() {
  ProjectConfig c;
  c.include_root = "src";
  // The canonical dependency DAG (DESIGN.md "Layering"): a layer may
  // include itself plus the layers listed here.
  c.layer_deps = {
      {"util", {}},
      {"json", {"util"}},
      {"obs", {"util", "json"}},
      {"testing", {"util", "obs"}},
      {"staticlint", {"util", "json"}},
      {"hw", {"util", "json"}},
      {"models", {"util", "json", "hw"}},
      {"core", {"util", "json", "obs", "hw", "models"}},
      {"search",
       {"util", "json", "obs", "hw", "models", "core", "testing"}},
      {"analysis",
       {"util", "json", "obs", "hw", "models", "core", "search", "testing"}},
      {"runner",
       {"util", "json", "obs", "hw", "models", "core", "search", "testing"}},
      // The supervised fan-out layer sits on top of every sweep engine: it
      // re-runs their single-item evaluators inside forked workers.
      {"dist",
       {"util", "json", "obs", "testing", "hw", "models", "core", "search",
        "analysis", "runner"}},
  };
  // Quantity::raw() is the typed->untyped escape hatch; these are the
  // blessed serialization/report boundaries (everything else needs a
  // same-line or statement-level `// unit-ok: why`).
  c.raw_boundary_prefixes = {
      "examples/",            // demo output formatting
      "bench/",               // figure/table emitters
      "tests/",               // assertions compare raw values
      "src/json/",            // the JSON substrate itself
      "src/util/quantity.h",  // defines raw()
      "src/util/units.",      // the human-unit formatter
      "src/core/stats.cc",        // report/JSON serialization of Stats
      "src/core/layer_report.",   // per-layer report tables
      "src/analysis/audit.cc",    // invariant re-derivation in raw space
      "src/runner/study.cc",      // CSV/checkpoint serialization
      "src/runner/calibrate.cc",  // calibration report output
      "src/dist/jobs.cc",         // worker wire-format serialization
  };
  // The hw and core model layers carry all physical quantities as strong
  // types; a raw `double` with a quantity-like name in their headers is a
  // hole in the dimensional analysis (previously a grep in scripts/lint.sh).
  c.dimensional_header_prefixes = {"src/hw/", "src/core/"};
  c.quantity_name_fragments = {
      "bytes",   "byte_s",    "seconds",  "_time", "time_", "latency",
      "bandwidth", "capacity", "flops",   "_rate", "rate_",
  };
  return c;
}

namespace {

[[nodiscard]] bool HasPrefix(const std::string& s, const std::string& p) {
  return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}

[[nodiscard]] bool HasSuffix(const std::string& s, const std::string& p) {
  return s.size() >= p.size() &&
         s.compare(s.size() - p.size(), p.size(), p) == 0;
}

}  // namespace

bool ProjectConfig::InLayerRoot(const std::string& path) const {
  return HasPrefix(path, include_root + "/");
}

bool ProjectConfig::IsCli(const std::string& path) const {
  for (const std::string& suffix : cli_suffixes) {
    if (HasSuffix(path, suffix)) return true;
  }
  return false;
}

bool ProjectConfig::IsExempt(const std::string& path) const {
  for (const std::string& prefix : exempt_prefixes) {
    if (HasPrefix(path, prefix)) return true;
  }
  return false;
}

bool ProjectConfig::IsRawBoundary(const std::string& path) const {
  for (const std::string& prefix : raw_boundary_prefixes) {
    if (HasPrefix(path, prefix)) return true;
  }
  return false;
}

const std::vector<Rule>& Registry() {
  static const std::vector<Rule> kRules = {
      {{"layering",
        "include edge violates the dependency DAG",
        "Move the dependency into an allowed layer (see DESIGN.md "
        "\"Layering\") or baseline it with a justification."},
       &CheckLayering},
      {{"include-cycle", "headers form an include cycle",
        "Break the cycle with a forward declaration or by splitting the "
        "header."},
       &CheckIncludeCycles},
      {{"raw-boundary",
        "Quantity::raw() outside a serialization/report boundary",
        "Keep model arithmetic typed; annotate intentional escapes with "
        "// unit-ok: why, or extend the boundary list for new "
        "serialization files."},
       &CheckRawBoundary},
      {{"raw-double",
        "raw double with a quantity-like name in a model-layer header",
        "Physical quantities in src/hw and src/core headers use the strong "
        "types from src/util/quantity.h; annotate intentional raw doubles "
        "(format boundaries, dimension-generic helpers) with "
        "// unit-ok: why."},
       &CheckRawDouble},
      {{"quantity-varargs",
        "dimensional quantity passed through a varargs sink",
        "Passing a Quantity object through `...` is undefined behavior; "
        "pass q.raw() to printf-style sinks."},
       &CheckQuantityVarargs},
      {{"naked-new", "naked new expression",
        "Use value semantics or a smart pointer; the model layer owns no "
        "raw heap objects."},
       &CheckNakedNew},
      {{"std-cout", "std::cout in library code",
        "Library code reports through return values or an std::ostream& "
        "parameter; only CLI entry points (*_main.cc, examples) print."},
       &CheckStdCout},
      {{"pragma-once", "header missing #pragma once",
        "Every header starts with #pragma once (or a classic include "
        "guard)."},
       &CheckPragmaOnce},
      {{"self-contained-header",
        "header uses a std:: symbol without including its header",
        "Headers include what they use; add the missing <...> include."},
       &CheckSelfContainedHeader},
      {{"fork-safety",
        "fork() child block makes a call that is not a ::-qualified "
        "system call",
        "Between fork() and ::_exit(WorkerMain(...)) the child may only "
        "make async-signal-safe system calls, written ::name(...): hoist "
        "formatting, allocation and member calls above the fork."},
       &CheckForkSafety},
  };
  return kRules;
}

std::vector<RuleInfo> RuleCatalog() {
  std::vector<RuleInfo> out;
  out.reserve(Registry().size());
  for (const Rule& r : Registry()) out.push_back(r.info);
  return out;
}

LintResult RunLint(const std::vector<SourceFile>& files,
                   const ProjectConfig& config, const LintOptions& options) {
  // A filter id that names no rule would otherwise run nothing and report
  // a clean tree.
  std::string unknown;
  for (const std::string& id : options.rule_filter) {
    const bool known =
        std::any_of(Registry().begin(), Registry().end(),
                    [&](const Rule& rule) { return rule.info.id == id; });
    if (!known) unknown += (unknown.empty() ? "" : ", ") + id;
  }
  if (!unknown.empty()) {
    throw ConfigError("unknown rule id(s): " + unknown +
                      " (see --list-rules)");
  }

  // Rules run in registry order; each one's wall time feeds the CI
  // latency gate (--timing).
  LintResult result;
  std::vector<Diagnostic> all;
  const auto run_start = std::chrono::steady_clock::now();
  for (const Rule& rule : Registry()) {
    if (!options.rule_filter.empty() &&
        options.rule_filter.find(rule.info.id) == options.rule_filter.end()) {
      continue;
    }
    const auto t0 = std::chrono::steady_clock::now();
    rule.fn(files, config, &all);
    result.timings.push_back(
        {rule.info.id,
         std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count()});
  }

  // Apply generic same-line `// lint-ok(rule)` suppressions.
  std::map<std::string, std::map<int, std::set<std::string>>> suppressions;
  for (const SourceFile& f : files) {
    suppressions[f.path] = SuppressionsByLine(f);
  }
  result.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run_start)
          .count();
  for (Diagnostic& d : all) {
    auto file_it = suppressions.find(d.path);
    if (file_it != suppressions.end()) {
      auto line_it = file_it->second.find(d.line);
      if (line_it != file_it->second.end() &&
          line_it->second.count(d.rule) > 0) {
        continue;
      }
    }
    result.findings.push_back(std::move(d));
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return result;
}

}  // namespace calculon::staticlint
