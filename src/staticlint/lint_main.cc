// calculon-lint: the project-aware static analysis CLI.
//
//   calculon-lint --root <repo> [--baseline FILE] [--sarif FILE]
//                 [--rules a,b,...] [--jobs N] [--only p1,p2,...]
//                 [--expand-includers] [--format human|github]
//                 [--timing FILE] [--timing-baseline FILE] [--list-rules]
//                 [--update-baseline]
//
// Exit codes: 0 clean, 1 non-baselined findings, 2 usage/config error.
// See docs/correctness.md §6 for the rule catalog and the baseline format.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "json/json.h"
#include "staticlint/baseline.h"
#include "staticlint/diagnostics.h"
#include "staticlint/engine.h"
#include "staticlint/include_graph.h"
#include "staticlint/rules.h"
#include "util/error.h"

namespace {

using namespace calculon::staticlint;  // NOLINT: CLI convenience

struct CliOptions {
  std::string root = ".";
  std::string baseline_path;  // empty: <root>/.calculon-lint-baseline
  std::string sarif_path;
  std::set<std::string> rules;
  // Report only findings in these repo-relative paths (empty: all). The
  // whole tree is still loaded and analyzed -- cross-file rules (layering,
  // include cycles, quantity-varargs) need it -- only the report is
  // restricted. This is what scripts/lint.sh --changed uses for fast
  // pre-push feedback.
  std::set<std::string> only_paths;
  // With --only: also report findings in every transitive includer of the
  // listed files, so editing a header re-checks the .cc files it can break.
  bool expand_includers = false;
  std::string format = "human";  // or "github" (workflow annotations)
  std::string timing_path;       // write per-rule wall-time JSON here
  std::string timing_baseline;   // gate total time against this JSON
  int jobs = 1;
  bool list_rules = false;
  bool update_baseline = false;
  bool verbose = false;
};

void PrintUsage() {
  std::cout <<
      "usage: calculon-lint [--root DIR] [--baseline FILE] [--sarif FILE]\n"
      "                     [--rules a,b,...] [--jobs N] [--only p1,p2,...]\n"
      "                     [--expand-includers] [--format human|github]\n"
      "                     [--timing FILE] [--timing-baseline FILE]\n"
      "                     [--list-rules] [--update-baseline] [--verbose]\n"
      "\n"
      "Project-aware static analysis for the calculon repository: layering\n"
      "DAG, Quantity::raw() boundaries, banned patterns (including calls in\n"
      "a fork() child that are not ::-qualified system calls) and header\n"
      "hygiene. Exit 0 = clean, 1 = findings, 2 = error (including an\n"
      "unknown --rules id).\n";
}

[[nodiscard]] bool ParseArgs(int argc, char** argv, CliOptions* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "calculon-lint: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--root") {
      const char* v = next("--root");
      if (v == nullptr) return false;
      out->root = v;
    } else if (arg == "--baseline") {
      const char* v = next("--baseline");
      if (v == nullptr) return false;
      out->baseline_path = v;
    } else if (arg == "--sarif") {
      const char* v = next("--sarif");
      if (v == nullptr) return false;
      out->sarif_path = v;
    } else if (arg == "--rules") {
      const char* v = next("--rules");
      if (v == nullptr) return false;
      std::istringstream list(v);
      std::string one;
      while (std::getline(list, one, ',')) {
        if (!one.empty()) out->rules.insert(one);
      }
    } else if (arg == "--only") {
      const char* v = next("--only");
      if (v == nullptr) return false;
      std::istringstream list(v);
      std::string one;
      while (std::getline(list, one, ',')) {
        if (!one.empty()) out->only_paths.insert(one);
      }
    } else if (arg == "--expand-includers") {
      out->expand_includers = true;
    } else if (arg == "--format") {
      const char* v = next("--format");
      if (v == nullptr) return false;
      out->format = v;
      if (out->format != "human" && out->format != "github") {
        std::cerr << "calculon-lint: --format must be human or github\n";
        return false;
      }
    } else if (arg == "--timing") {
      const char* v = next("--timing");
      if (v == nullptr) return false;
      out->timing_path = v;
    } else if (arg == "--timing-baseline") {
      const char* v = next("--timing-baseline");
      if (v == nullptr) return false;
      out->timing_baseline = v;
    } else if (arg == "--jobs" || arg == "-j") {
      const char* v = next("--jobs");
      if (v == nullptr) return false;
      out->jobs = std::atoi(v);
      if (out->jobs < 1) {
        std::cerr << "calculon-lint: --jobs needs a positive integer\n";
        return false;
      }
    } else if (arg == "--list-rules") {
      out->list_rules = true;
    } else if (arg == "--update-baseline") {
      out->update_baseline = true;
    } else if (arg == "--verbose" || arg == "-v") {
      out->verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    } else {
      std::cerr << "calculon-lint: unknown argument '" << arg << "'\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) return 2;

  if (cli.list_rules) {
    for (const RuleInfo& r : RuleCatalog()) {
      std::printf("%-22s %s\n", r.id.c_str(), r.summary.c_str());
    }
    return 0;
  }

  try {
    ProjectConfig config = ProjectConfig::Default();
    TreeOptions tree_options;
    tree_options.jobs = cli.jobs;
    std::vector<SourceFile> files = LoadTree(cli.root, tree_options);
    if (files.empty()) {
      std::cerr << "calculon-lint: no sources under " << cli.root << "\n";
      return 2;
    }

    LintOptions options;
    options.rule_filter = cli.rules;
    options.jobs = cli.jobs;
    LintResult result = RunLint(files, config, options);

    std::string baseline_path = cli.baseline_path.empty()
                                    ? cli.root + "/.calculon-lint-baseline"
                                    : cli.baseline_path;
    if (cli.update_baseline) {
      std::ofstream out(baseline_path, std::ios::binary);
      out << RenderBaseline(result.findings, RuleCatalog());
      std::cout << "calculon-lint: wrote " << result.findings.size()
                << " entries to " << baseline_path << "\n";
      return 0;
    }

    Baseline baseline = LoadBaseline(baseline_path);
    BaselineApplication app = ApplyBaseline(baseline, result.findings);
    if (!cli.only_paths.empty() && cli.expand_includers) {
      const IncludeGraph graph =
          IncludeGraph::Build(files, config.include_root);
      cli.only_paths = graph.ExpandWithIncluders(cli.only_paths);
    }
    if (!cli.only_paths.empty()) {
      std::vector<Diagnostic> kept;
      for (Diagnostic& d : app.fresh) {
        if (cli.only_paths.count(d.path) > 0) kept.push_back(std::move(d));
      }
      app.fresh = std::move(kept);
    }

    if (!cli.sarif_path.empty()) {
      calculon::json::WriteFile(cli.sarif_path,
                                ToSarif(RuleCatalog(), app.fresh), 2);
    }

    for (const Diagnostic& d : app.fresh) {
      if (cli.format == "github") {
        std::cout << FormatGitHub(d) << "\n";
      } else {
        std::cout << FormatHuman(d) << "\n";
      }
    }
    if (cli.verbose) {
      for (const Diagnostic& d : app.suppressed) {
        std::cout << "suppressed (baseline): " << FormatHuman(d) << "\n";
      }
    }
    for (const BaselineEntry& e : app.stale) {
      std::cout << "warning: stale baseline entry (line " << e.line << "): "
                << e.rule << " " << e.path << " — prune it\n";
    }

    if (!cli.timing_path.empty()) {
      calculon::json::Object doc;
      doc["files"] = static_cast<double>(files.size());
      doc["jobs"] = static_cast<double>(cli.jobs);
      doc["total_seconds"] = result.total_seconds;
      calculon::json::Array rules;
      for (const RuleTiming& t : result.timings) {
        calculon::json::Object one;
        one["rule"] = t.rule;
        one["seconds"] = t.seconds;
        rules.push_back(calculon::json::Value(one));
      }
      doc["rules"] = calculon::json::Value(rules);
      calculon::json::WriteFile(cli.timing_path,
                                calculon::json::Value(doc), 2);
    }

    // Latency gate: the run fails when the rule pass takes more than 2x
    // the recorded baseline (with an absolute floor so CI machine jitter
    // on a fast pass cannot trip it).
    bool timing_failed = false;
    if (!cli.timing_baseline.empty()) {
      const calculon::json::Value base =
          calculon::json::ParseFile(cli.timing_baseline);
      const double base_total = base.GetDouble("total_seconds", 0.0);
      const double floor_seconds = base.GetDouble("floor_seconds", 0.0);
      const double budget = std::max(2.0 * base_total, floor_seconds);
      if (budget > 0.0 && result.total_seconds > budget) {
        timing_failed = true;
        std::cout << "calculon-lint: TIMING GATE FAILED: rule pass took "
                  << result.total_seconds << "s, budget " << budget
                  << "s (2x baseline " << base_total << "s, floor "
                  << floor_seconds << "s); update "
                  << cli.timing_baseline
                  << " only if the slowdown is intentional\n";
      }
    }

    std::cout << "calculon-lint: " << files.size() << " files, "
              << app.fresh.size() << " finding(s)";
    if (!app.suppressed.empty()) {
      std::cout << ", " << app.suppressed.size() << " baselined";
    }
    if (!app.stale.empty()) {
      std::cout << ", " << app.stale.size() << " stale baseline entr"
                << (app.stale.size() == 1 ? "y" : "ies");
    }
    std::cout << "\n";
    return (app.fresh.empty() && !timing_failed) ? 0 : 1;
  } catch (const calculon::ConfigError& e) {
    std::cerr << "calculon-lint: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "calculon-lint: internal error: " << e.what() << "\n";
    return 2;
  }
}
