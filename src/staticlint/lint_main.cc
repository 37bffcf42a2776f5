// calculon-lint: the project-aware static analysis CLI.
//
//   calculon-lint --root <repo> [--sarif FILE] [--rules a,b,...]
//                 [--format human|github] [--timing FILE]
//                 [--timing-baseline FILE] [--list-rules]
//
// One serial pass over the whole tree; in-code `// lint-ok(<rule>): why`
// and `// unit-ok: why` are the only suppressions.
// Exit codes: 0 clean, 1 findings, 2 usage/config error.
// See docs/correctness.md §6 for the rule catalog.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "json/json.h"
#include "staticlint/diagnostics.h"
#include "staticlint/engine.h"
#include "staticlint/rules.h"
#include "util/error.h"

namespace {

using namespace calculon::staticlint;  // NOLINT: CLI convenience

struct CliOptions {
  std::string root = ".";
  std::string sarif_path;
  std::set<std::string> rules;
  std::string format = "human";  // or "github" (workflow annotations)
  std::string timing_path;       // write per-rule wall-time JSON here
  std::string timing_baseline;   // gate total time against this JSON
  bool list_rules = false;
};

void PrintUsage() {
  std::cout <<
      "usage: calculon-lint [--root DIR] [--sarif FILE] [--rules a,b,...]\n"
      "                     [--format human|github] [--timing FILE]\n"
      "                     [--timing-baseline FILE] [--list-rules]\n"
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
    } else if (arg == "--list-rules") {
      out->list_rules = true;
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
    std::vector<SourceFile> files = LoadTree(cli.root);
    if (files.empty()) {
      std::cerr << "calculon-lint: no sources under " << cli.root << "\n";
      return 2;
    }

    LintOptions options;
    options.rule_filter = cli.rules;
    const LintResult result =
        RunLint(files, ProjectConfig::Default(), options);

    if (!cli.sarif_path.empty()) {
      calculon::json::WriteFile(cli.sarif_path,
                                ToSarif(RuleCatalog(), result.findings), 2);
    }

    for (const Diagnostic& d : result.findings) {
      if (cli.format == "github") {
        std::cout << FormatGitHub(d) << "\n";
      } else {
        std::cout << FormatHuman(d) << "\n";
      }
    }

    if (!cli.timing_path.empty()) {
      calculon::json::Object doc;
      doc["files"] = static_cast<double>(files.size());
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
              << result.findings.size() << " finding(s)\n";
    return (result.findings.empty() && !timing_failed) ? 0 : 1;
  } catch (const calculon::ConfigError& e) {
    std::cerr << "calculon-lint: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "calculon-lint: internal error: " << e.what() << "\n";
    return 2;
  }
}
