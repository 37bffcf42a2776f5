// Diagnostics for calculon-lint: the finding record, human-readable
// formatting, and SARIF 2.1.0 serialization (built on src/json so CI can
// upload the report as a code-scanning artifact).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "json/json.h"

namespace calculon::staticlint {

// Metadata for one lint rule; the engine owns the catalog and SARIF embeds
// it as the tool's rule table.
struct RuleInfo {
  std::string id;          // e.g. "layering"
  std::string summary;     // one-line description
  std::string help;        // how to fix / how to suppress
};

struct Diagnostic {
  std::string rule;     // RuleInfo::id
  std::string path;     // repository-relative
  int line = 0;         // 1-based; 0 = whole-file finding
  int col = 0;          // 1-based; 0 = unknown
  std::string message;  // specific finding text
  std::string excerpt;  // the offending source line, trimmed (may be empty)
};

// Stable fingerprint for SARIF's partialFingerprints: rule, path, and the
// *content* of the offending line (not its number), so code scanning keeps
// matching a finding across unrelated edits that shift its line.
[[nodiscard]] std::uint64_t Fingerprint(const Diagnostic& d);
[[nodiscard]] std::string FingerprintHex(const Diagnostic& d);

// "path:line:col: [rule] message" (+ "  | excerpt" on a second line).
[[nodiscard]] std::string FormatHuman(const Diagnostic& d);

// GitHub Actions workflow-command form, one line:
//   ::error file=src/a.cc,line=12,col=3,title=calculon-lint/rule::message
// so CI findings surface inline on the PR diff.
[[nodiscard]] std::string FormatGitHub(const Diagnostic& d);

// Full SARIF 2.1.0 document for the run.
[[nodiscard]] json::Value ToSarif(const std::vector<RuleInfo>& rules,
                                  const std::vector<Diagnostic>& findings);

}  // namespace calculon::staticlint
