#include "staticlint/diagnostics.h"

#include <cstdio>
#include <string_view>

#include "util/strings.h"

namespace calculon::staticlint {

namespace {

// GitHub workflow-command values terminate on ',' / '::' and on newlines;
// percent-escape per the documented convention.
[[nodiscard]] std::string GithubEscape(std::string_view s, bool property) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '%':
        out += "%25";
        break;
      case '\r':
        out += "%0D";
        break;
      case '\n':
        out += "%0A";
        break;
      case ',':
        out += property ? "%2C" : ",";
        break;
      case ':':
        out += property ? "%3A" : ":";
        break;
      default:
        out += ch;
    }
  }
  return out;
}

}  // namespace

std::uint64_t Fingerprint(const Diagnostic& d) {
  std::uint64_t h = kFnv1aOffsetBasis;
  h = Fnv1a(h, d.rule);
  h = Fnv1a(h, "|");
  h = Fnv1a(h, d.path);
  h = Fnv1a(h, "|");
  h = Fnv1a(h, Trim(d.excerpt));
  return h;
}

std::string FingerprintHex(const Diagnostic& d) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fingerprint(d)));
  return buf;
}

std::string FormatHuman(const Diagnostic& d) {
  std::string out = d.path;
  if (d.line > 0) {
    out += ':' + std::to_string(d.line);
    if (d.col > 0) out += ':' + std::to_string(d.col);
  }
  out += ": [" + d.rule + "] " + d.message;
  std::string excerpt(Trim(d.excerpt));
  if (!excerpt.empty()) {
    if (excerpt.size() > 120) excerpt = excerpt.substr(0, 117) + "...";
    out += "\n  | " + excerpt;
  }
  return out;
}

std::string FormatGitHub(const Diagnostic& d) {
  std::string out = "::error file=" + GithubEscape(d.path, true);
  if (d.line > 0) {
    out += ",line=" + std::to_string(d.line);
    if (d.col > 0) out += ",col=" + std::to_string(d.col);
  }
  out += ",title=" + GithubEscape("calculon-lint/" + d.rule, true);
  out += "::" + GithubEscape(d.message, false);
  return out;
}

json::Value ToSarif(const std::vector<RuleInfo>& rules,
                    const std::vector<Diagnostic>& findings) {
  json::Array rule_table;
  for (const RuleInfo& r : rules) {
    json::Object rule;
    rule["id"] = r.id;
    json::Object desc;
    desc["text"] = r.summary;
    rule["shortDescription"] = json::Value(desc);
    json::Object help;
    help["text"] = r.help;
    rule["help"] = json::Value(help);
    rule_table.push_back(json::Value(rule));
  }

  json::Array results;
  for (const Diagnostic& d : findings) {
    json::Object result;
    result["ruleId"] = d.rule;
    result["level"] = "error";
    json::Object message;
    message["text"] = d.message;
    result["message"] = json::Value(message);

    json::Object artifact;
    artifact["uri"] = d.path;
    json::Object region;
    region["startLine"] = d.line > 0 ? d.line : 1;
    if (d.col > 0) region["startColumn"] = d.col;
    json::Object physical;
    physical["artifactLocation"] = json::Value(artifact);
    physical["region"] = json::Value(region);
    json::Object location;
    location["physicalLocation"] = json::Value(physical);
    result["locations"] = json::Value(json::Array{json::Value(location)});

    json::Object fingerprints;
    fingerprints["calculonLint/v1"] = FingerprintHex(d);
    result["partialFingerprints"] = json::Value(fingerprints);
    results.push_back(json::Value(result));
  }

  json::Object driver;
  driver["name"] = "calculon-lint";
  driver["informationUri"] =
      "https://github.com/calculon-cpp/calculon-cpp/blob/main/docs/"
      "correctness.md";
  driver["rules"] = json::Value(rule_table);
  json::Object tool;
  tool["driver"] = json::Value(driver);

  json::Object run;
  run["tool"] = json::Value(tool);
  run["results"] = json::Value(results);

  json::Object doc;
  doc["$schema"] =
      "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json";
  doc["version"] = "2.1.0";
  doc["runs"] = json::Value(json::Array{json::Value(run)});
  return json::Value(doc);
}

}  // namespace calculon::staticlint
