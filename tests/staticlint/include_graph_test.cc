// Include-graph tests: edge construction, layer mapping, cycle detection,
// and the layering rule over a reduced layer DAG.
#include "staticlint/include_graph.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "staticlint/lexer.h"
#include "staticlint/rules.h"

namespace calculon::staticlint {
namespace {

// A reduced project: layer "a" is the base, "b" may include "a".
ProjectConfig TwoLayerConfig() {
  ProjectConfig config;
  config.include_root = "src";
  config.layer_deps = {{"a", {}}, {"b", {"a"}}};
  return config;
}

TEST(IncludeGraphTest, BuildsQuotedEdgesOnly) {
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile("src/a/base.h", "#pragma once\n"));
  files.push_back(MakeSourceFile(
      "src/b/user.cc",
      "#include \"a/base.h\"\n#include <vector>\n"
      "#include \"a/unknown.h\"\n"));
  IncludeGraph g = IncludeGraph::Build(files, "src");
  // <vector> (angled) and a/unknown.h (not in the file set) produce no
  // edges; only the resolved quoted include does.
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_EQ(g.edges()[0].from, "src/b/user.cc");
  EXPECT_EQ(g.edges()[0].to, "src/a/base.h");
  EXPECT_EQ(g.edges()[0].line, 1);
}

TEST(IncludeGraphTest, LayerOf) {
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile("src/a/base.h", ""));
  IncludeGraph g = IncludeGraph::Build(files, "src");
  EXPECT_EQ(g.LayerOf("src/a/base.h"), "a");
  EXPECT_EQ(g.LayerOf("src/b/deep/nested.cc"), "b");
  EXPECT_EQ(g.LayerOf("examples/demo.cpp"), "");
}

TEST(IncludeGraphTest, NoCyclesInDag) {
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile("src/a/one.h", "#pragma once\n"));
  files.push_back(MakeSourceFile(
      "src/a/two.h", "#pragma once\n#include \"a/one.h\"\n"));
  files.push_back(MakeSourceFile(
      "src/a/three.h", "#pragma once\n#include \"a/two.h\"\n"
                       "#include \"a/one.h\"\n"));
  IncludeGraph g = IncludeGraph::Build(files, "src");
  EXPECT_TRUE(g.FindCycles().empty());
}

TEST(IncludeGraphTest, DetectsTwoNodeCycle) {
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile(
      "src/a/x.h", "#pragma once\n#include \"a/y.h\"\n"));
  files.push_back(MakeSourceFile(
      "src/a/y.h", "#pragma once\n#include \"a/x.h\"\n"));
  IncludeGraph g = IncludeGraph::Build(files, "src");
  auto cycles = g.FindCycles();
  ASSERT_EQ(cycles.size(), 1u);
  // Reported as a closed chain [n0, ..., n0].
  EXPECT_EQ(cycles[0].front(), cycles[0].back());
  EXPECT_EQ(cycles[0].size(), 3u);
}

TEST(IncludeGraphTest, DetectsLongerCycle) {
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile(
      "src/a/p.h", "#pragma once\n#include \"a/q.h\"\n"));
  files.push_back(MakeSourceFile(
      "src/a/q.h", "#pragma once\n#include \"a/r.h\"\n"));
  files.push_back(MakeSourceFile(
      "src/a/r.h", "#pragma once\n#include \"a/p.h\"\n"));
  IncludeGraph g = IncludeGraph::Build(files, "src");
  auto cycles = g.FindCycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 4u);
}

TEST(IncludeGraphTest, CheckIncludeCyclesEmitsDiagnostic) {
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile(
      "src/a/x.h", "#pragma once\n#include \"a/y.h\"\n"));
  files.push_back(MakeSourceFile(
      "src/a/y.h", "#pragma once\n#include \"a/x.h\"\n"));
  std::vector<Diagnostic> out;
  CheckIncludeCycles(files, TwoLayerConfig(), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "include-cycle");
  EXPECT_NE(out[0].message.find(" -> "), std::string::npos);
}

TEST(IncludeGraphTest, LayeringAllowsDeclaredAndSameLayerEdges) {
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile("src/a/base.h", "#pragma once\n"));
  files.push_back(MakeSourceFile("src/a/peer.h",
                                 "#pragma once\n#include \"a/base.h\"\n"));
  files.push_back(MakeSourceFile("src/b/user.cc",
                                 "#include \"a/base.h\"\n"));
  std::vector<Diagnostic> out;
  CheckLayering(files, TwoLayerConfig(), &out);
  EXPECT_TRUE(out.empty());
}

TEST(IncludeGraphTest, LayeringRejectsUpwardEdge) {
  std::vector<SourceFile> files;
  files.push_back(MakeSourceFile("src/b/high.h", "#pragma once\n"));
  files.push_back(MakeSourceFile("src/a/base.cc",
                                 "#include \"b/high.h\"\n"));
  std::vector<Diagnostic> out;
  CheckLayering(files, TwoLayerConfig(), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "layering");
  EXPECT_EQ(out[0].path, "src/a/base.cc");
  EXPECT_EQ(out[0].line, 1);
  EXPECT_NE(out[0].message.find("'a'"), std::string::npos);
  EXPECT_NE(out[0].message.find("'b'"), std::string::npos);
}

TEST(IncludeGraphTest, DefaultConfigLayerDagIsAcyclic) {
  // The checked-in policy itself must be a DAG: following any chain of
  // allowed deps never returns to the starting layer.
  ProjectConfig config = ProjectConfig::Default();
  for (const auto& [layer, deps] : config.layer_deps) {
    std::vector<std::string> stack(deps.begin(), deps.end());
    std::set<std::string> seen;
    while (!stack.empty()) {
      std::string next = stack.back();
      stack.pop_back();
      EXPECT_NE(next, layer) << "cycle in layer_deps through " << layer;
      if (!seen.insert(next).second) continue;
      auto it = config.layer_deps.find(next);
      if (it == config.layer_deps.end()) continue;
      stack.insert(stack.end(), it->second.begin(), it->second.end());
    }
  }
}

}  // namespace
}  // namespace calculon::staticlint
