#include "staticlint/include_graph.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <set>

namespace calculon::staticlint {

namespace {

// Every cycle reachable by back edges of a three-color DFS over
// `adjacency`, as a node list [a, b, ..., a]. Deterministic order (roots
// and neighbors are visited in the order they appear). Each back edge
// reports one cycle; overlapping cycles are reported individually.
[[nodiscard]] std::vector<std::vector<std::string>> FindGraphCycles(
    const std::map<std::string, std::vector<std::string>>& adjacency) {
  enum class Color { kWhite, kGray, kBlack };
  std::map<std::string, Color> color;
  std::vector<std::vector<std::string>> cycles;

  std::vector<std::string> stack;  // current DFS path
  std::function<void(const std::string&)> visit =
      [&](const std::string& node) {
        color[node] = Color::kGray;
        stack.push_back(node);
        auto it = adjacency.find(node);
        if (it != adjacency.end()) {
          for (const std::string& next : it->second) {
            Color c = color.count(next) ? color[next] : Color::kWhite;
            if (c == Color::kGray) {
              // Back edge: the cycle is the stack suffix from `next`.
              auto begin = std::find(stack.begin(), stack.end(), next);
              std::vector<std::string> cycle(begin, stack.end());
              cycle.push_back(next);
              cycles.push_back(std::move(cycle));
            } else if (c == Color::kWhite) {
              visit(next);
            }
          }
        }
        stack.pop_back();
        color[node] = Color::kBlack;
      };

  for (const auto& [node, unused] : adjacency) {
    (void)unused;
    Color c = color.count(node) ? color[node] : Color::kWhite;
    if (c == Color::kWhite) visit(node);
  }
  return cycles;
}

}  // namespace

IncludeGraph IncludeGraph::Build(const std::vector<SourceFile>& files,
                                 const std::string& include_root) {
  IncludeGraph g;
  g.include_root_ = include_root;

  std::set<std::string> known;
  for (const SourceFile& f : files) known.insert(f.path);

  for (const SourceFile& f : files) {
    for (const Token& t : f.tokens) {
      if (t.kind != TokKind::kDirective) continue;
      IncludeSpec inc = ParseInclude(t.text);
      if (!inc.valid || inc.angled) continue;
      // Project convention: quoted includes are rooted at src/
      // ("util/check.h"). Resolve against the include root only.
      std::string resolved = include_root + "/" + std::string(inc.path);
      if (known.find(resolved) == known.end()) continue;
      g.edges_.push_back(IncludeEdge{f.path, resolved, t.line});
      g.adjacency_[f.path].push_back(resolved);
    }
  }
  for (auto& [node, next] : g.adjacency_) std::sort(next.begin(), next.end());
  return g;
}

std::string IncludeGraph::LayerOf(const std::string& path) const {
  std::string prefix = include_root_ + "/";
  if (path.compare(0, prefix.size(), prefix) != 0) return {};
  std::size_t begin = prefix.size();
  std::size_t slash = path.find('/', begin);
  if (slash == std::string::npos) return {};
  return path.substr(begin, slash - begin);
}

std::vector<std::vector<std::string>> IncludeGraph::FindCycles() const {
  // A .cc is never an include target, so cycles can only run through
  // headers; the DFS handles the whole adjacency either way.
  return FindGraphCycles(adjacency_);
}

}  // namespace calculon::staticlint
