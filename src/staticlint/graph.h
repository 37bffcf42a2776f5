// Generic graph traversal shared by the include-cycle rule and the
// call-graph rules: a three-color DFS over a string-keyed adjacency list
// (cycles) and over an int-indexed one (reachability).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace calculon::staticlint {

// Every cycle reachable by back edges of a DFS over `adjacency`, as a node
// list [a, b, ..., a]. Deterministic order (roots and neighbors are visited
// in the order they appear). Each back edge reports one cycle; overlapping
// cycles are reported individually.
[[nodiscard]] inline std::vector<std::vector<std::string>> FindGraphCycles(
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

// Reachability over an int-indexed adjacency list (the symbol/call graph):
// the same three-color discipline as above, iterative so a deep call chain
// cannot overflow the stack. Returns one flag per node; `parent[i]` is the
// predecessor through which node i was first reached (-1 for roots and
// unreached nodes), so callers can reconstruct a witness path for
// diagnostics. Out-of-range roots are ignored.
struct Reachability {
  std::vector<bool> reachable;
  std::vector<int> parent;

  [[nodiscard]] std::vector<int> PathTo(int node) const {
    std::vector<int> path;
    if (node < 0 || static_cast<std::size_t>(node) >= reachable.size() ||
        !reachable[static_cast<std::size_t>(node)]) {
      return path;
    }
    for (int at = node; at != -1; at = parent[static_cast<std::size_t>(at)]) {
      path.push_back(at);
    }
    std::reverse(path.begin(), path.end());
    return path;
  }
};

[[nodiscard]] inline Reachability ReachableFrom(
    const std::vector<std::vector<int>>& adjacency,
    const std::vector<int>& roots) {
  enum class Color { kWhite, kGray, kBlack };
  const std::size_t n = adjacency.size();
  Reachability r;
  r.reachable.assign(n, false);
  r.parent.assign(n, -1);
  std::vector<Color> color(n, Color::kWhite);

  std::vector<int> stack;
  for (int root : roots) {
    if (root < 0 || static_cast<std::size_t>(root) >= n) continue;
    if (color[static_cast<std::size_t>(root)] != Color::kWhite) continue;
    color[static_cast<std::size_t>(root)] = Color::kGray;
    r.reachable[static_cast<std::size_t>(root)] = true;
    stack.push_back(root);
    while (!stack.empty()) {
      const auto node = static_cast<std::size_t>(stack.back());
      stack.pop_back();
      color[node] = Color::kBlack;
      for (int next : adjacency[node]) {
        if (next < 0 || static_cast<std::size_t>(next) >= n) continue;
        const auto ni = static_cast<std::size_t>(next);
        if (color[ni] != Color::kWhite) continue;
        color[ni] = Color::kGray;
        r.reachable[ni] = true;
        r.parent[ni] = static_cast<int>(node);
        stack.push_back(next);
      }
    }
  }
  return r;
}

}  // namespace calculon::staticlint
