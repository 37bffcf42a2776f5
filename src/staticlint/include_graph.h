// Project include graph: quoted-include edges between files under src/,
// the layer each file belongs to, and cycle detection.
//
// The canonical dependency DAG (documented in DESIGN.md) assigns each
// top-level directory of src/ a set of layers it may include; the layering
// rule rejects any edge outside that set, and the cycle detector rejects
// include cycles regardless of layer.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "staticlint/token.h"

namespace calculon::staticlint {

// One quoted-include edge "src/a/x.cc -> src/b/y.h" with the source
// location of the #include directive.
struct IncludeEdge {
  std::string from;     // repo-relative path of the including file
  std::string to;       // repo-relative path of the included file
  int line = 0;         // line of the #include directive in `from`
};

class IncludeGraph {
 public:
  // Builds the graph from the lexed files. Only quoted includes that
  // resolve to one of `files` (paths are repo-relative, includes are
  // resolved against `include_root`, e.g. "src") become edges; system
  // includes and unresolved paths are ignored.
  static IncludeGraph Build(const std::vector<SourceFile>& files,
                            const std::string& include_root);

  [[nodiscard]] const std::vector<IncludeEdge>& edges() const {
    return edges_;
  }

  // The layer (first path component under the include root) of a file, or
  // "" when the file is outside the root. "src/util/check.h" -> "util".
  [[nodiscard]] std::string LayerOf(const std::string& path) const;

  // Every include cycle among headers, as a path list
  // [a.h, b.h, ..., a.h]. Deterministic order.
  [[nodiscard]] std::vector<std::vector<std::string>> FindCycles() const;

 private:
  std::string include_root_;
  std::vector<IncludeEdge> edges_;
  std::map<std::string, std::vector<std::string>> adjacency_;
};

}  // namespace calculon::staticlint
