// Filesystem frontend: loads and lexes the repository tree that the rules
// analyze. Kept separate from the rules, which are pure functions over the
// loaded files.
#pragma once

#include <string>
#include <vector>

#include "staticlint/token.h"

namespace calculon::staticlint {

// Loads every .h, .cc and .cpp file under src/, examples/ and bench/ of
// repo_root, lexed, with repo-relative paths, in deterministic (sorted)
// order. tests/ is not scanned: gtest macro bodies are not representative
// library code. Missing roots are skipped so the tool also runs on partial
// checkouts.
[[nodiscard]] std::vector<SourceFile> LoadTree(const std::string& repo_root);

}  // namespace calculon::staticlint
