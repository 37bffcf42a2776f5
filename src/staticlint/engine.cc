#include "staticlint/engine.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <string_view>

#include "staticlint/lexer.h"

namespace calculon::staticlint {

namespace fs = std::filesystem;

namespace {

constexpr std::array<std::string_view, 3> kRoots = {"src", "examples",
                                                    "bench"};
constexpr std::array<std::string_view, 3> kExtensions = {".h", ".cc",
                                                         ".cpp"};

}  // namespace

std::vector<SourceFile> LoadTree(const std::string& repo_root) {
  std::vector<std::string> rel_paths;
  for (const std::string_view root : kRoots) {
    const fs::path dir = fs::path(repo_root) / root;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (std::find(kExtensions.begin(), kExtensions.end(), ext) ==
          kExtensions.end()) {
        continue;
      }
      std::string rel =
          fs::relative(entry.path(), fs::path(repo_root)).generic_string();
      rel_paths.push_back(std::move(rel));
    }
  }
  std::sort(rel_paths.begin(), rel_paths.end());

  std::vector<SourceFile> files;
  files.reserve(rel_paths.size());
  for (const std::string& rel : rel_paths) {
    files.push_back(
        LoadSourceFile((fs::path(repo_root) / rel).string(), rel));
  }
  return files;
}

}  // namespace calculon::staticlint
