#include "staticlint/engine.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>

#include "staticlint/lexer.h"
#include "util/threadpool.h"

namespace calculon::staticlint {

namespace fs = std::filesystem;

std::vector<SourceFile> LoadTree(const std::string& repo_root,
                                 const TreeOptions& options) {
  std::vector<std::string> rel_paths;
  for (const std::string& root : options.roots) {
    fs::path dir = fs::path(repo_root) / root;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      std::string ext = entry.path().extension().string();
      bool wanted = false;
      for (const std::string& e : options.extensions) {
        if (ext == e) {
          wanted = true;
          break;
        }
      }
      if (!wanted) continue;
      std::string rel =
          fs::relative(entry.path(), fs::path(repo_root)).generic_string();
      rel_paths.push_back(std::move(rel));
    }
  }
  std::sort(rel_paths.begin(), rel_paths.end());

  // Load by sorted index, so the output order (and everything downstream:
  // rule iteration, include-cycle DFS, SARIF) is identical at any job count.
  if (options.jobs > 1 && rel_paths.size() > 1) {
    std::vector<SourceFile> files(rel_paths.size());
    const std::size_t workers = std::min<std::size_t>(
        static_cast<std::size_t>(options.jobs), rel_paths.size());
    ThreadPool pool(static_cast<unsigned>(workers));
    pool.ParallelFor(rel_paths.size(), [&](std::uint64_t i) {
      const std::string& rel = rel_paths[i];
      files[i] = LoadSourceFile((fs::path(repo_root) / rel).string(), rel);
    });
    return files;
  }

  std::vector<SourceFile> files;
  files.reserve(rel_paths.size());
  for (const std::string& rel : rel_paths) {
    files.push_back(
        LoadSourceFile((fs::path(repo_root) / rel).string(), rel));
  }
  return files;
}

}  // namespace calculon::staticlint
