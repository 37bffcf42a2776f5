// Atomic file writes for checkpoints and reports.
//
// A checkpoint journal is only useful if a crash — including a SIGKILL
// mid-write — can never leave a half-written file at the journal path.
// WriteFileAtomic gives that guarantee the classic POSIX way: write the
// full contents to a unique temporary in the same directory, fsync it,
// then rename() it over the destination. rename() within one filesystem
// is atomic, so a reader (or a resumed run) sees either the old complete
// file or the new complete file, never a torn one.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>

namespace calculon {

// Writes the concatenation of `pieces` to `path` atomically (unique temp +
// fsync + rename), so a caller that holds a document in parts (a
// checkpoint's head, its rows and its tail) writes it without joining
// them first. Throws ConfigError on any failure; on failure the
// destination is untouched and the temporary is removed.
void WriteFileAtomic(const std::string& path,
                     std::initializer_list<std::string_view> pieces);
// The one-piece case.
inline void WriteFileAtomic(const std::string& path,
                            std::string_view contents) {
  WriteFileAtomic(path, {contents});
}

// Reads a whole file into a string. Throws ConfigError if unreadable.
[[nodiscard]] std::string ReadFileToString(const std::string& path);

}  // namespace calculon
