#include "util/fileio.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace calculon {

namespace {

[[noreturn]] void ThrowIo(const std::string& what, const std::string& path) {
  throw ConfigError(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

void WriteFileAtomic(const std::string& path,
                     std::initializer_list<std::string_view> pieces) {
  // The temporary lives in the destination directory (rename() must not
  // cross filesystems) and carries the pid so two processes checkpointing
  // the same journal never trample each other's temp file.
  const std::string tmp =
      StrFormat("%s.tmp.%d", path.c_str(), static_cast<int>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) ThrowIo("cannot create", tmp);

  for (const std::string_view piece : pieces) {
    const char* data = piece.data();
    std::size_t left = piece.size();
    while (left > 0) {
      const ssize_t n = ::write(fd, data, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        ::unlink(tmp.c_str());
        ThrowIo("cannot write", tmp);
      }
      data += n;
      left -= static_cast<std::size_t>(n);
    }
  }
  // fsync before rename: otherwise a power loss could surface the rename
  // (metadata) without the data, i.e. a complete-looking empty file.
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    ThrowIo("cannot sync", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    ThrowIo("cannot rename over", path);
  }
}

std::string ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot open file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace calculon
