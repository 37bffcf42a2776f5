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

// `error` is the errno of the call that failed, read before any cleanup
// call could overwrite it.
[[noreturn]] void ThrowIo(const std::string& what, const std::string& path,
                          int error) {
  throw ConfigError(what + " " + path + ": " + std::strerror(error));
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
  if (fd < 0) ThrowIo("cannot create", tmp, errno);

  for (const std::string_view piece : pieces) {
    const char* data = piece.data();
    std::size_t left = piece.size();
    while (left > 0) {
      const ssize_t n = ::write(fd, data, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        const int error = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        ThrowIo("cannot write", tmp, error);
      }
      data += n;
      left -= static_cast<std::size_t>(n);
    }
  }
  // fsync before rename: otherwise a power loss could surface the rename
  // (metadata) without the data, i.e. a complete-looking empty file. The
  // descriptor is closed whether or not fsync succeeds.
  const int sync_error = ::fsync(fd) == 0 ? 0 : errno;
  const int close_error = ::close(fd) == 0 ? 0 : errno;
  if (sync_error != 0 || close_error != 0) {
    ::unlink(tmp.c_str());
    ThrowIo("cannot sync", tmp, sync_error != 0 ? sync_error : close_error);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int error = errno;
    ::unlink(tmp.c_str());
    ThrowIo("cannot rename over", path, error);
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
