#include "dist/wire.h"

#include <unistd.h>

#include <cerrno>
#include <string_view>

namespace calculon::dist {

bool FrameWriter::WriteFrame(const json::Value& value) {
  QueueFrame(value);
  return Flush();
}

void FrameWriter::QueueFrame(const json::Value& value) {
  queued_ += value.Dump(0);
  queued_ += '\n';
}

void FrameWriter::QueueLines(std::string_view lines) { queued_ += lines; }

bool FrameWriter::Flush() {
  const char* data = queued_.data();
  std::size_t left = queued_.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      queued_.clear();
      return false;  // EPIPE et al.: the peer is gone
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  queued_.clear();
  return true;
}

FrameReader::FillStatus FrameReader::Fill() {
  buffer_.erase(0, consumed_);
  consumed_ = 0;
  char chunk[65536];  // a pipe's default capacity
  const ssize_t n = ::read(fd_, chunk, sizeof chunk);
  if (n > 0) {
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return FillStatus::kData;
  }
  if (n == 0) {
    eof_ = true;
    return FillStatus::kEof;
  }
  if (errno == EINTR) return FillStatus::kWouldBlock;
  if (errno == EAGAIN || errno == EWOULDBLOCK) return FillStatus::kWouldBlock;
  eof_ = true;  // a hard read error ends the stream like an EOF
  return FillStatus::kError;
}

bool FrameReader::NextFrame(json::Value* out) {
  if (expected_ > 0) return false;
  const std::size_t nl = buffer_.find('\n', consumed_);
  if (nl == std::string::npos) return false;
  const std::string_view line =
      std::string_view(buffer_).substr(consumed_, nl - consumed_);
  consumed_ = nl + 1;
  *out = json::Parse(line);
  return true;
}

bool FrameReader::NextLines(std::string_view* lines) {
  if (expected_ == 0) return false;
  std::size_t end = consumed_;
  for (std::uint64_t i = 0; i < expected_; ++i) {
    const std::size_t nl = buffer_.find('\n', end);
    if (nl == std::string::npos) return false;
    end = nl + 1;
  }
  *lines = std::string_view(buffer_).substr(consumed_, end - consumed_);
  consumed_ = end;
  expected_ = 0;
  return true;
}

bool FrameReader::ReadFrameBlocking(json::Value* out) {
  while (true) {
    if (NextFrame(out)) return true;
    if (eof_) return false;
    const FillStatus status = Fill();
    if (status == FillStatus::kEof || status == FillStatus::kError) {
      // Drain any final complete frame that arrived with the close.
      return NextFrame(out);
    }
  }
}

}  // namespace calculon::dist
