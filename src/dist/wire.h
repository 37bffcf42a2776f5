// NDJSON framing over pipes: the supervisor <-> worker wire format.
//
// Every message is one JSON document serialized compactly (Dump(0), which
// is single-line by construction: the serializer emits no newlines at
// indent 0 and the JSON grammar escapes newlines inside strings) followed
// by '\n'. Doubles travel as %.17g, so numeric results round-trip
// losslessly — the property the bit-identical merge guarantee rests on.
// A frame may announce raw lines that follow it (a run of item results,
// dist/worker.h): the reader hands those over as text, unparsed, and only
// once every announced line is buffered.
//
// Framing failure modes are first-class: a worker that dies mid-write
// leaves a dangling partial line or a run short of its announced lines,
// which the reader reports as truncation (distinct from a clean EOF at a
// frame boundary) so the supervisor can tell "finished and closed" from
// "died mid-message".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "json/json.h"

namespace calculon::dist {

// Writes frames to a file descriptor with blocking writes. Not owning;
// the caller closes the fd. Frames can be queued and then written
// together, so a worker sends a run of results, its telemetry and
// shard_done in one write().
class FrameWriter {
 public:
  explicit FrameWriter(int fd) : fd_(fd) {}

  // Serializes one frame and writes it, after any queued ones, in one
  // write(). Returns false when the peer is gone (EPIPE / write error) —
  // the caller treats that as a dead peer, never as a crash (the
  // supervisor runs with SIGPIPE ignored).
  [[nodiscard]] bool WriteFrame(const json::Value& value);

  // Serializes one frame onto the queue without writing anything.
  void QueueFrame(const json::Value& value);

  // Queues `lines`, raw '\n'-terminated lines, as they are: the lines a
  // frame queued just before announced.
  void QueueLines(std::string_view lines);

  // Writes the queued frames, if any, in one write(). Returns false when
  // the peer is gone.
  [[nodiscard]] bool Flush();

 private:
  int fd_;
  std::string queued_;
};

// Incremental frame reader. Usable both non-blocking (the supervisor's
// poll loop calls Fill() when the fd is readable, then drains NextFrame())
// and blocking (the worker calls ReadFrameBlocking()).
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  enum class FillStatus {
    kData,        // appended at least one byte
    kEof,         // peer closed its end
    kWouldBlock,  // non-blocking fd with nothing available
    kError,       // read() failed hard
  };

  // One read() into the internal buffer.
  FillStatus Fill();

  // Pops the next complete frame, if one is buffered. Throws ConfigError
  // on a malformed frame (the caller treats that as a corrupt peer).
  // Pops nothing while announced lines are outstanding.
  [[nodiscard]] bool NextFrame(json::Value* out);

  // Announces that the next `count` lines are the raw lines of the frame
  // just popped. The caller checks `count` first: the reader buffers
  // whatever it announces.
  void ExpectLines(std::uint64_t count) { expected_ = count; }

  // Pops the announced lines once all of them are buffered: `lines` views
  // them, each ending in '\n', until the next Fill(). False while some are
  // still to come, and when none are announced.
  [[nodiscard]] bool NextLines(std::string_view* lines);

  // After Fill() returned kEof: the stream ended mid-line or short of the
  // announced lines, i.e. the writer died partway through a message.
  [[nodiscard]] bool truncated() const {
    return eof_ && (consumed_ < buffer_.size() || expected_ > 0);
  }
  [[nodiscard]] bool eof() const { return eof_; }

  // Blocking convenience for the worker loop: fills until a frame is
  // complete. Returns false on EOF (truncated or not).
  [[nodiscard]] bool ReadFrameBlocking(json::Value* out);

 private:
  int fd_;
  // Bytes read so far; the frames before `consumed_` have been popped.
  // Fill() drops them before it appends, so popping a frame copies
  // nothing.
  std::string buffer_;
  std::size_t consumed_ = 0;
  bool eof_ = false;
  std::uint64_t expected_ = 0;  // announced lines not yet popped
};

}  // namespace calculon::dist
