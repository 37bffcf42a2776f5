// In-memory span recorder for the traced run. Each span names the layer
// (module) the benchmark called into, its start and end, and the span that
// caused it. Spans are recorded on the benchmark's own thread, around its
// calls into each layer's public functions, kept in memory, and written
// once at the end. Disabled (and empty) in the untraced run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string layer;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;  // -1: a root span
};

class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  int Begin(const char* layer, std::string name);
  void End(int id);

  // Self seconds per layer: each span's duration minus the part of it its
  // direct children cover (children nest and run sequentially on the one
  // recording thread).
  [[nodiscard]] std::map<std::string, double> SelfSecondsByLayer() const;

  // Writes every span as a JSON array (one object per span).
  void WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_ = -1;
};

}  // namespace perfbench
