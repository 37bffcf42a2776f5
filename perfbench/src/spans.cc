#include "spans.h"

#include <chrono>
#include <utility>

#include "json/json.h"

namespace perfbench {
namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

int SpanRecorder::Begin(const char* layer, std::string name) {
  Span s;
  s.layer = layer;
  s.name = std::move(name);
  s.id = static_cast<int>(spans_.size());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, double> SpanRecorder::SelfSecondsByLayer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    const std::int64_t own =
        s.end_ns - s.start_ns - child_ns[static_cast<std::size_t>(s.id)];
    self[s.layer] += static_cast<double>(own) * 1e-9;
  }
  return self;
}

void SpanRecorder::WriteJson(const std::string& path) const {
  calculon::json::Array out;
  out.reserve(spans_.size());
  for (const Span& s : spans_) {
    calculon::json::Object o;
    o["id"] = s.id;
    o["parent"] = s.parent;
    o["layer"] = s.layer;
    o["name"] = s.name;
    o["start_ns"] = s.start_ns;
    o["end_ns"] = s.end_ns;
    out.emplace_back(std::move(o));
  }
  calculon::json::WriteFile(path, calculon::json::Value(std::move(out)), 0);
}

ScopedSpan::ScopedSpan(const char* layer, std::string name) {
  SpanRecorder& r = SpanRecorder::Get();
  if (r.enabled()) id_ = r.Begin(layer, std::move(name));
}

ScopedSpan::~ScopedSpan() {
  if (id_ >= 0) SpanRecorder::Get().End(id_);
}

}  // namespace perfbench
