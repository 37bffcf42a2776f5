#include "obs/progress.h"

#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"
#include "util/strings.h"

namespace calculon::obs {

ProgressReporter::ProgressReporter(const RunContext* ctx,
                                   ProgressOptions options)
    : ctx_(ctx), options_(std::move(options)) {
  CALC_CHECK(ctx_ != nullptr, "ProgressReporter needs a RunContext");
  if (options_.interval_s <= 0.0) options_.interval_s = 2.0;
  if (options_.out == nullptr) options_.out = stderr;
  start_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { Loop(); });
}

ProgressReporter::~ProgressReporter() { Stop(); }

void ProgressReporter::Stop() {
  {
    MutexLock lock(mutex_);
    if (stopped_) return;
    stop_requested_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
  {
    MutexLock lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  EmitLine(elapsed_s);
}

void ProgressReporter::Loop() {
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.interval_s));
  auto next = std::chrono::steady_clock::now() + interval;
  for (;;) {
    {
      MutexLock lock(mutex_);
      // WaitUntil returning true means a notification (or spurious wake):
      // re-check the predicate; false means the interval elapsed.
      while (!stop_requested_ && cv_.WaitUntil(lock, next)) {
      }
      if (stop_requested_) return;  // final line comes from Stop()
    }
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    EmitLine(elapsed_s);
    next += interval;
  }
}

void ProgressReporter::EmitLine(double elapsed_s) {
  const std::uint64_t completed = ctx_->items_completed();
  const std::uint64_t failures = ctx_->failures();
  const std::string line =
      FormatLine(options_.label, completed, options_.total, failures,
                 elapsed_s);
  std::fprintf(options_.out, "%s\n", line.c_str());
  std::fflush(options_.out);
  TraceRecorder& recorder = TraceRecorder::Global();
  if (recorder.enabled()) {
    recorder.RecordCounter("progress.completed",
                           static_cast<double>(completed));
    recorder.RecordCounter("progress.failures", static_cast<double>(failures));
  }
}

double ProgressReporter::RatePerSec(std::uint64_t completed,
                                    double elapsed_s) {
  if (elapsed_s <= 0.0) return 0.0;
  return static_cast<double>(completed) / elapsed_s;
}

double ProgressReporter::EtaSeconds(std::uint64_t completed,
                                    std::uint64_t total, double elapsed_s) {
  if (total == 0 || completed >= total) return 0.0;
  const double rate = RatePerSec(completed, elapsed_s);
  if (rate <= 0.0) return HUGE_VAL;
  return static_cast<double>(total - completed) / rate;
}

std::string ProgressReporter::FormatLine(const std::string& label,
                                         std::uint64_t completed,
                                         std::uint64_t total,
                                         std::uint64_t failures,
                                         double elapsed_s) {
  const double rate = RatePerSec(completed, elapsed_s);
  std::string line = StrFormat("[%s] ", label.c_str());
  if (total > 0) {
    const double pct =
        100.0 * static_cast<double>(completed) / static_cast<double>(total);
    line += StrFormat("%llu/%llu (%.1f%%)",
                      static_cast<unsigned long long>(completed),
                      static_cast<unsigned long long>(total), pct);
  } else {
    line += StrFormat("%llu done",
                      static_cast<unsigned long long>(completed));
  }
  line += StrFormat(" | %.1f/s", rate);
  if (total > 0) {
    const double eta = EtaSeconds(completed, total, elapsed_s);
    if (std::isinf(eta)) {
      line += " | eta ?";
    } else {
      line += StrFormat(" | eta %.1fs", eta);
    }
  }
  line += StrFormat(" | failures %llu",
                    static_cast<unsigned long long>(failures));
  return line;
}

}  // namespace calculon::obs
