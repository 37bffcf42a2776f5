#include "obs/cli_options.h"

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace calculon::obs {

bool ObsCliOptions::Consume(const std::string& arg,
                            const std::function<std::string()>& next) {
  if (arg == "--trace") {
    trace_path = next();
  } else if (StartsWith(arg, "--trace=")) {
    trace_path = arg.substr(8);
  } else if (arg == "--metrics") {
    metrics_path = next();
  } else if (StartsWith(arg, "--metrics=")) {
    metrics_path = arg.substr(10);
  } else if (arg == "--progress") {
    progress = true;
  } else if (StartsWith(arg, "--progress=")) {
    progress = true;
    progress_interval_s = ParseSecondsFlag("--progress", arg.substr(11));
  } else {
    return false;
  }
  return true;
}

void ObsCliOptions::Activate() const {
  if (!trace_path.empty()) TraceRecorder::Global().Start();
  if (!metrics_path.empty()) MetricsRegistry::Global().Enable();
}

void ObsCliOptions::Finish() const {
  if (!trace_path.empty()) {
    TraceRecorder& recorder = TraceRecorder::Global();
    recorder.Stop();
    // Surface per-thread event-cap truncation loudly: a silently truncated
    // trace reads as a complete one.
    const std::uint64_t dropped = recorder.dropped();
    if (dropped > 0) {
      std::fprintf(stderr,
                   "warning: trace truncated: %llu event(s) dropped at the "
                   "per-thread cap; the timeline in %s is incomplete\n",
                   static_cast<unsigned long long>(dropped),
                   trace_path.c_str());
      MetricsRegistry& metrics = MetricsRegistry::Global();
      if (metrics.enabled()) {
        metrics.GetCounter("obs.dropped_events")->Increment(dropped);
      }
    }
    recorder.WriteFile(trace_path);
  }
  if (!metrics_path.empty()) {
    json::WriteFile(metrics_path, MetricsRegistry::Global().ToJson());
  }
}

const char* ObsCliOptions::UsageLines() {
  return "  --trace FILE        record a Chrome trace-event timeline "
         "(Perfetto)\n"
         "  --metrics FILE      export tool metrics (latency histograms,\n"
         "                      rejection counters) as JSON\n"
         "  --progress[=SECS]   periodic progress lines on stderr "
         "(default 2s)\n";
}

}  // namespace calculon::obs
