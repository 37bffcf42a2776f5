// Shared command-line wiring for the observability layer: both calculon_cli
// and calculon-audit expose the same three flags,
//   --trace=FILE      record a Chrome trace-event timeline to FILE
//   --metrics=FILE    export the metrics registry as JSON to FILE
//   --progress[=SECS] periodic progress lines on stderr (default 2s)
// (the space-separated forms --trace FILE / --metrics FILE also work).
// Parse with Consume(), call Activate() once flags are parsed, and Finish()
// before exit to stop recording and write the output files.
#pragma once

#include <functional>
#include <string>

namespace calculon::obs {

struct ObsCliOptions {
  std::string trace_path;
  std::string metrics_path;
  bool progress = false;
  double progress_interval_s = 2.0;

  // Returns true when `arg` is an observability flag (and consumes its
  // value, calling `next` for the space-separated forms). Throws
  // UsageError on a malformed --progress interval.
  bool Consume(const std::string& arg,
               const std::function<std::string()>& next);

  [[nodiscard]] bool any() const {
    return !trace_path.empty() || !metrics_path.empty() || progress;
  }

  // Starts the global trace recorder / enables the global metrics registry
  // according to the parsed flags.
  void Activate() const;

  // Stops the trace recorder and writes --trace / --metrics output files.
  // Idempotent; safe to call with no flags set.
  void Finish() const;

  // Usage text for the three flags, one indented line each.
  [[nodiscard]] static const char* UsageLines();
};

}  // namespace calculon::obs
