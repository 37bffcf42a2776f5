// Small shared helpers for the benchmark: clocks, order statistics, a
// content digest, and process resource accounting.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) {
  return SecondsBetween(t, Clock::now());
}

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// The guide's tail: the highest percentile with at least `beyond` samples
// above it when there are `n_min` samples. Returns the quantile (0..1).
inline double TailQuantile(std::size_t n_min, std::size_t beyond) {
  return n_min > beyond
             ? static_cast<double>(n_min - beyond) / static_cast<double>(n_min)
             : 0.0;
}

// FNV-1a over bytes; chained so several fields fold into one digest.
class Digest {
 public:
  void Add(std::string_view bytes);
  void Add(std::uint64_t v);
  void AddDouble(double v);  // the exact bit pattern
  [[nodiscard]] std::string Hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// Self + waited-for children, from getrusage.
struct ResourceUsage {
  double cpu_s = 0.0;          // user + system, self + children
  double peak_rss_mib = 0.0;   // self peak + largest child peak
};
ResourceUsage CurrentUsage();

// CPU seconds of the calling thread (hypervisor steal excluded).
double ThreadCpuSeconds();
// CPU seconds of reaped child processes (getrusage RUSAGE_CHILDREN).
double ChildrenCpuSeconds();

// A fixed, program-independent calibration kernel of about 3.5 ms per
// thread — floating-point arithmetic with divisions and data-dependent
// branches, and small heap blocks, like a model evaluation — run at once
// on `threads` threads. Returns
// the mean thread CPU seconds: the speed the host gives this many busy
// cores right now.
double ReferenceKernelSeconds(unsigned threads);

// First "model name" line of /proc/cpuinfo, or "unknown".
std::string CpuModel();

}  // namespace perfbench
