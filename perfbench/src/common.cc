#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Digest::Add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  h_ ^= 0xff;  // field separator
  h_ *= 1099511628211ull;
}

void Digest::Add(std::uint64_t v) {
  Add(std::string_view(reinterpret_cast<const char*>(&v), sizeof v));
}

void Digest::AddDouble(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  Add(bits);
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

double CpuOf(const rusage& r) {
  return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
         static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) * 1e-6;
}

}  // namespace

double ChildrenCpuSeconds() {
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return CpuOf(children);
}

ResourceUsage CurrentUsage() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  ResourceUsage u;
  u.cpu_s = CpuOf(self) + CpuOf(children);
  // ru_maxrss is in KiB on Linux.
  u.peak_rss_mib =
      static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
  return u;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {
volatile double g_reference_sink = 0.0;
}  // namespace

namespace {

double KernelOnThisThread() {
  const double t0 = ThreadCpuSeconds();
  double acc = 0.0;
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  for (int i = 0; i < 300000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const double x = static_cast<double>(state >> 11) * 0x1.0p-53 + 0.5;
    if ((state & 3) == 0) {
      acc += std::sqrt(x) / (x + 1.0);
    } else if ((state & 3) == 1) {
      acc -= x * 0.25;
    } else {
      acc = acc * 0.999999 + 1.0 / x;
    }
    if ((i & 15) == 0) {
      // Small short-lived heap blocks, as the model's strings and vectors.
      void* p = std::malloc(32 + (state & 255));
      if (p != nullptr) {
        std::memset(p, static_cast<int>(i), 32);
        acc += static_cast<const unsigned char*>(p)[state & 31];
        std::free(p);
      }
    }
  }
  g_reference_sink = g_reference_sink + acc;
  return ThreadCpuSeconds() - t0;
}

}  // namespace

double ReferenceKernelSeconds(unsigned threads) {
  std::vector<double> seconds(threads, 0.0);
  std::vector<std::thread> helpers;
  for (unsigned i = 1; i < threads; ++i) {
    helpers.emplace_back([&seconds, i] { seconds[i] = KernelOnThisThread(); });
  }
  seconds[0] = KernelOnThisThread();
  for (std::thread& t : helpers) t.join();
  double sum = 0.0;
  for (double s : seconds) sum += s;
  return sum / threads;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

}  // namespace perfbench
