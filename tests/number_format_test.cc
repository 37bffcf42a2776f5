// Pins the std::to_chars number formatting of the study CSV and the JSON
// serializer to the printf conversions they stand for. snprintf is the
// reference: a study CSV or a checkpoint written by either must be the
// same bytes.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "json/json.h"
#include "runner/study.h"

namespace calculon {
namespace {

// splitmix64: a portable, seedable generator.
std::uint64_t SplitMix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Edge cases, then a seeded table: finite bit patterns, values of every
// decimal magnitude, and halves (printf rounds exact ties to even).
std::vector<double> Inputs() {
  std::vector<double> v = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      1.5,
      2.5,
      999999.5,
      999998.5,
      9999995.0,
      123456.5,
      0.99995,
      0.00005,
      1e-5,
      1.234565e-5,
      1e15 - 1,
      1e15,
      1e15 + 1,
      9007199254740993.0,  // 2^53 + 1 (rounds to 2^53)
      1e16,
      1e21,
      9.2233720368547758e18,  // 2^63
      5e-324,
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      1.0 / 3.0,
      85899345920.0,
  };
  std::uint64_t state = 20231117;
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t bits = SplitMix(state);
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) v.push_back(d);
    const double mantissa =
        static_cast<double>(SplitMix(state) >> 11) * 0x1p-53;  // [0, 1)
    const int exponent = static_cast<int>(SplitMix(state) % 50) - 20;
    v.push_back(mantissa * std::pow(10.0, exponent));
    v.push_back(static_cast<double>(SplitMix(state) % 2000001) / 2.0 -
                500000.0);
  }
  return v;
}

std::string Printf(const char* format, double d) {
  char buf[512];
  std::snprintf(buf, sizeof buf, format, d);
  return buf;
}

std::string PrintfInt(long long i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", i);
  return buf;
}

TEST(NumberFormat, StudyCsvRowMatchesPrintf) {
  std::vector<double> inputs = Inputs();
  inputs.push_back(std::numeric_limits<double>::infinity());
  inputs.push_back(-std::numeric_limits<double>::infinity());
  inputs.push_back(std::nan(""));
  Execution e;
  e.tensor_par = 8;
  e.pipeline_par = 16;
  e.data_par = 32;
  e.microbatch = 2;
  e.batch_size = 4096;
  e.pp_interleaving = 3;
  e.recompute = Recompute::kAttnOnly;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    // Each field formats a different input of the table.
    Stats s;
    s.batch_time = Seconds(inputs[i]);
    s.sample_rate = PerSecond(inputs[(i + 1) % inputs.size()]);
    s.mfu = inputs[(i + 2) % inputs.size()];
    s.tier1.weights = Bytes(inputs[(i + 3) % inputs.size()]);
    s.tier2.optimizer = Bytes(inputs[(i + 4) % inputs.size()]);
    const std::string expected =
        "8,16,32,2,4096,3,attn,1,," + Printf("%.6g", s.batch_time.raw()) +
        "," + Printf("%.6g", s.sample_rate.raw()) + "," +
        Printf("%.4f", s.mfu) + "," + Printf("%.0f", s.tier1.Total().raw()) +
        "," + Printf("%.0f", s.tier2.Total().raw()) + "\n";
    ASSERT_EQ(StudyCsvRow(e, Result<Stats>(s)), expected) << "input " << i;
  }
}

TEST(NumberFormat, JsonDumpMatchesPrintf) {
  for (const double d : Inputs()) {
    // Integral values below 1e15 print as integers, the rest as %.17g.
    const std::string expected =
        std::fabs(d) < 1e15 && d == std::trunc(d)
            ? PrintfInt(static_cast<long long>(d))
            : Printf("%.17g", d);
    ASSERT_EQ(json::Value(d).Dump(), expected) << Printf("%a", d);
  }
}

}  // namespace
}  // namespace calculon
