#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "hw/efficiency.h"
#include "hw/presets.h"

namespace calculon {
namespace {

TEST(Efficiency, FlatCurveIgnoresSize) {
  const EfficiencyCurve c(0.8);
  EXPECT_TRUE(c.is_flat());
  EXPECT_DOUBLE_EQ(c.At(0.0), 0.8);
  EXPECT_DOUBLE_EQ(c.At(1e15), 0.8);
}

TEST(Efficiency, ClampsBelowFirstAndAboveLastPoint) {
  const EfficiencyCurve c({{1e6, 0.4}, {1e9, 0.9}});
  EXPECT_DOUBLE_EQ(c.At(0.0), 0.4);
  EXPECT_DOUBLE_EQ(c.At(1e6), 0.4);
  EXPECT_DOUBLE_EQ(c.At(1e9), 0.9);
  EXPECT_DOUBLE_EQ(c.At(1e12), 0.9);
}

TEST(Efficiency, InterpolatesLogLinearly) {
  const EfficiencyCurve c({{1e6, 0.4}, {1e8, 0.8}});
  // 1e7 is the log-midpoint of [1e6, 1e8].
  EXPECT_NEAR(c.At(1e7), 0.6, 1e-9);
}

TEST(Efficiency, MonotoneCurveStaysMonotone) {
  const EfficiencyCurve c(
      {{0.0, 0.05}, {1e8, 0.2}, {1e10, 0.55}, {1e12, 0.78}});
  double prev = 0.0;
  for (double size = 1.0; size < 1e14; size *= 3.0) {
    const double e = c.At(size);
    EXPECT_GE(e, prev);
    EXPECT_GT(e, 0.0);
    EXPECT_LE(e, 1.0);
    prev = e;
  }
}

TEST(Efficiency, RejectsBadCurves) {
  EXPECT_THROW(EfficiencyCurve(0.0), ConfigError);
  EXPECT_THROW(EfficiencyCurve(1.5), ConfigError);
  EXPECT_THROW(EfficiencyCurve(std::vector<EfficiencyCurve::Point>{}),
               ConfigError);
  EXPECT_THROW(EfficiencyCurve({{1e6, 0.5}, {1e6, 0.6}}), ConfigError);
  EXPECT_THROW(EfficiencyCurve({{1e9, 0.5}, {1e6, 0.6}}), ConfigError);
  EXPECT_THROW(EfficiencyCurve({{0.0, -0.1}}), ConfigError);
  // Every ordering check of a NaN or infinite size is false; NaN
  // efficiencies fail the range check only when it is written for them.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)EfficiencyCurve(nan), ConfigError);
  EXPECT_THROW(EfficiencyCurve({{0.0, nan}}), ConfigError);
  EXPECT_THROW(EfficiencyCurve({{0.0, 0.5}, {1e6, nan}}), ConfigError);
  EXPECT_THROW(EfficiencyCurve({{nan, 0.5}}), ConfigError);
  EXPECT_THROW(EfficiencyCurve({{0.0, 0.5}, {nan, 0.6}}), ConfigError);
  EXPECT_THROW(EfficiencyCurve({{0.0, inf}}), ConfigError);
  EXPECT_THROW(EfficiencyCurve({{0.0, 0.5}, {inf, 0.6}}), ConfigError);
}

TEST(Efficiency, JsonRoundTripFlat) {
  const EfficiencyCurve c(0.75);
  const EfficiencyCurve back = EfficiencyCurve::FromJson(c.ToJson());
  EXPECT_TRUE(back.is_flat());
  EXPECT_DOUBLE_EQ(back.At(123.0), 0.75);
}

TEST(Efficiency, JsonRoundTripCurve) {
  const EfficiencyCurve c({{0.0, 0.1}, {1e9, 0.9}});
  const EfficiencyCurve back = EfficiencyCurve::FromJson(c.ToJson());
  for (double size : {0.0, 1e3, 1e6, 1e9, 1e12}) {
    EXPECT_DOUBLE_EQ(back.At(size), c.At(size));
  }
}

TEST(Efficiency, JsonRejectsBadPoint) {
  EXPECT_THROW(EfficiencyCurve::FromJson(json::Parse("[[1, 0.5, 9]]")),
               ConfigError);
  // json::Parse("1e999") is infinity.
  EXPECT_THROW(
      EfficiencyCurve::FromJson(json::Parse("[[0, 0.5], [1e999, 0.9]]")),
      ConfigError);
  EXPECT_THROW(EfficiencyCurve::FromJson(json::Parse("[[1e999, 0.5]]")),
               ConfigError);
}

using Points = std::vector<EfficiencyCurve::Point>;

// The interpolation as At computed it with four logarithms per read, the
// reference the stored log terms must reproduce bit for bit.
double FourLogAt(const Points& points, double size) {
  if (points.size() == 1 || size <= points.front().size) {
    return points.front().efficiency;
  }
  if (size >= points.back().size) return points.back().efficiency;
  auto hi = std::upper_bound(
      points.begin(), points.end(), size,
      [](double s, const EfficiencyCurve::Point& p) { return s < p.size; });
  auto lo = hi - 1;
  const double lo_size = std::max(lo->size, 1.0);
  const double hi_size = std::max(hi->size, lo_size * (1.0 + 1e-12));
  const double f = (std::log(std::max(size, 1.0)) - std::log(lo_size)) /
                   (std::log(hi_size) - std::log(lo_size));
  const double clamped = std::clamp(f, 0.0, 1.0);
  return lo->efficiency + clamped * (hi->efficiency - lo->efficiency);
}

// The points of a curve as ToJson and the config files write it.
Points PointsOf(const json::Value& curve) {
  if (curve.is_number()) return {{0.0, curve.AsDouble()}};
  Points points;
  for (const json::Value& pair : curve.AsArray()) {
    points.push_back({pair.AsArray()[0].AsDouble(),
                      pair.AsArray()[1].AsDouble()});
  }
  return points;
}

// Every value under an "efficiency" key, at any depth.
void CollectCurves(const json::Value& v, std::vector<Points>* out) {
  if (v.is_array()) {
    for (const json::Value& item : v.AsArray()) CollectCurves(item, out);
  } else if (v.is_object()) {
    for (const auto& [key, item] : v.AsObject()) {
      if (key == "efficiency") {
        out->push_back(PointsOf(item));
      } else {
        CollectCurves(item, out);
      }
    }
  }
}

double Unit(std::mt19937_64& gen) {  // uniform in [0, 1)
  return static_cast<double>(gen() >> 11) * 0x1p-53;
}

// Sizes at and around every point, between points, at the fixed edges and
// at random across the curve's span.
std::vector<double> ProbeSizes(const Points& points, std::mt19937_64& gen) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> sizes = {0.0, 0.5, 1.0, 1e300};
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double s = points[i].size;
    sizes.insert(sizes.end(),
                 {s, std::nextafter(s, -inf), std::nextafter(s, inf)});
    if (i == 0) continue;
    const double a = points[i - 1].size;
    sizes.push_back(
        std::exp((std::log(std::max(a, 1.0)) + std::log(std::max(s, 1.0))) /
                 2.0));
    sizes.push_back(a + (s - a) / 2.0);
  }
  const double lo = std::log(std::max(points.front().size, 1e-3)) - 2.0;
  const double hi = std::log(std::max(points.back().size, 1.0)) + 2.0;
  for (int i = 0; i < 16; ++i) {
    sizes.push_back(std::exp(lo + Unit(gen) * (hi - lo)));
  }
  return sizes;
}

void ExpectFourLogBits(const Points& points, std::mt19937_64& gen) {
  const EfficiencyCurve curve(points);
  for (double size : ProbeSizes(points, gen)) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(curve.At(size)),
              std::bit_cast<std::uint64_t>(FourLogAt(points, size)))
        << "size " << size << " on " << curve.ToJson().Dump();
  }
}

// 1-8 points with increasing sizes: some below 1, some a neighbour within
// 1e-12 relative of the previous size (where the segment's upper size is
// clamped to lo_size * (1 + 1e-12)), the rest a factor of up to e^15 on.
Points RandomCurve(std::mt19937_64& gen) {
  Points points;
  double size = gen() % 3 == 0 ? 0.0 : std::exp(Unit(gen) * 10.0 - 5.0);
  for (std::size_t n = 1 + gen() % 8; n > 0; --n) {
    points.push_back({size, 1.0 - Unit(gen)});  // efficiency in (0, 1]
    const double prev = size;
    switch (gen() % 4) {
      case 0:  // a neighbour within 1e-12 relative
        size *= 1.0 + Unit(gen) * 1e-12;
        break;
      case 1:  // a step that stays near 1 for small sizes
        size += Unit(gen) + 1e-3;
        break;
      default:
        size = std::max(size, 1.0) * std::exp(Unit(gen) * 15.0 + 1e-3);
    }
    size = std::max(size, std::nextafter(prev, 2.0 * prev + 1.0));
  }
  return points;
}

TEST(Efficiency, AtMatchesTheFourLogFormulaBitForBit) {
  std::mt19937_64 gen(2301);
  std::vector<Points> curves;
  for (const std::string& name : presets::SystemNames()) {
    CollectCurves(presets::SystemByName(name).ToJson(), &curves);
  }
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(CALCULON_CONFIG_DIR) / "systems")) {
    CollectCurves(json::ParseFile(entry.path().string()), &curves);
  }
  std::size_t shaped = 0;
  for (const Points& points : curves) shaped += points.size() > 1 ? 1 : 0;
  // Each preset holds a GEMM, vector, HBM and link curve.
  ASSERT_GE(shaped, 4u * presets::SystemNames().size());
  for (const Points& points : curves) ExpectFourLogBits(points, gen);

  std::size_t clamped_segments = 0;
  for (int i = 0; i < 1000; ++i) {
    const Points points = RandomCurve(gen);
    for (std::size_t k = 1; k < points.size(); ++k) {
      const double lo_size = std::max(points[k - 1].size, 1.0);
      if (points[k].size < lo_size * (1.0 + 1e-12)) ++clamped_segments;
    }
    ExpectFourLogBits(points, gen);
  }
  EXPECT_GT(clamped_segments, 100u);  // the hi_size clamp is exercised
}

}  // namespace
}  // namespace calculon
