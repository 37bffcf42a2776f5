#include "hw/efficiency.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace calculon {
namespace {

// Written so that NaN fails it.
void CheckEfficiency(double efficiency) {
  if (!(efficiency > 0.0 && efficiency <= 1.0)) {
    throw ConfigError(StrFormat("efficiency %g out of (0, 1]", efficiency));
  }
}

}  // namespace

EfficiencyCurve::EfficiencyCurve(double flat) {
  CheckEfficiency(flat);
  nodes_.push_back({{0.0, flat}, 0.0, 0.0});
}

EfficiencyCurve::EfficiencyCurve(std::vector<Point> points) {
  if (points.empty()) throw ConfigError("efficiency curve needs >= 1 point");
  nodes_.reserve(points.size());
  for (const Point& p : points) {
    if (!std::isfinite(p.size)) {
      throw ConfigError(StrFormat("efficiency curve size %g is not finite",
                                  p.size));
    }
    if (p.size < 0.0 ||
        (!nodes_.empty() && p.size <= nodes_.back().point.size)) {
      throw ConfigError("efficiency curve sizes must be increasing");
    }
    CheckEfficiency(p.efficiency);
    Node node{p, 0.0, 0.0};
    if (!nodes_.empty()) {
      // The segment from the previous point to this one, in log-size space
      // (sizes span many orders of magnitude; linear-in-log is the natural
      // shape for saturation curves).
      const double lo_size = std::max(nodes_.back().point.size, 1.0);
      const double hi_size = std::max(p.size, lo_size * (1.0 + 1e-12));
      node.log_lo = std::log(lo_size);
      node.log_hi = std::log(hi_size);
    }
    nodes_.push_back(node);
  }
}

double EfficiencyCurve::At(double size) const {
  if (nodes_.size() == 1 || size <= nodes_.front().point.size) {
    return nodes_.front().point.efficiency;
  }
  if (size >= nodes_.back().point.size) return nodes_.back().point.efficiency;
  // Find the segment containing `size` and interpolate in log-size space.
  auto hi = std::upper_bound(
      nodes_.begin(), nodes_.end(), size,
      [](double s, const Node& n) { return s < n.point.size; });
  const Point& lo = (hi - 1)->point;
  const double f = (std::log(std::max(size, 1.0)) - hi->log_lo) /
                   (hi->log_hi - hi->log_lo);
  const double clamped = std::clamp(f, 0.0, 1.0);
  return lo.efficiency + clamped * (hi->point.efficiency - lo.efficiency);
}

double EfficiencyCurve::MaxEfficiency() const {
  double top = 0.0;
  for (const Node& n : nodes_) top = std::max(top, n.point.efficiency);
  return top;
}

json::Value EfficiencyCurve::ToJson() const {
  if (is_flat()) return json::Value(nodes_.front().point.efficiency);
  json::Array arr;
  for (const Node& n : nodes_) {
    arr.push_back(json::Array{n.point.size, n.point.efficiency});
  }
  return json::Value(std::move(arr));
}

EfficiencyCurve EfficiencyCurve::FromJson(const json::Value& v) {
  if (v.is_number()) return EfficiencyCurve(v.AsDouble());
  std::vector<Point> points;
  for (const json::Value& pv : v.AsArray()) {
    const json::Array& pair = pv.AsArray();
    if (pair.size() != 2) throw ConfigError("efficiency point needs 2 items");
    points.push_back({pair[0].AsDouble(), pair[1].AsDouble()});
  }
  return EfficiencyCurve(std::move(points));
}

}  // namespace calculon
