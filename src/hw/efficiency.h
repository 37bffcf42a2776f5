// Size-dependent efficiency curves.
//
// The paper's hardware model parameterizes the performance of each resource
// (matrix unit, vector unit, memories, networks) by input size: small GEMMs
// run at a lower fraction of peak than large ones, short messages do not
// saturate link bandwidth, etc. A curve is a piecewise mapping from "size"
// (FLOPs of an operation, bytes of a transfer) to a fraction of peak in
// (0, 1], interpolated log-linearly between the given points.
#pragma once

#include <string>
#include <vector>

#include "json/json.h"
#include "util/quantity.h"

namespace calculon {

class EfficiencyCurve {
 public:
  struct Point {
    double size;        // operation size (flops or bytes); finite, >= 0
    double efficiency;  // fraction of peak in (0, 1]
  };

  // Flat efficiency, independent of size.
  explicit EfficiencyCurve(double flat = 1.0);
  // Piecewise curve; points must have finite, strictly increasing sizes and
  // efficiencies in (0, 1]. Sizes below the first point clamp to the first
  // efficiency; sizes above the last clamp to the last.
  explicit EfficiencyCurve(std::vector<Point> points);

  // Efficiency at a given operation size: one logarithm per read, since
  // each segment's end-point logs are computed when the curve is built. A
  // curve is generic over what "size" measures, so the raw overload stays;
  // the typed overloads are the entry points for dimensioned callers.
  [[nodiscard]] double At(double size) const;  // unit-ok: dimension-generic
  [[nodiscard]] double At(Bytes size) const {
    return At(size.raw());  // unit-ok: adapter to the generic curve
  }
  [[nodiscard]] double At(Flops size) const {
    return At(size.raw());  // unit-ok: adapter to the generic curve
  }

  [[nodiscard]] bool is_flat() const { return nodes_.size() == 1; }
  // The highest efficiency among the curve's points; no read exceeds it.
  [[nodiscard]] double MaxEfficiency() const;

  [[nodiscard]] json::Value ToJson() const;
  [[nodiscard]] static EfficiencyCurve FromJson(const json::Value& v);

 private:
  // Point i and the log terms of the segment that ends at it (unused for
  // i = 0): the logs of its clamped end sizes, exactly the operands At
  // would otherwise compute on every read.
  struct Node {
    Point point;
    double log_lo;
    double log_hi;
  };
  std::vector<Node> nodes_;
};

}  // namespace calculon
