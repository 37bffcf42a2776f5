// Compile-time dimensional analysis for the hardware and performance model.
//
// Quantity<B, S, F> wraps a double and carries integer exponents over the
// model's three base dimensions: bytes (B), seconds (S), and FLOPs (F).
// The wrapper is zero-overhead (one double, all operations constexpr and
// inline) while the exponents make unit errors type errors:
//
//   Bytes / BytesPerSecond -> Seconds      (transfer time)
//   Flops / FlopsPerSecond -> Seconds      (compute time)
//   Bytes / Seconds        -> BytesPerSecond
//   Bytes * double         -> Bytes        (scaling by counts/fractions)
//   Seconds / Seconds      -> double       (ratios exit the type system)
//   Bytes + Seconds        -> compile error
//   Bytes < Flops          -> compile error
//
// Construction from a raw double is explicit, and `.raw()` is the only way
// back out. The class is [[nodiscard]], so a computed quantity cannot be
// silently dropped (-Werror=unused-result). Policy (enforced by
// calculon-lint and tests/compile_fail/, see docs/correctness.md): raw
// doubles enter at the JSON-parse boundary, exit at the report-format /
// JSON-serialize boundary, and everything in between stays typed.
#pragma once

#include <cmath>

namespace calculon {

template <int ByteExp, int SecondExp, int FlopExp>
class [[nodiscard]] Quantity {
  static_assert(ByteExp != 0 || SecondExp != 0 || FlopExp != 0,
                "dimensionless quantities are plain double");

 public:
  constexpr Quantity() = default;
  constexpr explicit Quantity(double value) : value_(value) {}

  // The untyped value. Escape hatch for the JSON-parse and report-format
  // boundaries only; model arithmetic must stay in the type system.
  [[nodiscard]] constexpr double raw() const { return value_; }

  // Same-dimension arithmetic.
  constexpr Quantity& operator+=(Quantity o) {
    value_ += o.value_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity o) {
    value_ -= o.value_;
    return *this;
  }
  // Scaling by a dimensionless factor.
  constexpr Quantity& operator*=(double s) {
    value_ *= s;
    return *this;
  }
  constexpr Quantity& operator/=(double s) {
    value_ /= s;
    return *this;
  }

  [[nodiscard]] constexpr Quantity operator-() const {
    return Quantity(-value_);
  }
  [[nodiscard]] constexpr Quantity operator+() const { return *this; }

  // Hidden friends: found by argument-dependent lookup only, so a mixed
  // `Bytes + Seconds` has no viable overload and fails to compile.
  [[nodiscard]] friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity(a.value_ + b.value_);
  }
  [[nodiscard]] friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity(a.value_ - b.value_);
  }
  [[nodiscard]] friend constexpr Quantity operator*(Quantity a, double s) {
    return Quantity(a.value_ * s);
  }
  [[nodiscard]] friend constexpr Quantity operator*(double s, Quantity a) {
    return Quantity(s * a.value_);
  }
  [[nodiscard]] friend constexpr Quantity operator/(Quantity a, double s) {
    return Quantity(a.value_ / s);
  }

  [[nodiscard]] friend constexpr bool operator==(Quantity a, Quantity b) {
    return a.value_ == b.value_;
  }
  [[nodiscard]] friend constexpr bool operator!=(Quantity a, Quantity b) {
    return a.value_ != b.value_;
  }
  [[nodiscard]] friend constexpr bool operator<(Quantity a, Quantity b) {
    return a.value_ < b.value_;
  }
  [[nodiscard]] friend constexpr bool operator<=(Quantity a, Quantity b) {
    return a.value_ <= b.value_;
  }
  [[nodiscard]] friend constexpr bool operator>(Quantity a, Quantity b) {
    return a.value_ > b.value_;
  }
  [[nodiscard]] friend constexpr bool operator>=(Quantity a, Quantity b) {
    return a.value_ >= b.value_;
  }

 private:
  double value_ = 0.0;
};

namespace quantity_detail {

// Maps a dimension triple to its result type. The all-zero (dimensionless)
// case collapses to plain double, so same-dimension ratios leave the type
// system without an explicit escape hatch.
template <int B, int S, int F>
struct ResultOf {
  [[nodiscard]] static constexpr Quantity<B, S, F> Make(double v) {
    return Quantity<B, S, F>(v);
  }
};

template <>
struct ResultOf<0, 0, 0> {
  static constexpr double Make(double v) { return v; }
};

}  // namespace quantity_detail

// Dimension algebra: multiplication adds exponents, division subtracts.
template <int B1, int S1, int F1, int B2, int S2, int F2>
[[nodiscard]] constexpr auto operator*(Quantity<B1, S1, F1> a,
                                       Quantity<B2, S2, F2> b) {
  return quantity_detail::ResultOf<B1 + B2, S1 + S2, F1 + F2>::Make(a.raw() *
                                                                    b.raw());
}

template <int B1, int S1, int F1, int B2, int S2, int F2>
[[nodiscard]] constexpr auto operator/(Quantity<B1, S1, F1> a,
                                       Quantity<B2, S2, F2> b) {
  return quantity_detail::ResultOf<B1 - B2, S1 - S2, F1 - F2>::Make(a.raw() /
                                                                    b.raw());
}

// double / quantity inverts the dimension (e.g. samples / Seconds -> a rate).
template <int B, int S, int F>
[[nodiscard]] constexpr Quantity<-B, -S, -F> operator/(double s,
                                                       Quantity<B, S, F> q) {
  return Quantity<-B, -S, -F>(s / q.raw());
}

template <int B, int S, int F>
[[nodiscard]] inline bool IsFinite(Quantity<B, S, F> q) {
  return std::isfinite(q.raw());
}

template <int B, int S, int F>
[[nodiscard]] inline bool IsNan(Quantity<B, S, F> q) {
  return std::isnan(q.raw());
}

// The model's working set of dimensions.
using Bytes = Quantity<1, 0, 0>;
using Seconds = Quantity<0, 1, 0>;
using Flops = Quantity<0, 0, 1>;
using BytesPerSecond = Quantity<1, -1, 0>;
using FlopsPerSecond = Quantity<0, -1, 1>;
// Event rates whose "event" is a dimensionless count (samples/s, tokens/s).
using PerSecond = Quantity<0, -1, 0>;

// Factories. IEC (binary) multiples for byte capacities, SI (decimal)
// multiples for rates, matching the constants in util/units.h.
[[nodiscard]] constexpr Bytes KiB(double n) { return Bytes(n * 1024.0); }
[[nodiscard]] constexpr Bytes MiB(double n) { return Bytes(n * 1048576.0); }
[[nodiscard]] constexpr Bytes GiB(double n) { return Bytes(n * 1073741824.0); }
[[nodiscard]] constexpr Bytes TiB(double n) {
  return Bytes(n * 1099511627776.0);
}
[[nodiscard]] constexpr Bytes GB(double n) { return Bytes(n * 1e9); }
[[nodiscard]] constexpr Bytes TB(double n) { return Bytes(n * 1e12); }

[[nodiscard]] constexpr Seconds Milliseconds(double n) {
  return Seconds(n * 1e-3);
}
[[nodiscard]] constexpr Seconds Microseconds(double n) {
  return Seconds(n * 1e-6);
}

[[nodiscard]] constexpr BytesPerSecond GBps(double n) {
  return BytesPerSecond(n * 1e9);
}
[[nodiscard]] constexpr BytesPerSecond TBps(double n) {
  return BytesPerSecond(n * 1e12);
}

// Rates are written FLOPS (per second), counts GFlop/TFlop.
[[nodiscard]] constexpr FlopsPerSecond TFLOPS(double n) {
  return FlopsPerSecond(n * 1e12);
}
[[nodiscard]] constexpr Flops GFlop(double n) { return Flops(n * 1e9); }
[[nodiscard]] constexpr Flops TFlop(double n) { return Flops(n * 1e12); }

}  // namespace calculon
