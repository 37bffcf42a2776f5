// Small integer-math helpers used when enumerating partitionings.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace calculon {

// Ceiling division for non-negative integers.
[[nodiscard]] constexpr std::int64_t CeilDiv(std::int64_t a, std::int64_t b) {
  CALC_DCHECK(a >= 0 && b > 0, "CeilDiv(%lld, %lld)",
              static_cast<long long>(a), static_cast<long long>(b));
  return (a + b - 1) / b;
}

// All positive divisors of n, ascending. n must be >= 1.
[[nodiscard]] std::vector<std::int64_t> Divisors(std::int64_t n);

// All ordered triples (t, p, d) with t*p*d == n.
struct Triple {
  std::int64_t t;
  std::int64_t p;
  std::int64_t d;
};
[[nodiscard]] std::vector<Triple> FactorTriples(std::int64_t n);

// Smallest divisor of n that is >= lo (n if none smaller fits).
[[nodiscard]] std::int64_t NextDivisor(std::int64_t n, std::int64_t lo);

// Overflow-checked multiply: returns false (and leaves *out unspecified)
// when a*b does not fit in int64. Used by the search engines when deriving
// partition products from user-controlled counts.
[[nodiscard]] bool CheckedMul(std::int64_t a, std::int64_t b,
                              std::int64_t* out);

}  // namespace calculon
