#include <gtest/gtest.h>

#include <limits>

#include "util/error.h"
#include "util/mathutil.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/units.h"

namespace calculon {
namespace {

// --- units ---

TEST(Units, FormatBytesPicksBinarySuffix) {
  EXPECT_EQ(FormatBytes(512.0), "512 B");
  EXPECT_EQ(FormatBytes(80.0 * kGiB), "80 GiB");
  EXPECT_EQ(FormatBytes(4.0 * kTiB), "4 TiB");
}

TEST(Units, FormatBandwidthPicksDecimalSuffix) {
  EXPECT_EQ(FormatBandwidth(100e9), "100 GB/s");
  EXPECT_EQ(FormatBandwidth(3e12), "3 TB/s");
}

TEST(Units, FormatFlops) {
  EXPECT_EQ(FormatFlops(312e12), "312 Tflop/s");
  EXPECT_EQ(FormatFlopCount(231.9e9), "231.9 Gflop");
}

TEST(Units, FormatTimeAdaptsUnit) {
  EXPECT_EQ(FormatTime(16.7), "16.7 s");
  EXPECT_EQ(FormatTime(0.231), "231 ms");
  EXPECT_EQ(FormatTime(4.2e-6), "4.2 us");
  EXPECT_EQ(FormatTime(3.0e-10), "0.3 ns");
}

TEST(Units, FormatNumberTrimsTrailingZeros) {
  EXPECT_EQ(FormatNumber(16.70, 2), "16.7");
  EXPECT_EQ(FormatNumber(5.0, 2), "5");
  EXPECT_EQ(FormatNumber(0.125, 3), "0.125");
}

TEST(Units, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.2934), "29.3%");
  EXPECT_EQ(FormatPercent(1.0, 0), "100%");
}

// Edge-case pinning for the report formatters: zero, sub-unit values,
// exact unit thresholds, suffix saturation, sign, and non-finite inputs.
// These pin current behavior so report output stays stable across refactors.

TEST(Units, FormatBytesEdgeCases) {
  EXPECT_EQ(FormatBytes(0.0), "0 B");
  EXPECT_EQ(FormatBytes(1023.0), "1023 B");     // just below the threshold
  EXPECT_EQ(FormatBytes(1024.0), "1 KiB");      // exact IEC threshold
  EXPECT_EQ(FormatBytes(1536.0), "1.5 KiB");
  EXPECT_EQ(FormatBytes(-2048.0), "-2 KiB");    // sign survives scaling
  EXPECT_EQ(FormatBytes(2.0 * kTiB * kKiB), "2 PiB");
  // Beyond the largest suffix the value saturates at Pi and keeps growing.
  EXPECT_EQ(FormatBytes(kTiB * kTiB / kMiB), "1024 PiB");
}

TEST(Units, FormatBytesNonFinite) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(FormatBytes(inf), "inf PiB");
  EXPECT_EQ(FormatBytes(std::numeric_limits<double>::quiet_NaN()), "nan B");
}

TEST(Units, FormatBandwidthEdgeCases) {
  EXPECT_EQ(FormatBandwidth(0.0), "0 B/s");
  EXPECT_EQ(FormatBandwidth(999.0), "999 B/s");   // just below the threshold
  EXPECT_EQ(FormatBandwidth(1000.0), "1 KB/s");   // exact SI threshold
  EXPECT_EQ(FormatBandwidth(7.5e18), "7500 PB/s");
}

TEST(Units, FormatFlopsEdgeCases) {
  EXPECT_EQ(FormatFlops(1e15), "1 Pflop/s");
  EXPECT_EQ(FormatFlopCount(0.0), "0 flop");
}

TEST(Units, FormatTimeEdgeCases) {
  EXPECT_EQ(FormatTime(0.0), "0 s");
  EXPECT_EQ(FormatTime(1.0), "1 s");        // exact seconds threshold
  EXPECT_EQ(FormatTime(1e-3), "1 ms");      // exact milliseconds threshold
  EXPECT_EQ(FormatTime(1e-6), "1 us");      // exact microseconds threshold
  EXPECT_EQ(FormatTime(-0.002), "-2 ms");   // sign picks the same unit
  EXPECT_EQ(FormatTime(123456.0), "1.235e+05 s");
}

TEST(Units, FormatTimeNonFinite) {
  EXPECT_EQ(FormatTime(std::numeric_limits<double>::infinity()), "inf s");
  // NaN fails every >= comparison, so it falls through to the ns branch.
  EXPECT_EQ(FormatTime(std::numeric_limits<double>::quiet_NaN()), "nan ns");
}

TEST(Units, FormatNumberEdgeCases) {
  EXPECT_EQ(FormatNumber(0.0, 2), "0");
  EXPECT_EQ(FormatNumber(0.001, 3), "0.001");   // smallest "plain range" value
  EXPECT_EQ(FormatNumber(1.23e-5, 3), "1.23e-05");
  EXPECT_EQ(FormatNumber(12345678.0, 1), "1.235e+07");
  EXPECT_EQ(FormatNumber(-2.5, 2), "-2.5");
  EXPECT_EQ(FormatNumber(std::numeric_limits<double>::quiet_NaN(), 2), "nan");
}

TEST(Units, FormatPercentEdgeCases) {
  EXPECT_EQ(FormatPercent(0.0), "0.0%");
  EXPECT_EQ(FormatPercent(-0.05, 2), "-5.00%");
}

// The typed overloads are thin adapters over the raw formatters; pin that
// a value routed through a Quantity renders identically to its .raw() form.
TEST(Units, TypedOverloadsMatchRawFormatters) {
  EXPECT_EQ(FormatBytes(GiB(80)), FormatBytes(80.0 * kGiB));
  EXPECT_EQ(FormatBytes(Bytes(0.0)), "0 B");
  EXPECT_EQ(FormatBandwidth(GBps(100)), "100 GB/s");
  EXPECT_EQ(FormatBandwidth(BytesPerSecond(3e12)), FormatBandwidth(3e12));
  EXPECT_EQ(FormatFlops(TFLOPS(312)), "312 Tflop/s");
  EXPECT_EQ(FormatFlopCount(GFlop(231.9)), "231.9 Gflop");
  EXPECT_EQ(FormatTime(Seconds(0.231)), "231 ms");
  EXPECT_EQ(FormatTime(Milliseconds(4.2e-3)), FormatTime(4.2e-6));
}

// --- mathutil ---

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(CeilDiv(96, 64), 2);
  EXPECT_EQ(CeilDiv(96, 32), 3);
  EXPECT_EQ(CeilDiv(0, 5), 0);
  EXPECT_EQ(CeilDiv(5, 5), 1);
}

TEST(MathUtil, DivisorsAreSortedAndComplete) {
  EXPECT_EQ(Divisors(1), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(Divisors(12), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(Divisors(16), (std::vector<std::int64_t>{1, 2, 4, 8, 16}));
  const auto d = Divisors(4096);
  EXPECT_EQ(d.size(), 13u);  // 2^0 .. 2^12
  EXPECT_EQ(d.front(), 1);
  EXPECT_EQ(d.back(), 4096);
}

TEST(MathUtil, DivisorsRejectsNonPositive) {
  EXPECT_THROW(Divisors(0), std::invalid_argument);
}

TEST(MathUtil, FactorTriplesCoverProduct) {
  const auto triples = FactorTriples(12);
  for (const Triple& tr : triples) {
    EXPECT_EQ(tr.t * tr.p * tr.d, 12);
  }
  // d(n) summed over divisors: 12 -> 1,2,3,4,6,12 with d() 6,4,3,... = 18.
  EXPECT_EQ(triples.size(), 18u);
}

TEST(MathUtil, FactorTriplesPowerOfTwoCount) {
  // For 2^k the count is (k+1)(k+2)/2; the paper's 4096-GPU studies use 91.
  EXPECT_EQ(FactorTriples(4096).size(), 91u);
}

TEST(MathUtil, NextDivisor) {
  EXPECT_EQ(NextDivisor(96, 5), 6);
  EXPECT_EQ(NextDivisor(96, 97), 96);
  EXPECT_EQ(NextDivisor(96, 1), 1);
}

// --- strings ---

TEST(Strings, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("no-op"), "no-op");
}

TEST(Strings, ToLowerAndStartsWith) {
  EXPECT_EQ(ToLower("GPT3-175B"), "gpt3-175b");
  EXPECT_TRUE(StartsWith("megatron_1t", "mega"));
  EXPECT_FALSE(StartsWith("a", "ab"));
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(Strings, Fnv1aMatchesTheReferenceVectors) {
  EXPECT_EQ(Fnv1a(kFnv1aOffsetBasis, ""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a(kFnv1aOffsetBasis, "a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a(kFnv1aOffsetBasis, "foobar"), 0x85944171f73967e8ULL);
  // Folding in pieces is folding the concatenation.
  EXPECT_EQ(Fnv1a(Fnv1a(kFnv1aOffsetBasis, "foo"), "bar"),
            Fnv1a(kFnv1aOffsetBasis, "foobar"));
}

// --- table ---

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"a", "long-header"});
  t.AddRow({"xxxx", "1"});
  t.AddRule();
  t.AddRow({"y", "2"});
  EXPECT_EQ(t.num_rows(), 3u);  // two rows + one rule
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| xxxx | 1           |"), std::string::npos);
  EXPECT_NE(s.find("+------+-------------+"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"name", "value"});
  t.AddRow({"with,comma", "with\"quote"});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

// --- error ---

TEST(Error, ResultHoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.reason(), Infeasible::kNone);
  EXPECT_EQ(r.detail(), "");
}

TEST(Error, ResultHoldsReason) {
  Result<int> r(Infeasible::kMemoryCapacity, "needs 90 GiB");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.reason(), Infeasible::kMemoryCapacity);
  EXPECT_EQ(r.detail(), "insufficient memory capacity: needs 90 GiB");
  EXPECT_THROW((void)r.value(), std::logic_error);
}

TEST(Error, AllReasonsHaveNames) {
  for (int i = 0; i <= static_cast<int>(Infeasible::kBadConfig); ++i) {
    EXPECT_STRNE(ToString(static_cast<Infeasible>(i)), "unknown");
  }
}

TEST(Error, ValueOrReturnsValueWhenOk) {
  const Result<int> r(42);
  EXPECT_EQ(r.value_or(-1), 42);
  EXPECT_EQ(Result<std::string>("hit").value_or("miss"), "hit");
}

TEST(Error, ValueOrReturnsFallbackOnError) {
  const Result<int> r(Infeasible::kNetworkSize, "too big");
  EXPECT_EQ(r.value_or(-1), -1);
  EXPECT_EQ(Result<std::string>(Infeasible::kBadConfig).value_or("miss"),
            "miss");
}

TEST(Error, InfeasibleStringsRoundTrip) {
  for (int i = 0; i <= static_cast<int>(Infeasible::kBadConfig); ++i) {
    const auto reason = static_cast<Infeasible>(i);
    EXPECT_EQ(InfeasibleFromString(ToString(reason)), reason);
  }
}

TEST(Error, InfeasibleFromStringRejectsUnknown) {
  EXPECT_THROW((void)InfeasibleFromString("not a reason"), ConfigError);
  EXPECT_THROW((void)InfeasibleFromString(""), ConfigError);
}

}  // namespace
}  // namespace calculon
