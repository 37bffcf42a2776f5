#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <string>

#include "util/check.h"
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

// The scaled formatters as they were written with printf: the same
// scaling loop, then "%.4g <suffix><unit>". The to_chars formatters must
// print every value exactly so.
using Suffixes = std::array<const char*, 6>;
constexpr Suffixes kIecSuffixes = {"", "Ki", "Mi", "Gi", "Ti", "Pi"};
constexpr Suffixes kSiSuffixes = {"", "K", "M", "G", "T", "P"};

std::string PrintfScaled(double value, double base, const Suffixes& suffixes,
                         const char* unit) {
  double scaled = value;
  std::size_t idx = 0;
  while (std::fabs(scaled) >= base && idx + 1 < suffixes.size()) {
    scaled /= base;
    ++idx;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g %s%s", scaled, suffixes[idx], unit);
  return buf;
}

std::string PrintfBytes(double value) {
  return PrintfScaled(value, 1024.0, kIecSuffixes, "B");
}

std::string Hex(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

// Every scaled formatter of `value`, raw and typed, and AppendBytes after
// other text, against its printf reference.
void ExpectScaledAsPrintf(double value) {
  EXPECT_EQ(FormatBytes(value), PrintfBytes(value)) << Hex(value);
  EXPECT_EQ(FormatBytes(Bytes(value)), PrintfBytes(value)) << Hex(value);
  std::string appended = "needs ";
  AppendBytes(appended, Bytes(value));
  EXPECT_EQ(appended, "needs " + PrintfBytes(value)) << Hex(value);
  EXPECT_EQ(FormatBandwidth(value),
            PrintfScaled(value, 1000.0, kSiSuffixes, "B/s"))
      << Hex(value);
  EXPECT_EQ(FormatFlops(value),
            PrintfScaled(value, 1000.0, kSiSuffixes, "flop/s"))
      << Hex(value);
  EXPECT_EQ(FormatFlopCount(value),
            PrintfScaled(value, 1000.0, kSiSuffixes, "flop"))
      << Hex(value);
}

// A double of random sign and mantissa in one of the 60 binades
// [2^-5, 2^55), which span every suffix of both bases.
double RandomScaledValue(std::mt19937_64& gen) {
  const double mantissa =
      1.0 + static_cast<double>(gen() >> 12) * 0x1p-52;  // [1, 2)
  const int exponent = -5 + static_cast<int>(gen() % 60);
  const double value = std::ldexp(mantissa, exponent);
  return (gen() & 1) != 0 ? -value : value;
}

TEST(Units, ScaledFormattersPrintAsPrintfAtEveryBoundary) {
  for (const double base : {1000.0, 1024.0}) {
    double power = 1.0;
    for (int k = 0; k <= 7; ++k, power *= base) {
      // The suffix thresholds, and the values %.4g rounds up to the next
      // power of ten just below them.
      for (const double edge :
           {power, 0.99995 * power, 0.999949 * power, 9.9995 * power,
            999.95 * power, 1023.95 * power, 1023.949 * power}) {
        for (const double v :
             {edge, std::nextafter(edge, 0.0),
              std::nextafter(edge, std::numeric_limits<double>::infinity())}) {
          ExpectScaledAsPrintf(v);
          ExpectScaledAsPrintf(-v);
        }
      }
    }
  }
}

TEST(Units, ScaledFormattersPrintAsPrintfAtTheEdgesOfDouble) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  for (const double v :
       {0.0, -0.0, kDenormMin, -kDenormMin, 1e-310, -1e-310,
        std::nextafter(kMin, 0.0), kMin, -kMin, kMax, -kMax, kInf, -kInf,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN()}) {
    ExpectScaledAsPrintf(v);
  }
}

TEST(Units, ScaledFormattersPrintAsPrintfOnRandomValues) {
  std::mt19937_64 gen(20261019);
  for (int i = 0; i < 100000; ++i) ExpectScaledAsPrintf(RandomScaledValue(gen));
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

// InfeasibleError::Text() as it was composed: the restated prefixes, the
// reason, then ": " and the detail printf formatted, when there is one.
std::string ComposedText(Infeasible reason, int restated,
                         const std::string& detail) {
  std::string s;
  for (int i = 0; i < restated; ++i) {
    s += ToString(reason);
    s += ": ";
  }
  s += ToString(reason);
  if (!detail.empty()) s += ": " + detail;
  return s;
}

// Text(), and AppendTo after other text, of `error` against `expected`.
void ExpectText(const InfeasibleError& error, const std::string& expected) {
  EXPECT_EQ(error.Text(), expected);
  std::string row = "1,2,none,0,";
  error.AppendTo(row);
  EXPECT_EQ(row, "1,2,none,0," + expected);
}

template <std::size_t N>
void ExpectLiteralAsComposed(Infeasible reason, const char (&literal)[N]) {
  SCOPED_TRACE(literal);
  for (int restated = 0; restated <= 2; ++restated) {
    ExpectText(InfeasibleError{reason, ErrorDetail(literal), restated},
               ComposedText(reason, restated, literal));
  }
}

template <std::size_t N>
void ExpectIntsAsComposed(Infeasible reason, const char (&format)[N],
                          std::mt19937_64& gen) {
  SCOPED_TRACE(format);
  constexpr long long kMin = std::numeric_limits<long long>::min();
  constexpr long long kMax = std::numeric_limits<long long>::max();
  for (int i = 0; i < 200; ++i) {
    // Edges first, then draws of every magnitude and sign.
    const long long a = i == 0 ? kMin : i == 1 ? kMax : i == 2 ? 0
                        : static_cast<long long>(gen() >> (gen() % 64));
    const long long b = i == 0 ? kMax : i == 1 ? -1 : i == 2 ? 0
                        : -static_cast<long long>(gen() >> (gen() % 64));
    char detail[256];
    std::snprintf(detail, sizeof(detail), format, a, b);
    for (int restated = 0; restated <= 2; ++restated) {
      ExpectText(InfeasibleError{reason, ErrorDetail(format, a, b), restated},
                 ComposedText(reason, restated, detail));
    }
  }
}

template <std::size_t N>
void ExpectBytesAsComposed(Infeasible reason, const char (&format)[N],
                           std::mt19937_64& gen) {
  SCOPED_TRACE(format);
  for (int i = 0; i < 200; ++i) {
    const double a = i == 0 ? 0.0 : std::fabs(RandomScaledValue(gen));
    const double b = i == 0 ? std::numeric_limits<double>::infinity()
                            : std::fabs(RandomScaledValue(gen));
    char detail[256];
    std::snprintf(detail, sizeof(detail), format, PrintfBytes(a).c_str(),
                  PrintfBytes(b).c_str());
    for (int restated = 0; restated <= 2; ++restated) {
      ExpectText(
          InfeasibleError{reason, ErrorDetail(format, Bytes(a), Bytes(b)),
                          restated},
          ComposedText(reason, restated, detail));
    }
  }
}

// Every ErrorDetail the model builds (models/execution.cc,
// core/perf_model.cc, core/inference.cc), with its reason.
TEST(Error, EveryExplanationReadsAsItWasComposed) {
  using I = Infeasible;
  std::mt19937_64 gen(32);
  ExpectIntsAsComposed(I::kBadPartition, "t*p*d = %lld != %lld procs", gen);
  ExpectIntsAsComposed(I::kIndivisibleHeads, "t=%lld vs %lld heads", gen);
  ExpectBytesAsComposed(I::kMemoryCapacity, "needs %s, capacity %s", gen);
  ExpectBytesAsComposed(I::kOffloadCapacity, "needs %s tier-2, capacity %s",
                        gen);
  ExpectLiteralAsComposed(I::kBadPartition, "degrees must be >= 1");
  ExpectLiteralAsComposed(I::kBadPartition, "t*p*d overflows int64");
  ExpectLiteralAsComposed(I::kBadPartition,
                          "execution proc count != system proc count");
  ExpectLiteralAsComposed(I::kIndivisibleHeads,
                          "t does not divide feedforward");
  ExpectLiteralAsComposed(I::kIndivisibleHeads, "t does not divide sequence");
  ExpectLiteralAsComposed(I::kIndivisibleBlocks, "p exceeds blocks");
  ExpectLiteralAsComposed(I::kIndivisibleBlocks, "bad interleaving factor");
  ExpectLiteralAsComposed(I::kIndivisibleBatch,
                          "batch/microbatch must be >= 1");
  ExpectLiteralAsComposed(I::kIndivisibleBatch, "d*m does not divide batch");
  // A '%' in a literal without operands is text, not a conversion.
  ExpectLiteralAsComposed(I::kIndivisibleBatch,
                          "interleaving needs microbatches % p == 0");
  ExpectLiteralAsComposed(I::kIncompatibleOptions,
                          "seq_par requires tp_rs_ag");
  ExpectLiteralAsComposed(I::kIncompatibleOptions,
                          "seq_par_ag_redo requires seq_par");
  ExpectLiteralAsComposed(I::kIncompatibleOptions, "tp options need t > 1");
  ExpectLiteralAsComposed(I::kIncompatibleOptions, "dp options need d > 1");
  ExpectLiteralAsComposed(I::kIncompatibleOptions, "pp options need p > 1");
  ExpectLiteralAsComposed(I::kIncompatibleOptions, "pp_rs_ag needs t > 1");
  ExpectLiteralAsComposed(I::kIncompatibleOptions,
                          "training-only option in inference mode");
  ExpectLiteralAsComposed(I::kIncompatibleOptions,
                          "inference requires exec.training == false");
  ExpectLiteralAsComposed(I::kIncompatibleOptions,
                          "offloading is not modeled for inference");
  ExpectLiteralAsComposed(I::kBadConfig, "datatype_bytes must be > 0");
  ExpectLiteralAsComposed(I::kBadConfig, "bad inference config");
  ExpectLiteralAsComposed(I::kBadConfig, "non-finite batch time");
  ExpectLiteralAsComposed(I::kNetworkSize,
                          "no network covers a communicator");
  ExpectLiteralAsComposed(I::kOffloadCapacity, "no tier-2 memory in system");
  // No detail: the reason alone, with no ": ".
  ExpectLiteralAsComposed(I::kMemoryCapacity, "");
  for (int restated = 0; restated <= 2; ++restated) {
    ExpectText(InfeasibleError{I::kNetworkSize, {}, restated},
               ComposedText(I::kNetworkSize, restated, ""));
    // Text computed at the error site is kept as it is, '%' and all.
    const std::string text = "non-finite or negative 100% of %s";
    ExpectText(InfeasibleError{I::kBadConfig, ErrorDetail(text), restated},
               ComposedText(I::kBadConfig, restated, text));
  }
}

TEST(Error, AnotherConversionFailsItsDcheck) {
  const ErrorDetail ints("t=%d vs %lld heads", 8LL, 96LL);
  const ErrorDetail bytes("needs %s, capacity %s of %s", GiB(1), GiB(2));
#ifdef NDEBUG
  // Release: the substitution stops at a conversion it does not expect,
  // and the rest of the format is kept as text.
  EXPECT_EQ(ints.Text(), "t=%d vs %lld heads");
  EXPECT_EQ(bytes.Text(), "needs 1 GiB, capacity 2 GiB of %s");
#else
  EXPECT_THROW((void)ints.Text(), ContractViolation);
  EXPECT_THROW((void)bytes.Text(), ContractViolation);
#endif
}

TEST(Error, InfeasibleFromStringRejectsUnknown) {
  EXPECT_THROW((void)InfeasibleFromString("not a reason"), ConfigError);
  EXPECT_THROW((void)InfeasibleFromString(""), ConfigError);
}

}  // namespace
}  // namespace calculon
