#include <gtest/gtest.h>

#include <cmath>

#include "search/pricing.h"
#include "util/units.h"

namespace calculon {
namespace {

TEST(Pricing, UnitPricesMatchThePaper) {
  EXPECT_DOUBLE_EQ((SystemDesign{20.0, 0.0}.UnitPrice()), 22'250.0);
  EXPECT_DOUBLE_EQ((SystemDesign{40.0, 0.0}.UnitPrice()), 25'000.0);
  EXPECT_DOUBLE_EQ((SystemDesign{80.0, 0.0}.UnitPrice()), 30'000.0);
  EXPECT_DOUBLE_EQ((SystemDesign{120.0, 0.0}.UnitPrice()), 40'000.0);
  EXPECT_DOUBLE_EQ((SystemDesign{20.0, 256.0}.UnitPrice()), 24'750.0);
  EXPECT_DOUBLE_EQ((SystemDesign{80.0, 512.0}.UnitPrice()), 40'000.0);
  EXPECT_DOUBLE_EQ((SystemDesign{120.0, 1024.0}.UnitPrice()), 60'000.0);
}

// Table 3's "Max GPUs" column, reproduced exactly for all 16 designs.
struct MaxGpusCase {
  double hbm;
  double ddr;
  std::int64_t expected;
};

class MaxGpusTest : public ::testing::TestWithParam<MaxGpusCase> {};

TEST_P(MaxGpusTest, MatchesTable3) {
  const auto& c = GetParam();
  EXPECT_EQ((SystemDesign{c.hbm, c.ddr}.MaxGpus(125e6)), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Table3, MaxGpusTest,
    ::testing::Values(
        MaxGpusCase{20, 0, 5616}, MaxGpusCase{40, 0, 5000},
        MaxGpusCase{80, 0, 4160}, MaxGpusCase{120, 0, 3120},
        MaxGpusCase{20, 256, 5048}, MaxGpusCase{40, 256, 4544},
        MaxGpusCase{80, 256, 3840}, MaxGpusCase{120, 256, 2936},
        MaxGpusCase{20, 512, 3872}, MaxGpusCase{40, 512, 3568},
        MaxGpusCase{80, 512, 3120}, MaxGpusCase{120, 512, 2496},
        MaxGpusCase{20, 1024, 2952}, MaxGpusCase{40, 1024, 2776},
        MaxGpusCase{80, 1024, 2496}, MaxGpusCase{120, 1024, 2080}));

TEST(Pricing, MaxGpusRejectsBudgetsItCannotCount) {
  const SystemDesign design{20.0, 0.0};
  EXPECT_EQ(design.MaxGpus(0.0), 0);
  EXPECT_EQ(design.MaxGpus(1e5), 0);  // 4 GPUs, not a whole NVLink domain
  // 1e17 / 22,250 = 4.49e12 GPUs: large, but an int64 holds it.
  EXPECT_EQ(design.MaxGpus(1e17), 4'494'382'022'464);
  // Negative, non-finite, or more GPUs than an int64 counts (2^63 ~
  // 9.2e18 GPUs is about $2e23).
  for (double budget : {-1.0, -1e-300, 1e24, 1e300, HUGE_VAL, -HUGE_VAL,
                        std::nan("")}) {
    EXPECT_THROW((void)design.MaxGpus(budget), ConfigError)
        << "budget " << budget;
  }
}

TEST(Pricing, BuildProducesMatchingSystem) {
  const SystemDesign d{20.0, 256.0};
  const System sys = d.Build(5048);
  EXPECT_EQ(sys.num_procs(), 5048);
  EXPECT_DOUBLE_EQ(sys.proc().mem1.capacity().raw(), 20.0 * kGiB);
  EXPECT_DOUBLE_EQ(sys.proc().mem1.bandwidth().raw(), 3e12);  // HBM3, 3 TB/s
  EXPECT_TRUE(sys.proc().mem2.present());
  EXPECT_DOUBLE_EQ(sys.proc().mem2.capacity().raw(), 256.0 * kGiB);
  EXPECT_DOUBLE_EQ(sys.proc().mem2.bandwidth().raw(), 100e9);
}

TEST(Pricing, NoDdrMeansNoTier2) {
  const System sys = SystemDesign{80.0, 0.0}.Build(64);
  EXPECT_FALSE(sys.proc().mem2.present());
}

TEST(Pricing, UnknownCapacityThrows) {
  EXPECT_THROW(((void)SystemDesign{64.0, 0.0}.UnitPrice()), ConfigError);
  EXPECT_THROW(((void)SystemDesign{80.0, 100.0}.UnitPrice()), ConfigError);
}

TEST(Pricing, LabelsAreReadable) {
  EXPECT_EQ((SystemDesign{20.0, 0.0}.Label()), "20G");
  EXPECT_EQ((SystemDesign{80.0, 256.0}.Label()), "80G+256G");
  EXPECT_EQ((SystemDesign{120.0, 1024.0}.Label()), "120G+1T");
}

TEST(Pricing, Table3DesignsEnumerateAllSixteen) {
  const auto designs = Table3Designs();
  EXPECT_EQ(designs.size(), 16u);
  // All distinct.
  for (std::size_t i = 0; i < designs.size(); ++i) {
    for (std::size_t j = i + 1; j < designs.size(); ++j) {
      EXPECT_FALSE(designs[i].hbm_gib == designs[j].hbm_gib &&
                   designs[i].ddr_gib == designs[j].ddr_gib);
    }
  }
}

}  // namespace
}  // namespace calculon
