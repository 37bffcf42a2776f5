#include <gtest/gtest.h>

#include <ostream>

#include "json/json.h"
#include "models/application.h"
#include "models/presets.h"

namespace calculon {
namespace {

TEST(Application, BlockParametersClosedForm) {
  Application app;
  app.hidden = 4;
  app.feedforward = 16;
  app.attn_heads = 2;
  app.attn_size = 2;
  app.seq_size = 8;
  app.num_blocks = 3;
  // attention: 3*(4*4 + 4) + 4*4 + 4 = 60 + 20 = 80
  // mlp: 4*16 + 16 + 16*4 + 4 = 148
  // norms: 2*2*4 = 16
  EXPECT_EQ(app.BlockParameters(), 80 + 148 + 16);
  EXPECT_EQ(app.TotalParameters(), 3 * (80 + 148 + 16));
}

TEST(Application, ValidateRejectsMissingFields) {
  Application app;
  EXPECT_THROW(app.Validate(), ConfigError);
  app.hidden = 1024;
  app.feedforward = 4096;
  app.attn_heads = 16;
  app.attn_size = 64;
  app.seq_size = 2048;
  app.num_blocks = 24;
  EXPECT_NO_THROW(app.Validate());
  app.attn_heads = 0;
  EXPECT_THROW(app.Validate(), ConfigError);
}

TEST(Application, JsonRoundTrip) {
  const Application app = presets::Gpt3_175B();
  const Application back = Application::FromJson(app.ToJson());
  EXPECT_EQ(back.name, app.name);
  EXPECT_EQ(back.hidden, app.hidden);
  EXPECT_EQ(back.feedforward, app.feedforward);
  EXPECT_EQ(back.attn_heads, app.attn_heads);
  EXPECT_EQ(back.attn_size, app.attn_size);
  EXPECT_EQ(back.seq_size, app.seq_size);
  EXPECT_EQ(back.num_blocks, app.num_blocks);
}

TEST(Application, JsonDefaultsDerivedFields) {
  const Application app = Application::FromJson(json::Parse(
      R"({"hidden": 1024, "attn_heads": 16, "seq_size": 2048,
          "num_blocks": 24})"));
  EXPECT_EQ(app.feedforward, 4096);   // 4 * hidden
  EXPECT_EQ(app.attn_size, 64);       // hidden / heads
}

// Spec sizes are untrusted: the derived defaults and the parameter counts
// must turn bad sizes into ConfigError, never a division by zero or a
// signed overflow.
TEST(Application, FromJsonChecksSizesBeforeDerivingDefaults) {
  const auto load = [](const char* text) {
    return Application::FromJson(json::Parse(text));
  };
  EXPECT_THROW((void)load(R"({"hidden": 1024, "attn_heads": 0,
                             "seq_size": 2048, "num_blocks": 24})"),
               ConfigError);
  EXPECT_THROW((void)load(R"({"hidden": 0, "attn_heads": 16,
                             "seq_size": 2048, "num_blocks": 24})"),
               ConfigError);
  // 4 * hidden, the default feedforward, overflows int64.
  EXPECT_THROW((void)load(R"({"hidden": 4e18, "attn_heads": 1,
                             "attn_size": 1, "seq_size": 2048,
                             "num_blocks": 24})"),
               ConfigError);
}

TEST(Application, ValidateRejectsOverflowingParameterCounts) {
  Application app = presets::Gpt3_175B();
  EXPECT_NO_THROW(app.Validate());
  app.vocab_size = 1'000'000'000'000'000;  // 2 * 1e15 * 12288 overflows
  EXPECT_THROW(app.Validate(), ConfigError);
  app = presets::Gpt3_175B();
  app.attn_heads = 1'000'000'000'000'000;  // h * heads * size overflows
  EXPECT_THROW(app.Validate(), ConfigError);
  app = presets::Gpt3_175B();
  app.num_blocks = 1'000'000'000'000;  // the block stack overflows
  EXPECT_THROW(app.Validate(), ConfigError);
  // The largest counts that fit still load.
  app = presets::Gpt3_175B();
  app.vocab_size = 1'000'000'000'000;
  EXPECT_NO_THROW(app.Validate());
  EXPECT_EQ(app.EmbeddingParameters(), 2 * 1'000'000'000'000 * 12288);
}

// The presets should reproduce the headline parameter counts (~12 h^2 per
// block; embeddings excluded, so counts land slightly under the marketing
// number).
struct PresetCase {
  const char* name;
  double expected_params;
  double tolerance;  // relative
};

// Test names carry the printed parameter; print the preset name rather than
// the default byte dump, which would embed the address of `name`.
void PrintTo(const PresetCase& c, std::ostream* os) { *os << c.name; }

class PresetParamsTest : public ::testing::TestWithParam<PresetCase> {};

TEST_P(PresetParamsTest, ParameterCountMatchesHeadline) {
  const auto& [name, expected, tol] = GetParam();
  const Application app = presets::ApplicationByName(name);
  EXPECT_NEAR(static_cast<double>(app.TotalParameters()) / expected, 1.0, tol)
      << name;
}

INSTANTIATE_TEST_SUITE_P(
    Presets, PresetParamsTest,
    ::testing::Values(PresetCase{"gpt2_1p5b", 1.5e9, 0.05},
                      PresetCase{"gpt3_6p7b", 6.7e9, 0.05},
                      PresetCase{"gpt3_13b", 13e9, 0.05},
                      PresetCase{"llama2_70b", 70e9, 0.20},
                      PresetCase{"bloom_176b", 176e9, 0.05},
                      PresetCase{"megatron_22b", 22e9, 0.05},
                      PresetCase{"anthropic_52b", 52e9, 0.05},
                      PresetCase{"chinchilla_70b", 70e9, 0.10},
                      PresetCase{"gpt3_175b", 175e9, 0.02},
                      PresetCase{"turing_530b", 530e9, 0.02},
                      PresetCase{"megatron_1t", 1000e9, 0.02}));

TEST(Presets, HeadsDivideHidden) {
  for (const std::string& name : presets::ApplicationNames()) {
    const Application app = presets::ApplicationByName(name);
    EXPECT_EQ(app.hidden % app.attn_heads, 0) << name;
    EXPECT_EQ(app.attn_size * app.attn_heads, app.hidden) << name;
  }
}

TEST(Presets, TuringHasNonPowerOfTwoBlocks) {
  // The paper singles out Turing-NLG's non-power-of-two shape as the cause
  // of its severe efficiency cliffs.
  const Application app = presets::TuringNlg530B();
  EXPECT_EQ(app.num_blocks, 105);
  EXPECT_NE(app.num_blocks & (app.num_blocks - 1), 0);
}

TEST(Presets, UnknownNameThrows) {
  EXPECT_THROW(presets::ApplicationByName("gpt5"), ConfigError);
}

}  // namespace
}  // namespace calculon
