#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "json/json.h"

namespace calculon::json {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Parse("null").is_null());
  EXPECT_EQ(Parse("true").AsBool(), true);
  EXPECT_EQ(Parse("false").AsBool(), false);
  EXPECT_DOUBLE_EQ(Parse("3.5").AsDouble(), 3.5);
  EXPECT_DOUBLE_EQ(Parse("-2e3").AsDouble(), -2000.0);
  EXPECT_EQ(Parse("12288").AsInt(), 12288);
  EXPECT_EQ(Parse("\"hi\"").AsString(), "hi");
}

TEST(JsonParse, NestedStructures) {
  const Value v = Parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").AsArray().size(), 3u);
  EXPECT_EQ(v.at("a").AsArray()[2].at("b").AsBool(), true);
  EXPECT_EQ(v.at("c").AsString(), "x");
}

TEST(JsonParse, WhitespaceAndLineComments) {
  const Value v = Parse(
      "{\n"
      "  // hidden size of the model\n"
      "  \"hidden\": 12288, // trailing comment\n"
      "  \"blocks\": 96\n"
      "}\n");
  EXPECT_EQ(v.at("hidden").AsInt(), 12288);
  EXPECT_EQ(v.at("blocks").AsInt(), 96);
}

TEST(JsonParse, TrailingCommas) {
  EXPECT_EQ(Parse("[1, 2, 3,]").AsArray().size(), 3u);
  EXPECT_EQ(Parse("{\"a\": 1,}").AsObject().size(), 1u);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Parse(R"("a\"b\\c\nd\te")").AsString(), "a\"b\\c\nd\te");
  EXPECT_EQ(Parse(R"("A")").AsString(), "A");
  EXPECT_EQ(Parse(R"("é")").AsString(), "\xC3\xA9");   // é
  EXPECT_EQ(Parse(R"("€")").AsString(), "\xE2\x82\xAC");  // €
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  try {
    (void)Parse("{\n  \"a\": }\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos);
  }
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(Parse(""), ConfigError);
  EXPECT_THROW(Parse("{"), ConfigError);
  EXPECT_THROW(Parse("[1 2]"), ConfigError);
  EXPECT_THROW(Parse("tru"), ConfigError);
  EXPECT_THROW(Parse("\"unterminated"), ConfigError);
  EXPECT_THROW(Parse("{} trailing"), ConfigError);
  EXPECT_THROW(Parse("nan"), ConfigError);
}

TEST(JsonParse, TruncatedInputAtEveryPrefixErrors) {
  // Every proper prefix of a valid document must produce a parse error (or,
  // for prefixes that happen to be complete values, parse fine) — never
  // crash or read out of bounds. Exercised under ASan/UBSan in CI.
  const std::string doc =
      R"({"name": "a100", "nums": [1, 2.5, -3e1], "flag": true, "n": null})";
  for (std::size_t len = 0; len < doc.size(); ++len) {
    try {
      (void)Parse(std::string_view(doc).substr(0, len));
    } catch (const ConfigError&) {
      // expected for almost all prefixes
    }
  }
  EXPECT_THROW((void)Parse(doc.substr(0, doc.size() - 1)), ConfigError);
}

TEST(JsonParse, TruncatedEscapesAndLiteralsError) {
  EXPECT_THROW((void)Parse("\"\\"), ConfigError);
  EXPECT_THROW((void)Parse("\"\\u12"), ConfigError);
  EXPECT_THROW((void)Parse("{\"a\": tr"), ConfigError);
  EXPECT_THROW((void)Parse("[1,"), ConfigError);
  EXPECT_THROW((void)Parse("{\"a\":"), ConfigError);
  EXPECT_THROW((void)Parse("{\"a\""), ConfigError);
  EXPECT_THROW((void)Parse("-"), ConfigError);
  EXPECT_THROW((void)Parse("1e"), ConfigError);
}

TEST(JsonParse, InvalidEscapesError) {
  EXPECT_THROW((void)Parse(R"("\q")"), ConfigError);
  EXPECT_THROW((void)Parse(R"("\x41")"), ConfigError);
  EXPECT_THROW((void)Parse(R"("\u12g4")"), ConfigError);
  EXPECT_THROW((void)Parse(R"("\U0041")"), ConfigError);
  // Valid escapes still work.
  EXPECT_EQ(Parse(R"("A\n")").AsString(), "A\n");
}

TEST(JsonParse, DuplicateKeysError) {
  EXPECT_THROW((void)Parse(R"({"a": 1, "a": 2})"), ConfigError);
  EXPECT_THROW((void)Parse(R"({"a": {"b": 1, "b": 1}})"), ConfigError);
  try {
    (void)Parse(R"({"hidden": 1, "hidden": 2})");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate key 'hidden'"),
              std::string::npos);
  }
  // Same key in sibling objects is fine.
  EXPECT_NO_THROW((void)Parse(R"({"a": {"x": 1}, "b": {"x": 2}})"));
}

TEST(JsonParse, DeepNestingErrorsInsteadOfOverflowing) {
  // A pathological input must be rejected by the depth limit, not crash by
  // exhausting the stack.
  const std::string deep_arrays(100000, '[');
  EXPECT_THROW((void)Parse(deep_arrays), ConfigError);
  std::string deep_objects;
  for (int i = 0; i < 50000; ++i) deep_objects += "{\"k\":";
  EXPECT_THROW((void)Parse(deep_objects), ConfigError);
  // Moderate nesting (the realistic regime) still parses.
  std::string ok = "1";
  for (int i = 0; i < 64; ++i) ok = "[" + ok + "]";
  EXPECT_NO_THROW((void)Parse(ok));
}

TEST(JsonParse, DeepTerminatedNestingIsRejectedNotOverflowed) {
  // Unlike the unterminated case above, this is a syntactically complete
  // 100k-deep document: the parser must hit the depth limit while the
  // input is still valid, not recurse to the closing brackets.
  constexpr int kDepth = 100000;
  std::string deep;
  deep.reserve(2 * kDepth + 1);
  deep.append(kDepth, '[');
  deep += '1';
  deep.append(kDepth, ']');
  try {
    (void)Parse(deep);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("nest"), std::string::npos)
        << e.what();
  }
  // Mixed object/array nesting hits the same limit.
  std::string mixed;
  for (int i = 0; i < kDepth; ++i) mixed += "{\"k\":[";
  mixed += "0";
  for (int i = 0; i < kDepth; ++i) mixed += "]}";
  EXPECT_THROW((void)Parse(mixed), ConfigError);
}

TEST(JsonValue, TypeMismatchesThrow) {
  const Value v = Parse("{\"a\": 1}");
  EXPECT_THROW((void)v.AsArray(), ConfigError);
  EXPECT_THROW((void)v.at("a").AsString(), ConfigError);
  EXPECT_THROW((void)v.at("missing"), ConfigError);
  EXPECT_THROW((void)Parse("1.5").AsInt(), ConfigError);
}

// The int64 cast is undefined outside int64's range, so the range is
// checked first: every out-of-range number is a ConfigError.
TEST(JsonValue, AsIntRejectsNumbersOutsideTheInt64Range) {
  for (const char* text : {"1e300", "-1e300", "9223372036854775808",
                           "-9223372036854777856", "1e19"}) {
    EXPECT_THROW((void)Parse(text).AsInt(), ConfigError) << text;
  }
  EXPECT_EQ(Parse("-9223372036854775808").AsInt(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(Parse("9223372036854774784").AsInt(), 9223372036854774784);
  EXPECT_THROW((void)Parse("{\"size\": 1e300}").GetInt("size", 0),
               ConfigError);
}

TEST(JsonValue, DefaultingAccessors) {
  const Value v = Parse("{\"x\": 7, \"flag\": true}");
  EXPECT_EQ(v.GetInt("x", 0), 7);
  EXPECT_EQ(v.GetInt("y", 3), 3);
  EXPECT_EQ(v.GetBool("flag", false), true);
  EXPECT_EQ(v.GetString("name", "default"), "default");
  // Present key of the wrong type still throws (catches config typos).
  EXPECT_THROW((void)v.GetBool("x", false), ConfigError);
}

TEST(JsonValue, CopyHasValueSemantics) {
  Value a = Parse("{\"k\": [1]}");
  Value b = a;
  b["k"].AsArray().push_back(Value(2));
  EXPECT_EQ(a.at("k").AsArray().size(), 1u);  // original untouched
  EXPECT_EQ(b.at("k").AsArray().size(), 2u);
}

TEST(JsonValue, Equality) {
  EXPECT_EQ(Parse("{\"a\": [1, true]}"), Parse("{ \"a\" : [ 1 , true ] }"));
  EXPECT_FALSE(Parse("1") == Parse("2"));
  EXPECT_FALSE(Parse("1") == Parse("\"1\""));
}

TEST(JsonDump, RoundTripsThroughParse) {
  const char* docs[] = {
      "null",
      "true",
      R"({"a": [1, 2.5, "x", null, {"b": false}], "c": {}})",
      "[[], {}, [[1]]]",
      R"("quote\" backslash\\ newline\n")",
  };
  for (const char* doc : docs) {
    const Value v = Parse(doc);
    EXPECT_EQ(Parse(v.Dump(0)), v) << doc;
    EXPECT_EQ(Parse(v.Dump(2)), v) << doc;
  }
}

TEST(JsonDump, IntegersStayIntegral) {
  EXPECT_EQ(Value(4096).Dump(), "4096");
  EXPECT_EQ(Value(80.0 * 1024 * 1024 * 1024).Dump(), "85899345920");
}

TEST(JsonDump, NumbersBeyondTheIntegerRangeUsePrintfDigits) {
  // Past the integer range the value is never cast to int64 (undefined for
  // |d| >= 2^63) and prints as %.17g.
  EXPECT_EQ(Value(1e300).Dump(), "1.0000000000000001e+300");
  EXPECT_EQ(Value(-1e19).Dump(), "-1e+19");
  EXPECT_EQ(Value(1e15).Dump(), "1000000000000000");
  EXPECT_EQ(Value(999999999999999.0).Dump(), "999999999999999");
  EXPECT_EQ(Value(-0.0).Dump(), "0");
}

TEST(JsonDump, NonFiniteNumbersThrow) {
  // Parse rejects "inf" and "nan", so writing them would leave a frame or
  // checkpoint that can never be read back.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)Value(inf).Dump(), ConfigError);
  EXPECT_THROW((void)Value(-inf).Dump(), ConfigError);
  EXPECT_THROW((void)Value(std::nan("")).Dump(), ConfigError);
  Value nested;
  nested["rates"] = Value(Array{Value(1.0), Value(inf)});
  EXPECT_THROW((void)nested.Dump(2), ConfigError);
}

TEST(JsonDump, ObjectKeysAreSorted) {
  Value v;
  v["zeta"] = 1;
  v["alpha"] = 2;
  const std::string s = v.Dump(0);
  EXPECT_LT(s.find("alpha"), s.find("zeta"));
}

TEST(JsonFile, WriteAndReadBack) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "calculon_json_test.json")
          .string();
  Value v;
  v["name"] = "gpt3_175b";
  v["hidden"] = 12288;
  WriteFile(path, v);
  const Value back = ParseFile(path);
  EXPECT_EQ(back, v);
  std::remove(path.c_str());
}

TEST(JsonFile, MissingFileThrows) {
  EXPECT_THROW(ParseFile("/nonexistent/path.json"), ConfigError);
}

}  // namespace
}  // namespace calculon::json
