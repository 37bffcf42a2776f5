// Lexer tests: the cases that defeat line-oriented greps — comments,
// string literals containing "//", raw strings, preprocessor continuations.
#include "staticlint/lexer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "staticlint/token.h"

namespace calculon::staticlint {
namespace {

std::vector<Token> LexOf(const std::string& text) { return Lex(text); }

// Tokens of one kind, as strings (tokens view into the argument, so copy).
std::vector<std::string> TextsOf(const std::vector<Token>& toks,
                                 TokKind kind) {
  std::vector<std::string> out;
  for (const Token& t : toks) {
    if (t.kind == kind) out.emplace_back(t.text);
  }
  return out;
}

TEST(LexerTest, BasicTokens) {
  std::string src = "int x = 42; foo->bar(a::b);";
  auto toks = LexOf(src);
  auto idents = TextsOf(toks, TokKind::kIdent);
  EXPECT_EQ(idents, (std::vector<std::string>{"int", "x", "foo", "bar", "a",
                                              "b"}));
  // "->" and "::" lex as single punct tokens.
  auto puncts = TextsOf(toks, TokKind::kPunct);
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "->"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "::"), puncts.end());
  auto numbers = TextsOf(toks, TokKind::kNumber);
  EXPECT_EQ(numbers, std::vector<std::string>{"42"});
}

TEST(LexerTest, LineAndBlockComments) {
  std::string src =
      "int a; // trailing new std::cout\n"
      "/* block new\n"
      "   spanning lines */ int b;\n";
  auto toks = LexOf(src);
  auto comments = TextsOf(toks, TokKind::kComment);
  ASSERT_EQ(comments.size(), 2u);
  // Comment text is preserved (suppression markers live there) but the
  // words inside never become identifiers.
  auto idents = TextsOf(toks, TokKind::kIdent);
  EXPECT_EQ(idents, (std::vector<std::string>{"int", "a", "int", "b"}));
}

TEST(LexerTest, StringContainingSlashes) {
  std::string src = "const char* u = \"http://x // not a comment\"; int y;";
  auto toks = LexOf(src);
  auto strings = TextsOf(toks, TokKind::kString);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_EQ(strings[0], "\"http://x // not a comment\"");
  EXPECT_TRUE(TextsOf(toks, TokKind::kComment).empty());
  // The identifier after the string proves lexing resumed correctly.
  auto idents = TextsOf(toks, TokKind::kIdent);
  EXPECT_EQ(idents.back(), "y");
}

TEST(LexerTest, StringEscapes) {
  std::string src = R"(auto s = "a\"b // still string"; int z;)";
  auto toks = LexOf(src);
  auto strings = TextsOf(toks, TokKind::kString);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_TRUE(TextsOf(toks, TokKind::kComment).empty());
  EXPECT_EQ(TextsOf(toks, TokKind::kIdent).back(), "z");
}

TEST(LexerTest, RawStrings) {
  // A raw string with a custom delimiter containing ")" and "//".
  std::string src =
      "auto r = R\"xy(contains )\" and // and \\ freely)xy\"; int after;";
  auto toks = LexOf(src);
  auto strings = TextsOf(toks, TokKind::kString);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_TRUE(TextsOf(toks, TokKind::kComment).empty());
  EXPECT_EQ(TextsOf(toks, TokKind::kIdent).back(), "after");
}

TEST(LexerTest, RawStringEncodingPrefixes) {
  std::string src = "auto a = u8R\"(x)\"; auto b = LR\"(y)\"; int tail;";
  auto toks = LexOf(src);
  EXPECT_EQ(TextsOf(toks, TokKind::kString).size(), 2u);
  EXPECT_EQ(TextsOf(toks, TokKind::kIdent).back(), "tail");
}

TEST(LexerTest, CharLiterals) {
  std::string src = "char c = '\\''; char d = '/'; int w;";
  auto toks = LexOf(src);
  EXPECT_EQ(TextsOf(toks, TokKind::kChar).size(), 2u);
  EXPECT_EQ(TextsOf(toks, TokKind::kIdent).back(), "w");
}

TEST(LexerTest, StringEncodingPrefixes) {
  // The prefix is part of the string token, never a separate identifier.
  std::string src = "auto a = u8\"x\"; auto b = L\"y\"; auto c = u\"z\";";
  auto toks = LexOf(src);
  auto strings = TextsOf(toks, TokKind::kString);
  EXPECT_EQ(strings, (std::vector<std::string>{"u8\"x\"", "L\"y\"",
                                               "u\"z\""}));
  auto idents = TextsOf(toks, TokKind::kIdent);
  EXPECT_EQ(std::count(idents.begin(), idents.end(), "u8"), 0);
  EXPECT_EQ(std::count(idents.begin(), idents.end(), "L"), 0);
}

TEST(LexerTest, CharEncodingPrefixes) {
  std::string src = "auto a = u8'x'; auto b = L'y'; auto c = U'z'; int w;";
  auto toks = LexOf(src);
  auto chars = TextsOf(toks, TokKind::kChar);
  EXPECT_EQ(chars, (std::vector<std::string>{"u8'x'", "L'y'", "U'z'"}));
  EXPECT_EQ(TextsOf(toks, TokKind::kIdent).back(), "w");
}

TEST(LexerTest, LineSpliceInsideIdentifier) {
  // A phase-2 backslash-newline can land mid-identifier; the halves stay
  // one token (with the raw splice bytes preserved in the text).
  std::string src = "int ab\\\ncd = 1; int ef\\\r\ngh = 2;";
  auto toks = LexOf(src);
  auto idents = TextsOf(toks, TokKind::kIdent);
  EXPECT_EQ(idents, (std::vector<std::string>{"int", "ab\\\ncd", "int",
                                              "ef\\\r\ngh"}));
}

TEST(LexerTest, BackslashAtIdentifierEndIsNotConsumed) {
  // A backslash that is not a splice (or a splice followed by punctuation)
  // terminates the identifier normally.
  std::string src = "ab\\\n+ cd";
  auto toks = LexOf(src);
  auto idents = TextsOf(toks, TokKind::kIdent);
  EXPECT_EQ(idents, (std::vector<std::string>{"ab", "cd"}));
}

TEST(LexerTest, LineSpliceInsideString) {
  std::string src = "auto s = \"ab\\\ncd\"; int tail;";
  auto toks = LexOf(src);
  auto strings = TextsOf(toks, TokKind::kString);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_EQ(strings[0], "\"ab\\\ncd\"");
  EXPECT_EQ(TextsOf(toks, TokKind::kIdent).back(), "tail");
}

TEST(LexerTest, NestedTemplateCloserIsTwoTokens) {
  // ">>" must lex as two '>' puncts so nested template argument lists
  // brace-match correctly (C++11 semantics, not a shift operator).
  std::string src = "std::map<int, std::vector<int>> m;";
  auto toks = LexOf(src);
  auto puncts = TextsOf(toks, TokKind::kPunct);
  EXPECT_EQ(std::count(puncts.begin(), puncts.end(), ">"), 2);
  EXPECT_EQ(std::count(puncts.begin(), puncts.end(), ">>"), 0);
}

TEST(LexerTest, NumbersWithSeparatorsAndExponents) {
  std::string src = "auto n = 1'000'000; auto f = 1.5e-3; auto h = 0xFFu;";
  auto toks = LexOf(src);
  auto numbers = TextsOf(toks, TokKind::kNumber);
  EXPECT_EQ(numbers, (std::vector<std::string>{"1'000'000", "1.5e-3",
                                               "0xFFu"}));
}

TEST(LexerTest, DirectiveIsOneToken) {
  std::string src = "#include \"util/check.h\"\nint x;\n";
  auto toks = LexOf(src);
  auto directives = TextsOf(toks, TokKind::kDirective);
  ASSERT_EQ(directives.size(), 1u);
  EXPECT_EQ(directives[0], "#include \"util/check.h\"");
}

TEST(LexerTest, DirectiveBackslashContinuation) {
  std::string src = "#define M(x) \\\n  do_thing(x)\nint after_macro;\n";
  auto toks = LexOf(src);
  auto directives = TextsOf(toks, TokKind::kDirective);
  ASSERT_EQ(directives.size(), 1u);
  // The continuation belongs to the directive, not to regular code.
  EXPECT_NE(directives[0].find("do_thing"), std::string::npos);
  auto idents = TextsOf(toks, TokKind::kIdent);
  EXPECT_EQ(idents, (std::vector<std::string>{"int", "after_macro"}));
}

TEST(LexerTest, LineAndColumnTracking) {
  std::string src = "int a;\n  int b;\n";
  auto toks = LexOf(src);
  ASSERT_GE(toks.size(), 6u);
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[0].col, 1);
  // "int" on the second line starts at column 3.
  EXPECT_EQ(toks[3].line, 2);
  EXPECT_EQ(toks[3].col, 3);
}

TEST(LexerTest, ParseDirective) {
  Directive d = ParseDirective("#pragma once");
  EXPECT_EQ(d.name, "pragma");
  EXPECT_EQ(d.argument, "once");
  Directive i = ParseDirective("#  include   <vector>");
  EXPECT_EQ(i.name, "include");
  EXPECT_EQ(i.argument, "<vector>");
}

TEST(LexerTest, ParseInclude) {
  IncludeSpec quoted = ParseInclude("#include \"hw/system.h\"");
  EXPECT_TRUE(quoted.valid);
  EXPECT_FALSE(quoted.angled);
  EXPECT_EQ(quoted.path, "hw/system.h");

  IncludeSpec angled = ParseInclude("#include <vector>");
  EXPECT_TRUE(angled.valid);
  EXPECT_TRUE(angled.angled);
  EXPECT_EQ(angled.path, "vector");

  IncludeSpec not_include = ParseInclude("#pragma once");
  EXPECT_FALSE(not_include.valid);
}

// --- Edge cases every rule leans on: a number lexed as two tokens or a
// raw string lexed as punctuation would desynchronize token-pattern
// matching.

TEST(LexerTest, DigitSeparatorsStayOneNumberToken) {
  std::string src = "std::int64_t n = 1'000'000; double d = 0x1.8p3;";
  auto toks = LexOf(src);
  auto numbers = TextsOf(toks, TokKind::kNumber);
  ASSERT_GE(numbers.size(), 1u);
  EXPECT_EQ(numbers[0], "1'000'000");
  // No stray char literals from the separators.
  EXPECT_TRUE(TextsOf(toks, TokKind::kChar).empty());
}

TEST(LexerTest, HexFloatsStayOneNumberToken) {
  // 0x1.8p3 == 12.0; the 'p' exponent must not split the literal, and the
  // '.8' must not become a member access.
  std::string src = "double d = 0x1.8p3; float f = 0X2.fP-2f;";
  auto toks = LexOf(src);
  auto numbers = TextsOf(toks, TokKind::kNumber);
  ASSERT_EQ(numbers.size(), 2u);
  EXPECT_EQ(numbers[0], "0x1.8p3");
  // The sign after the exponent belongs to the literal.
  EXPECT_EQ(numbers[1], "0X2.fP-2f");
}

TEST(LexerTest, RawStringDelimiterContainingParens) {
  // The )xy( inside must not terminate the literal; only )delim" does.
  std::string src =
      "const char* s = R\"delim(call Fn(1) and )xy( stay inside)delim\";\n"
      "int after = 1;\n";
  auto toks = LexOf(src);
  auto strings = TextsOf(toks, TokKind::kString);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_NE(strings[0].find("Fn(1)"), std::string::npos);
  // `Fn` inside the raw string is NOT an identifier token — greps die here.
  auto idents = TextsOf(toks, TokKind::kIdent);
  EXPECT_EQ(std::count(idents.begin(), idents.end(), "Fn"), 0);
  EXPECT_EQ(std::count(idents.begin(), idents.end(), "after"), 1);
}

TEST(LexerTest, OperatorCallTokens) {
  // `operator()` lexes as the ident `operator` plus two punct parens, so
  // the symbol scanner can recognize (and skip) call-operator overloads.
  std::string src =
      "struct F { int operator()(int v) const { return v; } };";
  auto toks = LexOf(src);
  auto idents = TextsOf(toks, TokKind::kIdent);
  EXPECT_EQ(std::count(idents.begin(), idents.end(), "operator"), 1);
  auto puncts = TextsOf(toks, TokKind::kPunct);
  EXPECT_GE(std::count(puncts.begin(), puncts.end(), "("), 2);
}

TEST(LexerTest, MakeSourceFileKeepsPathAndTokens) {
  SourceFile f = MakeSourceFile("src/util/x.h", "int a;\n");
  EXPECT_EQ(f.path, "src/util/x.h");
  EXPECT_TRUE(f.is_header());
  EXPECT_FALSE(f.tokens.empty());
  SourceFile cc = MakeSourceFile("src/util/x.cc", "");
  EXPECT_FALSE(cc.is_header());
}

}  // namespace
}  // namespace calculon::staticlint
