// Token model for the project lint engine (see docs/correctness.md §6).
//
// calculon-lint analyzes the repository at the token level: precise enough
// to see through comments, string literals and raw strings (where greps go
// wrong), cheap enough to lex the whole tree in milliseconds, and entirely
// self-contained in the same spirit as src/json/.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace calculon::staticlint {

enum class TokKind {
  kIdent,      // identifiers and keywords (no keyword table needed)
  kNumber,     // numeric literals, including separators and exponents
  kString,     // "..." including encoding prefixes and raw strings
  kChar,       // '...'
  kPunct,      // operators/punctuation; "::" and "->" are single tokens
  kComment,    // // line and /* block */ comments, text included
  kDirective,  // a whole preprocessor line: "#include <x>", "#pragma once"
};

[[nodiscard]] const char* ToString(TokKind kind);

// One lexed token. `text` views into the owning SourceFile's `text` buffer,
// so tokens are only valid while the SourceFile is alive (SourceFile
// re-points them when it is copied or moved).
struct Token {
  TokKind kind = TokKind::kPunct;
  std::string_view text;
  int line = 1;  // 1-based line of the token's first character
  int col = 1;   // 1-based column of the token's first character
};

// A lexed file. `path` is the repository-relative path with '/' separators
// (e.g. "src/util/check.h"); rules key all decisions off this path.
struct SourceFile {
  std::string path;
  std::string text;
  std::vector<Token> tokens;

  SourceFile() = default;
  // A copied string, and a moved one short enough for the small-string
  // buffer, changes address: these re-point every token at the new text.
  SourceFile(const SourceFile& other);
  SourceFile(SourceFile&& other) noexcept;
  SourceFile& operator=(const SourceFile& other);
  SourceFile& operator=(SourceFile&& other) noexcept;
  ~SourceFile() = default;

  [[nodiscard]] bool is_header() const {
    return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
  }

 private:
  // Re-points tokens that viewed into a buffer at `old_text`.
  void RebaseTokens(const char* old_text);
};

// The parsed payload of a kDirective token, produced by ParseDirective.
struct Directive {
  std::string_view name;      // "include", "pragma", "define", ...
  std::string_view argument;  // rest of the line, trimmed
};

// Splits a kDirective token's text into the directive name and argument.
[[nodiscard]] Directive ParseDirective(std::string_view directive_text);

// For an include directive, the path between the delimiters; empty when the
// directive is not an include. `angled` reports <...> vs "..." form.
struct IncludeSpec {
  std::string_view path;
  bool angled = false;
  bool valid = false;
};
[[nodiscard]] IncludeSpec ParseInclude(std::string_view directive_text);

}  // namespace calculon::staticlint
