#include "staticlint/lexer.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/error.h"

namespace calculon::staticlint {

namespace {

[[nodiscard]] bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
[[nodiscard]] bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Incremental cursor over the buffer that tracks line/column as it advances.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  [[nodiscard]] bool AtEnd() const { return pos_ >= text_.size(); }
  [[nodiscard]] char Peek(std::size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] int col() const { return col_; }

  void Advance() {
    if (AtEnd()) return;
    if (text_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }
  void Advance(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) Advance();
  }

  [[nodiscard]] std::string_view Slice(std::size_t from) const {
    return text_.substr(from, pos_ - from);
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

// Is the cursor at the start of a raw string literal, given that Peek() is
// one of the possible prefix starts? Returns the length of the prefix up to
// and including R" (e.g. R" -> 2, u8R" -> 4), or 0 when not a raw string.
[[nodiscard]] std::size_t RawStringPrefixLen(const Cursor& c) {
  static constexpr std::string_view kPrefixes[] = {"R\"", "u8R\"", "uR\"",
                                                   "UR\"", "LR\""};
  for (std::string_view p : kPrefixes) {
    bool match = true;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (c.Peek(i) != p[i]) {
        match = false;
        break;
      }
    }
    if (match) return p.size();
  }
  return 0;
}

}  // namespace

const char* ToString(TokKind kind) {
  switch (kind) {
    case TokKind::kIdent: return "ident";
    case TokKind::kNumber: return "number";
    case TokKind::kString: return "string";
    case TokKind::kChar: return "char";
    case TokKind::kPunct: return "punct";
    case TokKind::kComment: return "comment";
    case TokKind::kDirective: return "directive";
  }
  return "?";
}

std::vector<Token> Lex(std::string_view text) {
  std::vector<Token> out;
  Cursor c(text);
  // True when only whitespace (or nothing) has been seen since the last
  // newline: a '#' here starts a preprocessor directive.
  bool at_line_start = true;

  auto emit = [&out](TokKind kind, std::string_view tok_text, int line,
                     int col) {
    out.push_back(Token{kind, tok_text, line, col});
  };

  while (!c.AtEnd()) {
    char ch = c.Peek();

    // Whitespace.
    if (ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n' || ch == '\f' ||
        ch == '\v') {
      if (ch == '\n') at_line_start = true;
      c.Advance();
      continue;
    }

    int line = c.line();
    int col = c.col();
    std::size_t start = c.pos();

    // Line comment.
    if (ch == '/' && c.Peek(1) == '/') {
      while (!c.AtEnd() && c.Peek() != '\n') c.Advance();
      emit(TokKind::kComment, c.Slice(start), line, col);
      continue;  // newline handled by the whitespace branch
    }

    // Block comment (may span lines; an unterminated one runs to EOF).
    if (ch == '/' && c.Peek(1) == '*') {
      c.Advance(2);
      while (!c.AtEnd() && !(c.Peek() == '*' && c.Peek(1) == '/')) c.Advance();
      c.Advance(2);
      emit(TokKind::kComment, c.Slice(start), line, col);
      continue;
    }

    // Preprocessor directive: consume the whole logical line, honoring
    // backslash continuations. Comments inside are kept in the token text.
    if (ch == '#' && at_line_start) {
      while (!c.AtEnd()) {
        if (c.Peek() == '\\' &&
            (c.Peek(1) == '\n' ||
             (c.Peek(1) == '\r' && c.Peek(2) == '\n'))) {
          c.Advance(c.Peek(1) == '\r' ? 3 : 2);
          continue;
        }
        if (c.Peek() == '\n') break;
        // A block comment inside a directive can hide a newline; skip it
        // atomically so the line does not end inside it.
        if (c.Peek() == '/' && c.Peek(1) == '*') {
          c.Advance(2);
          while (!c.AtEnd() && !(c.Peek() == '*' && c.Peek(1) == '/')) {
            c.Advance();
          }
          c.Advance(2);
          continue;
        }
        if (c.Peek() == '/' && c.Peek(1) == '/') {
          while (!c.AtEnd() && c.Peek() != '\n') c.Advance();
          break;
        }
        c.Advance();
      }
      emit(TokKind::kDirective, c.Slice(start), line, col);
      continue;
    }
    at_line_start = false;

    // Raw string literal: R"delim( ... )delim".
    if ((ch == 'R' || ch == 'u' || ch == 'U' || ch == 'L')) {
      std::size_t prefix = RawStringPrefixLen(c);
      if (prefix > 0) {
        c.Advance(prefix);  // past R"
        std::size_t delim_start = c.pos();
        while (!c.AtEnd() && c.Peek() != '(') c.Advance();
        std::string closer = ")";
        closer += std::string(c.Slice(delim_start));
        closer += '"';
        c.Advance();  // past '('
        while (!c.AtEnd()) {
          bool match = true;
          for (std::size_t i = 0; i < closer.size(); ++i) {
            if (c.Peek(i) != closer[i]) {
              match = false;
              break;
            }
          }
          if (match) {
            c.Advance(closer.size());
            break;
          }
          c.Advance();
        }
        emit(TokKind::kString, c.Slice(start), line, col);
        continue;
      }
    }

    // Ordinary string literal, with optional encoding prefix (u8", L", ...).
    if (ch == '"' ||
        ((ch == 'u' || ch == 'U' || ch == 'L') &&
         (c.Peek(1) == '"' || (ch == 'u' && c.Peek(1) == '8' &&
                               c.Peek(2) == '"')))) {
      while (c.Peek() != '"') c.Advance();  // skip the prefix
      c.Advance();                          // opening quote
      while (!c.AtEnd() && c.Peek() != '"' && c.Peek() != '\n') {
        if (c.Peek() == '\\') c.Advance();
        c.Advance();
      }
      c.Advance();  // closing quote
      emit(TokKind::kString, c.Slice(start), line, col);
      continue;
    }

    // Character literal, with optional encoding prefix (u', U', L', u8').
    // A lone ' after an identifier or digit would be a digit separator, but
    // separators are consumed inside the number branch, so any ' seen here
    // starts a char literal.
    if (ch == '\'' ||
        ((ch == 'u' || ch == 'U' || ch == 'L') &&
         (c.Peek(1) == '\'' || (ch == 'u' && c.Peek(1) == '8' &&
                                c.Peek(2) == '\'')))) {
      while (c.Peek() != '\'') c.Advance();  // skip the prefix
      c.Advance();                           // opening quote
      while (!c.AtEnd() && c.Peek() != '\'' && c.Peek() != '\n') {
        if (c.Peek() == '\\') c.Advance();
        c.Advance();
      }
      c.Advance();
      emit(TokKind::kChar, c.Slice(start), line, col);
      continue;
    }

    // Identifier / keyword. A phase-2 line splice (backslash-newline) can
    // land mid-identifier; consume it so the halves stay one token (the
    // token text keeps the raw splice bytes).
    if (IsIdentStart(ch)) {
      while (true) {
        if (IsIdentChar(c.Peek())) {
          c.Advance();
          continue;
        }
        if (c.Peek() == '\\') {
          std::size_t skip = 0;
          if (c.Peek(1) == '\n') {
            skip = 2;
          } else if (c.Peek(1) == '\r' && c.Peek(2) == '\n') {
            skip = 3;
          }
          if (skip > 0 && IsIdentChar(c.Peek(skip))) {
            c.Advance(skip);
            continue;
          }
        }
        break;
      }
      emit(TokKind::kIdent, c.Slice(start), line, col);
      continue;
    }

    // Number: digits, digit separators, hex/bin prefixes, exponents with
    // signs (1e+5), and a leading '.' handled by the caller falling through.
    if (std::isdigit(static_cast<unsigned char>(ch)) != 0 ||
        (ch == '.' && std::isdigit(static_cast<unsigned char>(c.Peek(1))) !=
                          0)) {
      while (!c.AtEnd()) {
        char n = c.Peek();
        if (IsIdentChar(n) || n == '.' || n == '\'') {
          c.Advance();
          continue;
        }
        if ((n == '+' || n == '-') && c.pos() > start) {
          char prev = text[c.pos() - 1];
          if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
            c.Advance();
            continue;
          }
        }
        break;
      }
      emit(TokKind::kNumber, c.Slice(start), line, col);
      continue;
    }

    // Punctuation. "::" and "->" are combined so rules can match qualified
    // names and member calls as short token patterns; everything else is a
    // single character.
    if (ch == ':' && c.Peek(1) == ':') {
      c.Advance(2);
    } else if (ch == '-' && c.Peek(1) == '>') {
      c.Advance(2);
    } else {
      c.Advance();
    }
    emit(TokKind::kPunct, c.Slice(start), line, col);
  }
  return out;
}

SourceFile::SourceFile(const SourceFile& other)
    : path(other.path), text(other.text), tokens(other.tokens) {
  RebaseTokens(other.text.data());
}

SourceFile::SourceFile(SourceFile&& other) noexcept
    : path(std::move(other.path)), tokens(std::move(other.tokens)) {
  const char* old_text = other.text.data();
  text = std::move(other.text);
  RebaseTokens(old_text);
}

SourceFile& SourceFile::operator=(const SourceFile& other) {
  if (this != &other) *this = SourceFile(other);
  return *this;
}

SourceFile& SourceFile::operator=(SourceFile&& other) noexcept {
  if (this == &other) return *this;
  path = std::move(other.path);
  tokens = std::move(other.tokens);
  const char* old_text = other.text.data();
  text = std::move(other.text);
  RebaseTokens(old_text);
  return *this;
}

void SourceFile::RebaseTokens(const char* old_text) {
  if (old_text == text.data()) return;
  for (Token& tok : tokens) {
    const auto offset = static_cast<std::size_t>(tok.text.data() - old_text);
    tok.text = std::string_view(text).substr(offset, tok.text.size());
  }
}

SourceFile MakeSourceFile(std::string path, std::string text) {
  SourceFile f;
  f.path = std::move(path);
  f.text = std::move(text);
  f.tokens = Lex(f.text);
  return f;
}

SourceFile LoadSourceFile(const std::string& fs_path,
                          std::string repo_relative_path) {
  std::ifstream in(fs_path, std::ios::binary);
  if (!in) {
    throw ConfigError("calculon-lint: cannot read " + fs_path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return MakeSourceFile(std::move(repo_relative_path), buf.str());
}

Directive ParseDirective(std::string_view directive_text) {
  Directive d;
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < directive_text.size() &&
           (directive_text[i] == ' ' || directive_text[i] == '\t')) {
      ++i;
    }
  };
  if (i < directive_text.size() && directive_text[i] == '#') ++i;
  skip_ws();
  std::size_t name_start = i;
  while (i < directive_text.size() &&
         IsIdentChar(directive_text[i])) {
    ++i;
  }
  d.name = directive_text.substr(name_start, i - name_start);
  skip_ws();
  std::size_t arg_start = i;
  std::size_t arg_end = directive_text.size();
  while (arg_end > arg_start &&
         (directive_text[arg_end - 1] == ' ' ||
          directive_text[arg_end - 1] == '\t' ||
          directive_text[arg_end - 1] == '\r')) {
    --arg_end;
  }
  d.argument = directive_text.substr(arg_start, arg_end - arg_start);
  return d;
}

IncludeSpec ParseInclude(std::string_view directive_text) {
  IncludeSpec spec;
  Directive d = ParseDirective(directive_text);
  if (d.name != "include") return spec;
  std::string_view arg = d.argument;
  if (arg.size() < 2) return spec;
  char open = arg[0];
  char close = open == '<' ? '>' : (open == '"' ? '"' : '\0');
  if (close == '\0') return spec;  // computed include (#include MACRO)
  std::size_t end = arg.find(close, 1);
  if (end == std::string_view::npos) return spec;
  spec.path = arg.substr(1, end - 1);
  spec.angled = open == '<';
  spec.valid = true;
  return spec;
}

}  // namespace calculon::staticlint
