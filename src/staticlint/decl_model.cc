#include "staticlint/decl_model.h"

#include <utility>

namespace calculon::staticlint {

namespace {

[[nodiscard]] bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

[[nodiscard]] bool IsCalcAnnotation(const SigTokens& sig, std::size_t i) {
  return sig.IsIdent(i) && StartsWith(sig[i].text, "CALC_");
}

// Index just past the CALC_* annotation at sig[i]: past the closing ')'
// when the macro has an argument list, past the identifier otherwise.
[[nodiscard]] std::size_t SkipAnnotation(const SigTokens& sig,
                                         std::size_t i) {
  if (sig.Is(i + 1, "(")) {
    std::size_t close = FindMatching(sig, i + 1);
    if (close != kNpos) return close + 1;
  }
  return i + 1;
}

// The parser. Holds the model being built so nested classes and
// out-of-line definitions land in the same collections.
class Parser {
 public:
  explicit Parser(FileDeclModel* model) : model_(model), sig_(model->sig) {}

  void Run() {
    std::size_t i = 0;
    while (i < sig_.size()) {
      // Skip template parameter lists so `template <class T>` never looks
      // like a class definition.
      if (sig_.Is(i, "template") && sig_.Is(i + 1, "<")) {
        std::size_t m = FindMatching(sig_, i + 1);
        i = m == kNpos ? i + 2 : m + 1;
        continue;
      }
      if ((sig_.Is(i, "class") || sig_.Is(i, "struct")) &&
          !(i > 0 && (sig_.Is(i - 1, "enum") || sig_.Is(i - 1, "friend")))) {
        i = ParseClassAt(i);
        continue;
      }
      if (sig_.Is(i, "::")) {
        std::size_t next = TryParseOutOfLine(i);
        if (next != kNpos) {
          i = next;
          continue;
        }
      }
      ++i;
    }
  }

 private:
  // --- small token utilities ------------------------------------------

  // Jumps past a bracketed region when sig[i] opens one; returns the index
  // just past the matching closer, or i + 1 when unmatched/not a bracket.
  [[nodiscard]] std::size_t SkipBracket(std::size_t i) const {
    std::size_t m = FindMatching(sig_, i);
    return m == kNpos ? i + 1 : m + 1;
  }

  // Scans forward to the first top-level ';' (jumping (), [], {}), and
  // returns the index just past it. Used to abandon members the parser
  // does not model (using, friend, confusing declarations).
  [[nodiscard]] std::size_t SkipToSemicolon(std::size_t i,
                                            std::size_t limit) const {
    while (i < limit) {
      std::string_view t = sig_[i].text;
      if (t == ";") return i + 1;
      if (t == "(" || t == "[" || t == "{") {
        i = SkipBracket(i);
        continue;
      }
      if (t == "}") return i;  // ran off the enclosing scope: stop
      ++i;
    }
    return limit;
  }

  // --- class parsing --------------------------------------------------

  // sig[i] is `class` or `struct`. Parses the declaration (appending a
  // ClassDecl when it has a body) and returns the index past it.
  std::size_t ParseClassAt(std::size_t i) {
    ClassDecl cls;
    std::size_t j = i + 1;

    // Attributes between the keyword and the name: CALC_CAPABILITY("..."),
    // alignas(...), [[...]].
    while (j < sig_.size()) {
      if (IsCalcAnnotation(sig_, j)) {
        j = SkipAnnotation(sig_, j);
        continue;
      }
      if (sig_.Is(j, "alignas") && sig_.Is(j + 1, "(")) {
        j = SkipBracket(j + 1);
        continue;
      }
      if (sig_.Is(j, "[")) {
        j = SkipBracket(j);
        continue;
      }
      break;
    }

    if (!sig_.IsIdent(j)) {
      // Anonymous struct or something we do not model: skip conservatively.
      return SkipPastClassTail(j);
    }
    cls.name = std::string(sig_[j].text);
    ++j;
    if (sig_.Is(j, "final")) ++j;

    if (sig_.Is(j, ";")) return j + 1;  // forward declaration
    if (sig_.Is(j, ":")) {
      // Base clause: scan to the body brace.
      ++j;
      while (j < sig_.size() && !sig_.Is(j, "{") && !sig_.Is(j, ";")) {
        if (sig_.Is(j, "<") || sig_.Is(j, "(")) {
          j = SkipBracket(j);
          continue;
        }
        ++j;
      }
    }
    if (!sig_.Is(j, "{")) return SkipPastClassTail(j);

    std::size_t close = FindMatching(sig_, j);
    if (close == kNpos) return sig_.size();
    ParseMembers(&cls, j + 1, close);
    model_->classes.push_back(std::move(cls));
    return sig_.Is(close + 1, ";") ? close + 2 : close + 1;
  }

  // Conservative skip for class-ish constructs the parser does not model:
  // advance to the first top-level `{` (jump it) or `;`.
  [[nodiscard]] std::size_t SkipPastClassTail(std::size_t j) const {
    while (j < sig_.size()) {
      if (sig_.Is(j, "{")) return SkipBracket(j);
      if (sig_.Is(j, ";")) return j + 1;
      if (sig_.Is(j, "(") || sig_.Is(j, "[")) {
        j = SkipBracket(j);
        continue;
      }
      ++j;
    }
    return j;
  }

  // Parses the members in the token range (begin, end) of a class body.
  void ParseMembers(ClassDecl* cls, std::size_t begin, std::size_t end) {
    std::size_t k = begin;
    while (k < end) {
      std::string_view t = sig_[k].text;
      if (t == "public" || t == "private" || t == "protected") {
        k = sig_.Is(k + 1, ":") ? k + 2 : k + 1;
        continue;
      }
      if (t == "using" || t == "typedef" || t == "friend" ||
          t == "static_assert") {
        k = SkipToSemicolon(k, end);
        continue;
      }
      if (t == "template" && sig_.Is(k + 1, "<")) {
        std::size_t m = FindMatching(sig_, k + 1);
        k = m == kNpos ? k + 2 : m + 1;
        continue;
      }
      if (t == "enum") {
        k = SkipPastClassTail(k + 1);
        if (sig_.Is(k, ";")) ++k;
        continue;
      }
      if (t == "class" || t == "struct") {
        k = ParseClassAt(k);  // nested class: modeled as its own ClassDecl
        continue;
      }
      if (t == ";") {
        ++k;
        continue;
      }
      k = ParseMemberDecl(cls, k, end);
    }
  }

  // Parses one member declaration starting at k; appends a MethodDecl to
  // `cls` when it is one (data members are skipped). Returns the index past
  // the member.
  std::size_t ParseMemberDecl(ClassDecl* cls, std::size_t k,
                              std::size_t end) {
    std::size_t name_idx = kNpos;
    bool after_annotation = false;
    std::size_t p = k;

    while (p < end) {
      const Token& tok = sig_[p];
      std::string_view t = tok.text;

      if (tok.kind == TokKind::kIdent) {
        if (StartsWith(t, "CALC_")) {
          after_annotation = true;
          p = SkipAnnotation(sig_, p);
          continue;
        }
        if (t == "operator") {
          return ParseOperatorMethod(cls, p, end);
        }
        if (!after_annotation) name_idx = p;
        ++p;
        continue;
      }

      if (t == "<") {
        std::size_t m = FindMatching(sig_, p);
        p = m == kNpos ? p + 1 : m + 1;
        continue;
      }
      if (t == "[") {
        p = SkipBracket(p);
        continue;
      }
      if (t == "(") {
        if (name_idx == kNpos || after_annotation) {
          // '(' with no plausible method name: not a shape we model.
          return SkipToSemicolon(p, end);
        }
        return ParseMethodAt(cls, name_idx, p, end);
      }
      if (t == "{") {
        // Brace initializer: the field ends after it.
        p = SkipBracket(p);
        return sig_.Is(p, ";") ? p + 1 : p;
      }
      if (t == "=") return SkipToSemicolon(p + 1, end);
      if (t == ";") return p + 1;
      if (t == ",") {
        // Multiple declarators: the next one starts fresh.
        name_idx = kNpos;
        after_annotation = false;
        ++p;
        continue;
      }
      if (t == "}") return p;  // ran off the scope: malformed, stop
      ++p;  // ~, *, &, ::, etc.
    }
    return end;
  }

  // `operator` member: builds the method name from the operator tokens and
  // hands off to ParseMethodAt-style parsing.
  std::size_t ParseOperatorMethod(ClassDecl* cls, std::size_t p,
                                  std::size_t end) {
    std::string name = "operator";
    std::size_t q = p + 1;
    if (sig_.Is(q, "(") && sig_.Is(q + 1, ")") && sig_.Is(q + 2, "(")) {
      name += "()";
      q += 2;
    } else {
      while (q < end && !sig_.Is(q, "(") &&
             sig_[q].kind == TokKind::kPunct) {
        name += std::string(sig_[q].text);
        ++q;
      }
    }
    if (!sig_.Is(q, "(")) return SkipToSemicolon(q, end);
    MethodDecl method;
    method.name = std::move(name);
    method.line = sig_[p].line;
    std::size_t next = ParseMethodTail(&method, q, end);
    if (next != kNpos) cls->methods.push_back(std::move(method));
    return next == kNpos ? SkipToSemicolon(q, end) : next;
  }

  // In-class method: `name_idx` is the method name, `lparen` its '('.
  std::size_t ParseMethodAt(ClassDecl* cls, std::size_t name_idx,
                            std::size_t lparen, std::size_t end) {
    MethodDecl method;
    method.name = std::string(sig_[name_idx].text);
    method.line = sig_[name_idx].line;
    std::size_t next = ParseMethodTail(&method, lparen, end);
    if (next == kNpos) return SkipToSemicolon(lparen, end);
    cls->methods.push_back(std::move(method));
    return next;
  }

  // Parses everything after a method's parameter list: cv/ref qualifiers,
  // noexcept, CALC_* annotations, trailing return, then the terminator
  // (body, `;`, `= default/delete/0;`, or ctor initializer list + body).
  // Fills the body range; returns the index past the method, or kNpos when
  // the shape is not a method after all.
  std::size_t ParseMethodTail(MethodDecl* method, std::size_t lparen,
                              std::size_t end) {
    std::size_t close = FindMatching(sig_, lparen);
    if (close == kNpos) return kNpos;
    std::size_t p = close + 1;

    while (p < end) {
      if (sig_.Is(p, "const") || sig_.Is(p, "override") ||
          sig_.Is(p, "final") || sig_.Is(p, "&")) {
        ++p;
        continue;
      }
      if (sig_.Is(p, "noexcept")) {
        ++p;
        if (sig_.Is(p, "(")) p = SkipBracket(p);
        continue;
      }
      if (IsCalcAnnotation(sig_, p)) {
        p = SkipAnnotation(sig_, p);
        continue;
      }
      if (sig_.Is(p, "->")) {
        // Trailing return type: skip its tokens up to the terminator.
        ++p;
        while (p < end && !sig_.Is(p, "{") && !sig_.Is(p, ";") &&
               !sig_.Is(p, "=") && !IsCalcAnnotation(sig_, p)) {
          if (sig_.Is(p, "(") || sig_.Is(p, "<") || sig_.Is(p, "[")) {
            p = SkipBracket(p);
            continue;
          }
          ++p;
        }
        continue;
      }
      break;
    }

    if (sig_.Is(p, ";")) return p + 1;
    if (sig_.Is(p, "=")) {
      // = default; / = delete; / = 0;
      return SkipToSemicolon(p + 1, end);
    }
    if (sig_.Is(p, ":")) {
      std::size_t after = SkipCtorInitList(p + 1, end);
      if (after == kNpos) return kNpos;
      p = after;
    }
    if (sig_.Is(p, "{")) {
      std::size_t body_close = FindMatching(sig_, p);
      if (body_close == kNpos) return kNpos;
      method->body_begin = p;
      method->body_end = body_close;
      return body_close + 1;
    }
    return kNpos;  // a call or some other non-definition shape
  }

  // Skips `a_(x), b_{y}, Base<T>(z)` after a ctor's ':'. Returns the index
  // of the body '{', or kNpos when the shape does not look like an
  // initializer list (e.g. a ternary ':').
  [[nodiscard]] std::size_t SkipCtorInitList(std::size_t p,
                                             std::size_t end) const {
    while (p < end) {
      while (p < end && (sig_.IsIdent(p) || sig_.Is(p, "::"))) ++p;
      if (sig_.Is(p, "<")) {
        std::size_t m = FindMatching(sig_, p);
        if (m == kNpos) return kNpos;
        p = m + 1;
      }
      if (!sig_.Is(p, "(") && !sig_.Is(p, "{")) return kNpos;
      std::size_t m = FindMatching(sig_, p);
      if (m == kNpos) return kNpos;
      p = m + 1;
      if (sig_.Is(p, ",")) {
        ++p;
        continue;
      }
      return sig_.Is(p, "{") ? p : kNpos;
    }
    return kNpos;
  }

  // --- out-of-line definitions ----------------------------------------

  // sig[i] is "::". Recognizes `Class::Method(params) <tail> { body }` and
  // `Class::~Class() { body }`; returns the index past the definition, or
  // kNpos when this `::` is not an out-of-line method definition.
  std::size_t TryParseOutOfLine(std::size_t i) {
    if (i == 0 || !sig_.IsIdent(i - 1)) return kNpos;
    std::size_t j = i + 1;
    if (sig_.Is(j, "~")) ++j;
    if (!sig_.IsIdent(j) || !sig_.Is(j + 1, "(")) return kNpos;

    MethodDecl method;
    method.name = std::string(sig_[j].text);
    method.line = sig_[j].line;
    std::size_t next = ParseMethodTail(&method, j + 1, sig_.size());
    if (next == kNpos || method.body_begin == kNpos) {
      return kNpos;  // declaration or a plain qualified call
    }
    OutOfLineDef def;
    def.class_name = std::string(sig_[i - 1].text);
    def.method = std::move(method);
    model_->out_of_line.push_back(std::move(def));
    return next;
  }

  FileDeclModel* model_;
  const SigTokens& sig_;
};

}  // namespace

FileDeclModel BuildFileDeclModel(const SourceFile& file) {
  FileDeclModel model(file);
  Parser(&model).Run();
  return model;
}

}  // namespace calculon::staticlint
