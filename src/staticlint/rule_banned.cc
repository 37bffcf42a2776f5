// Banned-pattern rules: dimensional quantities through varargs sinks
// (undefined behavior), naked new expressions, std::cout in library code,
// and calls in a fork() child that are not ::-qualified system calls.
#include <set>
#include <string>
#include <string_view>

#include "staticlint/match.h"
#include "staticlint/rules.h"

namespace calculon::staticlint {

namespace {

[[nodiscard]] Diagnostic At(const SourceFile& file, const Token& tok,
                            const char* rule, std::string message) {
  Diagnostic d;
  d.rule = rule;
  d.path = file.path;
  d.line = tok.line;
  d.col = tok.col;
  d.message = std::move(message);
  d.excerpt = std::string(LineText(file, tok.line));
  return d;
}

// The name declared when toks[type_idx, after_type) is the return type of
// a function-shaped declaration (`T name(`, `T A::name(`, `T operator+(`);
// empty for parameters, template heads and expressions.
[[nodiscard]] std::string DeclaredFunctionName(const SigTokens& toks,
                                               std::size_t type_idx,
                                               std::size_t after_type) {
  std::size_t j = after_type;
  if (!toks.IsIdent(j)) return {};
  while (toks.Is(j + 1, "::") && toks.IsIdent(j + 2)) j += 2;
  std::string name(toks[j].text);
  if (name == "operator") {
    while (j + 1 < toks.size() && !toks.Is(j + 1, "(")) {
      name += std::string(toks[j + 1].text);
      ++j;
    }
  }
  if (!toks.Is(j + 1, "(")) return {};

  // Rule out parameter declarations ("void f(Bytes b)") and template heads
  // ("template <class Bytes>"): the token before the type must not be a
  // list context.
  if (type_idx > 0) {
    std::string_view prev = toks[type_idx - 1].text;
    if (prev == "(" || prev == "," || prev == "<" || prev == "class" ||
        prev == "struct" || prev == "typename" || prev == "return" ||
        prev == "new" || prev == "." || prev == "->" || prev == "::") {
      return {};
    }
  }
  if (FindMatching(toks, j + 1) == kNpos) return {};
  return name;
}

}  // namespace

DeclIndex BuildDeclIndex(const std::vector<SourceFile>& files,
                         const ProjectConfig& config) {
  DeclIndex index;
  for (const SourceFile& file : files) {
    if (config.IsExempt(file.path)) continue;
    SigTokens toks(file);
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!toks.IsIdent(i)) continue;
      std::string_view t = toks[i].text;
      std::size_t after_type = i + 1;
      if (t == "Quantity" && toks.Is(i + 1, "<")) {
        // Templated form: Quantity<...> name(.
        std::size_t close = FindMatching(toks, i + 1);
        if (close == kNpos) continue;
        after_type = close + 1;
      } else if (t != "Quantity" &&
                 config.quantity_types.count(std::string(t)) == 0) {
        continue;
      }
      std::string name = DeclaredFunctionName(toks, i, after_type);
      if (!name.empty()) index.quantity_returning.insert(std::move(name));
    }
  }
  return index;
}

void CheckQuantityVarargs(const std::vector<SourceFile>& files,
                          const ProjectConfig& config,
                          std::vector<Diagnostic>* out) {
  DeclIndex index = BuildDeclIndex(files, config);
  if (index.quantity_returning.empty()) return;

  for (const SourceFile& file : files) {
    if (config.IsExempt(file.path)) continue;
    SigTokens toks(file);
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!toks.IsIdent(i) ||
          config.varargs_sinks.count(std::string(toks[i].text)) == 0 ||
          !toks.Is(i + 1, "(")) {
        continue;
      }
      std::size_t close = FindMatching(toks, i + 1);
      if (close == kNpos) continue;

      // Split the call into top-level arguments.
      std::vector<std::pair<std::size_t, std::size_t>> args;  // [begin, end)
      int depth = 0;
      std::size_t arg_begin = i + 2;
      for (std::size_t j = i + 1; j <= close; ++j) {
        std::string_view t = toks[j].text;
        if (t == "(" || t == "[" || t == "{") ++depth;
        if (t == ")" || t == "]" || t == "}") --depth;
        bool at_split = (t == "," && depth == 1) || (j == close && depth == 0);
        if (at_split) {
          if (j > arg_begin) args.emplace_back(arg_begin, j);
          arg_begin = j + 1;
        }
      }

      // Varargs start after the format string: only arguments past the
      // last top-level string literal can be passed through `...`.
      std::size_t last_literal = kNpos;
      for (std::size_t a = 0; a < args.size(); ++a) {
        if (toks[args[a].first].kind == TokKind::kString) last_literal = a;
      }
      if (last_literal == kNpos) continue;  // no format literal: skip call

      for (std::size_t a = last_literal + 1; a < args.size(); ++a) {
        // The argument's value is a quantity only when the argument is
        // exactly a (possibly chained) call whose outermost callee returns
        // a quantity: `s.tier1.Total()` is flagged, while
        // `FormatBytes(x.Total()).c_str()` and dimensionless arithmetic
        // like `a.Total() / b.Total()` are not.
        std::size_t j = args[a].first;
        if (!toks.IsIdent(j)) continue;
        while ((toks.Is(j + 1, "::") || toks.Is(j + 1, ".") ||
                toks.Is(j + 1, "->")) &&
               toks.IsIdent(j + 2)) {
          j += 2;
        }
        if (!toks.Is(j + 1, "(")) continue;
        std::string name(toks[j].text);
        if (index.quantity_returning.count(name) == 0) continue;
        if (FindMatching(toks, j + 1) != args[a].second - 1) continue;
        out->push_back(
            At(file, toks[j], "quantity-varargs",
               "'" + name +
                   "' returns a dimensional quantity; passing it through "
                   "varargs is UB — use .raw()"));
      }
    }
  }
}

void CheckNakedNew(const std::vector<SourceFile>& files,
                   const ProjectConfig& config,
                   std::vector<Diagnostic>* out) {
  for (const SourceFile& file : files) {
    if (config.IsExempt(file.path) || !config.InLayerRoot(file.path)) {
      continue;
    }
    SigTokens toks(file);
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!toks.IsIdent(i) || toks[i].text != "new") continue;
      out->push_back(At(file, toks[i], "naked-new",
                        "naked new expression; use value semantics or "
                        "std::make_unique/make_shared"));
    }
  }
}

void CheckStdCout(const std::vector<SourceFile>& files,
                  const ProjectConfig& config,
                  std::vector<Diagnostic>* out) {
  for (const SourceFile& file : files) {
    if (config.IsExempt(file.path) || !config.InLayerRoot(file.path) ||
        config.IsCli(file.path)) {
      continue;
    }
    SigTokens toks(file);
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks.Is(i, "std") && toks.Is(i + 1, "::") &&
          toks.Is(i + 2, "cout")) {
        out->push_back(At(file, toks[i], "std-cout",
                          "std::cout in library code; report through "
                          "return values or an std::ostream& parameter"));
      }
    }
  }
}

// The child side of ::fork() is a copy of a multi-threaded process: a lock
// another parent thread held at the fork (the heap's, stdio's, a
// calculon::Mutex) stays held in the child forever. So the `pid == 0`
// block after the fork may only make ::-qualified system calls, plus
// WorkerMain(...) as the argument of ::_exit, which hands over to the
// worker loop. Member calls, formatting and allocation are rejected where
// they are written; what a system call does is not checked.
void CheckForkSafety(const std::vector<SourceFile>& files,
                     const ProjectConfig& config,
                     std::vector<Diagnostic>* out) {
  static const std::set<std::string_view> kNotCalls = {
      "if", "for", "while", "switch", "return", "sizeof"};
  for (const SourceFile& file : files) {
    if (config.IsExempt(file.path) || !config.InLayerRoot(file.path)) {
      continue;
    }
    SigTokens toks(file);
    for (std::size_t i = 1; i < toks.size(); ++i) {
      if (!toks.Is(i - 1, "::") || !toks.Is(i, "fork")) continue;
      // The child block: the first `if (pid == 0) {` in the fork's own
      // block (the lexer splits `==`).
      std::size_t open = kNpos;
      int depth = 0;
      for (std::size_t j = i + 1;
           open == kNpos && depth >= 0 && j < toks.size(); ++j) {
        depth += toks.Is(j, "{") ? 1 : toks.Is(j, "}") ? -1 : 0;
        if (depth == 0 && toks.Is(j, "if") && toks.Is(j + 1, "(") &&
            toks.IsIdent(j + 2) && toks.Is(j + 3, "=") && toks.Is(j + 4, "=") &&
            toks.Is(j + 5, "0") && toks.Is(j + 6, ")") && toks.Is(j + 7, "{")) {
          open = j + 7;
        }
      }
      const std::size_t end = open == kNpos ? kNpos : FindMatching(toks, open);
      if (end == kNpos) {
        out->push_back(At(file, toks[i], "fork-safety",
                          "fork() has no `if (pid == 0) {...}` child block "
                          "in its own block, so its child cannot be checked"));
        continue;
      }
      for (std::size_t j = open + 1; j < end; ++j) {
        if (!toks.IsIdent(j) || !toks.Is(j + 1, "(") ||
            kNotCalls.count(toks[j].text) > 0) {
          continue;
        }
        // `::name(`, with no namespace or class before the `::`.
        const bool syscall = toks.Is(j - 1, "::") && !toks.IsIdent(j - 2) &&
                             !toks.Is(j - 2, ">");
        const bool worker_entry = toks[j].text == "WorkerMain" &&
                                  toks.Is(j - 1, "(") &&
                                  toks.Is(j - 2, "_exit") &&
                                  toks.Is(j - 3, "::");
        if (syscall || worker_entry) continue;
        out->push_back(At(
            file, toks[j], "fork-safety",
            "fork() child (forked on line " + std::to_string(toks[i].line) +
                ") calls " + std::string(toks[j].text) +
                "(), which is not a ::-qualified system call; hoist it "
                "above the fork"));
      }
    }
  }
}

}  // namespace calculon::staticlint
