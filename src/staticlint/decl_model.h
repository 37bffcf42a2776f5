// Declaration/scope model for the symbol graph (symbol_graph.h).
//
// A lightweight, deliberately conservative parse of class/struct
// declarations built on top of the token lexer: for each class, its name
// and its methods (with brace-matched body ranges). Out-of-line
// `Class::Method(...) { ... }` definitions are recorded with the class name
// so the symbol graph can attach them to a class declared in another file
// (the header declares the method, the .cc carries the body).
//
// The model is not a C++ parser. It aims to be exactly good enough for the
// declarations in this codebase: when a construct is ambiguous the parser
// skips it rather than guessing, so the rules err toward silence, never
// toward false alarms (docs/correctness.md §6).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "staticlint/match.h"
#include "staticlint/token.h"

namespace calculon::staticlint {

// One method of a class, or an out-of-line method definition.
struct MethodDecl {
  std::string name;
  int line = 0;
  // Body as a SigTokens index range: body_begin is the '{', body_end the
  // matching '}'. kNpos when declaration-only ( ;, = default, = delete).
  std::size_t body_begin = kNpos;
  std::size_t body_end = kNpos;
};

struct ClassDecl {
  std::string name;
  std::vector<MethodDecl> methods;
};

// An out-of-line `Class::Method(...) { ... }` definition.
struct OutOfLineDef {
  std::string class_name;
  MethodDecl method;
};

// Everything the symbol graph needs from one file. `sig` views the file's
// token storage, so the SourceFile must outlive the model.
struct FileDeclModel {
  explicit FileDeclModel(const SourceFile& f) : sig(f) {}

  SigTokens sig;
  std::vector<ClassDecl> classes;
  std::vector<OutOfLineDef> out_of_line;
};

[[nodiscard]] FileDeclModel BuildFileDeclModel(const SourceFile& file);

}  // namespace calculon::staticlint
