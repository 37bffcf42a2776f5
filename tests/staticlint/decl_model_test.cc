// Declaration-model tests: the conservative class/method parse that feeds
// the symbol graph (src/staticlint/decl_model.h).
#include "staticlint/decl_model.h"

#include <gtest/gtest.h>

#include <string>

#include "staticlint/lexer.h"

namespace calculon::staticlint {
namespace {

const MethodDecl* FindMethod(const ClassDecl& cls, const std::string& name) {
  for (const MethodDecl& m : cls.methods) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

TEST(DeclModelTest, ParsesMethodAnnotationsAndBodies) {
  SourceFile f = MakeSourceFile(
      "src/a/x.h",
      "class Counter {\n"
      " public:\n"
      "  void BumpLocked() CALC_REQUIRES(mu_);\n"
      "  void Flush() CALC_EXCLUDES(mu_) { count_ = 0; }\n"
      "  void Take() CALC_ACQUIRE(mu_);\n"
      "  void Drop() CALC_RELEASE(mu_);\n"
      "  void Raw() CALC_NO_THREAD_SAFETY_ANALYSIS {}\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  int count_ CALC_GUARDED_BY(mu_);\n"
      "};\n");
  FileDeclModel m = BuildFileDeclModel(f);
  ASSERT_EQ(m.classes.size(), 1u);
  const ClassDecl& cls = m.classes[0];
  ASSERT_EQ(cls.methods.size(), 5u);
  const MethodDecl* locked = FindMethod(cls, "BumpLocked");
  ASSERT_NE(locked, nullptr);
  EXPECT_EQ(locked->line, 3);
  EXPECT_EQ(locked->body_begin, kNpos);  // declaration only
  const MethodDecl* flush = FindMethod(cls, "Flush");
  ASSERT_NE(flush, nullptr);
  EXPECT_NE(flush->body_begin, kNpos);  // inline body captured
  EXPECT_NE(FindMethod(cls, "Raw")->body_begin, kNpos);
}

TEST(DeclModelTest, CapabilityClassAndCtorDtor) {
  SourceFile f = MakeSourceFile(
      "src/a/x.h",
      "class CALC_CAPABILITY(\"mutex\") Mutex {\n"
      " public:\n"
      "  Mutex() = default;\n"
      "  ~Mutex() { Check(); }\n"
      "  void Lock() CALC_ACQUIRE() { raw_.lock(); }\n"
      " private:\n"
      "  std::mutex raw_;\n"
      "};\n");
  FileDeclModel m = BuildFileDeclModel(f);
  ASSERT_EQ(m.classes.size(), 1u);
  const ClassDecl& cls = m.classes[0];
  EXPECT_EQ(cls.name, "Mutex");  // the annotation before the name is skipped
  ASSERT_EQ(cls.methods.size(), 3u);
  EXPECT_EQ(cls.methods[0].name, "Mutex");
  EXPECT_EQ(cls.methods[0].body_begin, kNpos);  // = default
  EXPECT_EQ(cls.methods[1].name, "Mutex");      // the destructor
  EXPECT_NE(cls.methods[1].body_begin, kNpos);
  EXPECT_EQ(cls.methods[2].name, "Lock");
  EXPECT_NE(cls.methods[2].body_begin, kNpos);
}

TEST(DeclModelTest, NestedClassIsModeledSeparately) {
  SourceFile f = MakeSourceFile(
      "src/a/x.h",
      "class Outer {\n"
      "  struct Inner {\n"
      "    Mutex mutex;\n"
      "    int events CALC_GUARDED_BY(mutex);\n"
      "  };\n"
      "  int own_;\n"
      "};\n");
  FileDeclModel m = BuildFileDeclModel(f);
  ASSERT_EQ(m.classes.size(), 2u);
  // The nested class is appended first (parsed before Outer closes).
  EXPECT_EQ(m.classes[0].name, "Inner");
  EXPECT_EQ(m.classes[1].name, "Outer");
}

TEST(DeclModelTest, OutOfLineDefinitionsAndCallsAreDistinguished) {
  SourceFile f = MakeSourceFile(
      "src/a/x.cc",
      "int Foo::Get() const { return 1; }\n"
      "Foo::Foo() : a_(1), b_{2} { Init(); }\n"
      "Foo::~Foo() { Close(); }\n"
      "void Use() { int x = Foo::Get(); }\n");
  FileDeclModel m = BuildFileDeclModel(f);
  ASSERT_EQ(m.out_of_line.size(), 3u);  // the call in Use() is not a def
  EXPECT_EQ(m.out_of_line[0].class_name, "Foo");
  EXPECT_EQ(m.out_of_line[0].method.name, "Get");
  EXPECT_NE(m.out_of_line[0].method.body_begin, kNpos);
  EXPECT_EQ(m.out_of_line[1].method.name, "Foo");  // ctor past its init list
  EXPECT_NE(m.out_of_line[1].method.body_begin, kNpos);
  EXPECT_EQ(m.out_of_line[2].method.name, "Foo");  // the destructor
  EXPECT_EQ(m.out_of_line[2].method.line, 3);
}

TEST(DeclModelTest, SkipsForwardDeclsEnumsAndTemplateParams) {
  SourceFile f = MakeSourceFile(
      "src/a/x.h",
      "class Fwd;\n"
      "enum class Color { kRed, kBlue };\n"
      "template <class T>\n"
      "class Box {\n"
      "  T value_;\n"
      "};\n");
  FileDeclModel m = BuildFileDeclModel(f);
  ASSERT_EQ(m.classes.size(), 1u);  // no phantom class for Fwd, Color, or T
  EXPECT_EQ(m.classes[0].name, "Box");
  EXPECT_TRUE(m.classes[0].methods.empty());
}

}  // namespace
}  // namespace calculon::staticlint
