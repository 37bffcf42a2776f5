// Compile-fail case: a Result<T> returned by value must not be dropped
// The lines inside the #ifdef must NOT compile; see README.md. Neither
// callee is declared [[nodiscard]]: the rejection comes from the class
// attribute on Result plus -Werror=unused-result.
#include "util/error.h"

namespace calculon {

Result<int> Load() { return 1; }

struct Loader {
  Result<int> Load() const { return 2; }
};

int Use() {
  const Loader loader;
#ifdef CALCULON_EXPECT_COMPILE_FAIL
  Load();         // free function
  loader.Load();  // method call
#endif
  return Load().value_or(0) + loader.Load().value_or(0);
}

}  // namespace calculon
