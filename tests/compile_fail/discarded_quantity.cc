// Compile-fail case: a computed quantity must not be dropped
// The line inside the #ifdef must NOT compile; see README.md. The callee
// is not declared [[nodiscard]]: the rejection comes from the class
// attribute on Quantity plus -Werror=unused-result.
#include "util/quantity.h"

namespace calculon {

Bytes Footprint() { return GiB(1.0); }

double Use() {
#ifdef CALCULON_EXPECT_COMPILE_FAIL
  Footprint();
#endif
  return Footprint().raw();
}

}  // namespace calculon
