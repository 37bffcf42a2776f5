// Compile-fail case: an ExecSearch must not be built on a temporary
// The lines inside the #ifdef must NOT compile; see README.md. ExecSearch
// keeps references to its application, system and search space, so a
// temporary space would dangle as soon as the declaration ends; the
// constructor overloads taking an rvalue are deleted.
#include "hw/presets.h"
#include "models/presets.h"
#include "search/exec_search.h"

namespace calculon {

std::size_t Triples() {
  const Application app = presets::Megatron22B();
  const System sys = presets::A100();
  const SearchSpace space = SearchSpace::MegatronBaseline();
  const SearchConfig config;
#ifdef CALCULON_EXPECT_COMPILE_FAIL
  ExecSearch search(app, sys, SearchSpace::MegatronBaseline(), config);
#else
  ExecSearch search(app, sys, space, config);
#endif
  return search.triples().size();
}

}  // namespace calculon
