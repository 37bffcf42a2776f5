// Whole-repo symbol table + call graph for the interprocedural lint rules
// (rule_callgraph.cc, docs/correctness.md §6).
//
// The graph indexes every free function the token scanner can see and every
// method the declaration model (decl_model.h) parses, then resolves call
// sites token-wise: qualified names (Class::Fn, ns::Fn, ::fn), method calls
// through locals/parameters whose declared type names a known class, and
// bare names against the enclosing class and the free-function index. A
// name with several candidates resolves to the whole overload set (overload
// collapse); a call that resolves to nothing is recorded as *external* and
// rules treat it as "may call anything outside the repository" — checked
// against name deny-lists, never traversed.
//
// Like the declaration model, this is not a C++ parser: when a construct is
// ambiguous the scanner skips it, so reachability is liberal (extra edges)
// and the rules stay conservative about what they report.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "staticlint/graph.h"
#include "staticlint/match.h"
#include "staticlint/token.h"

namespace calculon::staticlint {

// Side effects a body scan records because some interprocedural rule cares:
// heap allocation (fork-safety, hot-path-alloc), lock acquisition
// (fork-safety), and blocking I/O (hot-path-alloc).
enum class SymEventKind { kHeapAlloc, kLockAcquire, kBlockingIo };

[[nodiscard]] const char* ToString(SymEventKind kind);

struct SymEvent {
  SymEventKind kind = SymEventKind::kHeapAlloc;
  int line = 0;
  std::string what;  // "new", "make_unique", "MutexLock", "fopen", ...
};

// One call site inside a function body (or an ad-hoc region).
struct CallSite {
  std::string name;       // last identifier of the callee spelling
  std::string qualifier;  // "Class", "std", receiver's resolved type; ""
  int line = 0;
  std::vector<int> targets;  // resolved function ids (overload collapse)
  bool external = false;     // no in-repo target: may call anything
};

struct FunctionSym {
  std::string name;
  std::string class_name;  // empty for a free function
  int file = -1;           // index into the files vector given to Build
  int line = 0;            // declaration or definition line
  int body_end_line = 0;   // last line of the body; 0 = declaration-only
  bool has_body = false;
  bool is_method = false;
  // Body as SigTokens index range of its file ({ ... }); kNpos without one.
  std::size_t body_begin = kNpos;
  std::size_t body_end = kNpos;
  std::vector<CallSite> calls;  // empty unless has_body
  std::vector<SymEvent> events;

  [[nodiscard]] std::string Display() const {
    return class_name.empty() ? name : class_name + "::" + name;
  }
};

// Name sets the body scanner classifies events with; rules fill these from
// ProjectConfig (kept as plain sets so the graph stays independent of the
// rule registry).
struct SymbolGraphOptions {
  // Callees that allocate (beyond the `new` keyword, detected directly).
  std::set<std::string> alloc_calls = {"malloc",      "calloc",
                                       "realloc",     "strdup",
                                       "make_unique", "make_shared"};
  // Callees/types that perform blocking file I/O.
  std::set<std::string> blocking_io_calls = {
      "fopen",    "fread",   "fwrite", "fgets",  "fscanf",   "getline",
      "system",   "popen",   "sleep",  "usleep", "nanosleep", "ifstream",
      "ofstream", "fstream", "sleep_for"};
  // RAII lock-holder types whose construction acquires a mutex.
  std::set<std::string> lock_types = {"MutexLock", "lock_guard",
                                      "unique_lock", "scoped_lock",
                                      "shared_lock"};
  // Method names that acquire a lock when called directly.
  std::set<std::string> lock_methods = {"lock", "Lock", "lock_shared",
                                        "try_lock", "TryLock"};
};

class SymbolGraph {
 public:
  // Calls + events of an arbitrary token region analyzed as a body (used by
  // the fork-safety rule for the child side of a fork() site).
  struct RegionInfo {
    std::vector<CallSite> calls;
    std::vector<SymEvent> events;
  };

  // Indexes `files`. The result is self-contained (names, lines, resolved
  // edges — no views into the tree), so it is safe to memoize and share.
  [[nodiscard]] static SymbolGraph Build(
      const std::vector<SourceFile>& files,
      const SymbolGraphOptions& options = {});

  [[nodiscard]] const std::vector<FunctionSym>& functions() const {
    return functions_;
  }
  [[nodiscard]] const FunctionSym& function(int id) const {
    return functions_[static_cast<std::size_t>(id)];
  }

  // Ids of every function named `name` (all classes + free functions).
  [[nodiscard]] std::vector<int> Lookup(const std::string& name) const;

  // Forward reachability over resolved call edges. Calls whose *name* is in
  // `stop_names` are not traversed (used for the fork child's worker-loop
  // entry boundary). parent[] gives a witness path for diagnostics.
  [[nodiscard]] Reachability Reach(const std::vector<int>& roots,
                                   const std::set<std::string>& stop_names =
                                       {}) const;

  // Fixpoint over reversed edges: flags every function from which a call
  // with a name in `names` is reachable (e.g. "does this transitively call
  // CalculatePerformance / a RunContext poll?").
  [[nodiscard]] std::vector<bool> ReachesCallNamed(
      const std::set<std::string>& names) const;

  // Scans SigTokens range [begin, end] (begin at the '{', end at the
  // matching '}') as if it were a function body: call sites resolved
  // against the whole index, plus events. `enclosing_class` resolves bare
  // method calls; rules pass the class of the surrounding method (or "").
  // The caller builds the SigTokens, so the graph itself stays free of
  // views into any particular tree.
  [[nodiscard]] RegionInfo AnalyzeRegion(
      const SigTokens& sig, std::size_t begin, std::size_t end,
      const std::string& enclosing_class = {}) const;

  // "A -> B -> C" rendering of a Reachability witness path.
  [[nodiscard]] std::string RenderPath(const std::vector<int>& path) const;

  // The function sym (if any) of `file_index` whose body spans `sig_index`
  // in that file's SigTokens; -1 when outside every known body.
  [[nodiscard]] int EnclosingFunction(int file_index,
                                      std::size_t sig_index) const;

 private:
  SymbolGraphOptions options_;
  std::vector<FunctionSym> functions_;
  std::map<std::string, std::vector<int>> by_name_;
  std::set<std::string> class_names_;

  void IndexFreeFunctions(const SigTokens& sig, int file_index);
  void IndexMethods(const SourceFile& file, int file_index);
  void ScanRegion(const SigTokens& sig, std::size_t begin, std::size_t end,
                  const std::string& enclosing_class,
                  std::vector<CallSite>* calls,
                  std::vector<SymEvent>* events) const;
};

// Shared, memoized graph for the rule entry points: the four call-graph
// rules run concurrently under --jobs and would otherwise each pay a full
// build. Keyed by a content hash of the tree + options, so fixture-driven
// tests with different in-memory trees never collide.
[[nodiscard]] std::shared_ptr<const SymbolGraph> GetSymbolGraph(
    const std::vector<SourceFile>& files, const SymbolGraphOptions& options);

}  // namespace calculon::staticlint
