// Thread-safety annotation vocabulary (see docs/correctness.md §6).
//
// The CALC_* macros declare the lock discipline of a class in its own
// source: which mutex guards which field, which methods require or acquire
// which locks, and the partial order mutexes must be taken in.
//
// Clang is the only checker. It expands the macros to its native
// capability-analysis attributes, and -Wthread-safety checks the
// declarations with a flow-sensitive analysis; the CI asan-ubsan jobs build
// with Clang and -Werror, so a violation fails CI. GCC has no capability
// analysis: there the macros expand to nothing and a GCC build does not
// check them. Races and lock-order inversions that actually happen are
// caught at run time by the CI tsan job (halt_on_error=1).
//
// The annotated mutex types these attach to live in util/sync.h
// (calculon::Mutex / MutexLock / CondVar); std::mutex members are invisible
// to Clang's analysis, because libstdc++ carries no capability attributes.
#pragma once

#if defined(__clang__) && !defined(CALCULON_NO_THREAD_SAFETY_ANALYSIS)
#define CALC_TSA_ATTR_(x) __attribute__((x))
#else
#define CALC_TSA_ATTR_(x)  // no-op: no capability analysis
#endif

// On a type: instances are capabilities (lockable). The argument is the
// capability kind shown in diagnostics, e.g. CALC_CAPABILITY("mutex").
#define CALC_CAPABILITY(x) CALC_TSA_ATTR_(capability(x))

// On a type: an RAII object that acquires a capability in its constructor
// and releases it in its destructor (util/sync.h MutexLock).
#define CALC_SCOPED_CAPABILITY CALC_TSA_ATTR_(scoped_lockable)

// On a data member: may only be read or written while holding `x`.
#define CALC_GUARDED_BY(x) CALC_TSA_ATTR_(guarded_by(x))

// On a pointer member: the pointed-to data (not the pointer itself) is
// protected by `x`.
#define CALC_PT_GUARDED_BY(x) CALC_TSA_ATTR_(pt_guarded_by(x))

// On a function: callers must hold the listed capabilities.
#define CALC_REQUIRES(...) CALC_TSA_ATTR_(requires_capability(__VA_ARGS__))

// On a function: acquires / releases the listed capabilities (no argument
// means the object itself, e.g. Mutex::Lock).
#define CALC_ACQUIRE(...) CALC_TSA_ATTR_(acquire_capability(__VA_ARGS__))
#define CALC_RELEASE(...) CALC_TSA_ATTR_(release_capability(__VA_ARGS__))

// On a function: returns `b` when the capability was acquired.
#define CALC_TRY_ACQUIRE(...) \
  CALC_TSA_ATTR_(try_acquire_capability(__VA_ARGS__))

// On a function: callers must NOT hold the listed capabilities (the
// function acquires them itself and is not reentrant on them).
#define CALC_EXCLUDES(...) CALC_TSA_ATTR_(locks_excluded(__VA_ARGS__))

// On a mutex member: this mutex is always acquired before / after the
// listed mutexes. Clang checks these edges only under
// -Wthread-safety-beta; the tree declares none today.
#define CALC_ACQUIRED_BEFORE(...) CALC_TSA_ATTR_(acquired_before(__VA_ARGS__))
#define CALC_ACQUIRED_AFTER(...) CALC_TSA_ATTR_(acquired_after(__VA_ARGS__))

// On a function: returns a reference to the named capability.
#define CALC_RETURN_CAPABILITY(x) CALC_TSA_ATTR_(lock_returned(x))

// On a function: opt out of the analysis (init/teardown code that is
// single-threaded by construction, or deliberate lock juggling the
// analysis cannot follow). Use sparingly and justify in a comment.
#define CALC_NO_THREAD_SAFETY_ANALYSIS \
  CALC_TSA_ATTR_(no_thread_safety_analysis)
