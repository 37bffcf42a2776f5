#!/usr/bin/env bash
# Static-analysis driver (see docs/correctness.md).
#
# Runs clang-tidy over the library, CLI, test, bench, and example sources
# using the compile commands of an existing (or freshly configured) build
# tree, and clang-format in check-only mode. Both tools are optional at
# runtime: when one is missing the corresponding step is skipped with a
# notice, so the script degrades gracefully on machines that only have the
# GCC toolchain (CI runs it with the full LLVM toolchain installed).
#
# Usage:
#   scripts/lint.sh [--fix] [--changed] [--build-dir DIR] [paths...]
#     --fix          let clang-tidy apply fixes and clang-format rewrite
#     --changed      run clang-tidy and clang-format only on files modified
#                    vs ${LINT_BASE_REF:-origin/main} (fast pre-push loop;
#                    CI always runs the full tree)
#     --build-dir    compile-commands location (default: build)
#     paths          restrict clang-tidy and clang-format to these files
#                    (default: whole tree)
#   calculon-lint always runs over the whole tree.
set -euo pipefail

cd "$(dirname "$0")/.."

usage() { sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'; }

FIX=0
CHANGED=0
BUILD_DIR=build
PATHS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fix) FIX=1 ;;
    --changed) CHANGED=1 ;;
    --build-dir)
      BUILD_DIR=$2
      shift
      ;;
    -h | --help)
      usage
      exit 0
      ;;
    -*)
      echo "lint: unknown option $1" >&2
      usage >&2
      exit 2
      ;;
    *) PATHS+=("$1") ;;
  esac
  shift
done

if [[ $CHANGED -eq 1 ]]; then
  BASE_REF=${LINT_BASE_REF:-origin/main}
  if ! git rev-parse --verify -q "$BASE_REF" >/dev/null; then
    # Fresh clone without the remote ref, or detached-HEAD CI: diffing
    # against HEAD would see (almost) nothing and silently skip real
    # findings. Degrade to the full-tree lint instead and say so.
    echo "lint: warning: base ref $BASE_REF not found" \
         "(fresh clone or detached HEAD?); running the full lint instead" >&2
    echo "lint: set LINT_BASE_REF to a resolvable ref to restore" \
         "--changed mode" >&2
    CHANGED=0
  fi
fi
if [[ $CHANGED -eq 1 ]]; then
  # Committed, staged, and unstaged changes vs the base; deleted files drop
  # out via the existence filter.
  mapfile -t CHANGED_FILES < <(
    { git diff --name-only "$BASE_REF" -- \
        '*.cc' '*.cpp' '*.h'
      git ls-files --others --exclude-standard -- \
        '*.cc' '*.cpp' '*.h'
    } | sort -u)
  for f in "${CHANGED_FILES[@]}"; do
    [[ -f $f ]] && PATHS+=("$f")
  done
  if [[ ${#PATHS[@]} -eq 0 ]]; then
    echo "lint: no C++ files changed vs $BASE_REF"
    exit 0
  fi
  echo "lint: --changed mode, ${#PATHS[@]} file(s) vs $BASE_REF"
fi

if [[ ${#PATHS[@]} -eq 0 ]]; then
  mapfile -t PATHS < <(find src tests bench examples \
    -name '*.cc' -o -name '*.cpp' -o -name '*.h' | sort)
fi

STATUS=0

# --- clang-tidy ---------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
    echo "lint: configuring $BUILD_DIR for compile commands"
    cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  TIDY_ARGS=(-p "$BUILD_DIR" --quiet)
  [[ $FIX -eq 1 ]] && TIDY_ARGS+=(--fix)
  # Headers are covered through the translation units that include them
  # (HeaderFilterRegex in .clang-tidy); only feed sources to the tool.
  TIDY_SOURCES=()
  for f in "${PATHS[@]}"; do
    [[ $f == *.cc || $f == *.cpp ]] && TIDY_SOURCES+=("$f")
  done
  if [[ ${#TIDY_SOURCES[@]} -gt 0 ]]; then
    echo "lint: clang-tidy over ${#TIDY_SOURCES[@]} sources"
    clang-tidy "${TIDY_ARGS[@]}" "${TIDY_SOURCES[@]}" || STATUS=1
  fi
else
  echo "lint: clang-tidy not found, skipping static analysis"
fi

# --- calculon-lint ------------------------------------------------------
# The project lint engine (src/staticlint/, docs/correctness.md §6) owns
# the project-aware checks that used to live here as greps: the layering
# DAG, the Quantity::raw() boundary, the raw-double dimensional scan of
# src/hw and src/core headers, banned patterns (including calls in a
# fork() child), and header hygiene. It does not check the CALC_* lock
# annotations (Clang -Wthread-safety in CI does), discarded Result<T>
# values (the compiler does, via [[nodiscard]]), cancellation polls or
# sweep allocations (ctest does, in cancellation_test and
# sweep_alloc_test). It exits non-zero on any finding; in-code
# `// lint-ok(<rule>): why` and `// unit-ok: why` are the only
# suppressions. It is one serial pass over the whole tree in every mode
# (cross-file rules need all of it, and a run takes ~20 ms).
LINT_BIN="$BUILD_DIR/src/calculon-lint"
if [[ ! -x "$LINT_BIN" ]]; then
  echo "lint: building calculon-lint"
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" --target calculon-lint >/dev/null
fi
echo "lint: calculon-lint over src, examples and bench"
"$LINT_BIN" --root . || STATUS=1

# --- clang-format -------------------------------------------------------
if command -v clang-format >/dev/null 2>&1; then
  echo "lint: clang-format over ${#PATHS[@]} files"
  if [[ $FIX -eq 1 ]]; then
    clang-format -i --style=Google "${PATHS[@]}"
  else
    clang-format --dry-run --Werror --style=Google "${PATHS[@]}" || STATUS=1
  fi
else
  echo "lint: clang-format not found, skipping format check"
fi

exit $STATUS
