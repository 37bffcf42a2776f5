#!/bin/sh
# The calculon-lint CLI contract, on fixture trees written to a temp dir at
# test time (a checked-in .cc fixture would itself be linted by
# scripts/lint.sh).
#
# Usage: lint_cli_test.sh <calculon-lint binary> <case>
#   clean          a clean tree exits 0
#   finding        a naked `new` under src/ exits 1 and prints
#                  path:line:col: [naked-new]
#   github         --format github prints the workflow-command form
#   unknown_rule   an unknown --rules id exits 2
#   retired_flags  --jobs, -j, --baseline, --update-baseline, --verbose,
#                  --only and --expand-includers each exit 2
set -u

LINT=$1
CASE=$2
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
TREE=$WORK/tree
mkdir -p "$TREE/src/util"
printf '#pragma once\n\nint Answer();\n' >"$TREE/src/util/answer.h"
printf '#include "util/answer.h"\n\nint Answer() { return 42; }\n' \
  >"$TREE/src/util/answer.cc"

fail() {
  echo "FAIL: $*" >&2
  echo "--- stdout" >&2
  cat "$WORK/out" >&2
  echo "--- stderr" >&2
  cat "$WORK/err" >&2
  exit 1
}

# run <expected exit code> <calculon-lint args...>
run() {
  want=$1
  shift
  "$LINT" --root "$TREE" "$@" >"$WORK/out" 2>"$WORK/err"
  got=$?
  [ "$got" -eq "$want" ] || fail "calculon-lint $* exited $got, want $want"
}

# expect <file> <fixed string>
expect() {
  grep -qF -- "$2" "$WORK/$1" || fail "$1 lacks '$2'"
}

add_naked_new() {
  printf 'int* Leak() { return new int(7); }\n' >"$TREE/src/util/leak.cc"
}

case $CASE in
  clean)
    run 0
    expect out "calculon-lint: 2 files, 0 finding(s)"
    ;;
  finding)
    add_naked_new
    run 1
    expect out "src/util/leak.cc:1:22: [naked-new] naked new expression"
    expect out "calculon-lint: 3 files, 1 finding(s)"
    ;;
  github)
    add_naked_new
    run 1 --format github
    expect out \
      "::error file=src/util/leak.cc,line=1,col=22,title=calculon-lint/naked-new::"
    ;;
  unknown_rule)
    run 2 --rules naked-new,no-such-rule
    expect err "no-such-rule"
    ;;
  retired_flags)
    for flags in "--jobs 4" "-j 2" "--baseline x" "--update-baseline" \
      "--verbose" "--only a" "--expand-includers"; do
      # Word splitting of $flags is the point: "--jobs 4" is two args.
      # shellcheck disable=SC2086
      run 2 $flags
      expect err "unknown argument '${flags%% *}'"
    done
    ;;
  *)
    echo "lint_cli_test.sh: unknown case '$CASE'" >&2
    exit 2
    ;;
esac
