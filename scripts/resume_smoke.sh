#!/usr/bin/env bash
# Checkpoint/resume smoke test: SIGINT-kill a real study mid-run, resume it
# from the checkpoint, and require the final CSV and the printed best
# configuration to be byte-identical to an uninterrupted run (see
# docs/robustness.md).
#
# usage: scripts/resume_smoke.sh [build-dir]    # default: ./build
set -u -o pipefail

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/examples/calculon_cli"
if [[ ! -x "$CLI" ]]; then
  echo "resume_smoke: $CLI not found (build first)" >&2
  exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/calculon_resume_smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# 144 rows; injected delays dilate each row to ~3ms so the SIGINT below
# reliably lands mid-sweep. Delays never change computed results.
cat > "$WORK/study.json" <<'EOF'
{
  "application": "gpt3_175b",
  "system": "a100_80g",
  "num_procs": 64,
  "base_execution": {"batch_size": 64},
  "sweep": {
    "tensor_par": [1, 2, 4, 8],
    "pipeline_par": [1, 2, 4, 8],
    "data_par": "auto",
    "recompute": ["none", "attn", "full"],
    "microbatch": [1, 2, 4]
  }
}
EOF
DELAY="seed=1,delay=1.0,delay_us=3000"

# The "best configuration (row ...)" block a study run prints: its header
# line and the execution's JSON, through the closing brace.
best_block() {
  sed -n '/^best configuration (row /,/^}$/p' "$1"
}

# Requires the best configuration printed in log $1 to equal the
# reference run's.
check_best() {
  if [[ "$(best_block "$WORK/ref.log")" != "$(best_block "$1")" ]]; then
    echo "resume_smoke: $2 best configuration differs from the reference" >&2
    diff <(best_block "$WORK/ref.log") <(best_block "$1") | head -20 >&2
    exit 1
  fi
}

echo "== reference run (uninterrupted)"
"$CLI" study "$WORK/study.json" "$WORK/ref.csv" > "$WORK/ref.log" || {
  echo "resume_smoke: reference run failed" >&2; exit 1; }
if [[ -z "$(best_block "$WORK/ref.log")" ]]; then
  echo "resume_smoke: the reference run printed no best configuration" >&2
  cat "$WORK/ref.log" >&2
  exit 1
fi

echo "== interrupted run (SIGINT after ~100ms)"
"$CLI" study "$WORK/study.json" "$WORK/out.csv" \
    --checkpoint "$WORK/ck.json" --checkpoint-every 1 \
    --faults "$DELAY" > "$WORK/interrupted.log" 2>&1 &
PID=$!
sleep 0.1
kill -INT "$PID"
wait "$PID"
STATUS=$?
if [[ "$STATUS" -ne 3 ]]; then
  echo "resume_smoke: expected exit 3 (degraded) from the killed run," \
       "got $STATUS" >&2
  cat "$WORK/interrupted.log" >&2
  exit 1
fi
if [[ ! -f "$WORK/ck.json" ]]; then
  echo "resume_smoke: killed run left no checkpoint" >&2
  exit 1
fi

echo "== resumed run"
"$CLI" study "$WORK/study.json" "$WORK/out.csv" \
    --checkpoint "$WORK/ck.json" --resume > "$WORK/resumed.log" || {
  echo "resume_smoke: resumed run failed" >&2
  cat "$WORK/resumed.log" >&2
  exit 1
}
if ! grep -Eq '\([1-9][0-9]* resumed\)' "$WORK/resumed.log"; then
  echo "resume_smoke: resumed run restored no rows from the checkpoint" >&2
  cat "$WORK/resumed.log" >&2
  exit 1
fi

if ! cmp -s "$WORK/ref.csv" "$WORK/out.csv"; then
  echo "resume_smoke: resumed CSV differs from the uninterrupted run" >&2
  diff "$WORK/ref.csv" "$WORK/out.csv" | head -20 >&2
  exit 1
fi
check_best "$WORK/resumed.log" "resumed"

echo "resume_smoke: OK (resumed CSV and best configuration are" \
     "byte-identical to the reference)"

# -----------------------------------------------------------------------
# Hard-kill variant: SIGKILL the supervised (--workers) run mid-study —
# no signal handler, no graceful checkpoint flush — then resume from
# whatever checkpoint prefix survived. The atomic temp+rename write means
# the checkpoint is never torn, and the resumed CSV must still be
# byte-identical to the uninterrupted reference.

echo "== supervised run, SIGKILLed after ~150ms"
rm -f "$WORK/out9.csv"
"$CLI" study "$WORK/study.json" "$WORK/out9.csv" \
    --workers 2 --shard-size 4 \
    --checkpoint "$WORK/ck9.json" --checkpoint-every 1 \
    --faults "$DELAY" > "$WORK/killed9.log" 2>&1 &
PID=$!
sleep 0.15
kill -KILL "$PID"
wait "$PID"
STATUS=$?
if [[ "$STATUS" -ne 137 ]]; then
  echo "resume_smoke: expected exit 137 (SIGKILL), got $STATUS" >&2
  cat "$WORK/killed9.log" >&2
  exit 1
fi
if [[ ! -f "$WORK/ck9.json" ]]; then
  echo "resume_smoke: SIGKILLed supervised run left no checkpoint" \
       "(too fast? raise delay_us)" >&2
  exit 1
fi

echo "== resumed supervised run"
"$CLI" study "$WORK/study.json" "$WORK/out9.csv" \
    --workers 2 --shard-size 4 \
    --checkpoint "$WORK/ck9.json" --resume > "$WORK/resumed9.log" || {
  echo "resume_smoke: resumed supervised run failed" >&2
  cat "$WORK/resumed9.log" >&2
  exit 1
}
if ! grep -Eq '\([1-9][0-9]* resumed\)' "$WORK/resumed9.log"; then
  echo "resume_smoke: supervised resume restored no rows" >&2
  cat "$WORK/resumed9.log" >&2
  exit 1
fi
if ! cmp -s "$WORK/ref.csv" "$WORK/out9.csv"; then
  echo "resume_smoke: supervised resumed CSV differs from the reference" >&2
  diff "$WORK/ref.csv" "$WORK/out9.csv" | head -20 >&2
  exit 1
fi
check_best "$WORK/resumed9.log" "supervised resumed"

echo "resume_smoke: OK (SIGKILLed supervised run resumed byte-identical," \
     "best configuration included)"
