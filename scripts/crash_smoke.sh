#!/usr/bin/env bash
# Crash-injection smoke test for the supervised multi-process fan-out
# (docs/robustness.md §8): run a real study under --workers with seeded
# SIGABRT / SIGSEGV / hang faults and require
#
#   1. the run degrades (exit 3) instead of dying,
#   2. quarantined rows appear for the poison items and nothing else —
#      every surviving row is byte-identical to the fault-free reference,
#   3. the same seed reproduces the same output byte-for-byte,
#   4. blame is exact: a run with one item per shard, where the first
#      un-acked item is the culprit by construction, writes the same
#      CSV byte-for-byte, and so does a run of 32 shards of 2, which go
#      out 8 to a range once the rows prove cheap, so a worker dies
#      part-way through a range and must blame exactly the rows the
#      one-item-per-shard run blames,
#   5. worker stderr logs are captured for the post-mortem,
#   6. a checkpoint that cannot be written stops the pool and fails the
#      run as in process, with no worker blamed (no post-mortem).
#
# usage: scripts/crash_smoke.sh [build-dir]    # default: ./build
# Worker logs are copied to $CRASH_SMOKE_OUT (if set) for CI artifacts.
set -u -o pipefail

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/examples/calculon_cli"
if [[ ! -x "$CLI" ]]; then
  echo "crash_smoke: $CLI not found (build first)" >&2
  exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/calculon_crash_smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# 64 rows across several shards. The seeded plan below injects process
# faults into a handful of them; deterministic decisions re-fire on every
# retry, so exactly those rows must quarantine.
cat > "$WORK/study.json" <<'EOF'
{
  "application": "megatron_22b",
  "system": "a100_80g",
  "num_procs": 64,
  "base_execution": {"batch_size": 64, "recompute": "full"},
  "sweep": {
    "tensor_par": [1, 2, 4, 8],
    "pipeline_par": [1, 2, 4, 8],
    "data_par": "auto",
    "microbatch": [1, 4]
  }
}
EOF
FAULTS="seed=42,abort=0.05,segv=0.05,hang=0.02,hang_s=60"
DIST_FLAGS=(--workers 3 --hang-timeout 2)

echo "== fault-free reference (in-process)"
"$CLI" study "$WORK/study.json" "$WORK/ref.csv" > "$WORK/ref.log" || {
  echo "crash_smoke: reference run failed" >&2; exit 1; }

echo "== supervised run under injected process faults"
run_faulted() {
  local out="$1" log="$2" shard_size="$3"
  "$CLI" study "$WORK/study.json" "$out" "${DIST_FLAGS[@]}" \
      --shard-size "$shard_size" --faults "$FAULTS" \
      --worker-logs "$WORK/worker-logs" > "$log" 2>&1
  local status=$?
  if [[ "$status" -ne 3 ]]; then
    echo "crash_smoke: expected exit 3 (degraded) from the faulted run," \
         "got $status" >&2
    cat "$log" >&2
    return 1
  fi
}
mkdir -p "$WORK/worker-logs"
run_faulted "$WORK/faulted.csv" "$WORK/faulted.log" 4 || exit 1

QUARANTINED=$(grep -c 'quarantined' "$WORK/faulted.csv")
if [[ "$QUARANTINED" -lt 1 ]]; then
  echo "crash_smoke: faulted run quarantined nothing (seed too tame?)" >&2
  exit 1
fi
echo "   $QUARANTINED quarantined row(s)"

if [[ "$(wc -l < "$WORK/faulted.csv")" != "$(wc -l < "$WORK/ref.csv")" ]]; then
  echo "crash_smoke: faulted CSV lost rows (quarantine must fill, not drop)" >&2
  exit 1
fi

echo "== surviving rows are byte-identical to the reference"
# Line-by-line: each row either matches the reference exactly or is a
# quarantine row. Any other difference breaks the deterministic merge.
if ! awk 'NR==FNR { ref[FNR]=$0; next }
          $0 != ref[FNR] && $0 !~ /quarantined/ {
            printf "row %d differs and is not quarantined:\n  ref: %s\n  got: %s\n", FNR, ref[FNR], $0
            bad=1
          }
          END { exit bad }' "$WORK/ref.csv" "$WORK/faulted.csv"; then
  echo "crash_smoke: surviving rows are not bit-identical" >&2
  exit 1
fi

echo "== same seed reproduces the same output"
run_faulted "$WORK/faulted2.csv" "$WORK/faulted2.log" 4 || exit 1
if ! cmp -s "$WORK/faulted.csv" "$WORK/faulted2.csv"; then
  echo "crash_smoke: same-seed reruns differ" >&2
  diff "$WORK/faulted.csv" "$WORK/faulted2.csv" | head -20 >&2
  exit 1
fi

echo "== one item per shard quarantines exactly the same rows"
# A worker writes a fresh shard's results in batches, so its death cannot
# name the culprit; only retries, which ack item by item, may blame. With
# one item per shard every suspect is exact by construction, so any
# wrongly blamed row of the shard-size-4 run shows up as a difference.
run_faulted "$WORK/exact.csv" "$WORK/exact.log" 1 || exit 1
if ! cmp -s "$WORK/faulted.csv" "$WORK/exact.csv"; then
  echo "crash_smoke: shard sizes 4 and 1 blame different rows" >&2
  diff "$WORK/exact.csv" "$WORK/faulted.csv" | head -20 >&2
  exit 1
fi

echo "== a worker that dies part-way through a range blames exactly the same rows"
# 32 shards of 2 across 3 workers: study rows are cheap, so once a few
# shards have come back the supervisor gives each idle worker 8 of them as
# one range, and a worker a fault kills dies part-way through one. Its
# death blames nobody, and the rest of the range is retried item by item,
# so the CSV is byte-identical to the one-item-per-shard run's.
run_faulted "$WORK/queued.csv" "$WORK/queued.log" 2 || exit 1
if ! cmp -s "$WORK/exact.csv" "$WORK/queued.csv"; then
  echo "crash_smoke: shard sizes 2 and 1 blame different rows" >&2
  diff "$WORK/exact.csv" "$WORK/queued.csv" | head -20 >&2
  exit 1
fi

echo "== a checkpoint that cannot be written fails the run, blaming no worker"
# The commit's failure is the engine's, not the worker's whose row it was
# committing: the supervised run must stop with the in-process error, and
# kill no worker for it.
"$CLI" study "$WORK/study.json" "$WORK/ckfail0.csv" --workers 0 \
    --checkpoint-every 7 --checkpoint "$WORK/missing/ck.json" \
    > /dev/null 2> "$WORK/ckfail0.err"
# The in-process error up to the temp file's pid.
CKFAIL_ERROR=$(sed -n 's/\(\.tmp\.\)[0-9].*/\1/p' "$WORK/ckfail0.err")
if [[ -z "$CKFAIL_ERROR" ]]; then
  echo "crash_smoke: the in-process run did not fail at its checkpoint" >&2
  cat "$WORK/ckfail0.err" >&2
  exit 1
fi
mkdir -p "$WORK/ckfail-logs"
"$CLI" study "$WORK/study.json" "$WORK/ckfail.csv" --workers 3 \
    --checkpoint-every 7 --checkpoint "$WORK/missing/ck.json" \
    --worker-logs "$WORK/ckfail-logs" > /dev/null 2> "$WORK/ckfail.err"
CKFAIL_STATUS=$?
if [[ "$CKFAIL_STATUS" -ne 1 ]]; then
  echo "crash_smoke: expected exit 1 from the failing checkpoint," \
       "got $CKFAIL_STATUS" >&2
  cat "$WORK/ckfail.err" >&2
  exit 1
fi
if ! grep -qF -- "$CKFAIL_ERROR" "$WORK/ckfail.err"; then
  echo "crash_smoke: the supervised run did not fail with the in-process" \
       "error ($CKFAIL_ERROR)" >&2
  cat "$WORK/ckfail.err" >&2
  exit 1
fi
if ls "$WORK/ckfail-logs"/flight-*.json >/dev/null 2>&1; then
  echo "crash_smoke: a worker was blamed for the failing checkpoint:" >&2
  ls "$WORK/ckfail-logs" >&2
  exit 1
fi

if ! ls "$WORK/worker-logs"/worker-*.log >/dev/null 2>&1; then
  echo "crash_smoke: no worker logs captured" >&2
  exit 1
fi

if [[ -n "${CRASH_SMOKE_OUT:-}" ]]; then
  mkdir -p "$CRASH_SMOKE_OUT"
  cp "$WORK/worker-logs"/worker-*.log "$WORK/faulted.log" "$CRASH_SMOKE_OUT/"
fi

echo "crash_smoke: OK ($QUARANTINED poison row(s) quarantined," \
     "survivors byte-identical, reruns reproducible, blame exact," \
     "mid-range deaths blame exactly, commit failures blame no worker)"
