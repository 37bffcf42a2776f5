#!/usr/bin/env bash
# Observability smoke test: run a small GPT-3 exec search with --trace /
# --metrics / --progress, then require both files to parse as JSON and to
# carry the expected content — trace events in Chrome trace-event format,
# a populated evaluation-latency histogram, rejection counters, and the
# model's per-stage call counters, with fewer candidate-stage calls than
# candidates (see docs/observability.md).
#
# A second phase repeats the search with --workers 2: the merged trace
# must carry at least three distinct pid lanes (supervisor + 2 workers)
# with process_name metadata and worker-side model/search spans, and the
# aggregated metrics must count exactly as many evaluations and stage
# calls as the in-process run. In both phases the last progress line must
# read "<n>/<n> (100.0%)": every triple of a known total committed.
#
# usage: scripts/traced_smoke.sh [build-dir]    # default: ./build
set -u -o pipefail

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/examples/calculon_cli"
if [[ ! -x "$CLI" ]]; then
  echo "traced_smoke: $CLI not found (build first)" >&2
  exit 1
fi

# Requires the last [exec_search] progress line in $1 to be "<n>/<n> (100.0%)".
check_final_progress() {
  local last
  last="$(grep '^\[exec_search\]' "$1" | tail -n 1)"
  if [[ ! "$last" =~ ^\[exec_search\]\ ([0-9]+)/([0-9]+)\ \(100\.0%\) ]] ||
     [[ "${BASH_REMATCH[1]}" != "${BASH_REMATCH[2]}" ]]; then
    echo "traced_smoke: final progress line is not n/n (100.0%): '$last'" >&2
    cat "$1" >&2
    exit 1
  fi
  echo "progress OK: $last"
}

WORK="$(mktemp -d "${TMPDIR:-/tmp}/calculon_traced_smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
TRACE="$WORK/trace.json"
METRICS="$WORK/metrics.json"

echo "== traced exec search (GPT-3 175B, 64 GPUs)"
"$CLI" llm-optimal-execution gpt3_175b h100_80g 4096 --procs 64 \
    --trace "$TRACE" --metrics "$METRICS" --progress=1 \
    > "$WORK/search.log" 2> "$WORK/progress.log" || {
  echo "traced_smoke: search failed" >&2
  cat "$WORK/search.log" "$WORK/progress.log" >&2
  exit 1
}

for f in "$TRACE" "$METRICS"; do
  if [[ ! -s "$f" ]]; then
    echo "traced_smoke: $f missing or empty" >&2
    exit 1
  fi
done

echo "== validating $TRACE"
python3 - "$TRACE" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["displayTimeUnit"] == "ms", doc.keys()
events = doc["traceEvents"]
assert len(events) > 0, "no trace events"
cats = {e.get("cat") for e in events if e.get("ph") != "M"}
assert "search" in cats, f"no search spans, cats={cats}"
assert "model" in cats, f"no sampled model phases, cats={cats}"
for e in events:
    assert e["ph"] in ("X", "i", "C", "M"), e
print(f"trace OK: {len(events)} events, categories {sorted(c for c in cats if c)}")
EOF
[[ $? -eq 0 ]] || { echo "traced_smoke: trace validation failed" >&2; exit 1; }

echo "== validating $METRICS"
python3 - "$METRICS" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
counters = doc["counters"]
assert counters.get("exec_search.evaluated", 0) > 0, counters
assert counters.get("exec_search.feasible", 0) > 0, counters
assert any(k.startswith("exec_search.rejected.") for k in counters), counters
hist = doc["histograms"]["exec_search.eval_latency_us"]
assert hist["count"] > 0 and hist["p50"] > 0, hist
stages = {k: v for k, v in counters.items()
          if k.startswith("model.stage.") and k.endswith(".calls")}
assert stages, f"no model.stage.*.calls counters: {sorted(counters)}"
candidate = counters.get("model.stage.candidate.calls", 0)
assert 0 < candidate < counters["exec_search.evaluated"], (
    f"candidate-stage calls {candidate} not below "
    f"{counters['exec_search.evaluated']} evaluated")
print(f"metrics OK: {counters['exec_search.evaluated']} evaluated, "
      f"{candidate} candidate-stage calls, p50 latency {hist['p50']:.2f}us")
EOF
[[ $? -eq 0 ]] || { echo "traced_smoke: metrics validation failed" >&2; exit 1; }

check_final_progress "$WORK/progress.log"

WTRACE="$WORK/trace_workers.json"
WMETRICS="$WORK/metrics_workers.json"

echo "== traced supervised exec search (--workers 2)"
"$CLI" llm-optimal-execution gpt3_175b h100_80g 4096 --procs 64 \
    --workers 2 --trace "$WTRACE" --metrics "$WMETRICS" --progress=1 \
    > "$WORK/search_workers.log" 2> "$WORK/progress_workers.log" || {
  echo "traced_smoke: supervised search failed" >&2
  cat "$WORK/search_workers.log" "$WORK/progress_workers.log" >&2
  exit 1
}
check_final_progress "$WORK/progress_workers.log"

echo "== validating $WTRACE (merged per-process lanes)"
python3 - "$WTRACE" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
pids = {e["pid"] for e in events}
assert len(pids) >= 3, f"expected supervisor + 2 worker lanes, pids={pids}"
named = {e["pid"]: e["args"]["name"] for e in events
         if e.get("ph") == "M" and e.get("name") == "process_name"}
assert named.get(1) == "supervisor", f"no supervisor lane name: {named}"
workers = {p: n for p, n in named.items() if p != 1}
assert len(workers) >= 2, f"expected 2 named worker lanes: {named}"
assert all(n.startswith("worker-") for n in workers.values()), named
worker_cats = {e.get("cat") for e in events
               if e.get("ph") != "M" and e["pid"] != 1}
assert "search" in worker_cats, f"no worker search spans, cats={worker_cats}"
assert "model" in worker_cats, f"no worker model spans, cats={worker_cats}"
sup_cats = {e.get("cat") for e in events
            if e.get("ph") != "M" and e["pid"] == 1}
assert "dist" in sup_cats, f"no supervisor dist spans, cats={sup_cats}"
print(f"merged trace OK: {len(events)} events across lanes {sorted(pids)}")
EOF
[[ $? -eq 0 ]] || { echo "traced_smoke: merged trace validation failed" >&2; exit 1; }

echo "== validating $WMETRICS (worker parity with in-process)"
python3 - "$METRICS" "$WMETRICS" <<'EOF'
import json, sys
inproc = json.load(open(sys.argv[1]))
dist = json.load(open(sys.argv[2]))
a = inproc["counters"]["exec_search.evaluated"]
b = dist["counters"]["exec_search.evaluated"]
assert a == b, f"evaluated diverged: in-process {a} vs supervised {b}"
lat = dist["histograms"]["exec_search.eval_latency_us"]
assert lat["count"] == b, f"latency samples {lat['count']} != evaluated {b}"
tagged = sum(v for k, v in dist["counters"].items()
             if k.startswith("dist.worker.")
             and k.endswith(".exec_search.evaluated"))
assert tagged == b, f"per-worker tags sum {tagged} != aggregate {b}"
def stages(doc):
    return {k: v for k, v in doc["counters"].items()
            if k.startswith("model.stage.")}
assert stages(dist) == stages(inproc), (
    f"stage calls diverged: in-process {stages(inproc)} vs "
    f"supervised {stages(dist)}")
print(f"supervised metrics OK: {b} evaluations, per-worker tags and "
      f"{len(stages(dist))} stage counters agree")
EOF
[[ $? -eq 0 ]] || { echo "traced_smoke: supervised metrics validation failed" >&2; exit 1; }

# Leave the artifacts where CI can pick them up.
if [[ -n "${TRACED_SMOKE_OUT:-}" ]]; then
  mkdir -p "$TRACED_SMOKE_OUT"
  cp "$TRACE" "$METRICS" "$WTRACE" "$WMETRICS" "$TRACED_SMOKE_OUT/"
fi

echo "traced_smoke: OK"
