#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exec_search --seed 1 --seconds 20 --trace 0

Builds libcalculon and the benchmark binaries from source into .bench_build
(first run only), runs the workload, checks its outputs against the golden
digests in perfbench/golden/, and prints the metrics. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The full result, with its run manifest, is also written to
.bench_results/<workload>-seed<n>-trace<t>.json for perfbench/compare.py.

    python3 perfbench/run.py --record-golden WORKLOAD

re-records a workload's golden file (only ever at a commit whose outputs are
known good).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RESULTS_DIR = ROOT / ".bench_results"
WORK_DIR = ROOT / ".bench_work"
WORKLOADS = ("exec_search", "codesign", "study_supervised")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds both binaries; build output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no calculon sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def git_state():
    """(sha, dirty) of the checkout, or ("unknown", False) outside git."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=30).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, check=True, timeout=30).stdout
        return sha, bool(status.strip())
    except (OSError, subprocess.SubprocessError):
        return "unknown", False


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it exists."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    doc = json.loads(spec.read_text())
    return {m["name"] for m in doc["per_layer" if trace else "end_to_end"]}


def run_binary(args, extra):
    binary = BUILD_DIR / ("perfbench_traced" if args.trace else "perfbench")
    proc = subprocess.Popen([str(binary)] + extra, cwd=str(ROOT),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{binary.name} exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", choices=WORKLOADS)
    args = p.parse_args()

    build()
    work = WORK_DIR / f"{args.workload or args.record_golden}"
    if args.record_golden:
        golden = BENCH_DIR / "golden" / f"{args.record_golden}.json"
        args.trace = 0
        return run_binary(args, ["--workload", args.record_golden,
                                 "--record-golden", str(golden),
                                 "--work-dir", str(work)])
    if args.workload is None:
        p.error("--workload is required")

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if out.exists():
        out.unlink()
    code = run_binary(args, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--golden", str(BENCH_DIR / "golden" / f"{args.workload}.json"),
        "--work-dir", str(work), "--out", str(out)])
    shutil.rmtree(work, ignore_errors=True)
    if code != 0 or not out.is_file():
        raise RuntimeError(f"benchmark binary failed (exit {code})")

    result = json.loads(out.read_text())
    sha, dirty = git_state()
    result["manifest"]["git_sha"] = sha
    result["manifest"]["git_dirty"] = dirty
    want = expected_metrics(args.trace)
    got = set(result["metrics"])
    if want is not None and want != got:
        log(f"metric set differs from BENCHMARK.json: missing "
            f"{sorted(want - got)}, extra {sorted(got - want)}")
        result["correct"] = False
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"manifest: {json.dumps(result['manifest'], sort_keys=True)}")
    info = {k: v for k, v in result["info"].items()
            if not k.startswith("per_answer")}
    print(f"info: {json.dumps(info, sort_keys=True)}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(str(e))
        sys.exit(1)
