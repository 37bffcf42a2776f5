#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

Usage:

    python3 perfbench/compare.py --parent DIR --change DIR \\
        [--claim evals_per_s:exec_search]

Each DIR holds result files written by perfbench/run.py (copies of
.bench_results/*.json). Results pair up by workload and seed. Two results
are compared only when their manifests agree in everything but the git sha
(build type, compiler, CALCULON_NO_OBS, threads, workers, nproc, CPU model,
seed, trace); otherwise the comparison is refused (exit 2).

For every end-to-end metric of BENCHMARK.json and every workload it prints
each side's median and quartiles and how many pairs the change won. A
metric regresses when the change's median is worse than the parent's by more
than the metric's bound; it is "unresolved" when the parent's own spread
(quartile distance over median) exceeds the bound and the change does not
win every pair. A --claim holds when there are at least 10 pairs, the change
wins at least 9 in 10 of them (ties count for neither side), and the medians
differ by more than the parent's quartile distance. Exit status: 0 when the
claim (if any) holds and nothing regressed, 1 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED_MANIFEST_KEYS = {"git_sha"}


def load(directory):
    """{(workload, seed): result} for the untraced results in `directory`."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        r = json.loads(path.read_text())
        m = r.get("manifest", {})
        if m.get("trace"):
            continue
        out[(m["workload"], m["seed"])] = r
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--claim", help="METRIC:WORKLOAD the change claims to improve")
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        print("no (workload, seed) pairs in common", file=sys.stderr)
        return 2
    for key in pairs:
        a = {k: v for k, v in parent[key]["manifest"].items()
             if k not in IGNORED_MANIFEST_KEYS}
        b = {k: v for k, v in change[key]["manifest"].items()
             if k not in IGNORED_MANIFEST_KEYS}
        if a != b:
            diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            print(f"refused: manifests of {key} differ in {diff}",
                  file=sys.stderr)
            return 2

    ok = True
    claim_met = args.claim is None
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        print(f"{workload}: {len(seeds)} pairs")
        for m in spec["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"
            pv = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            cv = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            pm, cm = statistics.median(pv), statistics.median(cv)
            pq1, pq3 = quartiles(pv)
            cq1, cq3 = quartiles(cv)
            wins = sum(1 for a, b in zip(pv, cv) if (b > a if higher else b < a))
            worse = (pm - cm) / pm if higher else (cm - pm) / pm
            spread = (pq3 - pq1) / pm if pm else 0.0
            if worse > m["bound"]:
                verdict = "REGRESSED"
                ok = False
            elif spread > m["bound"] and wins < len(seeds):
                verdict = "unresolved"
            else:
                verdict = "ok"
            if args.claim == f"{name}:{workload}":
                gain = len(seeds) >= 10 and wins >= 0.9 * len(seeds) and \
                    abs(cm - pm) > (pq3 - pq1)
                claim_met = gain
                verdict += ", claim " + ("MET" if gain else "NOT MET")
            print(f"  {name:16s} parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}]  "
                  f"change {cm:.6g} [{cq1:.6g}, {cq3:.6g}]  "
                  f"change wins {wins}/{len(seeds)}  {verdict}")
    return 0 if ok and claim_met else 1


if __name__ == "__main__":
    sys.exit(main())
