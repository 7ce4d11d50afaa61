#!/usr/bin/env python3
"""Checks of the Nimble benchmark itself.

    python3 perfbench/check.py spread WORKLOAD [--runs N] [--first-seed S] [--seconds S] [--trace 0|1]
    python3 perfbench/check.py determinism [--seed N]
    python3 perfbench/check.py isolation [--seed N]

spread       runs a workload once per seed and prints, for every metric,
             the median and the quartile spread (Q3 - Q1) / median, with
             quartiles as Python's statistics.quantiles(values, n=4).
determinism  runs each workload's deterministic window twice in fresh
             processes, and once inside a timed run; every counter and
             the answer digest must agree.
isolation    runs all workloads in one process in two orders, resetting
             global state between them; each workload's deterministic
             line must equal its fresh-process line.

Run from the root of a Nimble source tree; each check builds through
run.py first and exits non-zero on a failed check.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["federated_sql", "xml_nav", "lens_server"]


def run(args):
    out = subprocess.run([sys.executable, RUN] + args, cwd=ROOT, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return [json.loads(l) for l in out.splitlines() if l.startswith("{")]


def det_lines(lines):
    return {l["deterministic"]["workload"]: l["deterministic"]
            for l in lines if "deterministic" in l}


def spread(a):
    rows = {}
    for i in range(a.runs):
        seed = a.first_seed + i
        lines = run(["--workload", a.workload, "--seed", str(seed),
                     "--seconds", str(a.seconds), "--trace", str(a.trace)])
        result = lines[-1]
        if not result["correct"] or result["failed"]:
            print("seed %d: correct=%s failed=%d" % (seed, result["correct"], result["failed"]))
            return 1
        for name, m in result["metrics"].items():
            rows.setdefault(name, []).append(m["value"])
    print("%-32s %14s %8s   values" % ("metric", "median", "spread"))
    for name, vals in rows.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        share = (q[2] - q[0]) / med if med else float("nan")
        print("%-32s %14.6g %8.4f   %s" % (name, med, share,
                                          " ".join("%.5g" % v for v in vals)))
    return 0


def determinism(a):
    bad = 0
    for w in WORKLOADS:
        first = det_lines(run(["--det", w, "--seed", str(a.seed)]))[w]
        again = det_lines(run(["--det", w, "--seed", str(a.seed)]))[w]
        timed = det_lines(run(["--workload", w, "--seed", str(a.seed),
                               "--seconds", "1", "--trace", "0"]))[w]
        for label, other in (("second run", again), ("timed run", timed)):
            diffs = [k for k in first if first[k] != other.get(k)]
            status = "ok" if not diffs else "DIFFERS in " + ", ".join(diffs)
            print("%-14s %-11s %s" % (w, label, status))
            bad += bool(diffs)
    return 1 if bad else 0


def isolation(a):
    fresh = {}
    for w in WORKLOADS:
        fresh.update(det_lines(run(["--det", w, "--seed", str(a.seed)])))
    bad = 0
    for order in (WORKLOADS, list(reversed(WORKLOADS))):
        shared = det_lines(run(["--det", ",".join(order), "--seed", str(a.seed)]))
        for w in order:
            diffs = [k for k in fresh[w] if fresh[w][k] != shared[w].get(k)]
            status = "ok" if not diffs else "DIFFERS in " + ", ".join(diffs)
            print("%-40s %-14s %s" % (" -> ".join(order), w, status))
            bad += bool(diffs)
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="check", required=True)
    s = sub.add_parser("spread")
    s.add_argument("workload", choices=WORKLOADS)
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    s.add_argument("--seconds", type=int, default=10)
    s.add_argument("--trace", type=int, default=0)
    for name in ("determinism", "isolation"):
        c = sub.add_parser(name)
        c.add_argument("--seed", type=int, default=7)
    a = p.parse_args()
    return {"spread": spread, "determinism": determinism, "isolation": isolation}[a.check](a)


if __name__ == "__main__":
    sys.exit(main())
