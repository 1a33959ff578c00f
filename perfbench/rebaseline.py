#!/usr/bin/env python3
"""Interleaved A/B of the fixed-seed perf suite between two source trees.

    python3 perfbench/rebaseline.py BASE_DIR HEAD_DIR [--pairs N] [--out FILE]

Each directory holds a c11tester source tree, for instance one exported
with `git archive <commit> | tar -x -C DIR`.  Both are built with dune in
the release profile, each into its own DIR/.bench_build, then
`bench/main.exe perf --json` runs N pairs, alternating which side goes
first.  Only the inputs both trees have are compared: a registry workload
added after the base commit is left out of both sides' totals.  Their
parity observables (per-workload buggy/racy/distinct-race counts and total
ops, litmus outcome histograms) must be identical on both sides and on
every run.  Prints, and writes to FILE, each side's median and quartiles
of the suite's total wall time and ops/s over those inputs, the quartiles
of the per-pair head/base wall ratio, and how many pairs the head side
won.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile


def build(tree):
    r = subprocess.run(
        ["dune", "build", "--root", tree, "--build-dir", os.path.join(tree, ".bench_build"),
         "--profile", "release", "--cache=disabled", "./bench/main.exe"],
        cwd=tree, stdout=sys.stderr, stderr=sys.stderr, env=dict(os.environ, DUNE_CACHE="disabled"))
    if r.returncode != 0:
        sys.exit("build failed in " + tree)
    return os.path.join(tree, ".bench_build", "default", "bench", "main.exe")


def workload_names(exe, tree):
    return {w["name"] for w in perf_doc(exe, tree)["workloads"]}


def perf_doc(exe, tree):
    with tempfile.NamedTemporaryFile(suffix=".json", dir=tree, delete=False) as f:
        path = f.name
    try:
        subprocess.run([exe, "perf", "--json", path], cwd=tree, check=True,
                       stdout=subprocess.DEVNULL, timeout=600)
        with open(path) as f:
            return json.load(f)["perf"]
    finally:
        os.remove(path)


def run_once(exe, tree, common):
    """Total wall time, ops/s and parity observables over [common]."""
    doc = perf_doc(exe, tree)
    rows = [w for w in doc["workloads"] if w["name"] in common]
    wall = sum(w["wall_s"] for w in rows) + sum(t["wall_s"] for t in doc["litmus"])
    ops = sum(w["total_ops"] for w in rows)
    parity = ([(w["name"], w["total_ops"], w["buggy_executions"], w["race_executions"],
                w["distinct_races"]) for w in rows],
              [(t["name"], json.dumps(t["outcomes"], sort_keys=True)) for t in doc["litmus"]])
    return wall, ops / wall, parity


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def main():
    args = sys.argv[1:]
    pairs, out = 10, None
    if "--pairs" in args:
        i = args.index("--pairs")
        pairs = int(args[i + 1])
        del args[i:i + 2]
    if "--out" in args:
        i = args.index("--out")
        out = args[i + 1]
        del args[i:i + 2]
    if len(args) != 2:
        sys.exit(__doc__)
    trees = [os.path.abspath(a) for a in args]
    exes = [build(t) for t in trees]
    names = [workload_names(e, t) for e, t in zip(exes, trees)]
    common = names[0] & names[1]
    walls, rates, wins = ([], []), ([], []), 0
    reference = None
    for k in range(pairs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        got = {}
        for side in order:
            got[side] = run_once(exes[side], trees[side], common)
            wall, rate, par = got[side]
            if reference is None:
                reference = par
            elif par != reference:
                sys.exit("parity observables differ (pair %d, side %d)" % (k, side))
            walls[side].append(wall)
            rates[side].append(rate)
        wins += got[1][0] < got[0][0]
        print("pair %2d: base %.3fs  head %.3fs" % (k, got[0][0], got[1][0]), file=sys.stderr)
    doc = {
        "pairs": pairs,
        "order": "alternating, base first on even pairs",
        "parity": "identical on every run",
        "left_out": sorted((names[0] | names[1]) - common),
        "head_wins": wins,
    }
    for side, name in ((0, "base"), (1, "head")):
        doc[name] = {"tree": os.path.basename(trees[side]),
                     "total_wall_s": quartiles(walls[side]),
                     "total_ops_per_s": quartiles(rates[side]),
                     "total_wall_s_runs": walls[side]}
    doc["head_over_base_median_wall"] = (doc["head"]["total_wall_s"]["median"]
                                         / doc["base"]["total_wall_s"]["median"])
    # the two runs of a pair are seconds apart, so their ratio cancels most
    # of the machine's slower drifts
    doc["head_over_base_pair_wall_ratio"] = quartiles([h / b for b, h in zip(*walls)])
    text = json.dumps(doc, indent=1)
    print(text)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")


if __name__ == "__main__":
    main()
