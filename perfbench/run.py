#!/usr/bin/env python3
"""The C11Tester benchmark.

Closed-loop, single-process batch workloads, each run at -j 1 (one
domain; the fabric uses one worker process).  BENCHMARK.json lists
campaign, fuzz and fabric; tier runs here too, but is not a benchmark
workload: about one seed in five stalls the streaming certifier's prefix
retirement in one of its executions, which then costs a third more time
and twice the heap, so its figures spread too widely across seeds (heap
29%, rate 11% between quartiles over seeds 11-20).

  campaign  the perf suite's mix: 17 registry workloads (buggy variants,
            default scales, 400/50 executions) and 31 litmus tests (2500
            executions each) through Tester.run and Litmus.explore
  tier      two long single executions under the --scale tier contract
            (streaming certification, aggressive pruning): spsc-queue
            (buggy) at 1/200 and mcs-lock (correct) at 1/20 of their tier
            scales, each from a compacted heap
  fuzz      the CLI-default differential fuzz campaign, 10 000 programs,
            coverage on
  fabric    campaign's 17 registry inputs through Svc.run_campaign: a cold
            pass into a fresh result cache (timed), then a warm pass over it
            (gated, not timed)

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One measured run.  Its last stdout line is one JSON object with the
      keys correct, attempted, failed and metrics: the end-to-end metrics
      of BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.
  python3 perfbench/run.py all [--seconds S] [--out FILE]
      Every workload at its default seed, untraced then traced, with the
      correctness gate; prints every metric with its unit.
  python3 perfbench/run.py compare A.json B.json
      Parent (A) against change (B), two files written by `all --out`.
  python3 perfbench/run.py selfcheck
      The gate must report failures when the engine carries a seeded fault.
  python3 perfbench/run.py audit [--seconds S]
      Runs each traced workload twice; every metric listed as exact in
      audit.json must repeat bit for bit.
  python3 perfbench/run.py expect [--seeds 1-20]
      Rewrites expected.json's observables from the current program.  Only
      for a change that alters outputs on purpose.

End-to-end metrics, from untraced runs: execs_per_s, ops_per_s and
programs_per_s (one timing: the median pass, scaled to a reference CPU
speed as driver.ml explains), peak_heap_mb (the GC's top heap after the
first pass) and setup_s (the median of 31 fresh set-up processes).  Every
workload reports all five.  Per-layer metrics come from a separate traced
run; a layer the workload does not exercise reads 0.  audit.json lists
which per-layer metrics are exact counts.  The gate (expected.json)
compares each run's outputs with committed values and counts failures
against attempts; a failure with the key of a recorded known defect
counts as failed without making the run incorrect.

The benchmark builds the driver and the c11test worker binary from source
(dune, release profile) into .bench_build/ and keeps its scratch files in
.bench_work/, both inside the checkout.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
DRIVER = os.path.join(BUILD, "default", "perfbench", "driver.exe")
WORKLOADS = ["campaign", "tier", "fuzz", "fabric"]  # tier: see above
# fuzz takes the CLI's default seed, the others the perf suite's
DEFAULT_SEED = {"campaign": 20260806, "tier": 20260806, "fuzz": 1, "fabric": 20260806}
# setup_s is the median over this many fresh set-up processes
SETUP_SPAWNS = 31
DRIVER_TIMEOUT = 160


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for need in ("dune-project", "lib", "bin", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("run from the root of a c11tester checkout (%s missing)" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
         "--profile", "release", "--cache=disabled",
         "./perfbench/driver.exe", "./bin/c11test.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    os.makedirs(WORK, exist_ok=True)


def driver_env():
    return dict(os.environ, TMPDIR=WORK)


def drive(mode, workload, seed, seconds=0, extra=()):
    cmd = [DRIVER, mode, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--work", WORK] + list(extra)
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=driver_env(), stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=DRIVER_TIMEOUT, text=True)
    except subprocess.TimeoutExpired:
        fail("driver timed out: " + " ".join(cmd))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("driver failed (exit %d): %s" % (r.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def setup_times(workload, seed, spawns):
    """Wall times of fresh processes doing the workload's set-up.  No
    timeout: waiting with one polls with growing sleeps, which rounded
    fabric's 20 ms set-up up to 32 ms."""
    cmd = [DRIVER, "setup", workload, "--seed", str(seed), "--work", WORK]
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        r = subprocess.run(cmd, cwd=ROOT, env=driver_env(), stdout=subprocess.DEVNULL,
                           stderr=sys.stderr)
        times.append(time.perf_counter() - t0)
        if r.returncode != 0:
            fail("set-up failed: " + " ".join(cmd))
    return times


def canonical_md5(obj):
    return hashlib.md5(json.dumps(obj, sort_keys=True, separators=(",", ":"))
                       .encode()).hexdigest()


def gate(workload, seed, d, expected):
    """(correct, failed, notes) for one driver result.

    A failure whose key is a recorded known defect counts as failed but
    leaves the run correct; any other failure makes it incorrect.  At a
    seed with committed observables every input must match them."""
    known = {k["key"] for k in expected["known_defects"] if k["workload"] == workload}
    notes = ["%s (%s)" % (f["key"], f["note"]) for f in d["failures"]]
    correct = all(f["key"] in known for f in d["failures"])
    failed = d["failed"]
    exp = expected["workloads"][workload]
    got = d["observables"]
    want = exp["observables"].get(str(seed))
    if want is not None:
        if isinstance(want, list):
            bad = [w.get("name", i) for i, (w, g) in enumerate(zip(want, got)) if w != g]
            if len(want) != len(got):
                bad.append("input count")
        else:
            bad = ["report"] if want != got else []
        if bad:
            correct = False
            failed += len(bad)
            notes.append("differs from expected.json: " + ", ".join(map(str, bad)))
    elif str(seed) in exp["md5"]:
        if exp["md5"][str(seed)] != canonical_md5(got):
            correct = False
            failed += 1
            notes.append("differs from expected.json's digest for seed %d" % seed)
    return correct, failed, notes


def measure(workload, seed, seconds, trace, expected):
    """One measured run: (correct, attempted, failed, metrics, notes)."""
    bench = spec()
    if trace:
        spans = os.path.join(WORK, "spans-%s-%d.ndjson" % (workload, seed))
        d = drive("trace", workload, seed, seconds, ["--spans", spans])
        # a layer the workload does not exercise did no work: 0
        values = {m["name"]: d["per_layer"].get(m["name"], 0.0) for m in bench["per_layer"]}
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        # set-up is timed before and after the run, so the samples span it
        setup = setup_times(workload, seed, SETUP_SPAWNS // 2)
        d = drive("run", workload, seed, seconds)
        setup += setup_times(workload, seed, SETUP_SPAWNS - len(setup))
        values = dict(d["end_to_end"], setup_s=statistics.median(setup))
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {name: values[name] for name in units}
    correct, failed, notes = gate(workload, seed, d, expected)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return correct, d["attempted"], failed, metrics, notes


def contract(argv):
    opts = {"--workload": None, "--seed": None, "--seconds": None, "--trace": "0"}
    it = iter(argv)
    for a in it:
        if a not in opts:
            fail("unknown argument " + a)
        opts[a] = next(it, None)
    workload = opts["--workload"]
    if workload not in WORKLOADS:
        fail("--workload must be one of " + ", ".join(WORKLOADS))
    if opts["--trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    try:
        seed = int(opts["--seed"]) if opts["--seed"] is not None else DEFAULT_SEED[workload]
        seconds = int(opts["--seconds"]) if opts["--seconds"] is not None else None
    except ValueError:
        fail("--seed and --seconds take integers")
    build()
    if seconds is None:
        seconds = spec()["run_seconds"]
    trace = opts["--trace"] == "1"
    expected = load("expected.json")
    correct, attempted, failed, metrics, notes = measure(workload, seed, seconds, trace,
                                                         expected)
    for n in notes:
        print("gate: " + n, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def flag(argv, name, default):
    if name in argv:
        i = argv.index(name)
        if i + 1 >= len(argv):
            fail(name + " takes a value")
        return argv[i + 1]
    return default


def run_all(argv):
    seconds = int(flag(argv, "--seconds", spec()["run_seconds"]))
    out = flag(argv, "--out", None)
    build()
    expected = load("expected.json")
    exact = set(load("audit.json")["exact"])
    doc = {"schema": "perfbench-result-v1", "seconds": seconds, "workloads": {}}
    all_correct = True
    for w in WORKLOADS:
        seed = DEFAULT_SEED[w]
        row = {"seed": seed}
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            correct, attempted, failed, metrics, notes = measure(w, seed, seconds, trace,
                                                                 expected)
            all_correct &= correct
            row[key] = metrics
            row[key + "_gate"] = {"correct": correct, "attempted": attempted,
                                  "failed": failed, "notes": notes}
        doc["workloads"][w] = row
        gate_row = row["end_to_end_gate"]
        print("%s (seed %d): correct=%s, %d failed of %d attempted"
              % (w, seed, str(gate_row["correct"]).lower(), gate_row["failed"],
                 gate_row["attempted"]))
        for n in gate_row["notes"]:
            print("  gate: " + n)
        for key in ("end_to_end", "per_layer"):
            for name, m in row[key].items():
                mark = " (exact)" if name in exact else ""
                print("  %-28s %16.6g %s%s" % (name, m["value"], m["unit"], mark))
        sys.stdout.flush()
    if out:
        with open(out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
    return 0 if all_correct else 1


def compare(argv):
    if len(argv) != 2:
        fail("compare takes two result files: PARENT CHANGE")
    a, b = (json.load(open(p)) for p in argv)
    exact = set(load("audit.json")["exact"])
    print("ratio = change / parent (base: the parent's value)")
    print("%-10s %-28s %-8s %16s %16s %10s" % ("workload", "metric", "unit", "parent",
                                                "change", "ratio"))
    for w in WORKLOADS:
        ra, rb = a["workloads"].get(w), b["workloads"].get(w)
        if ra is None or rb is None:
            print("%-10s missing from %s" % (w, "parent" if ra is None else "change"))
            continue
        for key in ("end_to_end", "per_layer"):
            for name, ma in ra[key].items():
                mb = rb[key].get(name)
                if mb is None:
                    print("%-10s %-28s missing from change" % (w, name))
                    continue
                va, vb = ma["value"], mb["value"]
                ratio = "%10.4f" % (vb / va) if va else "%10s" % ("=" if vb == va else "n/a")
                mark = " exact" + ("" if va == vb else " CHANGED") if name in exact else ""
                print("%-10s %-28s %-8s %16.6g %16.6g %s%s"
                      % (w, name, ma["unit"], va, vb, ratio, mark))
    return 0


def selfcheck(argv):
    """Tier and fuzz at 1/20 size: clean without a fault, failing with one."""
    build()
    ok = True
    for w in ("tier", "fuzz"):
        seed = DEFAULT_SEED[w]
        for mutation in (None, "drop-mo-edge"):
            extra = ["--small"] + (["--mutation", mutation] if mutation else [])
            d = drive("check", w, seed, 0, extra)
            correct, failed, _ = gate(w, seed, d, {"known_defects": [],
                                                   "workloads": {w: {"observables": {},
                                                                     "md5": {}}}})
            want_fail = mutation is not None
            good = (failed > 0 and not correct) if want_fail else (failed == 0 and correct)
            ok &= good
            print("%-5s mutation=%-13s failed=%5d of %5d correct=%-5s %s"
                  % (w, mutation or "none", failed, d["attempted"], str(correct).lower(),
                     "ok" if good else "GATE BROKEN"))
    return 0 if ok else 1


def audit(argv):
    """Two traced runs per workload; exact metrics must repeat bit for bit."""
    seconds = int(flag(argv, "--seconds", "4"))
    build()
    expected = load("expected.json")
    exact = load("audit.json")["exact"]
    ok = True
    for w in WORKLOADS:
        seed = DEFAULT_SEED[w]
        runs = [measure(w, seed, seconds, True, expected)[3] for _ in range(2)]
        for name in exact:
            a, b = runs[0][name]["value"], runs[1][name]["value"]
            same = a == b
            ok &= same
            print("%-9s %-28s %18r %18r %s" % (w, name, a, b, "ok" if same else "DIFFERS"))
        for name in sorted(n for n in runs[0] if n not in exact):
            a, b = runs[0][name]["value"], runs[1][name]["value"]
            print("%-9s %-28s %18r %18r %s" % (w, name, a, b,
                                               "timing, repeated" if a == b else "timing"))
    return 0 if ok else 1


def expect(argv):
    lo, hi = (int(x) for x in flag(argv, "--seeds", "1-20").split("-"))
    build()
    path = os.path.join(HERE, "expected.json")
    expected = load("expected.json")
    for w in WORKLOADS:
        exp = expected["workloads"].setdefault(w, {"observables": {}, "md5": {}})
        seeds = sorted(set(range(lo, hi + 1)) | {DEFAULT_SEED[w]})
        for seed in seeds:
            d = drive("check", w, seed)
            if seed == DEFAULT_SEED[w]:
                exp["observables"][str(seed)] = d["observables"]
            exp["md5"][str(seed)] = canonical_md5(d["observables"])
            print("%s seed %d: %s, %d failed" % (w, seed, exp["md5"][str(seed)], d["failed"]))
    with open(path, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    argv = sys.argv[1:]
    modes = {"all": run_all, "compare": compare, "selfcheck": selfcheck, "audit": audit,
             "expect": expect}
    if argv and argv[0] in modes:
        sys.exit(modes[argv[0]](argv[1:]))
    contract(argv)


if __name__ == "__main__":
    main()
