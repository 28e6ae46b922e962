#!/usr/bin/env python3
"""The repo benchmark. Run from the root of a checkout:

    python3 perfbench/run.py --workload day|suite|quick --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test   # the digest check can fail
    python3 perfbench/run.py --record      # rewrite reference_digests.txt

It builds perfbench/vmkbench.exe and perfbench/calib.exe with dune, then:

--trace 0  runs the workload in a fresh process per iteration, one at a
           time, for about S seconds (at least one iteration), and reports
           the end-to-end metrics of BENCHMARK.json: wall_norm_s (host
           seconds in the experiment calls, scaled to the reference host's
           speed by the calibrator run around each iteration; median over
           iterations), setup_s (median lifetime of SETUP_PROBES processes
           per iteration that do everything but the experiment calls) and
           peak_rss_mb (median VmHWM). The unscaled wall_s is printed as a
           '#' line.
--trace 1  runs the traced per-layer pass once and reports every
           per_layer metric of BENCHMARK.json; the seed drives the
           ledger's schedule.

The day, suite and quick experiments fix their own seeds (their verdicts
are about those seeds), so --seed only reaches the ledger. Seed 9001 is
held back for confirming later claims (see NOTES.md). Every
experiment call is checked: its verdicts must HOLD and the MD5 of its
rendered report must equal reference_digests.txt. Each ledger cell is
checked for packet and flow conservation and for tracing not changing
the simulation. Failures count in "failed"; the last stdout line is the
JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "vmkbench.exe")
CALIB = os.path.join("_build", "default", "perfbench", "calib.exe")
# calib.exe's checksum; a different value means it did different work.
CALIB_CHECKSUM = 166645218
# calib.exe's time per round on the reference host (NOTES.md): a run's
# wall_norm_s is its wall time times CALIB_REF_S / its calibrator time.
CALIB_REF_S = 0.040
# The calibrator after an iteration runs for about this share of the
# iteration's wall time, and at least 3 rounds: the longer it runs, the
# closer its mean follows the host speed the iteration saw.
CALIB_SHARE = 0.1
REFERENCE = os.path.join(HERE, "reference_digests.txt")
WORKLOADS = ("day", "suite", "quick")
SETUP_PROBES = 3  # per iteration
# Every run must end within this many seconds after the build.
RUN_LIMIT_S = 170.0


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a vmk checkout (no dune-project or lib/)")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./perfbench/vmkbench.exe", "./perfbench/calib.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0 or not (os.path.isfile(EXE) and os.path.isfile(CALIB)):
        die("build failed")


def run_child(args, deadline, exe=EXE):
    """Run a bench executable to completion; return (stdout, lifetime s)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        die("out of time before %s" % " ".join(args))
    t0 = time.perf_counter()
    try:
        p = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("%s timed out" % " ".join(args))
    life = time.perf_counter() - t0
    if p.returncode != 0:
        die("%s exited with %d" % (" ".join(args), p.returncode))
    return p.stdout, life


def calibrate(deadline, rounds=3):
    """Host seconds of one calibrator round, the mean of its rounds. A
    mean, like the workload's iteration totals: a minimum would pick the
    calibrator's luckiest moment and miss a slowdown the workload pays."""
    f = run_child([str(rounds)], deadline, CALIB)[0].split()
    if len(f) < 3 or int(f[1]) != CALIB_CHECKSUM or len(f) != 2 + int(f[0]):
        die("calib.exe printed %r" % " ".join(f))
    return statistics.mean(int(ns) for ns in f[2:]) / 1e9


def parse(out):
    exps, metrics, checks, rss_kb, notes = [], {}, [], None, []
    for line in out.splitlines():
        f = line.split()
        if not f:
            continue
        if f[0] == "exp":
            exps.append({"size": f[1], "id": f[2], "wall_s": int(f[3]) / 1e9,
                         "holds": f[4] == "1", "digest": f[5]})
        elif f[0] == "metric":
            metrics[f[1]] = (float(f[2]), f[3])
        elif f[0] == "check":
            checks.append((f[1], f[2] == "1"))
        elif f[0] == "peak_rss_kb":
            rss_kb = int(f[1])
        elif f[0].startswith("#"):
            notes.append(line)
    return exps, metrics, checks, rss_kb, notes


def load_reference():
    ref = {}
    with open(REFERENCE) as fh:
        for line in fh:
            f = line.split()
            if len(f) == 3 and not f[0].startswith("#"):
                ref[(f[0], f[1])] = f[2]
    return ref


def bad_exps(exps, ref):
    """Experiment calls whose verdicts fail or whose report changed."""
    return [e for e in exps
            if not e["holds"] or ref.get((e["size"], e["id"])) != e["digest"]]


def load_spec():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def result(attempted, failed, metrics, wanted):
    missing = [n for n, _ in wanted if n not in metrics]
    if missing:
        die("metrics not produced: " + ", ".join(missing))
    out = {}
    for name, unit in wanted:
        value, got_unit = metrics[name]
        if got_unit != unit:
            die("%s has unit %s, BENCHMARK.json says %s" % (name, got_unit, unit))
        out[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": out}


def untraced(workload, seconds, deadline, ref, wanted):
    start = time.monotonic()
    walls, rss, setups, exps, scaled = {}, [], [], [], []
    cal_before = calibrate(deadline)
    while True:
        t0 = time.monotonic()
        out, life = run_child(["workload", workload], deadline)
        run_exps, _, _, rss_kb, _ = parse(out)
        if rss_kb is None or not run_exps:
            die("workload %s produced no result" % workload)
        for e in run_exps:
            walls.setdefault(e["id"], []).append(e["wall_s"])
        rss.append(rss_kb / 1024.0)
        exps += run_exps
        setups += [run_child(["setup"], deadline)[1] for _ in range(SETUP_PROBES)]
        wall = sum(e["wall_s"] for e in run_exps)
        cal_after = calibrate(
            deadline, max(3, round(CALIB_SHARE * wall / CALIB_REF_S)))
        cal = (cal_before + cal_after) / 2
        scaled.append(wall * CALIB_REF_S / cal)
        cal_before = cal_after
        print("# iteration %d: wall %.3f s, calib %.4f s, scaled %.3f s, "
              "lifetime %.3f s, peak rss %.1f MB"
              % (len(rss), wall, cal, scaled[-1], life, rss[-1]))
        # Start another iteration only if it fits in the run.
        if time.monotonic() - start + (time.monotonic() - t0) > seconds:
            break
    bad = bad_exps(exps, ref)
    for e in bad:
        print("# FAILED %s %s: holds=%s digest=%s" % (e["size"], e["id"], e["holds"], e["digest"]))
    print("# %s: %d iterations, %d experiment calls, failed_frac %.4f frac"
          % (workload, len(rss), len(exps), len(bad) / len(exps)))
    print("# %-12s %.6f s (each experiment's fastest iteration, summed; unscaled)"
          % ("wall_s", sum(min(v) for v in walls.values())))
    metrics = {
        "wall_norm_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    for name, (value, unit) in metrics.items():
        print("# %-12s %.6f %s" % (name, value, unit))
    return result(len(exps), len(bad), metrics, wanted)


def traced(workload, seed, deadline, ref, wanted):
    out, _ = run_child(["trace", workload, str(seed)], deadline)
    exps, metrics, checks, _, notes = parse(out)
    for line in notes:
        print(line)
    bad = bad_exps(exps, ref)
    for e in bad:
        print("# FAILED %s %s: holds=%s digest=%s" % (e["size"], e["id"], e["holds"], e["digest"]))
    for name, ok in checks:
        if not ok:
            print("# FAILED check %s" % name)
    failed = len(bad) + sum(1 for _, ok in checks if not ok)
    for name, (value, unit) in metrics.items():
        print("# %-34s %14.6g %s" % (name, value, unit))
    return result(len(exps) + len(checks), failed, metrics, wanted)


def self_test(deadline):
    """The digest check must be able to fail: corrupt one reference digest
    and confirm a quick run reports failed_frac > 0."""
    ref = load_reference()
    exps = parse(run_child(["workload", "quick"], deadline)[0])[0]
    clean = len(bad_exps(exps, ref))
    victim = ("quick", exps[len(exps) // 2]["id"])
    corrupt = dict(ref)
    corrupt[victim] = "0" * 32
    dirty = len(bad_exps(exps, corrupt))
    print("# self-test: failed_frac %.4f with the reference, %.4f with %s %s corrupted"
          % (clean / len(exps), dirty / len(exps), victim[0], victim[1]))
    return clean == 0 and dirty > 0


def record(deadline):
    """The traced quick run calls every entry at both sizes."""
    lines = ["# MD5 of each experiment's rendered pp_report text: SIZE ID DIGEST",
             "# Written by: python3 perfbench/run.py --record"]
    for e in parse(run_child(["trace", "quick", "1"], deadline)[0])[0]:
        if not e["holds"]:
            die("%s %s does not HOLD; not recording it" % (e["size"], e["id"]))
        lines.append("%s %s %s" % (e["size"], e["id"], e["digest"]))
    with open(REFERENCE, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("# wrote %s" % REFERENCE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.self_test:
        sys.exit(0 if self_test(deadline) else 1)
    if args.record:
        record(deadline)
        return
    if args.workload is None:
        die("--workload is required")
    end_to_end, per_layer = load_spec()
    ref = load_reference()
    if args.trace:
        res = traced(args.workload, args.seed, deadline, ref, per_layer)
    else:
        res = untraced(args.workload, args.seconds, deadline, ref, end_to_end)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
