#!/usr/bin/env python3
"""The repository benchmark: builds the program from source and runs one
workload in one process.

    python3 perfbench/run.py --workload sample|pipeline \
        --seed N --seconds S --trace 0|1

prints the benchmark's report and, as the last stdout line, one JSON object
with the keys correct, attempted, failed and metrics (end-to-end metrics
with --trace 0, per-layer metrics with --trace 1). With --trace 0, setup_s
is the median over SETUPS processes, each timed from its own start: the
workload process and SETUPS - 1 set-up-only processes run before it.

    python3 perfbench/run.py --steady N --workload W [--seconds S]

runs the workload N times (seeds 1..N, untraced) and prints, per
end-to-end metric, the median, quartiles, min/max and the spread
(interquartile distance over the median) next to the bound from
BENCHMARK.json, with the verdict OK (spread below a third of the bound),
WIDE (below the bound) or TOO-NOISY.

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); the temporary files of a run go under it and are removed.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sample", "pipeline")
SETUPS = 5


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds perfbench; returns the binary path or None."""
    out = os.path.join(build_dir(), "perfbench")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [configure, ["cmake", "--build", out, "-j", jobs]]
    if any(os.path.exists(os.path.join(out, f))
           for f in ("build.ninja", "Makefile")):
        steps = steps[1:]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload process; returns (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(build_dir(), "work")] + list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate()
    finally:
        # Interrupted (or killed with SIGTERM, see main): never leave the
        # workload process behind.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def run_workload(binary, workload, seed, seconds, trace):
    """run_once, with --trace 0 also timing SETUPS - 1 set-up-only
    processes first and reporting the median set-up."""
    setups = []
    if not trace:
        for _ in range(SETUPS - 1):
            code, out = run_once(binary, workload, seed, seconds, 0,
                                 ["--setup-only"])
            lines = out.strip().splitlines()
            if code != 0 or not lines or not lines[-1].startswith("setup_s="):
                return code or 1, out
            setups.append(float(lines[-1].split("=", 1)[1]))
    code, out = run_once(binary, workload, seed, seconds, trace)
    result = last_json(out)
    if code != 0 or result is None or trace:
        return code, out
    setups.append(result["metrics"]["setup_s"]["value"])
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    lines = out.strip().splitlines()
    lines[-1] = json.dumps(result)
    lines.insert(-1, "setup_s is the median of %d processes: %s" % (
        len(setups), " ".join("%.4f" % s for s in setups)))
    return code, "\n".join(lines) + "\n"


def last_json(text):
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return obj if isinstance(obj, dict) and set(obj) == keys else None


def steady(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in range(1, args.steady + 1):
        code, out = run_workload(binary, args.workload, seed, args.seconds, 0)
        result = last_json(out)
        if code != 0 or result is None or not result["correct"]:
            sys.stdout.write(out)
            print("perfbench: seed %d failed (exit %d)" % (seed, code))
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, "  ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())))
        sys.stdout.flush()
    print("\n%s over %d seeds (%gs runs)" % (args.workload, args.steady,
                                             args.seconds))
    print("  %-16s %10s %10s %10s %10s %10s %8s %7s %s" % (
        "metric", "median", "q1", "q3", "min", "max", "spread", "bound",
        "verdict"))
    worst = 0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name, {}).get("bound")
        if bound is None:
            verdict = "-"
        else:
            verdict = "OK" if spread < bound / 3 else (
                "WIDE" if spread <= bound else "TOO-NOISY")
            worst = max(worst, 0 if verdict == "OK" else 1)
        print("  %-16s %10.5g %10.5g %10.5g %10.5g %10.5g %8.4f %7s %s" % (
            name, med, q1, q3, min(vals), max(vals), spread,
            "-" if bound is None else bound, verdict))
    return worst


def main():
    # SIGTERM unwinds like Ctrl-C, so run_once stops its child first.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0,
                    help="run N seeds and print the spread of every metric")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    if args.steady:
        return steady(binary, args)
    code, out = run_workload(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0 or last_json(out) is None:
        sys.stderr.write("perfbench: the workload process failed (exit %d)\n"
                         % code)
        return code or 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
