#!/usr/bin/env python3
"""Checks the deterministic work counters of one traced perfbench run
against the committed baseline in bench/pipeline_counters.json.

    python3 bench/check_pipeline_counters.py

Builds perfbench the way perfbench/run.py does (into $CARGO_TARGET_DIR,
default .bench_build), runs it with the arguments the baseline records
(traced `pipeline`, seed 7, 24 requests) and exits 1 when any baseline
counter differs from the run's value. The counters count work, not time
(terms built, clauses emitted, SAT conflicts and propagations, portfolio
fast wins and fallbacks), so they are the same on every host: a change
meant to move them updates the baseline in the same commit.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/

import run  # noqa: E402  (perfbench/run.py: build, run_once, last_json)


def main():
    with open(os.path.join(HERE, "pipeline_counters.json")) as f:
        baseline = json.load(f)
    binary = run.build()
    if binary is None:
        return 2
    code, out = run.run_once(binary, baseline["workload"], baseline["seed"],
                             baseline["seconds"], baseline["trace"],
                             baseline["extra_args"])
    result = run.last_json(out)
    if code != 0 or result is None or not result["correct"]:
        sys.stdout.write(out)
        print("FAIL: the perfbench run did not complete correctly")
        return 1
    failures = 0
    for name, want in baseline["counters"].items():
        metric = result["metrics"].get(name)
        got = None if metric is None else metric["value"]
        ok = got == want
        failures += not ok
        print("%-18s %s  baseline %d, run %s" % (
            name, "PASS" if ok else "FAIL", want,
            "missing" if got is None else "%d" % got))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
