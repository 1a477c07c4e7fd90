#!/usr/bin/env python3
"""The benchmark's own test: the verdict digest (a hash over
svc::debugString of every Outcome of a run) must not depend on the run or
on the worker count, so a change that moves a verdict cannot hide behind a
performance figure.

    python3 perfbench/test_digest.py

For each workload it runs a fixed number of requests three times (the
workload's own worker count twice, then the other of 1 and 2 workers) and
exits 0 only if all three digests agree and every run reports correct.
"""

import re
import sys

import run

# Requests per workload: both cross a pass boundary (149 and 17 requests
# per pass), where they switch to a fresh service.
REQUESTS = {"sample": 160, "pipeline": 24}
OWN_WORKERS = {"sample": 2, "pipeline": 2}


def digest(binary, workload, workers):
    extra = ["--requests", str(REQUESTS[workload]), "--workers", str(workers)]
    code, out = run.run_once(binary, workload, 7, 1, 0, extra)
    result = run.last_json(out)
    match = re.search(r"^verdict_digest=([0-9a-f]+) over (\d+) outcomes$",
                      out, re.M)
    if code != 0 or result is None or not result["correct"] or not match:
        sys.stdout.write(out)
        return None
    return match.group(1), int(match.group(2))


def main():
    binary = run.build()
    if binary is None:
        return 2
    failures = 0
    for workload in run.WORKLOADS:
        own = OWN_WORKERS[workload]
        other = 1 if own == 2 else 2
        digests = [digest(binary, workload, w) for w in (own, own, other)]
        same = None not in digests and len(set(digests)) == 1
        failures += not same
        print("%-8s %s  workers %d, %d, %d: %s" % (
            workload, "PASS" if same else "FAIL", own, own, other,
            ", ".join("%s/%d" % d if d else "failed" for d in digests)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
