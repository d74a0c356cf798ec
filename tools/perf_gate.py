#!/usr/bin/env python3
"""Gate fresh perfbench results against a committed baseline.

Usage: perf_gate.py BASELINE.json RESULTS.json [RESULTS.json ...]

Every file maps workload names to perfbench result objects, the last
stdout line of `python3 perfbench/run.py --workload W ...`. The result
files are merged, and they must cover exactly the baseline's workloads.

A workload fails when its fresh run is not `correct`, when a larger
share of its ops failed than in the baseline, or when an `end_to_end`
metric of BENCHMARK.json is worse than the baseline by more than that
metric's `bound`, read in its `better` direction.

Exit 0 when every workload passes, 1 when any fails, 2 on usage or
file errors.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def die(msg):
    print("perf_gate: " + msg, file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        die("cannot load %s: %s" % (path, exc))
    if not isinstance(doc, dict):
        die("%s is not an object" % path)
    return doc


def check(name, base, fresh, metrics):
    """Return one report line per check and whether any failed."""
    lines = []
    if fresh["correct"] is not True:
        lines.append("FAIL %s correct: %s" % (name, fresh["correct"]))
    # failed/attempted shares compared exactly, by cross-multiplying.
    worse_share = (fresh["failed"] * base["attempted"] >
                   base["failed"] * fresh["attempted"])
    lines.append("%s %s failed: %d/%d (baseline %d/%d)" % (
        "FAIL" if worse_share else "ok  ", name, fresh["failed"],
        fresh["attempted"], base["failed"], base["attempted"]))
    for m in metrics:
        b = base["metrics"][m["name"]]["value"]
        f = fresh["metrics"][m["name"]]["value"]
        if m["better"] == "higher":
            worse = f < b * (1 - m["bound"])
        else:
            worse = f > b * (1 + m["bound"])
        lines.append("%s %s %s: %.6g -> %.6g (%+.1f%%, bound %g%% %s)" % (
            "FAIL" if worse else "ok  ", name, m["name"], b, f,
            100 * (f / b - 1) if b else 0.0, 100 * m["bound"],
            m["better"]))
    return lines, any(line.startswith("FAIL") for line in lines)


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    metrics = load(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]
    baseline = load(argv[1])
    fresh = {}
    for path in argv[2:]:
        for name, result in load(path).items():
            if name in fresh:
                die("workload %s given twice" % name)
            fresh[name] = result
    if set(fresh) != set(baseline):
        die("results cover %s, baseline %s" % (sorted(fresh),
                                               sorted(baseline)))
    failed = False
    for name in sorted(baseline):
        try:
            lines, bad = check(name, baseline[name], fresh[name], metrics)
        except (KeyError, TypeError) as exc:
            die("malformed result for %s: %r" % (name, exc))
        print("\n".join(lines))
        failed = failed or bad
    print("perf_gate: %s" % ("FAIL" if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
