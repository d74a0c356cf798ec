#!/usr/bin/env python3
"""End-to-end benchmark of the Silo simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval_matrix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call builds the simulator library and the benchmark binary
from source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later calls rebuild only what changed.
The binary's stdout is passed through; its last line is the result
object. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("eval_matrix", "litmus_crash", "long_horizon")
RUN_TIMEOUT_S = 170

# Per-layer metrics that are exact simulated counts (or derived from
# them): two runs of one seed must agree on them, another seed must not.
DETERMINISTIC = (
    "sim.events", "sim.ticks", "sim.allocs_per_event",
    "harness.construct_allocs", "harness.construct_mib",
    "core.committed_tx", "core.commit_stall_cycles",
    "mem.l1d_miss_ratio", "mem.l2_miss_ratio", "mem.l3_miss_ratio",
    "mc.wpq_full_stalls", "mc.wpq_occupancy_p99",
    "nvm.media_word_writes", "nvm.dcw_suppressed_words",
    "silo.merged", "silo.ignored", "silo.in_place_updates",
    "log.records_written", "log.live_records_at_crash",
    "log.mismatch_words", "check.violations",
    "fuzz.programs", "fuzz.cases", "fuzz.crash_cases",
    "fig12_gap_pct", "fig11_gap_pct",
)


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configure (once) and build; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out] + gen)
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("benchmark binary exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("benchmark binary printed no result")
    return lines, json.loads(lines[-2]), json.loads(lines[-1])


def check_result(result, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics disagree with BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, units))


def selftest(binary):
    """Failure accounting, oracles, and determinism across processes."""
    proc = subprocess.run([binary, "--selftest"], timeout=600)
    ok = proc.returncode == 0
    for name in WORKLOADS:
        runs = []
        for seed in (11, 11, 12):
            _, detail, result = run_binary(binary, [
                "--workload", name, "--seed", str(seed), "--seconds", "1",
                "--trace", "1"])
            sim = {k: result["metrics"][k]["value"] for k in DETERMINISTIC}
            runs.append((detail["digest"], result["attempted"],
                         result["failed"], sim))
        same = runs[0] == runs[1]
        differs = runs[0][0] != runs[2][0] and \
            runs[0][3]["sim.events"] != runs[2][3]["sim.events"]
        print("%s %s: seed 11 twice -> digest %s, identical counts: %s; "
              "seed 12 -> digest %s, counts differ: %s"
              % ("ok  " if same and differs else "FAIL", name, runs[0][0],
                 same, runs[2][0], differs))
        if not same:
            for k in DETERMINISTIC:
                if runs[0][3][k] != runs[1][3][k]:
                    print("     %s: %r vs %r" % (k, runs[0][3][k],
                                                runs[1][3][k]))
        ok = ok and same and differs
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if args.selftest:
        sys.exit(selftest(binary))
    lines, _, result = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace)])
    check_result(result, args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
