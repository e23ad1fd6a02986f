#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --print-digests --workload NAME

The first call configures and builds, in Release, the library, the
penelope_bench CLI and the benchmark driver into $CARGO_TARGET_DIR
(default .bench_build); later calls rebuild only what changed.  Build
output goes to stderr.  The driver's last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones (see perfbench/README.md).  --selftest runs the harness
self-tests plus a short end-to-end check of both modes.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

WORKLOADS = ["catalog-cold", "adder-search", "replay-loopback"]
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(out):
    """Configure (once) and build; False when either step fails."""
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--parallel", "4", "--target",
                  "perfbench_driver", "perfbench_selftest", "penelope_bench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def git_commit(root):
    """HEAD of the checkout, when the checkout is a git work tree."""
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != root:
            return "unknown (not a git checkout)"
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"


def driver_command(out, workload, seed, seconds, trace, extra=()):
    return [os.path.join(out, "perfbench_driver"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--pinned", os.path.join(HERE, "pinned_digests.txt"),
            "--out-dir", os.path.join(out, "perfbench-out"),
            "--cli", os.path.join(out, "penelope", "penelope_bench"),
            "--commit", git_commit(os.path.realpath(os.getcwd())),
            *extra]


def selftest(out):
    """Harness unit checks, then both modes of one short workload."""
    bench = json.load(open("BENCHMARK.json"))
    os.makedirs(os.path.join(out, "perfbench-out"), exist_ok=True)
    rc = subprocess.run([os.path.join(out, "perfbench_selftest"),
                         "BENCHMARK.json",
                         os.path.join(out, "perfbench-out")]).returncode
    problems = [] if rc == 0 else ["perfbench_selftest failed"]
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        run = subprocess.run(driver_command(out, "adder-search", 0, 1, trace),
                             capture_output=True, text=True, timeout=170)
        lines = run.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            problems.append(f"trace {trace}: no result line")
            continue
        if run.returncode != 0 or set(result) != {"correct", "attempted",
                                                  "failed", "metrics"}:
            problems.append(f"trace {trace}: bad exit or result keys")
            continue
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"trace {trace}: operations failed")
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        if got != wanted:
            problems.append(f"trace {trace}: metrics differ from {key}: "
                            f"{sorted(set(got) ^ set(wanted))}")
        for name, metric in result["metrics"].items():
            if not name_re.match(name) or not math.isfinite(metric["value"]):
                problems.append(f"trace {trace}: bad metric {name}")
        record = os.path.join(out, "perfbench-out",
                              f"result-adder-search-seed0-trace{trace}.json")
        summaries = json.load(open(record))["summaries"]
        if not summaries or any(s["count"] < 1 for s in summaries.values()):
            problems.append(f"trace {trace}: summaries lack sample counts")
        if trace == 1:
            m = result["metrics"]
            parts = sum(v["value"] for n, v in m.items()
                        if n.startswith("exp.") and n.endswith("_s"))
            traced = summaries["traced iter_s"]
            if traced["count"] == 1 and abs(parts - traced["median"]) > 1e-6:
                problems.append("exp.*_s do not add up to the traced iter_s")
    for p in problems:
        print("perfbench selftest: FAILED " + p, file=sys.stderr)
    print("perfbench selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--print-digests", action="store_true",
                    help="print the pinned-digest lines of one seed-0 run")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    # The benchmark builds the program from the checkout it runs in.
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isfile(os.path.join(HERE, "CMakeLists.txt"))):
        return fail("run from the repository root: the program's sources "
                    "(CMakeLists.txt, src/) are not here")
    out = build_dir()
    if not build(out):
        return fail("build failed")
    if args.selftest:
        return selftest(out)
    extra = ["--print-digests"] if args.print_digests else []
    cmd = driver_command(out, args.workload, args.seed, args.seconds,
                         args.trace, extra)
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
