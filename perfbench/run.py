#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. The program (perfbench.cpp) is compiled with
the compiler directly against include/ by perfbench/Makefile into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); make only
rebuilds when a source or header changed. Before the program's own output
this prints one `context` line: nproc, git commit, compiler and flags,
workload and seed. The last line of stdout is the program's JSON result.

--smoke runs every workload at small size, untraced and traced, and
checks that each run is correct and prints exactly the metric names and
units BENCHMARK.json declares. It is the benchmark's own test.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Compile the program; exit 1 if the library or the compiler is missing."""
    if not os.path.isdir(os.path.join(ROOT, "include", "i2a")):
        sys.exit("perfbench: include/i2a not found next to perfbench/; "
                 "run from a checkout of the repository")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    env = dict(os.environ, TMPDIR=bdir)
    proc = subprocess.run(["make", "-s", "-C", HERE, "BUILD_DIR=" + bdir],
                          stdout=sys.stderr, env=env)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(bdir, "perfbench")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def context(workload, seed):
    flags = command_output(["make", "-s", "-C", HERE, "print-flags"])
    compiler = flags.split()[0] if flags else None
    version = command_output([compiler, "--version"]) if compiler else None
    return {
        "nproc": os.cpu_count(),
        "commit": command_output(["git", "rev-parse", "HEAD"])
        or "unknown (not a git checkout)",
        "compiler": version.splitlines()[0] if version else "unknown",
        "flags": flags or "unknown",
        "workload": workload,
        "seed": seed,
    }


def run_program(binary, workload, seed, seconds, trace, smoke=False,
               capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(build_dir(), "work")]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                          capture_output=capture)


def smoke(binary):
    """Every workload, untraced and traced, at small size."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = run_program(binary, workload, 1, 1, trace, smoke=True,
                              capture=True)
            where = "%s --trace %d" % (workload, trace)
            before = len(problems)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(where + ": last line is not JSON")
                continue
            if proc.returncode != 0 or not result.get("correct") or \
                    result.get("failed") != 0 or result.get("attempted", 0) < 1:
                problems.append(where + ": run failed: " + lines[-1])
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(where + ": metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s, unit changes %s" % (
                                    sorted(set(expected[trace]) - set(got)),
                                    sorted(set(got) - set(expected[trace])),
                                    sorted(k for k in got if k in expected[trace]
                                           and got[k] != expected[trace][k])))
            for name in expected[trace]:
                if not any(line.startswith("metric %s = " % name) and
                           line.split(" = ", 1)[1].split()[1] == expected[trace][name]
                           for line in lines):
                    problems.append(where + ": no report line for " + name)
            print("smoke %-32s %s" % (where, "ok" if len(problems) == before
                                      else "FAILED"), flush=True)
    for p in problems:
        print("smoke FAILED: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    binary = build()
    if args.smoke:
        return smoke(binary)
    if not args.workload:
        ap.error("--workload is required")
    print("context " + json.dumps(context(args.workload, args.seed)), flush=True)
    try:
        return run_program(binary, args.workload, args.seed, args.seconds,
                          args.trace).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
