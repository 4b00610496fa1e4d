#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload suite-full --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. It configures and builds
perfbench/ (which compiles the simulator libraries from src/) under
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
perfbench binary. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer split with --trace 1. A traced
run also writes its spans to <build dir>/traces/.

Without --seed the default seed is used; HELD_OUT_SEED is kept for
re-checking a claim on inputs that were not used while tuning.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("suite-full", "shard-4sm", "campaign-small")
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    """Configure and build perfbench; returns the binary's path."""
    bdir = build_root / "perfbench"
    steps = (
        ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(bdir), "-j", "4"],
    )
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return bdir / "perfbench"


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this kind of run."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no simulator sources under {ROOT}/src; run from the repository root")
        return 2
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root)
    if binary is None:
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {TIMEOUT_S} s")
        return 3

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"perfbench exited {proc.returncode} without a result line")
        return proc.returncode or 4
    expected = expected_metrics(args.trace)
    printed = {(name, m["unit"]) for name, m in result["metrics"].items()}
    if expected is not None and printed != expected:
        log(f"metrics differ from BENCHMARK.json: missing {sorted(expected - printed)}, "
            f"unexpected {sorted(printed - expected)}")
        return 5
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
