#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [workload ...]

Run it from the root of the repository. For each workload (all three by
default) it makes the shortest run run.py allows, once untraced and twice
traced, and checks that:

  - the last line is a result with exactly the keys correct, attempted,
    failed and metrics, correct is true and nothing failed;
  - every metric BENCHMARK.json names is printed, with its unit;
  - failed_frac is 0;
  - the two traced runs report identical simulated counts;
  - the layers add up to within 5% of the traced pass time;
  - the span file is a cheri-simt-trace-v1 document whose spans carry
    an id, a parent and an operation id.

Exit status 0 when every check passes. Takes a few minutes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("suite-full", "shard-4sm", "campaign-small")
SEED = 1

# Per-layer counts that are a pure function of the seed.
DETERMINISTIC = (
    "kc.cache_misses", "simt.instrs", "simt.cycles", "simt.dram_bytes",
    "memsys.merge_fallbacks", "campaign.detected", "campaign.masked",
    "campaign.corrupt", "campaign.watchdog_fires", "ckpt.bytes",
    "model.cheri_overhead_pct",
)

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    ok = proc.returncode == 0 and result is not None
    check(ok, f"{workload} trace={trace}: exit 0 with a result line")
    if not ok:
        sys.stderr.write(proc.stderr)
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    for workload in sys.argv[1:] or WORKLOADS:
        untraced = run(workload, 0)
        traced = [run(workload, 1), run(workload, 1)]
        if untraced is None or None in traced:
            continue
        for kind, result in (("end_to_end", untraced), ("per_layer", traced[0])):
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} {kind}: result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{workload} {kind}: correct, none failed")
            want = {(m["name"], m["unit"]) for m in spec[kind]}
            got = {(n, m["unit"]) for n, m in result["metrics"].items()}
            check(want == got, f"{workload} {kind}: every metric with its unit")
        for name, m in untraced["metrics"].items():
            check(m["value"] > 0, f"{workload}: {name} is positive")
        layers = [r["metrics"] for r in traced]
        check(layers[0]["failed_frac"]["value"] == 0, f"{workload}: failed_frac = 0")
        same = [n for n in DETERMINISTIC if layers[0][n]["value"] == layers[1][n]["value"]]
        check(len(same) == len(DETERMINISTIC),
              f"{workload}: identical simulated counts across runs "
              f"(differ: {sorted(set(DETERMINISTIC) - set(same))})")
        for m in layers:
            share = abs(m["layers.other_share"]["value"])
            check(share <= 0.05, f"{workload}: layers sum within 5% of the pass "
                                 f"(unattributed {share:.2%})")

        trace_path = build_root / "traces" / f"{workload}-seed{SEED}.json"
        doc = json.loads(trace_path.read_text()) if trace_path.is_file() else {}
        spans = [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]
        check(doc.get("schema") == "cheri-simt-trace-v1" and spans and all(
            {"id", "parent", "op", "end"} <= set(e.get("args", {})) for e in spans),
              f"{workload}: spans written as cheri-simt-trace-v1")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
