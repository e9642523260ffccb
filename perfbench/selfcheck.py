"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a divlat checkout.  For each workload it checks that

* two traced runs on seed SEED report identical ``.calls`` counts and
  identical outcome and verdict counts (the per-layer counts are exact);
* a run on the held-out seed HELD_OUT completes with every answer correct
  and the same ``ok_ratio`` as seed SEED: 1 everywhere except ``units``,
  whose over-budget ops are the same d values for every seed;
* every metric named in ``BENCHMARK.json`` is printed, and nothing else.

It takes a few minutes; it exits 1 and says why when a check fails.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEED = 1
HELD_OUT = 1009


def bench(workload, seed, trace, seconds=1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def exact_counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(".calls") or ".outcome." in name or ".verdict." in name}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    end_to_end = {m["name"] for m in manifest["end_to_end"]}
    per_layer = {m["name"] for m in manifest["per_layer"]}
    problems = []
    for workload in workloads.WORKLOADS:
        first, second = bench(workload, SEED, 1), bench(workload, SEED, 1)
        if set(first["metrics"]) != per_layer:
            problems.append(f"{workload}: traced metrics differ from BENCHMARK.json per_layer")
        if exact_counts(first) != exact_counts(second):
            diff = sorted(k for k, v in exact_counts(first).items() if exact_counts(second)[k] != v)
            problems.append(f"{workload}: counts differ between two traced runs: {diff}")
        a, b = bench(workload, SEED, 0), bench(workload, HELD_OUT, 0)
        for result, seed in ((a, SEED), (b, HELD_OUT)):
            if set(result["metrics"]) != end_to_end:
                problems.append(f"{workload}: metrics differ from BENCHMARK.json end_to_end")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} seed {seed}: {result['failed']} wrong answers")
        ratios = [r["metrics"]["ok_ratio"]["value"] for r in (a, b)]
        if ratios[0] != ratios[1] or (workload != "units" and ratios[0] != 1.0):
            problems.append(f"{workload}: ok_ratio {ratios[0]} on seed {SEED}, "
                            f"{ratios[1]} on held-out seed {HELD_OUT}")
        overhead = [r["metrics"]["trace.overhead_ms"]["value"] / r["metrics"]["trace.untraced_pass_ms"]["value"]
                    for r in (first, second)]
        print(f"{workload}: {len(exact_counts(first))} exact counts compared; "
              f"ok_ratio {ratios[0]:.6f} (seed {SEED}) and {ratios[1]:.6f} "
              f"(seed {HELD_OUT}); tracing overhead "
              + " and ".join(f"{x:+.0%}" for x in overhead), flush=True)
    for line in problems:
        print("FAIL " + line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
