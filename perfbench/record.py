"""Record the answers every pool op gives, as the benchmark's expected data.

    python3 perfbench/record.py

Run from the root of a divlat checkout whose answers are trusted; it
rewrites ``perfbench/data/expected.json`` for every workload, in a few
minutes.  Each answer is first put through the same arithmetic checks a
benchmark run applies, so a wrong answer cannot be recorded.  Records also
carry the op's time (and, for root-search, its stratum), which the per-seed
selection uses to keep the cost profile of a pass the same for every seed.
"""
from __future__ import annotations

import json
import os
import shutil
import signal
import time

import checks
import oracle
import run
import workloads


def stratum(op, answer):
    if op.key == "rs/j3":
        return "j3"
    if op.key.startswith("rs/module/"):
        return "module"
    if op.command == "spectrum":
        return "spectrum"
    if answer.startswith("proved_impossible"):
        return "cert"
    return "scan" if len(op.operator) == 3 and op.extra["bound"] == 2 else "table"


def record(workload, workdir):
    dl = run.load_divlat()
    ops = workloads.full_pool(dl, workload)
    workloads.write_inputs(ops, workdir)
    table = {}
    for op in ops:
        elapsed, rc, stdout = run.run_op(dl, op)
        if rc is None:
            d = op.extra["d"]
            ref = oracle.pell_unit(d) if d % 4 in (2, 3) else None
            table[op.key] = {"answer": None, "over_budget": True, "reference": ref}
            continue
        if rc != 0:
            raise SystemExit(f"{op.key}: exit code {rc}")
        answer = checks.summary(op.command, json.loads(stdout))
        rec = {"answer": answer}
        reason = checks.check(op, stdout, rec)
        if reason:
            raise SystemExit(f"{op.key}: {reason}")
        if workload == "units" and answer["unit"] is not None and op.extra["d"] % 4 in (2, 3):
            if answer["unit"] != oracle.pell_unit(op.extra["d"]):
                raise SystemExit(f"{op.key}: unit differs from the continued-fraction unit")
        rec["time_s"] = round(elapsed, 4)
        if workload == "root-search":
            rec["stratum"] = stratum(op, answer)
        table[op.key] = rec
    return table


def main():
    path = run.EXPECTED
    data = {}
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"record-{os.getpid()}")
    signal.signal(signal.SIGALRM, run._alarm)
    try:
        for name in workloads.WORKLOADS:
            start = time.perf_counter()
            data[name] = record(name, workdir)
            print(f"{name}: {len(data[name])} answers in {time.perf_counter() - start:.1f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=0, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
