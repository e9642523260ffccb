"""divlat benchmark: drive the real CLI in-process and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a divlat checkout; it imports ``divlat`` from the
checkout's ``src`` and nothing else.  One process, one thread, one closed-loop
client with no think time: each op is ``divlat.cli.main(argv)`` on a
generated input file, with stdout captured and checked.

A run repeats passes over the seed's ops, as many as took about
``--seconds`` at the commit that defined the benchmark (so a given
``--seconds`` always means the same work).  Every pass starts from a fresh
set-up (new import of divlat with empty caches, the seed's inputs generated
and written, an untimed warm-up prefix), so no cache outlives a pass and
every timed run of an op pays what a fresh CLI call pays; ``setup_s`` is
the median set-up time, over at least MIN_SETUPS set-ups.  Every time is
scaled to a host of fixed speed by a reference computation timed next to
it (see ``HostClock``), and timings are built from each op's median run.
With ``--trace 1`` it instead runs one untraced pass, sets up again with
every layer wrapped, runs the same pass traced, and reports per-layer
metrics plus the tracing overhead.
The last line of stdout is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import checks
import oracle
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "data", "expected.json")
MIN_SETUPS = 8  # a run with fewer passes sets up again after its last one
# Timings are reported as on a host where reference() takes REFERENCE_S; on
# the 2-core VM the benchmark was defined on it took 2-4.5 ms.
REFERENCE_S = 0.0025
REFERENCE_EVERY_S = 0.05  # CPU time between two timings of reference()
MARKS_AROUND = 3  # marks on either side of a timed interval that scale it


class BudgetExceeded(Exception):
    """Raised by SIGALRM when an op outlives its per-op budget."""


def _alarm(signum, frame):
    raise BudgetExceeded


def load_divlat():
    """Import divlat afresh from the checkout's src: new modules, empty caches."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "divlat", "cli.py")):
        raise FileNotFoundError(f"no divlat sources under {src}")
    for name in [n for n in sys.modules if n == "divlat" or n.startswith("divlat.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    pkg = importlib.import_module("divlat")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise ImportError(f"divlat imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"divlat.{m}")
                              for m in ("cli", "numberring", "serialize", "supernat")})


def reference():
    """A fixed piece of pure-Python work of the benchmark's own, shaped like
    a CLI call of divlat: Fraction elimination, an integer matrix power, a
    JSON round trip, an argparse parser and a small file read.  divlat is
    not involved, so no change to divlat changes its time."""
    rng = random.Random(7)
    n = 7
    a = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[p] = a[p], a[k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    oracle.mat_pow([[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)], 20)
    doc = {"operator": {"rows": 4, "cols": 4,
                        "entries": [[i * j - 3 for j in range(4)] for i in range(4)]},
           "S": {"geometric": {"base": 2, "scale": 1}}}
    for _ in range(30):
        json.loads(json.dumps(doc, sort_keys=True))
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    for name in "abcdef":
        cmd = sub.add_parser(name)
        cmd.add_argument("path")
        cmd.add_argument("--json", action="store_true")
        cmd.add_argument("--s", type=int)
    parser.parse_args(["c", "file", "--s", "3"])
    with open(__file__, encoding="utf-8") as fh:
        fh.read()


class HostClock:
    """Scales times to a host of fixed speed.

    The shared host's speed swings by up to 2x from one second to the next
    and drifts over tens of minutes, in CPU time as much as in wall time,
    and moves every timing alike.  So while the clock is on, a profiling
    timer interrupts the benchmark after every REFERENCE_EVERY_S of CPU
    time, inside an op or between ops, and times ``reference()`` there.
    Something that ran from ``start`` to ``end`` counts that interval
    without the reference timings inside it, scaled by REFERENCE_S over the
    median reference time of the marks inside it and the MARKS_AROUND
    marks on either side of it (one timing of reference() alone is noisy).
    A change to divlat moves the scaled times as it moves the raw ones; a
    change in the host's speed moves the marks with them, and cancels.
    """

    def __init__(self):
        self.starts, self.seconds = [], []  # start and duration of each mark
        self.busy = False

    def __enter__(self):
        signal.signal(signal.SIGPROF, self.mark)
        signal.setitimer(signal.ITIMER_PROF, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc):
        self.pause()

    def pause(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def resume(self):
        signal.setitimer(signal.ITIMER_PROF, REFERENCE_EVERY_S, REFERENCE_EVERY_S)

    def mark(self, signum=None, frame=None):
        if self.busy:  # the timer fired again while reference() ran
            return
        self.busy = True
        try:
            start = time.perf_counter()
            reference()
            self.starts.append(start)
            self.seconds.append(time.perf_counter() - start)
        finally:
            self.busy = False

    def scaled(self, start, end) -> float:
        """Seconds from ``start`` to ``end``, less the marks inside, scaled.
        There must be a mark before ``start`` and one after ``end``."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        inside = sum(self.seconds[first:last])
        around = self.seconds[max(0, first - MARKS_AROUND):last + MARKS_AROUND]
        return (end - start - inside) * REFERENCE_S / statistics.median(around)


def run_op(dl, op):
    """(seconds taken, exit code or None when over budget, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, op.budget_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = dl.cli.main(op.argv)
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        return time.perf_counter() - start, None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, rc, out.getvalue()


def setup(workload, seed, expected, workdir, trace=None):
    """Import afresh, generate this seed's inputs and run the warm-up prefix."""
    start = time.perf_counter()
    dl = load_divlat()
    if trace is not None:
        trace.install()
    ops, warm = workloads.build_pass(dl, workload, seed, expected)
    workloads.write_inputs(warm, workdir, "warm")
    workloads.write_inputs(ops, workdir)
    for op in warm:
        run_op(dl, op)
    return time.perf_counter() - start, dl, ops


class Results:
    """Every run of every op of a pass, checked against the record and
    against the op's first output."""

    def __init__(self, ops, expected):
        self.ops, self.expected = ops, expected
        self.times = [[] for _ in ops]  # seconds taken by each run of each op
        self.attempted = self.failed = self.over_budget = 0
        self.bad = set()  # indices of ops that failed at least once
        self.reference = {}  # op index -> first stdout seen
        self.same = [0] * len(ops)  # runs of each op that printed its reference
        self.problems = []  # (op key, reason)
        self.over_keys = set()

    def add(self, i, seconds, rc, stdout):
        op = self.ops[i]
        self.attempted += 1
        self.times[i].append(seconds)
        if rc is None:
            self.over_budget += 1
            self.over_keys.add(op.key)
            self.bad.add(i)
        elif rc != 0:
            self._fail(i, f"exit code {rc}")
        elif self.reference.setdefault(i, stdout) != stdout:
            self._fail(i, "stdout differs from an earlier run of the same op")
        else:
            self.same[i] += 1

    def _fail(self, i, reason, runs=1):
        self.failed += runs
        self.bad.add(i)
        self.problems.append((self.ops[i].key, reason))

    def check_references(self):
        """Full answer check of the first output of every op (untimed).  A
        wrong answer fails every run that printed it."""
        for i, stdout in sorted(self.reference.items()):
            op = self.ops[i]
            if op.same_as is not None:
                twin = self.reference.get(op.same_as)
                reason = None if twin is None or twin == stdout else "--threads 2 changed stdout"
            else:
                reason = checks.check(op, stdout, self.expected.get(op.key))
            if reason:
                self._fail(i, reason, self.same[i])

    def typical(self):
        """Each op's median run in seconds; inf for an op that ever failed
        or went over budget, so it exceeds every latency limit."""
        return [math.inf if i in self.bad else statistics.median(t) for i, t in enumerate(self.times)]


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_pass(dl, ops, results, number=None, trace=None, clock=None):
    """Run the ops of pass ``number`` (every op when it is None); with a
    clock, record times scaled by it.  An op over budget counts its whole
    budget, unscaled: it is a wall-clock limit, not a measurement."""
    start = time.perf_counter()
    done = []
    for i, op in enumerate(ops):
        if number is not None and number % op.every != op.phase:
            continue
        if trace is not None:
            trace.op = i
        # reference() inside an op that runs threads of its own would
        # compete with them for the GIL, so such an op runs between marks.
        threaded = clock is not None and "--threads" in op.args
        if threaded:
            clock.pause()
        op_start = time.perf_counter()
        elapsed, rc, stdout = run_op(dl, op)
        done.append((i, op_start, time.perf_counter(), elapsed, rc, stdout))
        if threaded:
            clock.mark()
            clock.resume()
    wall = time.perf_counter() - start
    if clock is not None:
        clock.mark()
    for i, op_start, op_end, elapsed, rc, stdout in done:
        if rc is None:
            elapsed = ops[i].budget_s
        elif clock is not None:
            elapsed = clock.scaled(op_start, op_end)
        results.add(i, elapsed, rc, stdout)
    return wall


def measure(workload, seed, seconds, expected, workdir):
    passes = max(workloads.MIN_PASSES, round(seconds / workloads.PASS_SECONDS[workload]))
    setups, results, wall = [], None, 0.0
    with HostClock() as clock:
        for number in range(max(passes, MIN_SETUPS)):
            clock.mark()
            start = time.perf_counter()
            _, dl, ops = setup(workload, seed, expected, workdir)
            end = time.perf_counter()
            clock.mark()
            setups.append(clock.scaled(start, end))
            if results is None:
                results = Results(ops, expected)
            elif [op.key for op in ops] != [op.key for op in results.ops]:
                raise RuntimeError("a set-up built other ops than the first")
            if number < passes:
                wall += run_pass(dl, ops, results, number, clock=clock)
    results.check_references()
    # Scaling takes out the host's swings that outlast an op; what is left
    # is noise within single runs, so timings are built from each op's
    # median run: an op runs in several passes, at a different moment each
    # time.
    typical = results.typical()
    typical_pass = sum(statistics.median(t) for t in results.times)
    finished = sum(1 for x in typical if math.isfinite(x))
    p90 = percentile(typical, 0.9)
    ok = results.attempted - results.over_budget - results.failed
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (finished / typical_pass, "ops/s"),
        "latency_p50_ms": (percentile(typical, 0.5) * 1000.0, "ms"),
        "latency_p90_ms": ((p90 if math.isfinite(p90) else typical_pass) * 1000.0, "ms"),
        "ok_ratio": (ok / results.attempted, "ok/attempted"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    marks = sorted(clock.seconds)
    info = {"passes": passes, "ops_per_pass": len(ops), "wall_s": wall,
            "samples_beyond_p90": sum(1 for x in typical if x > p90),
            "reference_ms_p10": percentile(marks, 0.1) * 1000.0,
            "reference_ms_p90": percentile(marks, 0.9) * 1000.0}
    return results, metrics, info


def measure_traced(workload, seed, expected, workdir):
    _, dl, ops = setup(workload, seed, expected, workdir)
    results = Results(ops, expected)
    untraced = run_pass(dl, ops, results)
    trace = tracer.Tracer()
    try:
        _, dl, ops = setup(workload, seed, expected, workdir, trace)
        traced = run_pass(dl, ops, results, trace=trace)
    finally:
        trace.uninstall()
    results.check_references()
    metrics = {name: (m["value"], m["unit"]) for name, m in trace.metrics().items()}
    metrics["trace.untraced_pass_ms"] = (untraced * 1000.0, "ms")
    metrics["trace.overhead_ms"] = ((traced - untraced) * 1000.0, "ms")
    info = {"spans": len(trace.spans), "top": trace.top()}
    return results, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.trace:
            results, metrics, info = measure_traced(args.workload, args.seed, expected, workdir)
        else:
            results, metrics, info = measure(args.workload, args.seed, args.seconds, expected, workdir)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    top = info.pop("top", ())
    for name, calls, ms in top:
        print(f"  self {ms:10.2f} ms  calls {calls:8d}  {name}")
    print(" ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in info.items()))
    if results.over_keys:
        print("over budget: " + " ".join(sorted(results.over_keys)))
    for key, reason in results.problems[:20]:
        print(f"FAILED {key}: {reason}")
    print(json.dumps({
        "correct": results.failed == 0,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
