"""The four workloads: their input pools, per-seed selection and input files.

Every workload draws its inputs from a finite pool whose answers were
recorded once (``data/expected.json``, written by ``record.py``).  The seed
chooses a sample of the pool and its order; the shape of a pass (how many
ops of each stratum) is fixed, so two seeds give different inputs with the
same cost profile.  Why each workload exists is written in ``README.md``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from math import isqrt

import oracle

WORKLOADS = ("verify-batch", "root-search", "large-operators", "units")
# Seconds one pass, with its set-up, took on average at the commit that
# defined the benchmark; a run of S seconds does round(S / PASS_SECONDS)
# passes, at least MIN_PASSES, so a given S always means the same work.
# MIN_PASSES is the largest ``every`` of any op, so every op runs.
PASS_SECONDS = {"verify-batch": 1.6, "root-search": 3.0, "large-operators": 8.0, "units": 2.6}
MIN_PASSES = 4

CORPUS_KINDS = ("finite-order", "nilpotent", "random", "powers")
VERIFY_POOL_SEEDS = range(1, 17)  # corpus seeds the verify-batch pool covers
VERIFY_SEEDS_PER_PASS = 8
WARM_SEED = 0  # corpus seed of the warm-up prefixes, outside every pool
MODULE_DS = (-1, -3, 2, 5)

ROOT_KINDS = ("random", "powers", "finite-order")
ROOT_POOL_SEEDS = range(1, 9)
ROOT_MODULE_SEEDS = range(1, 17)
ROOT_MODULE_DS = (-1, 2)
# A root-search pass draws requests class by class (stratum, size and
# bound), each class in proportion to the pool and one request from each
# of N equal bins of the class sorted by recorded time, so every seed's
# pass has the cost profile of the whole pool: ROOT_LIGHT_PER_PASS
# certificate, table-path, spectrum and module requests that took under
# LIGHT_MAX_S when recorded and ROOT_MID_PER_PASS slower ones under
# MID_MAX_S (3x3 table scans and spectra).  Mid and heavy requests stay under a tenth of the pass, so
# latency_p90_ms falls where the light requests' times rise smoothly, not
# on the jump to the 3x3 scans.  Besides J3 a pass holds
# ROOT_SCANS_PER_PASS 3x3 bound-2 block scans whose recorded time lies in
# SCAN_BAND_S.  J3 and the scans are most of a pass's time, and two scans
# recorded alike can differ by a fifth when timed again, so like J3 they
# are the same for every seed: drawn once, with SCAN_SEED.
ROOT_LIGHT_PER_PASS = 240
ROOT_MID_PER_PASS = 8
ROOT_SCANS_PER_PASS = 2
LIGHT_MAX_S = 0.01
MID_MAX_S = 0.3
SCAN_BAND_S = (0.4, 0.56)
SCAN_SEED = "root-search-scans"
J3 = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
# J3, the block scans and the --threads 2 rerun run in every HEAVY_EVERY-th
# pass (J3 and the rerun in one, the scans in the other), so the light
# requests get twice as many runs in a run of the same length.
HEAVY_EVERY = 2

LARGE_KINDS = ("random", "finite-order", "nilpotent")
# Sizes of the operators of one kind in a pass: every n in 6..12, the small
# ones repeated so that a pass holds more than 100 ops (ten beyond p90).
LARGE_SIZES = (6, 6, 6, 6, 6, 7, 7, 8, 9, 10, 11, 12)
LARGE_VARIANTS = 8  # variants 0..7 form the pool; variant 8 is the warm-up
# Ops on operators of size LARGE_HEAVY_N or more (half of a pass's time)
# run in every second pass, half of them in each, so a run of the same
# length gives the other ops more runs.
LARGE_HEAVY_N = 11
LARGE_COMMANDS = ("classify", "fitting", "verify")

UNITS_RANGE = range(-200, 201)
# Left out of the units pass: 127, 139, 163 and 191, whose fundamental-unit
# times at the recording commit lie between 0.5 s and 7 s, too near the
# per-op budget for the failed count to repeat exactly; and 166, which
# like 151 and 199 needs minutes, because each over-budget op costs a whole
# budget.  151 and 199 stay in and exceed it.
UNITS_LEFT_OUT = (127, 139, 163, 166, 191)
UNITS_BUDGET_S = 2.0
# Ops that ran over budget when recorded run in every OVER_BUDGET_EVERY-th
# pass only: each run costs a whole budget and measures nothing else.
OVER_BUDGET_EVERY = 4
UNITS_WARM = (-201, 226)  # outside the pool; 15 + sqrt(226) is a unit
DEFAULT_BUDGET_S = 30.0


@dataclass(eq=False)
class Op:
    """One CLI invocation plus what is needed to check its answer."""

    key: str  # expected-answer key in data/expected.json
    command: str  # verify | root | spectrum | classify | fitting | units
    args: list  # CLI arguments after the input file
    doc: object  # JSON written to the input file
    operator: list | None = None  # T as rows of ints, for arithmetic checks
    extra: dict = field(default_factory=dict)
    budget_s: float = DEFAULT_BUDGET_S
    same_as: int | None = None  # index of the op whose stdout this must equal
    every: int = 1  # the op runs in pass p when p % every == phase
    phase: int = 0
    argv: list = field(default_factory=list)

    @property
    def stratum(self) -> str:
        return self.extra.get("stratum", self.command)


def _matrix_doc(rows):
    return {"rows": len(rows), "cols": len(rows), "entries": rows}


def _capture_cli(dl, argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = dl.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"divlat {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def corpus(dl, kind, seed, cache):
    """Problems that ``divlat corpus KIND --seed SEED`` prints."""
    if (kind, seed) not in cache:
        cache[kind, seed] = json.loads(_capture_cli(dl, ["corpus", kind, "--seed", str(seed)]))
    return cache[kind, seed]


def _ring_element(rng):
    return (rng.randint(-2, 2), rng.randint(-2, 2))


def _module_problem(dl, d, rank, rng, name):
    """A problem over the regular module of the given rank over O_d."""
    nr = dl.numberring
    order = nr.QuadraticOrder(d)
    module = nr.OKModule.regular(order, rank)
    X = nr.embed_ok_matrix(order, [[_ring_element(rng) for _ in range(rank)] for _ in range(rank)])
    sup = dl.supernat
    if rng.random() < 0.5:
        s = rng.choice((2, 3))
        T, S, witnesses = X ** s, sup.AllFrom(2), ((s, X),)
    else:
        T, S, witnesses = X, sup.Geometric(2, 1), ()
    return dl.serialize.problem_to_json(order, module, T, S, witnesses, name=name)


# -- pools ------------------------------------------------------------------


def verify_pool(dl, cache, seeds=VERIFY_POOL_SEEDS):
    """The verify-batch ops of the given corpus seeds."""
    out = []
    for cs in seeds:
        for kind in CORPUS_KINDS:
            for i, prob in enumerate(corpus(dl, kind, cs, cache)):
                out.append(_verify_op(f"vb/{kind}/{cs}/{i}", prob))
        rng = random.Random(f"verify-module-{cs}")
        for d in MODULE_DS:
            rank = rng.choice((1, 2))
            prob = _module_problem(dl, d, rank, rng, f"module-{d}-{cs}")
            out.append(_verify_op(f"vb/module/{d}/{cs}", prob))
    return out


def _verify_op(key, prob):
    op = Op(key, "verify", ["--json"], prob, operator=prob["operator"]["entries"])
    if "module" in prob:
        op.extra["omega"] = prob["module"]["omega_action"]
    return op


def root_pool(dl, cache):
    """Every root-search request of the pool; strata come from the record."""
    out = []
    for kind in ROOT_KINDS:
        for cs in ROOT_POOL_SEEDS:
            for i, prob in enumerate(corpus(dl, kind, cs, cache)):
                out += _root_requests(prob["operator"]["entries"], f"rs/{kind}/{cs}/{i}")
    out += [_root_module_op(dl, d, ms) for d in ROOT_MODULE_DS for ms in ROOT_MODULE_SEEDS]
    out.append(_root_op("rs/j3", J3, 2, 2))
    return out


def _root_module_op(dl, d, ms):
    """A seeded rank-1 module root search over O_d."""
    nr = dl.numberring
    order = nr.QuadraticOrder(d)
    W = nr.OKModule.regular(order, 1).omega_action.nested()
    rng = random.Random(f"root-module-{d}-{ms}")
    X = nr.embed_ok_matrix(order, [[_ring_element(rng)]])
    s = rng.choice((2, 3))
    T = (X ** s if rng.random() < 0.5 else X).nested()
    bound = rng.choice((1, 2))
    doc = {"ring": {"quadratic": {"d": d}},
           "module": {"z_rank": 2, "omega_action": W},
           "operator": _matrix_doc(T)}
    op = _root_op(f"rs/module/{d}/{ms}", T, s, bound, doc)
    op.extra["omega"] = W
    return op


def _root_requests(T, base):
    """The root and spectrum requests of the pool on one corpus operator."""
    n = len(T)
    out = []
    for bound in {2: (1, 2), 3: (1,)}[n]:
        for s in (2, 3, 4):
            out.append(_root_op(f"{base}/root/{s}/{bound}", T, s, bound))
    if n == 3:
        for s in (2, 3):
            out.append(_root_op(f"{base}/root/{s}/2", T, s, 2))
    sbound = 2 if n == 2 else 1
    out.append(Op(f"{base}/spectrum/4/{sbound}", "spectrum",
                  ["--s-max", "4", "--bound", str(sbound), "--json"],
                  _matrix_doc(T), operator=T))
    return out


def _root_op(key, T, s, bound, doc=None):
    return Op(key, "root", ["--s", str(s), "--bound", str(bound), "--json"],
              doc if doc is not None else _matrix_doc(T), operator=T,
              extra={"s": s, "bound": bound})


def large_ops(kind, n, variant):
    """classify, fitting and verify on one large operator."""
    T = large_operator(kind, n, variant)
    out = []
    for cmd in LARGE_COMMANDS:
        doc = _matrix_doc(T)
        if cmd == "verify":
            doc = {"operator": doc, "S": {"geometric": {"base": 2, "scale": 1}}}
        out.append(Op(f"lo/{kind}/{n}/{variant}/{cmd}", cmd, ["--json"], doc, operator=T,
                      extra={"n": n}))
    return out


def large_operator(kind, n, variant):
    """Seeded n x n operator of one kind, generated with the benchmark's
    own arithmetic: random entries, a conjugated sum of cyclotomic
    companion blocks (finite order), or a conjugated strictly upper
    triangular matrix (nilpotent).  The cyclotomic blocks depend on n only,
    so the variants of one size cost about the same."""
    rng = random.Random(f"large-{kind}-{n}-{variant}")
    if kind == "random":
        return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if kind == "nilpotent":
        T = [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
    else:
        blocks_rng = random.Random(f"large-{kind}-{n}")
        ks, left = [], n
        while left:
            k = blocks_rng.choice([k for k in range(1, 80) if oracle.euler_phi(k) <= left])
            ks.append(k)
            left -= oracle.euler_phi(k)
        T = oracle.block_sum([oracle.companion(oracle.cyclotomic(k)) for k in ks])
    return oracle.conjugate(T, oracle.unimodular_pair(n, rng, n))


def large_pool():
    return [op for kind in LARGE_KINDS for n in sorted(set(LARGE_SIZES))
            for v in range(LARGE_VARIANTS) for op in large_ops(kind, n, v)]


def units_pool():
    def squarefree(d):
        m = abs(d)
        return all(m % (p * p) for p in range(2, isqrt(m) + 1))

    return [Op(f"un/{d}", "units", ["--json"], {"ring": {"quadratic": {"d": d}}},
               extra={"d": d}, budget_s=UNITS_BUDGET_S)
            for d in UNITS_RANGE if d not in (0, 1) and squarefree(d)]


def full_pool(dl, workload):
    """Every op a seed can select, for recording answers."""
    cache = {}
    if workload == "verify-batch":
        return verify_pool(dl, cache)
    if workload == "root-search":
        return root_pool(dl, cache)
    if workload == "large-operators":
        return large_pool()
    return units_pool()


# -- per-seed passes ----------------------------------------------------------


def build_pass(dl, workload, seed, expected):
    """The ops of one pass for this seed, and a warm-up prefix that does not
    depend on the seed (so set-up time measures the same work every run).
    The warm-up inputs lie outside the pool, so no op of a pass is one the
    warm-up has already run."""
    rng = random.Random(f"{workload}-{seed}")
    cache = {}
    if workload == "verify-batch":
        chosen = sorted(rng.sample(list(VERIFY_POOL_SEEDS), VERIFY_SEEDS_PER_PASS))
        ops = verify_pool(dl, cache, chosen)
        rng.shuffle(ops)
        warm = _first_per(verify_pool(dl, cache, (WARM_SEED,)), lambda op: op.key.split("/")[1])
        return ops, warm
    if workload == "root-search":
        return _root_pass(dl, rng, expected, cache)
    if workload == "large-operators":
        ops = []
        for kind in LARGE_KINDS:
            for n in sorted(set(LARGE_SIZES)):
                variants = rng.sample(range(LARGE_VARIANTS), LARGE_SIZES.count(n))
                ops += [op for v in variants for op in large_ops(kind, n, v)]
        rng.shuffle(ops)
        heavy = [op for op in ops if op.extra["n"] >= LARGE_HEAVY_N]
        for i, op in enumerate(heavy):
            op.every, op.phase = 2, i % 2
        warm = [op for kind in LARGE_KINDS for op in large_ops(kind, min(LARGE_SIZES), LARGE_VARIANTS)]
        return ops, warm
    ops = [op for op in units_pool() if op.extra["d"] not in UNITS_LEFT_OUT]
    for op in ops:
        if rng.random() < 0.5:  # both ring-file forms the CLI accepts
            op.doc = op.doc["ring"]
    rng.shuffle(ops)
    slow = [op for op in ops if expected[op.key].get("over_budget")]
    for i, op in enumerate(slow):
        op.every, op.phase = OVER_BUDGET_EVERY, i * OVER_BUDGET_EVERY // len(slow)
    warm = [Op(f"un/{d}", "units", ["--json"], {"ring": {"quadratic": {"d": d}}},
               extra={"d": d}, budget_s=UNITS_BUDGET_S) for d in UNITS_WARM]
    return ops, warm


def _first_per(ops, klass):
    seen, out = set(), []
    for op in ops:
        if klass(op) not in seen:
            seen.add(klass(op))
            out.append(op)
    return out


def _stratified(rng, ops, count):
    """One op from each of ``count`` equal bins of ops sorted by recorded time."""
    ops = sorted(ops, key=lambda op: (op.extra["time_s"], op.key))
    return [rng.choice(ops[b * len(ops) // count:(b + 1) * len(ops) // count]) for b in range(count)]


def _by_class(rng, ops, count):
    """``count`` ops in which every class of request (stratum, size and
    bound) has its share of ``ops``, rounded by largest remainder, each
    share drawn with ``_stratified``.  Times recorded in one warm process
    rank requests only roughly, so the mix of classes, which sets most of
    a pass's latency percentiles, is fixed rather than left to the draw."""
    classes = {}
    for op in ops:
        classes.setdefault((op.stratum, len(op.operator), op.extra.get("bound", 0)), []).append(op)
    shares = {k: count * len(v) / len(ops) for k, v in classes.items()}
    counts = {k: int(x) for k, x in shares.items()}
    for k in sorted(shares, key=lambda k: (counts[k] - shares[k], k))[:count - sum(counts.values())]:
        counts[k] += 1
    return [op for k in sorted(classes) for op in _stratified(rng, classes[k], counts[k])]


def _root_pass(dl, rng, expected, cache):
    light, mid, scans = [], [], []
    for op in root_pool(dl, cache):
        rec = expected[op.key]
        op.extra.update(stratum=rec["stratum"], time_s=rec["time_s"])
        if rec["stratum"] == "j3":
            j3 = op
        elif rec["stratum"] == "scan":
            if SCAN_BAND_S[0] <= rec["time_s"] <= SCAN_BAND_S[1]:
                scans.append(op)
        else:
            if rec["time_s"] < LIGHT_MAX_S:
                light.append(op)
            elif rec["time_s"] < MID_MAX_S:
                mid.append(op)
    ops = (_by_class(rng, light, ROOT_LIGHT_PER_PASS) + _by_class(rng, mid, ROOT_MID_PER_PASS)
           + _stratified(random.Random(SCAN_SEED), scans, ROOT_SCANS_PER_PASS))
    rng.shuffle(ops)
    ops.append(j3)
    # One of the three block scans also runs with --threads 2, checked byte
    # for byte against its --threads 1 run, so the thread-pool path of the
    # scan is timed too.  It runs in the other passes than its --threads 1
    # run, so the two never share a set-up.
    scans = sorted((op for op in ops if op.stratum == "scan"), key=lambda op: op.extra["time_s"])
    for src in scans[:1]:
        twin = Op(src.key, src.command, src.args + ["--threads", "2"], src.doc,
                  operator=src.operator, extra=dict(src.extra, stratum="scan-threads2"))
        twin.same_as = ops.index(src)
        ops.append(twin)
    for op in ops:
        if op.stratum in ("j3", "scan", "scan-threads2"):
            op.every, op.phase = HEAVY_EVERY, int(op.stratum == "scan")
    warm = []
    for kind in ROOT_KINDS:
        for prob in corpus(dl, kind, WARM_SEED, cache):
            T = prob["operator"]["entries"]
            warm += [op for op in _root_requests(T, f"warm/{kind}")
                     if len(T) == 2 or op.extra.get("bound") != 2]
    warm = _first_per(warm, lambda op: (op.command, len(op.operator), op.extra.get("bound")))
    warm += [_root_module_op(dl, d, WARM_SEED) for d in ROOT_MODULE_DS]
    return ops, warm


def write_inputs(ops, workdir, prefix="op"):
    """Write each op's input file and fill in its argv."""
    os.makedirs(workdir, exist_ok=True)
    for i, op in enumerate(ops):
        path = os.path.join(workdir, f"{prefix}{i:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op.doc, fh)
        op.argv = [op.command, path] + op.args
