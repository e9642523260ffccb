"""Answer checks: summarise each op's stdout and test it two ways.

``summary`` reduces an op's JSON output to the fields that define its
answer, so a change that only adds output fields still passes.  ``check``
compares that summary with the answer recorded at the commit that defined
the benchmark, and re-derives what it can with ``oracle`` arithmetic:
witnesses and constructed roots are re-multiplied, Jordan parts re-added,
orders and unit norms recomputed.
"""
from __future__ import annotations

import hashlib
import json

import oracle


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _outcome(out: dict) -> str:
    if "found" in out:
        w = out["found"]["witness"]["entries"]
        return "found:" + json.dumps(w, separators=(",", ":"))
    if "proved_impossible" in out:
        return "proved_impossible:" + out["proved_impossible"]["kind"]
    return "exhausted" if out["exhausted"]["complete"] else "exhausted_incomplete"


def summary(command: str, out: dict):
    """The answer-defining fields of one op's parsed JSON output."""
    if command == "root":
        return _outcome(out)
    if command == "spectrum":
        return {"order": out["order"],
                "rows": [[r["s"], r["verdict"], _outcome(r["outcome"])] for r in out["rows"]]}
    if command == "verify":
        roots = [[r["n"], r["root"]["entries"]] for r in out["clause4"]["constructed_roots"]]
        return {"verdict": out["verdict"], "order": out["clause3"]["finite_order"],
                "roots": _digest(roots)}
    if command == "classify":
        return {"semisimple": out["semisimple"], "roots": out["all_eigen_roots_of_unity"],
                "order": out["order"], "cyclotomic": out["cyclotomic_factorization"]}
    if command == "fitting":
        return {"m": out["exponent_m"], "kernel_rank": len(out["gen_kernel"]["basis"]),
                "image_rank": len(out["image_part"]["basis"]), "direct": out["is_direct"],
                "invertible": out["restriction_invertible"]}
    if command == "units":
        return {"torsion": out["torsion_order"], "generator": out["torsion_generator"],
                "unit": out["fundamental_unit"]}
    raise ValueError(f"no summary for {command}")


def _same_outcome(got: str, want: str) -> bool:
    """Equal, or the recorded answer was a budget-cut Exhausted that the
    run has since improved on."""
    return got == want or (want == "exhausted_incomplete" and got != "exhausted_incomplete")


def _is_power(X, s, T) -> bool:
    return oracle.mat_pow(X, s) == T


def check(op, stdout: str, expected) -> str | None:
    """None when the op's output is right, else the reason it is not."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    try:
        got = summary(op.command, out)
    except (KeyError, TypeError, IndexError) as exc:
        return f"output lacks an answer field: {exc!r}"
    want = expected["answer"] if expected else None
    T = op.operator
    if op.command == "root":
        if not _same_outcome(got, want):
            return f"outcome {got} != recorded {want}"
        if "found" in out:
            X = out["found"]["witness"]["entries"]
            if not _is_power(X, op.extra["s"], T):
                return "witness fails re-multiplication"
            W = op.extra.get("omega")
            if W is not None and oracle.mat_mul(X, W) != oracle.mat_mul(W, X):
                return "witness does not commute with omega"
        return None
    if op.command == "spectrum":
        if got["order"] != want["order"] or len(got["rows"]) != len(want["rows"]):
            return "spectrum order or row count differs from the record"
        for (s, verdict, outcome), (_, wverdict, woutcome), row in zip(got["rows"], want["rows"], out["rows"]):
            if not _same_outcome(outcome, woutcome):
                return f"s={s}: outcome {outcome} != recorded {woutcome}"
            if verdict != wverdict and woutcome != "exhausted_incomplete":
                return f"s={s}: verdict {verdict} != recorded {wverdict}"
            found = row["outcome"].get("found")
            if found and not _is_power(found["witness"]["entries"], s, T):
                return f"s={s}: witness fails re-multiplication"
            if row["theorem_root"] and not _is_power(row["theorem_root"]["entries"], s, T):
                return f"s={s}: theorem root fails re-multiplication"
        return None
    if op.command == "verify":
        if got["verdict"] == "COUNTEREXAMPLE-CANDIDATE":
            return "verdict COUNTEREXAMPLE-CANDIDATE"
        for r in out["clause4"]["constructed_roots"]:
            if not _is_power(r["root"]["entries"], r["n"], T):
                return f"constructed root n={r['n']} fails re-multiplication"
        return None if got == want else f"answer {got} != recorded {want}"
    if op.command == "classify":
        n = len(T)
        S = oracle.nested(out["jordan_semisimple_part"])
        N = oracle.nested(out["jordan_nilpotent_part"])
        if [[a + b for a, b in zip(r, q)] for r, q in zip(S, N)] != T:
            return "S + N != T"
        if not oracle.is_zero(oracle.mat_pow(N, n)):
            return "N^n != 0"
        d = out["order"]
        if d is not None and oracle.mat_pow(T, d) != oracle.identity(n):
            return f"T^{d} != I"
        return None if got == want else f"answer {got} != recorded {want}"
    if op.command == "fitting":
        Tm = oracle.mat_pow(T, out["exponent_m"])
        for v in out["gen_kernel"]["basis"]:
            if any(oracle.apply(Tm, v)):
                return "generalised kernel vector not killed by T^m"
        return None if got == want else f"answer {got} != recorded {want}"
    if op.command == "units":
        d = op.extra["d"]
        unit = got["unit"]
        if unit is not None and oracle.quadratic_norm(d, *unit) not in (1, -1):
            return "fundamental unit does not have norm +-1"
        if oracle.quadratic_norm(d, *got["generator"]) != 1:
            return "torsion generator does not have norm 1"
        if want is None:  # over budget when recorded: compare with the reference unit
            ref = expected.get("reference")
            return None if ref is None or unit == ref else f"unit {unit} != reference {ref}"
        return None if got == want else f"answer {got} != recorded {want}"
    raise ValueError(f"no check for {op.command}")
