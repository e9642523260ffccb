"""divlat command-line interface.

File-based JSON in, JSON (--json) or human-readable text out.  Exit codes:
0 success, 1 domain error (bad input values, schema violations), 2 usage
error.  The grammar is declared once: the global flags in _GLOBAL_FLAGS,
accepted before or after the subcommand, and the subcommands in
_SUBCOMMANDS; build_parser builds it once per process.  The --threads flag
is accepted for compatibility and ignored: every search runs in the calling
thread.  --seed drives corpus generation only.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import corpus as corpus_mod
from .classify import classify_operator
from .divisibility import divisibility_spectrum, root_search
from .fitting import fitting_decompose
from .numberring import IntegerRing, unit_group
from .serialize import (
    InputError,
    _expect_keys,
    canonical_dumps,
    classify_to_json,
    fitting_to_json,
    matrix_from_json,
    outcome_to_json,
    primeset_from_json,
    primeset_to_json,
    problem_from_json,
    problem_to_json,
    ring_from_json,
    sdescriptor_from_json,
    spectrum_to_json,
    supernatural_from_json,
    supernatural_to_json,
    theorem_report_to_json,
    unit_group_to_json,
)
from .supernat import additive_hypothesis, gcd_sn, lcm_sn, mul_sn, pi_S
from .verifier import verify

MATRIX_SCHEMA = 'matrix file: {"rows": 2, "cols": 2, "entries": [[0, -1], [1, -1]]}'
PROBLEM_SCHEMA = (
    'problem file: {"ring": "Z" | {"quadratic": {"d": -5}}, "module": {"z_rank": 4, '
    '"omega_action": [[...]]}, "operator": MATRIX, "S": DESCRIPTOR, '
    '"witnesses": [{"s": 2, "matrix": MATRIX}], "name": "..."}'
)


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refusing a repeated key (json.load keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise InputError(f"repeated key {key!r}")
    return obj


_STRICT_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys)  # built once, not per file


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.startswith("\ufeff"):  # json.loads refuses a BOM; decode alone does not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _STRICT_JSON.decode(text)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, a repeated key, an int past CPython's digit limit
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def _load_problem(path: str, matrix_file: bool = True) -> dict:
    """The problem file at path or, with matrix_file, a bare matrix file as
    {"operator": T, "module": None}: the one place where an operator from
    outside is refused, non-square or 0x0, before any argument or the ring
    action is checked.  The library accepts 0x0 (a rank-0 image part)."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "operator" in obj:
        problem = problem_from_json(obj)
    else:
        try:
            problem = {"operator": matrix_from_json(obj), "module": None}
        except InputError:
            if matrix_file:
                raise
            problem_from_json(obj)  # neither file kind: raises the problem parser's error
    T = problem["operator"]
    if not T.is_square:
        raise InputError("square matrix required")
    if not T.rows:
        raise InputError("empty operator")
    if "ring" not in problem and not matrix_file:
        problem_from_json(obj)  # a bare matrix is no problem file: raises
    return problem


def _emit(args, payload: dict, text: str) -> int:
    if args.json:
        sys.stdout.write(canonical_dumps(payload))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _cmd_fitting(args) -> int:
    problem = _load_problem(args.file)
    split = fitting_decompose(problem["operator"], module=problem["module"])
    text = (
        f"m = {split.exponent_m}\n"
        f"gen kernel (rank {split.gen_kernel.rank}): {split.gen_kernel.basis.nested()}\n"
        f"image part (rank {split.image_part.rank}): {split.image_part.basis.nested()}\n"
        f"direct and full: {'yes' if split.is_direct else 'no'}\n"
        f"restriction invertible: {'yes' if split.restriction_invertible else 'no'}\n"
        f"restriction: {split.restriction.nested()}"
    )
    return _emit(args, fitting_to_json(split), text)


def _cmd_classify(args) -> int:
    problem = _load_problem(args.file)
    T = problem["operator"]
    report = classify_operator(T, module=problem["module"])
    lines = [
        f"semisimple: {'yes' if report.semisimple else 'no'}",
        f"eigenvalues all roots of unity: {'yes' if report.all_eigen_roots_of_unity else 'no'}",
    ]
    if report.cyclotomic_factorization is not None:
        factors = " * ".join(f"Phi_{k}^{e}" if e > 1 else f"Phi_{k}" for k, e in report.cyclotomic_factorization)
        lines.append(f"cyclotomic factorization: {factors if factors else '1'}")
    lines.append(f"order: {report.order if report.order is not None else 'none (infinite or undefined)'}")
    lines.append(f"semisimple part: {[[str(x) for x in report.jordan_semisimple_part.row(i)] for i in range(T.rows)]}")
    lines.append(f"nilpotent part: {[[str(x) for x in report.jordan_nilpotent_part.row(i)] for i in range(T.rows)]}")
    return _emit(args, classify_to_json(report), "\n".join(lines))


def _cmd_root(args) -> int:
    problem = _load_problem(args.file)
    outcome = root_search(problem["operator"], args.s, args.bound, module=problem["module"],
                          timeout_ms=args.timeout_ms)
    payload = outcome_to_json(outcome)
    if "found" in payload:
        text = f"FOUND witness {payload['found']['witness']['entries']} (re-multiplied exactly)"
    elif "proved_impossible" in payload:
        text = f"IMPOSSIBLE: {payload['proved_impossible']['statement']}"
    else:
        ex = payload["exhausted"]
        text = f"EXHAUSTED bound {ex['bound']}" + ("" if ex["complete"] else " (budget cut the scan)")
    return _emit(args, payload, text)


def _cmd_spectrum(args) -> int:
    problem = _load_problem(args.file)
    table = divisibility_spectrum(problem["operator"], args.s_max, args.bound, module=problem["module"])
    lines = [f"order of invertible part: {table.order if table.order is not None else 'none'}"]
    if table.sufficient_set:
        lines.append(f"guaranteed divisible for {table.sufficient_set}")
    for row in table.rows:
        out = outcome_to_json(row.outcome)
        if "found" in out:
            detail = f"witness {out['found']['witness']['entries']}"
        elif "proved_impossible" in out:
            detail = out["proved_impossible"]["statement"]
        else:
            ex = out["exhausted"]
            detail = f"exhausted at bound {ex['bound']}" + ("" if ex["complete"] else ", budget cut the scan")
        lines.append(f"s={row.s}: {row.verdict} ({detail})")
    return _emit(args, spectrum_to_json(table), "\n".join(lines))


def _cmd_verify(args) -> int:
    problem = _load_problem(args.file, matrix_file=False)
    report = verify(
        problem["ring"], problem["module"], problem["operator"], problem["S"], problem["witnesses"]
    )
    lines = []
    if problem["name"]:
        lines.append(f"problem: {problem['name']}")
    for c in report.hypothesis_checks.witnesses:
        lines.append(f"witness s={c.s}: {c.reason}")
    lines.append(f"additive hypothesis: {report.hypothesis_checks.additive_ok}")
    lines.append(f"multiplicative hypothesis: {report.hypothesis_checks.mult_ok}")
    lines.append(f"clause 1 (zero (+) invertible split): {'holds' if report.clause1.clean_split else 'fails'}")
    lines.append(f"clause 2 (semisimple restriction): {'holds' if report.clause2.semisimple else 'fails'}")
    d = report.clause3.finite_order
    lines.append(f"clause 3 (finite order): {d if d is not None else 'no finite order'}"
                 + (f", coprime to Pi_S: {report.clause3.order_coprime_to_pi_s}" if report.clause3.pi_s is not None else ""))
    lines.append(f"clause 4 roots constructed: {[n for n, _ in report.clause4.constructed_roots]}")
    lines.append(f"verdict: {report.verdict} ({report.reason})")
    payload = theorem_report_to_json(report)
    if args.json:
        return _emit(args, payload, "")
    # default mode prints the summary followed by the full report
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.write(canonical_dumps(payload))
    return 0


def _cmd_units(args) -> int:
    obj = _load_json(args.file)
    if isinstance(obj, dict) and "ring" in obj:
        _expect_keys(obj, {"ring"}, what="units file")
        obj = obj["ring"]
    ring = ring_from_json(obj)
    if isinstance(ring, IntegerRing):
        raise InputError("units: need a quadratic ring, e.g. {\"ring\": {\"quadratic\": {\"d\": 2}}}")
    desc = unit_group(ring)
    unit = desc.fundamental_unit
    try:
        unit_text = "none (imaginary field)" if unit is None else f"{list(unit)} (norm {ring.norm(unit)})"
    except ValueError:  # a coordinate past CPython's digit limit for int to str, in --json too
        bits = max(abs(c).bit_length() for c in unit)
        raise InputError(f"units: {ring}: the fundamental unit has a {bits}-bit coordinate, more decimal digits "
                         f"than sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()} allows") from None
    text = (
        f"{ring}\n"
        f"torsion order: {desc.torsion_order}, generator {list(desc.torsion_generator)}\n"
        f"fundamental unit: {unit_text}"
    )
    return _emit(args, unit_group_to_json(desc), text)


def _cmd_supernat(args) -> int:
    obj = _load_json(args.file)
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InputError(
            "supernat file: exactly one of pi_s, nu, lcm, gcd, mul, additive"
        )
    (op, value), = obj.items()
    if op == "pi_s":
        result = pi_S(sdescriptor_from_json(value))
        return _emit(args, primeset_to_json(result), str(result))
    if op == "nu":
        if not isinstance(value, dict) or set(value) != {"p", "n"}:
            raise InputError('nu takes {"p": prime, "n": SUPERNATURAL}')
        x = supernatural_from_json(value["n"])
        e = x.nu(value["p"])
        payload = {"nu": "inf" if e == float("inf") else int(e)}
        return _emit(args, payload, str(payload["nu"]))
    if op in ("lcm", "gcd", "mul"):
        if not isinstance(value, list) or len(value) != 2:
            raise InputError(f"{op} takes a pair of supernaturals")
        a = supernatural_from_json(value[0])
        b = supernatural_from_json(value[1])
        fn = {"lcm": lcm_sn, "gcd": gcd_sn, "mul": mul_sn}[op]
        result = fn(a, b)
        return _emit(args, supernatural_to_json(result), str(result))
    if op == "additive":
        if not isinstance(value, dict) or set(value) != {"S", "lchar"}:
            raise InputError('additive takes {"S": DESCRIPTOR, "lchar": PRIMESET}')
        S = sdescriptor_from_json(value["S"])
        ps = primeset_from_json(value["lchar"], what="lchar")
        result = additive_hypothesis(S, ps)
        return _emit(args, {"additive_hypothesis": result}, str(result).lower())
    raise InputError(f"unknown supernat operation {op!r}")


def _cmd_corpus(args) -> int:
    problems = corpus_mod.gen_corpus(args.kind, args.seed)
    from .numberring import ZZ

    payload = [
        problem_to_json(ZZ, None, p.operator, p.exponent_set, p.witnesses, name=p.name)
        for p in problems
    ]
    sys.stdout.write(canonical_dumps(payload))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors print the full help, including the schema epilog."""

    def error(self, message):
        self.print_help(sys.stderr)
        self.exit(2, f"error: {message}\n")


# flag, its one default (held by the top-level parser), add_argument options
_GLOBAL_FLAGS = (
    ("--json", False, {"action": "store_true", "help": "machine-readable JSON output"}),
    ("--threads", 1, {"type": int, "help": "accepted and ignored (searches run single-threaded)"}),
    ("--seed", 1, {"type": int, "help": "PRNG seed (corpus generation only)"}),
)

_FILE = ("file", {})
_REQUIRED_INT = {"type": int, "required": True}
# name: (handler, help, epilog, arguments after the global flags)
_SUBCOMMANDS = {
    "fitting": (_cmd_fitting, "kernel/image split of an operator", MATRIX_SCHEMA, [_FILE]),
    "classify": (_cmd_classify, "semisimplicity, spectrum, order, Jordan parts", MATRIX_SCHEMA,
                 [_FILE]),
    "root": (_cmd_root, "search for an s-th root", MATRIX_SCHEMA,
             [_FILE, ("--s", _REQUIRED_INT), ("--bound", _REQUIRED_INT),
              ("--timeout-ms", {"type": int, "default": None})]),
    "spectrum": (_cmd_spectrum, "per-exponent divisibility table", MATRIX_SCHEMA,
                 [_FILE, ("--s-max", _REQUIRED_INT), ("--bound", _REQUIRED_INT)]),
    "verify": (_cmd_verify, "clause-by-clause report for a problem file", PROBLEM_SCHEMA, [_FILE]),
    "units": (_cmd_units, "unit group of a quadratic order",
              'ring file: {"ring": {"quadratic": {"d": 2}}}', [_FILE]),
    "supernat": (_cmd_supernat, "supernatural arithmetic and Pi_S",
                 'file: {"pi_s": {"geometric": {"base": 2, "scale": 3}}} etc.', [_FILE]),
    "corpus": (_cmd_corpus, "emit a deterministic problem corpus as JSON", None,
               [("kind", {"choices": corpus_mod.KINDS})]),
}


def _add_global_flags(parser, top: bool) -> None:
    # A subcommand's copy has no default, so it never overwrites a flag given
    # before the subcommand.
    for flag, default, options in _GLOBAL_FLAGS:
        parser.add_argument(flag, default=default if top else argparse.SUPPRESS, **options)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The divlat grammar; built once per process, since it depends on no input."""
    parser = _Parser(
        prog="divlat",
        description="Exact divisibility analysis for integer and quadratic-ring matrices.",
    )
    _add_global_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, epilog, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, epilog=epilog, help=help_text)
        _add_global_flags(p, top=False)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ValueError as exc:  # InputError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
