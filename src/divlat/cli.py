"""divlat command-line interface.

File-based JSON in: _load_json reads a file in one unbuffered binary read
and decodes it as UTF-8, CR LF and a lone CR read as LF as text mode
reads them; a BOM and a key repeated in any object are refused.  Out goes
one rendering of the record a command computes: its JSON under --json,
else human-readable text read off the record itself; _emit builds only
the rendering it prints.  verify's text is a summary followed by the full
JSON.  Exit codes: 0 success, 1 domain error (bad input values, schema
violations), 2 usage error.  The grammar is declared once: the global
flags in _GLOBAL_FLAGS, accepted before or after the subcommand, and the
subcommands in _SUBCOMMANDS.  A command line is read in one of two ways.
A plain one (the subcommand first, then each of its flags at most once,
spelled in full, with a value of the declared type, and its positional)
is read by _read_argv straight off that grammar, through lookups prepared
once per process.  Every other form goes to the argparse parser that
build_parser builds once per process from the same grammar: help, usage
errors (exit 2), flags before the subcommand, abbreviations,
--flag=value, repeats, negative values and "--".  The --threads flag is
accepted for compatibility and ignored: every search runs in the calling
thread.  --seed drives corpus generation only.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import corpus as corpus_mod
from .classify import classify_operator
from .divisibility import Found, ProvedImpossible, divisibility_spectrum, root_search
from .fitting import fitting_decompose
from .numberring import ZZ, IntegerRing, unit_group
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
from .supernat import INF, additive_hypothesis, gcd_sn, lcm_sn, mul_sn, pi_S
from .verifier import verify

MATRIX_SCHEMA = 'matrix file: {"rows": 2, "cols": 2, "entries": [[0, -1], [1, -1]]}'
PROBLEM_SCHEMA = (
    'problem file: {"ring": "Z" | {"quadratic": {"d": -5}}, "module": {"z_rank": 4, '
    '"omega_action": [[...]]}, "operator": MATRIX, "S": DESCRIPTOR, '
    '"witnesses": [{"s": 2, "matrix": MATRIX}], "name": "..."}'
)


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refusing a repeated key (json.load keeps the last);
    the key named is the first repeat in file order."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InputError(f"repeated key {key!r}")
            seen.add(key)
    return obj


_STRICT_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys)  # built once, not per file


def _load_json(path: str):
    """The JSON value of the UTF-8 file at path.  One unbuffered binary read:
    a text-mode file object costs more than the decoding.  CR LF and a lone
    CR are read as LF, as text mode reads them, so every error offset counts
    the same characters."""
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.readall().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):  # json.loads refuses a BOM; decode alone does not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _STRICT_JSON.decode(text)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a repeated key, an int past
        # CPython's digit limit, arrays or objects nested past the recursion limit
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


def _emit(args, record, writer, render) -> int:
    """Print one rendering of record: writer's JSON under --json, else the
    text of render; the other is never built."""
    sys.stdout.write(canonical_dumps(writer(record)) if args.json else render(record) + "\n")
    return 0


def _fitting_text(split) -> str:
    return (
        f"m = {split.exponent_m}\n"
        f"gen kernel (rank {split.gen_kernel.rank}): {split.gen_kernel.basis.nested()}\n"
        f"image part (rank {split.image_part.rank}): {split.image_part.basis.nested()}\n"
        f"direct and full: {'yes' if split.is_direct else 'no'}\n"
        f"restriction invertible: {'yes' if split.restriction_invertible else 'no'}\n"
        f"restriction: {split.restriction.nested()}"
    )


def _cmd_fitting(args) -> int:
    problem = _load_problem(args.file)
    split = fitting_decompose(problem["operator"], module=problem["module"])
    return _emit(args, split, fitting_to_json, _fitting_text)


def _classify_text(report) -> str:
    lines = [
        f"semisimple: {'yes' if report.semisimple else 'no'}",
        f"eigenvalues all roots of unity: {'yes' if report.all_eigen_roots_of_unity else 'no'}",
    ]
    if report.cyclotomic_factorization is not None:
        factors = " * ".join(f"Phi_{k}^{e}" if e > 1 else f"Phi_{k}" for k, e in report.cyclotomic_factorization)
        lines.append(f"cyclotomic factorization: {factors if factors else '1'}")
    lines.append(f"order: {report.order if report.order is not None else 'none (infinite or undefined)'}")
    for name, part in (("semisimple", report.jordan_semisimple_part), ("nilpotent", report.jordan_nilpotent_part)):
        # row by row: a QMatrix has no nested()
        lines.append(f"{name} part: {[[str(x) for x in part.row(i)] for i in range(part.rows)]}")
    return "\n".join(lines)


def _cmd_classify(args) -> int:
    problem = _load_problem(args.file)
    report = classify_operator(problem["operator"], module=problem["module"])
    return _emit(args, report, classify_to_json, _classify_text)


def _root_text(outcome) -> str:
    if isinstance(outcome, Found):
        return f"FOUND witness {outcome.witness.nested()} (re-multiplied exactly)"
    if isinstance(outcome, ProvedImpossible):
        return f"IMPOSSIBLE: {outcome.certificate.statement()}"
    return f"EXHAUSTED bound {outcome.bound}" + ("" if outcome.complete else " (budget cut the scan)")


def _cmd_root(args) -> int:
    problem = _load_problem(args.file)
    outcome = root_search(problem["operator"], args.s, args.bound, module=problem["module"],
                          timeout_ms=args.timeout_ms)
    return _emit(args, outcome, outcome_to_json, _root_text)


def _spectrum_text(table) -> str:
    lines = [f"order of invertible part: {table.order if table.order is not None else 'none'}"]
    if table.sufficient_set:
        lines.append(f"guaranteed divisible for {table.sufficient_set}")
    for row in table.rows:
        out = row.outcome
        if isinstance(out, Found):
            detail = f"witness {out.witness.nested()}"
        elif isinstance(out, ProvedImpossible):
            detail = out.certificate.statement()
        else:
            detail = f"exhausted at bound {out.bound}" + ("" if out.complete else ", budget cut the scan")
        lines.append(f"s={row.s}: {row.verdict} ({detail})")
    return "\n".join(lines)


def _cmd_spectrum(args) -> int:
    problem = _load_problem(args.file)
    table = divisibility_spectrum(problem["operator"], args.s_max, args.bound, module=problem["module"])
    return _emit(args, table, spectrum_to_json, _spectrum_text)


def _cmd_verify(args) -> int:
    """The full report as JSON; in text mode the summary lines before it."""
    problem = _load_problem(args.file, matrix_file=False)
    report = verify(
        problem["ring"], problem["module"], problem["operator"], problem["S"], problem["witnesses"]
    )
    if not args.json:
        lines = [f"problem: {problem['name']}"] if problem["name"] else []
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
        sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.write(canonical_dumps(theorem_report_to_json(report)))
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
        return _emit(args, desc, unit_group_to_json, lambda desc: (
            f"{ring}\n"
            f"torsion order: {desc.torsion_order}, generator {list(desc.torsion_generator)}\n"
            f"fundamental unit: {'none (imaginary field)' if unit is None else f'{list(unit)} (norm {ring.norm(unit)})'}"
        ))
    except ValueError:  # a coordinate past CPython's digit limit for int to str, in text and JSON alike
        bits = max(abs(c).bit_length() for c in unit)
        raise InputError(f"units: {ring}: the fundamental unit has a {bits}-bit coordinate, more decimal digits "
                         f"than sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()} allows") from None


def _cmd_supernat(args) -> int:
    obj = _load_json(args.file)
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InputError(
            "supernat file: exactly one of pi_s, nu, lcm, gcd, mul, additive"
        )
    (op, value), = obj.items()
    if op == "pi_s":
        return _emit(args, pi_S(sdescriptor_from_json(value)), primeset_to_json, str)
    if op == "nu":
        if not isinstance(value, dict) or set(value) != {"p", "n"}:
            raise InputError('nu takes {"p": prime, "n": SUPERNATURAL}')
        e = supernatural_from_json(value["n"]).nu(value["p"])
        return _emit(args, "inf" if e == float("inf") else int(e), lambda nu: {"nu": nu}, str)
    if op in ("lcm", "gcd", "mul"):
        if not isinstance(value, list) or len(value) != 2:
            raise InputError(f"{op} takes a pair of supernaturals")
        a = supernatural_from_json(value[0])
        b = supernatural_from_json(value[1])
        fn = {"lcm": lcm_sn, "gcd": gcd_sn, "mul": mul_sn}[op]
        result = fn(a, b)
        try:
            return _emit(args, result, supernatural_to_json, str)
        except ValueError:  # a product's exponent past CPython's digit limit, in text and JSON alike
            p, e = max((f for f in result.factors if f[1] != INF), key=lambda f: f[1])
            raise InputError(f"supernat: {op}: the exponent of {p} has {e.bit_length()} bits, more decimal "
                             f"digits than sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()} "
                             "allows") from None
    if op == "additive":
        if not isinstance(value, dict) or set(value) != {"S", "lchar"}:
            raise InputError('additive takes {"S": DESCRIPTOR, "lchar": PRIMESET}')
        S = sdescriptor_from_json(value["S"])
        ps = primeset_from_json(value["lchar"], what="lchar")
        return _emit(args, additive_hypothesis(S, ps), lambda ok: {"additive_hypothesis": ok},
                     lambda ok: str(ok).lower())
    raise InputError(f"unknown supernat operation {op!r}")


def _cmd_corpus(args) -> int:
    problems = corpus_mod.gen_corpus(args.kind, args.seed)
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


def _plain_grammar(name: str, handler, arguments: list) -> tuple:
    """One subcommand's grammar as _read_argv looks it up: flag -> spec,
    the positionals' specs in order, the dests a plain argv must give, and
    the namespace before any token is read (the top-level defaults of the
    global flags, command, func and the other flags' defaults).  A spec is
    (dest, type, choices), with type None for a store_true switch."""
    flags, positionals, required = {}, [], set()
    start = {"command": name, "func": handler}
    global_flags = [(flag, dict(options, default=default)) for flag, default, options in _GLOBAL_FLAGS]
    for flag, options in global_flags + arguments:
        is_flag = flag.startswith("-")
        dest = flag.lstrip("-").replace("-", "_") if is_flag else flag  # argparse's rule
        spec = (dest, None if options.get("action") == "store_true" else options.get("type", str),
                options.get("choices"))
        if is_flag:
            flags[flag] = spec
            start[dest] = options.get("default")
        else:
            positionals.append(spec)
        if options.get("required") or not is_flag:
            required.add(dest)
    return flags, positionals, required, start


_PLAIN_GRAMMARS = {name: _plain_grammar(name, handler, arguments)
                   for name, (handler, _, _, arguments) in _SUBCOMMANDS.items()}


def _read_argv(argv):
    """The namespace build_parser().parse_args(argv) returns, read straight
    off the declared grammar when argv is plain: a subcommand, then each of
    its flags (the global ones included) spelled in full and at most once,
    every value not starting with "-" and of its declared type and choices,
    and exactly its positionals.  None for every other argv, which argparse
    then reads; so this never reports an error of its own."""
    grammar = _PLAIN_GRAMMARS.get(argv[0]) if argv else None
    if grammar is None:
        return None
    flags, positionals, required, start = grammar
    ns, given, tokens, waiting = dict(start), set(), iter(argv[1:]), iter(positionals)
    for token in tokens:
        if token[:1] == "-":
            spec = flags.get(token)
            value = next(tokens, "-") if spec and spec[1] else True  # "-": the value is missing
        else:
            spec, value = next(waiting, None), token
        if spec is None or spec[0] in given or (value is not True and value[:1] == "-"):
            return None
        dest, convert, choices = spec
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        ns[dest] = value
        given.add(dest)
    if not required <= given:
        return None
    args = argparse.Namespace()
    args.__dict__.update(ns)  # a third of the cost of Namespace(**ns)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
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
