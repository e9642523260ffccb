"""JSON forms for every type that crosses the CLI boundary.

Strict parsing: objects are schema-checked and unknown fields are rejected.
Rational entries travel as "p/q" strings, never as floats; the infinite
supernatural exponent travels as the string "inf".

Reports are written by one rule: a record (a Record or a NamedTuple) is
the dict of its fields by name, a tuple is a list, and IntMatrix, QMatrix,
PrimeSet and the root-search outcomes keep writers of their own.  A report
field's name is thus its JSON key.

Output has one canonical form: canonical_dumps(obj) is exactly
json.dumps(obj, sort_keys=True, indent=2) + "\n".  Below Python 3.13 a
writer of its own produces these bytes, as json.dumps with indent runs in
pure Python there; from 3.13 on, where C encodes indented output,
canonical_dumps is that json.dumps call.  The writer takes dicts with str
keys, lists and tuples, and str, int, bool and None by exact type.  It
raises TypeError on anything else, a float included, which json.dumps
would accept but no payload holds, and json.dumps's ValueError on an int
past CPython's digit limit.
"""
from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .classify import ClassifyReport, FittingSplit
from .divisibility import (
    CertKind,
    Exhausted,
    Found,
    ProvedImpossible,
    RootSearchOutcome,
    SpectrumTable,
)
from .exactalg import IntMatrix, Lattice, QMatrix
from .numberring import IntegerRing, OKModule, QuadraticOrder, UnitGroupDesc, ZZ
from .supernat import (
    INF,
    AllFrom,
    Factorials,
    FiniteSet,
    Geometric,
    PrimeSet,
    Residue,
    SDescriptor,
    Supernatural,
)
from .verifier import TheoremReport


class InputError(ValueError):
    """Malformed or schema-violating input."""


def _expect_keys(obj: dict, required: set[str], optional: set[str] = frozenset(), what: str = "object"):
    if not isinstance(obj, dict):
        raise InputError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise InputError(f"{what}: missing field(s) {sorted(missing)}")
    if unknown:
        raise InputError(f"{what}: unknown field(s) {sorted(unknown)}")


def _int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what}: expected an integer, got {value!r}")
    return value


def _typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise InputError(f"{what}: expected a {'list' if kind is list else 'JSON object'}, got {type(value).__name__}")
    return value


@contextmanager
def _library_errors(what: str):
    """A library ValueError as an InputError naming what; an InputError passes through."""
    try:
        yield
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(f"{what}: {exc}") from exc


# The JSON text of a scalar by its exact type, each a call into C.
_SCALARS = {
    str: _quote,
    int: int.__repr__,  # past the digit limit, json.dumps's ValueError
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}.get


def _indented(obj, pad: str) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it, with
    every line after the first indented by pad.  A scalar is known by its
    exact type and, inside a container, written in the loop without a call
    of its own."""
    scalar = _SCALARS(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = pad + "  "
    items = []
    if isinstance(obj, dict):
        for k in sorted(obj):  # _quote raises the TypeError for a key that is no str
            v = obj[k]
            scalar = _SCALARS(type(v))
            items.append(f"{_quote(k)}: {scalar(v) if scalar else _indented(v, inner)}")
        opening, closing = "{", "}"
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            scalar = _SCALARS(type(v))
            items.append(scalar(v) if scalar else _indented(v, inner))
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return opening + closing
    separator = ",\n" + inner
    return f"{opening}\n{inner}{separator.join(items)}\n{pad}{closing}"


def _write_canonical(obj) -> str:
    return _indented(obj, "") + "\n"


def _stdlib_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# Chosen once, by interpreter.  Up to CPython 3.12 json.dumps with indent
# falls back to its pure-Python encoder, and _write_canonical writes the same
# bytes about 2.5x as fast (CPython 3.11, over the payloads of the golden
# problem sets); from 3.13 on the C encoder takes indent and beats the
# writer.  Delete _SCALARS, _indented and _write_canonical once
# requires-python reaches 3.13.
canonical_dumps = _write_canonical if sys.version_info < (3, 13) else _stdlib_canonical


# -- matrices ----------------------------------------------------------


def matrix_to_json(m: IntMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": m.nested()}


def _entry_value(x, what: str, allow_rational: bool):
    if isinstance(x, bool):
        raise InputError(f"{what}: boolean entry")
    if isinstance(x, int):
        return x
    if allow_rational and isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{what}: bad rational entry {x!r}") from exc
    raise InputError(f"{what}: bad entry {x!r} (integers only; rationals as 'p/q' strings where allowed)")


def matrix_from_json(obj, what: str = "matrix", allow_rational: bool = False):
    """Parse {"rows", "cols", "entries"}; entries are flat, or nested as
    exactly rows lists of cols entries each.  With allow_rational, returns
    a QMatrix when any entry is fractional."""
    _expect_keys(obj, {"rows", "cols", "entries"}, what=what)
    rows = _int(obj["rows"], f"{what}.rows")
    cols = _int(obj["cols"], f"{what}.cols")
    for field, size in (("rows", rows), ("cols", cols)):
        if size < 0:
            raise InputError(f"{what}.{field}: expected a nonnegative integer, got {size}")
    raw = obj["entries"]
    if not isinstance(raw, list):
        raise InputError(f"{what}.entries: expected a list")
    if raw and isinstance(raw[0], list):
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != cols:
                raise InputError(f"{what}.entries[{i}]: expected a row of {cols} entries")
        if len(raw) != rows:
            raise InputError(f"{what}.entries: expected {rows} rows, got {len(raw)}")
        flat = [x for row in raw for x in row]
    else:
        flat = list(raw)
    if len(flat) != rows * cols:
        raise InputError(f"{what}: expected {rows * cols} entries, got {len(flat)}")
    if set(map(type, flat)) <= {int}:  # every entry a plain int: nothing to convert or refuse
        return IntMatrix(rows, cols, tuple(flat))
    values = [_entry_value(x, what, allow_rational) for x in flat]
    if any(isinstance(v, Fraction) and v.denominator != 1 for v in values):
        return QMatrix(rows, cols, tuple(Fraction(v) for v in values))
    return IntMatrix(rows, cols, tuple(int(v) for v in values))


def _fraction_json(x: int | Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def qmatrix_to_json(m: QMatrix) -> dict:
    """An all-int QMatrix as matrix_to_json writes it; else each integral
    entry as an int and each other one as a 'p/q' string."""
    if set(map(type, m.entries)) <= {int}:
        return {"rows": m.rows, "cols": m.cols, "entries": [list(m.row(i)) for i in range(m.rows)]}
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[_fraction_json(m[i, j]) for j in range(m.cols)] for i in range(m.rows)],
    }


def lattice_to_json(lat: Lattice) -> dict:
    return {"ambient_rank": lat.ambient_rank, "basis": lat.basis.nested()}


# -- supernatural numbers and descriptors -------------------------------


def supernatural_to_json(x: Supernatural) -> dict:
    factors = {}
    for p, e in x.factors:
        factors[str(p)] = "inf" if e == INF else int(e)
    return {"factors": factors}


def supernatural_from_json(obj, what: str = "supernatural") -> Supernatural:
    _expect_keys(obj, {"factors"}, what=what)
    factors = {}
    for key, e in _typed(obj["factors"], dict, f"{what}.factors").items():
        if not (key.isascii() and key.isdecimal() and str(int(key)) == key):  # no sign, space, '_' or 0 prefix
            raise InputError(f"{what}: bad prime key {key!r}")
        p = int(key)
        if e == "inf":
            factors[p] = INF
        else:
            factors[p] = _int(e, f"{what}.factors[{key}]")
    with _library_errors(what):
        return Supernatural.of(factors)


def sdescriptor_to_json(S: SDescriptor) -> dict:
    if isinstance(S, FiniteSet):
        return {"finite": list(S.elements)}
    if isinstance(S, Geometric):
        return {"geometric": {"base": S.base, "scale": S.scale}}
    if isinstance(S, Factorials):
        return {"factorials": True}
    if isinstance(S, Residue):
        return {"residue": {"a": S.a, "m": S.m}}
    if isinstance(S, AllFrom):
        return {"all_from": S.start}
    raise TypeError(f"unknown descriptor {S!r}")


def sdescriptor_from_json(obj, what: str = "S") -> SDescriptor:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InputError(f"{what}: expected an object with exactly one descriptor key")
    (key, value), = obj.items()
    with _library_errors(what):
        if key == "finite":
            return FiniteSet(tuple(_int(v, what) for v in _typed(value, list, f"{what}.{key}")))
        if key == "geometric":
            _expect_keys(value, {"base"}, {"scale"}, what=f"{what}.geometric")
            return Geometric(_int(value["base"], what), _int(value.get("scale", 1), what))
        if key == "factorials":
            if value is not True:
                raise InputError(f"{what}: factorials takes the value true")
            return Factorials()
        if key == "residue":
            _expect_keys(value, {"a", "m"}, what=f"{what}.residue")
            return Residue(_int(value["a"], what), _int(value["m"], what))
        if key == "all_from":
            return AllFrom(_int(value, what))
    raise InputError(f"{what}: unknown descriptor kind {key!r}")


def primeset_to_json(ps: PrimeSet) -> dict:
    if not ps.cofinite:
        return {"finite": list(ps.primes)}
    if not ps.primes:
        return {"all_primes": True}
    return {"all_except": list(ps.primes)}


def primeset_from_json(obj, what: str = "primes") -> PrimeSet:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InputError(f"{what}: expected an object with exactly one key")
    (key, value), = obj.items()
    with _library_errors(what):
        if key == "finite":
            return PrimeSet.finite(_int(v, what) for v in _typed(value, list, f"{what}.{key}"))
        if key == "all_primes":
            if value is not True:
                raise InputError(f"{what}: all_primes takes the value true")
            return PrimeSet.all_primes()
        if key == "all_except":
            return PrimeSet.all_except(_int(v, what) for v in _typed(value, list, f"{what}.{key}"))
    raise InputError(f"{what}: unknown prime-set kind {key!r}")


# -- rings and modules ---------------------------------------------------


def ring_to_json(ring):
    if isinstance(ring, IntegerRing):
        return "Z"
    if isinstance(ring, QuadraticOrder):
        return {"quadratic": {"d": ring.d}}
    raise TypeError(f"unsupported ring {ring!r}")


def ring_from_json(obj, what: str = "ring"):
    if obj == "Z":
        return ZZ
    if isinstance(obj, dict) and set(obj) == {"quadratic"}:
        _expect_keys(obj["quadratic"], {"d"}, what=f"{what}.quadratic")
        with _library_errors(what):
            return QuadraticOrder(_int(obj["quadratic"]["d"], what))
    raise InputError(f"{what}: expected \"Z\" or {{\"quadratic\": {{\"d\": ...}}}}")


def okmodule_to_json(module: OKModule) -> dict:
    return {"z_rank": module.z_rank, "omega_action": module.omega_action.nested()}


def okmodule_from_json(obj, order: QuadraticOrder, what: str = "module") -> OKModule:
    _expect_keys(obj, {"z_rank", "omega_action"}, what=what)
    z_rank = _int(obj["z_rank"], f"{what}.z_rank")
    if z_rank < 0:
        raise InputError(f"{what}.z_rank: expected a nonnegative integer, got {z_rank}")
    W = matrix_from_json({"rows": z_rank, "cols": z_rank, "entries": obj["omega_action"]},
                         what=f"{what}.omega_action")
    with _library_errors(what):
        return OKModule(order, z_rank, W)


# -- problem files --------------------------------------------------------


def problem_from_json(obj, what: str = "problem") -> dict:
    """Parse a problem file {ring, module, operator, S, witnesses, name}.

    Returns a dict with keys ring, module, operator, S, witnesses, name; the
    witnesses keep QMatrix entries so non-integral ones can be reported
    rather than rejected at the parse stage.  With a module, an operator of
    another size than z_rank x z_rank is rejected here."""
    _expect_keys(obj, {"operator"}, {"ring", "module", "S", "witnesses", "name"}, what=what)
    ring = ring_from_json(obj.get("ring", "Z"), what=f"{what}.ring")
    module = None
    if isinstance(ring, QuadraticOrder):
        if "module" not in obj:
            raise InputError(f"{what}: quadratic ring requires a module")
        module = okmodule_from_json(obj["module"], ring, what=f"{what}.module")
    elif "module" in obj:
        raise InputError(f"{what}: module only makes sense for a quadratic ring")
    operator = matrix_from_json(obj["operator"], what=f"{what}.operator")
    if module is not None and (operator.rows, operator.cols) != (module.z_rank, module.z_rank):
        raise InputError("operator size does not match the module")
    S = sdescriptor_from_json(obj["S"], what=f"{what}.S") if "S" in obj else None
    witnesses = []
    for i, w in enumerate(_typed(obj.get("witnesses", []), list, f"{what}.witnesses")):
        _expect_keys(w, {"s", "matrix"}, what=f"{what}.witnesses[{i}]")
        s = _int(w["s"], f"{what}.witnesses[{i}].s")
        X = matrix_from_json(w["matrix"], what=f"{what}.witnesses[{i}].matrix", allow_rational=True)
        witnesses.append((s, X))
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError(f"{what}.name: expected a string")
    return {
        "ring": ring,
        "module": module,
        "operator": operator,
        "S": S,
        "witnesses": tuple(witnesses),
        "name": name,
    }


def problem_to_json(ring, module, operator: IntMatrix, S, witnesses, name=None) -> dict:
    out = {"ring": ring_to_json(ring), "operator": matrix_to_json(operator)}
    if module is not None:
        out["module"] = okmodule_to_json(module)
    if S is not None:
        out["S"] = sdescriptor_to_json(S)
    if witnesses:
        out["witnesses"] = [{"s": s, "matrix": _json(X)} for s, X in witnesses]
    if name is not None:
        out["name"] = name
    return out


# -- results ---------------------------------------------------------------


def _json(value):
    """value written by the report rule of the module docstring.  The
    writers of their own are called by their module-level names, which
    the benchmark's tracer rebinds."""
    if value is None or type(value) in (bool, int, str):
        return value
    if type(value) is tuple:  # a NamedTuple is a record
        return [_json(v) for v in value]
    if isinstance(value, IntMatrix):  # IntMatrix, QMatrix and PrimeSet are Records too
        return matrix_to_json(value)
    if isinstance(value, QMatrix):
        return qmatrix_to_json(value)
    if isinstance(value, PrimeSet):
        return primeset_to_json(value)
    if isinstance(value, (Found, ProvedImpossible, Exhausted)):
        return outcome_to_json(value)
    return _fields(value)


def _fields(record) -> dict:
    """The dict of a record's fields by name, each written by the rule; a
    Record and a NamedTuple alike name their fields in _fields."""
    return {name: _json(getattr(record, name)) for name in record._fields}


def certificate_to_json(cert: CertKind) -> dict:
    return {"kind": type(cert).__name__, "statement": cert.statement(), **_fields(cert)}


def outcome_to_json(outcome: RootSearchOutcome) -> dict:
    if isinstance(outcome, ProvedImpossible):
        return {"proved_impossible": certificate_to_json(outcome.certificate)}
    return {"found" if isinstance(outcome, Found) else "exhausted": _fields(outcome)}


def fitting_to_json(split: FittingSplit) -> dict:
    """Not by the rule: the split's JSON holds its properties and leaves out
    det and T."""
    return {
        "exponent_m": split.exponent_m,
        "gen_kernel": lattice_to_json(split.gen_kernel),
        "image_part": lattice_to_json(split.image_part),
        "is_direct": split.is_direct,
        "restriction_invertible": split.restriction_invertible,
        "restriction": matrix_to_json(split.restriction),
    }


def classify_to_json(report: ClassifyReport) -> dict:
    return _fields(report)


def spectrum_to_json(table: SpectrumTable) -> dict:
    return _fields(table)


def unit_group_to_json(desc: UnitGroupDesc) -> dict:
    return _fields(desc)


def theorem_report_to_json(report: TheoremReport) -> dict:
    return _fields(report)
