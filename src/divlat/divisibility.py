"""Root search and certification for integer operators.

Whether T has an s-th root in the matrix ring is treated as a semi-decision
problem: sound impossibility certificates first, then a bounded exhaustive
search in deterministic lexicographic order.  An honest Exhausted outcome is
part of the contract; witnesses are always re-multiplied before being
returned.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from typing import Union

from .classify import _Invariants, finite_order
from .exactalg import IntMatrix, _tuple_det, _tuple_mul, _tuple_pow, kernel_saturated
from .fitting import clean_split
from .primes import euler_phi, integer_root, is_prime, signed_root

DEFAULT_MAX_CANDIDATES = 20_000_000
_TABLE_LIMIT = 200_000  # cache det-bucketed candidate tables up to this box size
_TABLE_CACHE_SIZE = 8
_TABLES: dict[tuple[int, int], dict[int, tuple[tuple[int, ...], ...]]] = {}


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class DetNotPower:
    s: int
    det: int

    def statement(self) -> str:
        return f"det T = {self.det} is not an exact {self.s}-th power in Z"


@dataclass(frozen=True)
class NegativeDetEvenPower:
    s: int
    det: int

    def statement(self) -> str:
        return f"det T = {self.det} < 0 but {self.s}-th powers have non-negative determinant"


@dataclass(frozen=True)
class NilpotentRankBound:
    s: int
    rank: int

    def statement(self) -> str:
        return (
            f"T is nilpotent and nonzero; any root is nilpotent on a rank-{self.rank} "
            f"module, so its {self.s}-th power vanishes for s >= {self.rank}"
        )


@dataclass(frozen=True)
class SpectralObstruction:
    description: str

    def statement(self) -> str:
        return self.description


@dataclass(frozen=True)
class OrderObstruction:
    s: int
    order: int

    def statement(self) -> str:
        return (
            f"T has finite order {self.order}; a root X would satisfy "
            f"ord(X)/gcd(ord(X), {self.s}) = {self.order}, but no order realizable "
            "in this matrix size satisfies that"
        )


CertKind = Union[DetNotPower, NegativeDetEvenPower, NilpotentRankBound, SpectralObstruction, OrderObstruction]


# ---------------------------------------------------------------------------
# Outcomes


@dataclass(frozen=True)
class Found:
    witness: IntMatrix
    power: IntMatrix  # stored re-multiplication witness^s


@dataclass(frozen=True)
class ProvedImpossible:
    certificate: CertKind


@dataclass(frozen=True)
class Exhausted:
    bound: int
    complete: bool = True  # False when a time or candidate budget cut the scan


RootSearchOutcome = Union[Found, ProvedImpossible, Exhausted]


@lru_cache(maxsize=None)
def realizable_orders(n: int) -> frozenset[int]:
    """Finite orders realizable in GL_n(Z): exactly the lcms of index sets
    {k_i} with sum of phi(k_i) at most n (companion blocks realize them; the
    cyclotomic factorization of a finite-order element forces the bound)."""
    if n < 1:
        return frozenset({1})
    ks = [k for k in range(1, 2 * n * n + 2) if euler_phi(k) <= n]
    found: set[int] = set()

    def rec(idx: int, budget: int, cur: int):
        found.add(cur)
        for i in range(idx, len(ks)):
            cost = euler_phi(ks[i])
            if cost <= budget:
                rec(i + 1, budget - cost, lcm(cur, ks[i]))

    rec(0, n, 1)
    return frozenset(found)


def impossibility_certificates(T: IntMatrix, s: int, module=None) -> list[CertKind]:
    """Every certificate proving T has no s-th root; sound by construction,
    empty on actual s-th powers."""
    return _certificates(_Invariants(T), s, module)


def _certificates(inv: _Invariants, s: int, module) -> list[CertKind]:
    if s < 2:
        raise ValueError("exponent must be at least 2")
    T = inv.T
    n = T.rows
    certs: list[CertKind] = []
    # determinant route: det T = (det X)^s in Z; over a quadratic order the
    # same equation holds for field norms of ring determinants, and the
    # field norm of the ring determinant of T is det T.
    dt = inv.det
    if module is None:
        if dt != 0:
            if dt < 0 and s % 2 == 0:
                certs.append(NegativeDetEvenPower(s, dt))
            elif signed_root(dt, s) is None:
                certs.append(DetNotPower(s, dt))
    else:
        module.require_endomorphism(T)
        if dt != 0 and ((dt < 0 and s % 2 == 0) or signed_root(dt, s) is None):
            certs.append(SpectralObstruction(
                f"field norm of det T is {dt}, not an exact {s}-th power in Z"))
    # nilpotent route: roots of nilpotents are nilpotent, hence vanish at the
    # module rank.
    rank_bound = module.module_rank if module is not None else n
    if n > 0 and not T.is_zero() and (T ** n).is_zero() and s >= rank_bound:
        certs.append(NilpotentRankBound(s, rank_bound))
    # finite-order route: any root of a finite-order operator is itself of
    # finite order realizable in GL_n(Z); only fires because the realizable
    # set is enumerated exhaustively.
    d = inv.order
    if d is not None:
        if not any(e // gcd(e, s) == d for e in realizable_orders(n)):
            certs.append(OrderObstruction(s, d))
    return certs


# ---------------------------------------------------------------------------
# Bounded search


_TIMED_OUT = object()
_DEADLINE_EVERY = 4096  # candidates enumerated between two deadline checks


def _det_bucketed_candidates(n: int, bound: int, deadline):
    """All entry tuples of the box [-bound, bound]^(n^2) bucketed by
    determinant; each bucket preserves lexicographic order.  The build
    checks the deadline every _DEADLINE_EVERY candidates and returns the
    timeout sentinel when it passes; only complete tables are cached, the
    last _TABLE_CACHE_SIZE used, frozen so they stay immutable."""
    key = (n, bound)
    if key in _TABLES:
        _TABLES[key] = _TABLES.pop(key)  # most recently used goes last
        return _TABLES[key]
    table: dict[int, list[tuple[int, ...]]] = {}
    for count, cand in enumerate(product(range(-bound, bound + 1), repeat=n * n), 1):
        if deadline is not None and not count % _DEADLINE_EVERY and time.monotonic() > deadline:
            return _TIMED_OUT
        table.setdefault(_tuple_det(cand, n), []).append(cand)
    if len(_TABLES) >= _TABLE_CACHE_SIZE:
        del _TABLES[next(iter(_TABLES))]
    _TABLES[key] = {det: tuple(bucket) for det, bucket in table.items()}
    return _TABLES[key]


def _scan(candidates, n, s, target, trace_target, prime_s, w_flat, deadline, det_target=None):
    """Scan candidates in order, checking the deadline every
    _DEADLINE_EVERY candidates enumerated.  With det_target given, the
    candidates X with det(X)^s != det_target are skipped; without it they
    are assumed filtered already.  Returns the first witness, None, or the
    timeout sentinel."""
    diag = slice(None, None, n + 1)
    for count, cand in enumerate(candidates, 1):
        if deadline is not None and not count % _DEADLINE_EVERY and time.monotonic() > deadline:
            return _TIMED_OUT
        if det_target is not None and _tuple_det(cand, n) ** s != det_target:
            continue
        if prime_s and (sum(cand[diag]) - trace_target) % s:
            continue  # tr(X^p) = tr(X) mod p for prime p
        if w_flat is not None and _tuple_mul(cand, w_flat, n, n, n) != _tuple_mul(w_flat, cand, n, n, n):
            continue
        if _tuple_pow(cand, n, s) == target:
            return cand
    return None


def root_search(
    T: IntMatrix,
    s: int,
    bound: int,
    *,
    module=None,
    timeout_ms: int | None = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> RootSearchOutcome:
    """Certificates first; then exhaustive search over max-norm <= bound in
    row-major lexicographic order, returning the lexicographically smallest
    witness."""
    if not T.is_square:
        raise ValueError("square matrix required")
    if s < 2:
        raise ValueError("exponent must be at least 2")
    if bound < 1:
        raise ValueError("bound must be positive")
    inv = _Invariants(T)
    certs = _certificates(inv, s, module)
    if certs:
        return ProvedImpossible(certs[0])
    n = T.rows
    if n == 0:
        empty = IntMatrix(0, 0, ())
        return Found(empty, empty)
    deadline = time.monotonic() + timeout_ms / 1000.0 if timeout_ms is not None else None
    total = (2 * bound + 1) ** (n * n)
    if total > max_candidates:
        return Exhausted(bound, complete=False)
    target = T.entries
    dt = inv.det
    scan_args = (n, s, target, T.trace(), is_prime(s),
                 module.omega_action.entries if module is not None else None, deadline)

    if total <= _TABLE_LIMIT:
        table = _det_bucketed_candidates(n, bound, deadline)
        if table is _TIMED_OUT:
            return Exhausted(bound, complete=False)
        if dt == 0:
            det_roots = [0]
        elif s % 2 == 0:
            r = integer_root(dt, s) if dt > 0 else None
            det_roots = sorted({r, -r}) if r is not None else []
        else:
            r = signed_root(dt, s)
            det_roots = [r] if r is not None else []
        streams = [table[y] for y in det_roots if y in table]
        if not streams:
            return Exhausted(bound)
        candidates = streams[0] if len(streams) == 1 else heapq.merge(*streams)
        hit = _scan(candidates, *scan_args)
    else:
        box = product(range(-bound, bound + 1), repeat=n * n)
        hit = _scan(box, *scan_args, det_target=dt)

    if hit is _TIMED_OUT:
        return Exhausted(bound, complete=False)
    if hit is None:
        return Exhausted(bound)
    witness = IntMatrix(n, n, hit)
    power = witness ** s
    if power != T:
        raise AssertionError("witness failed final re-multiplication")
    return Found(witness, power)


# ---------------------------------------------------------------------------
# Constructive roots for zero-plus-finite-order operators


def coprime_root(T: IntMatrix, d: int, n_exp: int, zero_block=None) -> IntMatrix:
    """X with X^n_exp = T when T is zero plus an order-d operator and
    gcd(n_exp, d) = 1: take X = T^m for m the inverse of n_exp mod d.
    The result is re-verified by exact multiplication before returning."""
    if not T.is_square:
        raise ValueError("square matrix required")
    if d < 1 or n_exp < 1:
        raise ValueError("order and exponent must be positive")
    if gcd(n_exp, d) != 1:
        raise ValueError("no coprime inverse")
    if zero_block is not None:
        for i in range(zero_block.rank):
            if any(T.apply(zero_block.basis.row(i))):
                raise ValueError("operator does not vanish on the given zero block")
        if zero_block != kernel_saturated(T):
            raise ValueError("zero block is not the kernel")
        if not clean_split(T).split:
            raise ValueError("zero block does not split off")
    if T ** (d + 1) != T:
        raise ValueError(f"operator is not zero plus an operator of order dividing {d}")
    m = pow(n_exp, -1, d) if d > 1 else 1
    X = T ** m
    if X ** n_exp != T:
        raise AssertionError("constructed root failed re-verification")
    return X


def zero_plus_finite_order(T: IntMatrix) -> int | None:
    """Order of the invertible part when T splits cleanly as zero plus an
    invertible finite-order operator; None otherwise."""
    cs = clean_split(T)
    if not cs.split:
        return None
    return finite_order(cs.restriction)


# ---------------------------------------------------------------------------
# Divisibility spectrum


@dataclass(frozen=True)
class SpectrumRow:
    s: int
    outcome: RootSearchOutcome
    theorem_root: IntMatrix | None
    verdict: str  # yes-witness | yes-coprime-order | no-certificate | unknown


@dataclass(frozen=True)
class SpectrumTable:
    order: int | None
    rows: tuple[SpectrumRow, ...]
    sufficient_set: str | None


def divisibility_spectrum(
    T: IntMatrix,
    s_max: int,
    bound: int,
    *,
    module=None,
    timeout_ms: int | None = None,
) -> SpectrumTable:
    """Per-exponent verdict table: bounded search outcomes plus the
    guaranteed construction for exponents coprime to the finite order of the
    invertible part (when that structure is present)."""
    if s_max < 2:
        raise ValueError("s_max must be at least 2")
    d = zero_plus_finite_order(T)
    rows = []
    for s in range(2, s_max + 1):
        outcome = root_search(T, s, bound, module=module, timeout_ms=timeout_ms)
        troot = None
        if d is not None and gcd(s, d) == 1:
            troot = coprime_root(T, d, s)
        if isinstance(outcome, Found):
            verdict = "yes-witness"
        elif isinstance(outcome, ProvedImpossible):
            if troot is not None:
                raise AssertionError("certificate fired on a constructible root")
            verdict = "no-certificate"
        elif troot is not None:
            verdict = "yes-coprime-order"
        else:
            verdict = "unknown"
        rows.append(SpectrumRow(s, outcome, troot, verdict))
    sufficient = f"every exponent coprime to {d}" if d is not None else None
    return SpectrumTable(d, tuple(rows), sufficient)
