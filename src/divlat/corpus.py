"""Deterministic problem-corpus generation for the acceptance suite.

The generator uses CPython's Mersenne Twister (random.Random) seeded with
the given integer; for a fixed seed the corpus is stable across platforms
and versions of this package.
"""
from __future__ import annotations

import random
from math import lcm

from ._record import Record
from .classify import _Invariants
from .divisibility import _coprime_exponents, _coprime_roots
from .exactalg import IntMatrix, _adjugate, _cyclotomic_indices, cyclotomic, companion_matrix
from .primes import euler_phi
from .supernat import AllFrom, Factorials, Geometric, Residue, SDescriptor

KINDS = ("finite-order", "nilpotent", "random", "powers")

_CYCLOTOMIC_KS = _cyclotomic_indices(2)  # (1, 2, 3, 4, 6): phi(k) <= 2, enough for 2x2 and 3x3 blocks


class Problem(Record):
    name: str
    kind: str
    operator: IntMatrix
    exponent_set: SDescriptor | None
    witnesses: tuple[tuple[int, IntMatrix], ...]


def random_unimodular(n: int, rng: random.Random, steps: int = 12) -> IntMatrix:
    """Product of random elementary row operations: always determinant +-1."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif op == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 2:
            rows[i] = [-a for a in rows[i]]
    M = IntMatrix.from_rows(rows)
    if abs(M.det()) != 1:
        raise AssertionError("elementary operations left GL_n(Z)")
    return M


def conjugate(T: IntMatrix, U: IntMatrix) -> IntMatrix:
    """U T U^{-1}, in integers: for det U = +-1, U^{-1} = adj U / det U =
    det U adj U (_adjugate), checked as U U^{-1} = I."""
    det, adj = _adjugate(U.entries, U.rows) if U.is_square else (0, None)
    if abs(det) != 1:
        raise ValueError("conjugation needs a unimodular matrix")
    inverse = IntMatrix(U.rows, U.rows, tuple(det * x for x in adj))
    if U * inverse != IntMatrix.identity(U.rows):
        raise AssertionError("U U^-1 != I: the adjugate of U is wrong")
    return U * T * inverse


def block_diagonal(blocks: list[IntMatrix]) -> IntMatrix:
    n = sum(b.rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                rows[offset + i][offset + j] = b[i, j]
        offset += b.rows
    return IntMatrix.from_rows(rows)


def finite_order_matrix(ks: list[int], U: IntMatrix | None = None) -> IntMatrix:
    """Conjugated direct sum of cyclotomic companion blocks: order lcm(ks)."""
    blocks = [companion_matrix(cyclotomic(k)) for k in ks]
    T = block_diagonal(blocks)
    return T if U is None else conjugate(T, U)


def _finite_order_problems(rng: random.Random) -> list[Problem]:
    problems = []
    # always include an order-6 element of GL_2(Z)
    multisets = [[6]]
    while len(multisets) < 10:
        budget = rng.choice([2, 3])
        ks: list[int] = []
        while budget > 0:
            k = rng.choice([k for k in _CYCLOTOMIC_KS if euler_phi(k) <= budget])
            ks.append(k)
            budget -= euler_phi(k)
        multisets.append(sorted(ks))
    for i, ks in enumerate(multisets):
        n = sum(euler_phi(k) for k in ks)
        T = finite_order_matrix(ks, random_unimodular(n, rng))
        d = lcm(*ks)
        witnesses = tuple(_coprime_roots(_Invariants(T), d, _coprime_exponents(d, 2)))
        S = Residue(1 % d, d) if d > 1 else Geometric(2, 1)
        problems.append(Problem(f"finite-order-{i}", "finite-order", T, S, witnesses))
    return problems


def _nilpotent_problems(rng: random.Random) -> list[Problem]:
    zero2 = IntMatrix.zeros(2, 2)
    problems = [
        Problem("nilpotent-zero", "nilpotent", zero2, Geometric(2, 1), ((2, zero2), (3, zero2)))
    ]
    for i in range(9):
        n = rng.choice([2, 3, 4])
        rows = [[rng.randint(-2, 2) if j > i_ else 0 for j in range(n)] for i_ in range(n)]
        T = conjugate(IntMatrix.from_rows(rows), random_unimodular(n, rng))
        if not (T ** n).is_zero():
            raise AssertionError("strictly upper triangular conjugate is not nilpotent")
        problems.append(Problem(f"nilpotent-{i}", "nilpotent", T, Geometric(2, 1), ()))
    return problems


def _random_problems(rng: random.Random) -> list[Problem]:
    problems = []
    for i in range(10):
        n = rng.choice([2, 3])
        T = IntMatrix(n, n, tuple(rng.randint(-3, 3) for _ in range(n * n)))
        problems.append(Problem(f"random-{i}", "random", T, Factorials(), ()))
    return problems


def _powers_problems(rng: random.Random) -> list[Problem]:
    problems = []
    for i in range(10):
        n = rng.choice([2, 3])
        s = rng.choice([2, 3])
        X = IntMatrix(n, n, tuple(rng.randint(-2, 2) for _ in range(n * n)))
        T = X ** s
        problems.append(Problem(f"powers-{i}", "powers", T, AllFrom(2), ((s, X),)))
    return problems


def gen_corpus(kind: str, seed: int) -> list[Problem]:
    """Deterministic corpus for one kind.  Powers entries carry their
    generating (X, s) as the witness; finite-order entries carry two
    constructed coprime roots."""
    if kind not in KINDS:
        raise ValueError(f"unknown corpus kind {kind!r}; choose from {KINDS}")
    rng = random.Random(seed)
    if kind == "finite-order":
        return _finite_order_problems(rng)
    if kind == "nilpotent":
        return _nilpotent_problems(rng)
    if kind == "random":
        return _random_problems(rng)
    return _powers_problems(rng)
