"""Spectral classification of integer operators.

Semisimplicity via squarefree minimal polynomials, root-of-unity spectra via
exhaustive cyclotomic trial division (no numerics: the candidate list with
phi(k) <= n is provably complete), finite orders, and the exact
semisimple-plus-nilpotent splitting computed by Newton iteration.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .exactalg import (
    IntMatrix,
    QMatrix,
    cyclotomics_up_to_degree,
    char_poly,
    min_poly,
    poly_gcd,
    squarefree_part,
)
from .primes import prime_factors


class _Invariants:
    """The invariants of one square operator that the public analyses read:
    det, mu, semisimplicity, the cyclotomic factorization of chi and the
    order.  Each is computed on first use, at most once per instance; an
    analysis builds one instance and passes it down."""

    def __init__(self, T):
        if not T.is_square:
            raise ValueError("square matrix required")
        self.T = T

    @cached_property
    def det(self) -> int:
        return self.T.det()

    @cached_property
    def mu(self):
        return min_poly(self.T)

    @cached_property
    def semisimple(self) -> bool:
        return poly_gcd(self.mu, self.mu.derivative()).degree <= 0

    @cached_property
    def factorization(self) -> tuple[tuple[int, int], ...] | None:
        """((k, multiplicity), ...) when chi is a product of cyclotomic
        polynomials, else None (always None with a zero eigenvalue)."""
        if self.T.rows == 0:
            return ()
        if self.det == 0:
            return None
        remaining = char_poly(self.T)
        factorization = []
        for k, phi_k in cyclotomics_up_to_degree(self.T.rows):
            e = 0
            while remaining.degree >= phi_k.degree:
                q, r = divmod(remaining, phi_k)
                if not r.is_zero():
                    break
                remaining = q
                e += 1
            if e:
                factorization.append((k, e))
        return tuple(factorization) if remaining.degree == 0 else None

    @cached_property
    def order(self) -> int | None:
        """Multiplicative order, or None for infinite order or a zero
        eigenvalue: the lcm of the cyclotomic indices of a semisimple
        operator, re-verified by exact exponentiation and checked minimal
        over the maximal proper divisors."""
        T = self.T
        if T.rows == 0:
            return 1
        if self.det == 0 or not self.semisimple or self.factorization is None:
            return None
        d = lcm(*(k for k, _ in self.factorization))
        eye = IntMatrix.identity(T.rows)
        if T ** d != eye:
            raise AssertionError("candidate order failed re-verification")
        for p in prime_factors(d):
            if T ** (d // p) == eye:
                raise AssertionError("candidate order not minimal")
        return d


def is_semisimple(T) -> bool:
    """True iff the minimal polynomial is squarefree (exact gcd test)."""
    return _Invariants(T).semisimple


def roots_of_unity_spectrum(T: IntMatrix):
    """Try to factor char(T) as a product of cyclotomic polynomials.

    Returns (True, ((k, multiplicity), ...)) on success and (False, None)
    when a non-cyclotomic factor remains.  Requires det T != 0.
    """
    inv = _Invariants(T)
    if T.rows and inv.det == 0:
        raise ValueError("zero eigenvalue: not invertible")
    return inv.factorization is not None, inv.factorization


def finite_order(T: IntMatrix) -> int | None:
    """Multiplicative order of T, or None when T has infinite order or a
    zero eigenvalue."""
    return _Invariants(T).order


def jordan_chevalley(T: IntMatrix) -> tuple[QMatrix, QMatrix]:
    """Exact additive splitting T = S + N with S semisimple, N nilpotent,
    S N = N S, both rational polynomials in T.

    Newton iteration x <- x - mu(x) * mu'(x)^{-1} on the squarefree part mu
    of the minimal polynomial; mu'(x) stays invertible over Q along the way
    and every iterate lives in the commutative algebra Q[T].  Integrality of
    the output is not guaranteed and not claimed.
    """
    return _jordan_chevalley(_Invariants(T))


def _jordan_chevalley(inv: _Invariants) -> tuple[QMatrix, QMatrix]:
    T = inv.T
    n = T.rows
    X = QMatrix.from_int_matrix(T)
    if n == 0:
        return X, X
    reduced = squarefree_part(inv.mu)
    reduced_d = reduced.derivative()
    if poly_gcd(reduced, reduced_d).degree > 0:
        raise AssertionError("squarefree part of mu is not squarefree")
    # Quadratic convergence: the nilpotency degree is at most n, so
    # ceil(log2 n) + 2 steps suffice; exceeding the cap is a bug, not an
    # input property.
    cap = max(1, (n - 1).bit_length()) + 2
    for step in range(cap + 1):
        value = reduced.eval_matrix(X)
        if value.is_zero():
            break
        if step == cap:
            raise AssertionError("Newton iteration failed to converge within the cap")
        X = X - value * reduced_d.eval_matrix(X).inverse()
    # reduced(S) = 0 with reduced squarefree: S is semisimple.
    S = X
    N = QMatrix.from_int_matrix(T) - S
    if not (N ** n).is_zero():
        raise AssertionError("nilpotent part is not nilpotent")
    if S * N != N * S:
        raise AssertionError("parts do not commute")
    return S, N


@dataclass(frozen=True)
class ClassifyReport:
    semisimple: bool
    all_eigen_roots_of_unity: bool
    order: int | None
    cyclotomic_factorization: tuple[tuple[int, int], ...] | None
    jordan_semisimple_part: QMatrix
    jordan_nilpotent_part: QMatrix


def classify_operator(T: IntMatrix, module=None) -> ClassifyReport:
    """Full spectral report for one operator."""
    if not T.is_square:
        raise ValueError("square matrix required")
    if module is not None:
        module.require_endomorphism(T)
    inv = _Invariants(T)
    factorization = inv.factorization
    order = inv.order
    if (order is not None) != (inv.semisimple and factorization is not None):
        raise AssertionError("order disagrees with semisimplicity and spectrum")
    S, N = _jordan_chevalley(inv)
    return ClassifyReport(inv.semisimple, factorization is not None, order, factorization, S, N)


@dataclass(frozen=True)
class UnipotentCheck:
    """Finite-evidence verdict for divisibility of a unipotent operator."""

    is_identity: bool
    witness_reports: tuple[tuple[int, str], ...]
    max_verified_s: int | None
    note: str


def unipotent_divisible_is_identity_check(T: IntMatrix, witnesses) -> UnipotentCheck:
    """Check supplied root witnesses of a unipotent operator.

    Witnesses may be rational matrices; non-integral ones are rejected in
    the verdict (a root taken outside the integers does not witness
    divisibility in the endomorphism ring).  An integral witness that fails
    re-multiplication is an error naming the offending exponent.
    """
    if not T.is_square:
        raise ValueError("square matrix required")
    n = T.rows
    eye = IntMatrix.identity(n)
    if not ((T - eye) ** n).is_zero():
        raise ValueError("operator is not unipotent")
    reports = []
    max_verified = None
    for s, X in witnesses:
        if s < 2:
            raise ValueError(f"witness exponent {s} must be at least 2")
        if isinstance(X, QMatrix):
            if not X.is_integral():
                reports.append((s, "rejected: witness not integral"))
                continue
            X = X.to_int_matrix()
        if X ** s != T:
            raise ValueError(f"witness for s={s} fails re-multiplication")
        reports.append((s, "verified"))
        max_verified = s if max_verified is None else max(max_verified, s)
    if T == eye:
        note = "operator is the identity; every verified witness is consistent"
    elif max_verified is not None:
        note = (
            f"unipotent, not the identity, with divisibility verified up to s={max_verified}; "
            "no integral witness family can cover exponents with unbounded prime support"
        )
    else:
        note = "unipotent, not the identity; no witnesses verified"
    return UnipotentCheck(T == eye, tuple(reports), max_verified, note)
