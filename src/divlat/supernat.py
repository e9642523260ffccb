"""Supernatural numbers, prime sets, and symbolic exponent-set descriptors.

A supernatural number is a formal product of prime powers whose exponents may
be infinite.  Exponent sets (the "S" in S-divisibility questions) are kept
symbolic so that the prime set Pi_S and the additive divisibility hypothesis
can be decided exactly instead of estimated from samples.
"""
from __future__ import annotations

import math
from functools import lru_cache

from ._record import Record
from .primes import is_prime, prime_factors

# Infinite-exponent sentinel.  Never encode infinity as a big integer: every
# operation below treats INF absorbingly.
INF = math.inf

Exponent = int | float


def _check_prime(p) -> int:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"not a prime: {p!r}")
    return p


def _check_exponent(e) -> Exponent:
    if e == INF:
        return INF
    if isinstance(e, int) and not isinstance(e, bool) and e >= 1:
        return e
    raise ValueError(f"bad exponent {e!r}: want a positive integer or INF")


class Supernatural(Record):
    """Formal product prod_p p^(e_p) with e_p a positive integer or INF.

    Canonical form: ``factors`` is sorted by prime and never stores a zero
    exponent, so equality is plain tuple comparison.
    """

    factors: tuple[tuple[int, Exponent], ...] = ()

    def __post_init__(self):
        last = 0
        for p, e in self.factors:
            _check_prime(p)
            _check_exponent(e)
            if p <= last:
                raise ValueError("factors must be sorted by prime, duplicate-free")
            last = p

    @classmethod
    def of(cls, factors: dict[int, Exponent]) -> "Supernatural":
        items = tuple(sorted((p, e) for p, e in factors.items() if e != 0))
        return cls(items)

    def nu(self, p: int) -> Exponent:
        """p-adic valuation; 0 for primes absent from the product."""
        return dict(self.factors).get(_check_prime(p), 0)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for p, e in self.factors:
            if e == 1:
                parts.append(str(p))
            elif e == INF:
                parts.append(f"{p}^inf")
            else:
                parts.append(f"{p}^{e}")
        return "*".join(parts)


def _merge(a: Supernatural, b: Supernatural, combine) -> Supernatural:
    """combine on the exponents of each prime; of proves each prime once."""
    fa, fb = dict(a.factors), dict(b.factors)
    return Supernatural.of({p: combine(fa.get(p, 0), fb.get(p, 0)) for p in fa.keys() | fb.keys()})


def lcm_sn(a: Supernatural, b: Supernatural) -> Supernatural:
    return _merge(a, b, max)


def gcd_sn(a: Supernatural, b: Supernatural) -> Supernatural:
    return _merge(a, b, min)


def mul_sn(a: Supernatural, b: Supernatural) -> Supernatural:
    return _merge(a, b, lambda x, y: x + y)


# ---------------------------------------------------------------------------
# Prime sets


class PrimeSet(Record):
    """A set of primes: the finite set ``primes`` or, when ``cofinite``,
    every prime except ``primes``."""

    cofinite: bool
    primes: tuple[int, ...] = ()

    def __post_init__(self):
        last = 0
        for p in self.primes:
            _check_prime(p)
            if p <= last:
                raise ValueError("prime list must be sorted and duplicate-free")
            last = p

    @classmethod
    def finite(cls, primes) -> "PrimeSet":
        return cls(False, tuple(sorted(set(primes))))

    @classmethod
    def all_primes(cls) -> "PrimeSet":
        return cls(True)

    @classmethod
    def all_except(cls, primes) -> "PrimeSet":
        return cls(True, tuple(sorted(set(primes))))

    def contains(self, p: int) -> bool:
        _check_prime(p)
        return (p in self.primes) != self.cofinite

    def is_empty(self) -> bool:
        return not self.cofinite and not self.primes

    def intersect(self, other: "PrimeSet") -> "PrimeSet":
        if not self.cofinite:
            return PrimeSet.finite(p for p in self.primes if other.contains(p))
        if not other.cofinite:
            return other.intersect(self)
        return PrimeSet.all_except(set(self.primes) | set(other.primes))

    def __str__(self) -> str:
        listed = "{" + ", ".join(map(str, self.primes)) + "}"
        if not self.cofinite:
            return listed
        return f"all primes except {listed}" if self.primes else "all primes"


# ---------------------------------------------------------------------------
# Exponent-set descriptors


class FiniteSet(Record):
    """An explicit finite exponent set."""

    elements: tuple[int, ...]

    infinite = False

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        if not elems:
            raise ValueError("the exponent set is empty")
        if elems[0] < 1:
            raise ValueError("elements must be positive integers")
        object.__setattr__(self, "elements", elems)

    def contains(self, s: int) -> bool:
        return s in self.elements


class Geometric(Record):
    """The set {scale * base^j : j >= 0}."""

    base: int
    scale: int = 1

    infinite = True

    def __post_init__(self):
        if self.base < 2 or self.scale < 1:
            raise ValueError("need base >= 2 and scale >= 1")

    def contains(self, s: int) -> bool:
        if s < self.scale or s % self.scale:
            return False
        q = s // self.scale
        while q % self.base == 0:
            q //= self.base
        return q == 1


class Factorials(Record):
    """The set {j! : j >= 1}."""

    infinite = True

    def contains(self, s: int) -> bool:
        f, j = 1, 1
        while f < s:
            j += 1
            f *= j
        return f == s


class Residue(Record):
    """The set {n > 0 : n == a (mod m)}."""

    a: int
    m: int

    infinite = True

    def __post_init__(self):
        if self.m < 1 or not 0 <= self.a < self.m:
            raise ValueError("need m >= 1 and 0 <= a < m")

    def contains(self, s: int) -> bool:
        return s > 0 and s % self.m == self.a


class AllFrom(Record):
    """The set {n : n >= start}."""

    start: int

    infinite = True

    def __post_init__(self):
        if self.start < 1:
            raise ValueError("need start >= 1")

    def contains(self, s: int) -> bool:
        return s >= self.start


SDescriptor = FiniteSet | Geometric | Factorials | Residue | AllFrom


@lru_cache(maxsize=None)
def pi_S(S: SDescriptor) -> PrimeSet:
    """Primes whose valuation over the described set is unbounded.

    Decided symbolically per descriptor variant; finite sets have a finite
    lcm, so the question is rejected for them.  Descriptors are frozen and
    the result is immutable, so each is decided once per process.
    """
    if isinstance(S, FiniteSet):
        raise ValueError("Pi_S undefined for finite S")
    if isinstance(S, Geometric):
        return PrimeSet.finite(prime_factors(S.base))
    if isinstance(S, (Factorials, AllFrom)):
        return PrimeSet.all_primes()
    if isinstance(S, Residue):
        # p has unbounded valuation over {n > 0 : n == a mod m} iff the class
        # contains a multiple of p^k for every k.  By CRT that solvability is
        # gcd(m, p^k) | a, and gcd(m, p^k) stabilizes at p^nu_p(m), so the
        # condition collapses to p^nu_p(m) | a.  Primes not dividing m always
        # qualify.
        bad = []
        for p, e in prime_factors(S.m).items():
            if S.a % p ** e != 0:
                bad.append(p)
        return PrimeSet.all_except(bad)
    raise TypeError(f"unknown descriptor {S!r}")


def additive_hypothesis(S: SDescriptor, lchar: PrimeSet) -> bool:
    """Whether valuations of S diverge across the given local characteristics.

    The sum over p in lchar of sup_{s in S} nu_p(s) is infinite iff either
    some p in lchar has unbounded valuation (p in Pi_S), or infinitely many
    primes of lchar divide elements of S.  For every supported infinite
    descriptor the primes dividing elements split into Pi_S plus finitely
    many extras (divisors of the scale, or of the modulus), so the second
    branch is subsumed by the first and the check reduces to
    Pi_S intersect lchar being nonempty.
    """
    if isinstance(S, FiniteSet):
        raise ValueError("additive hypothesis undefined for finite S")
    return not pi_S(S).intersect(lchar).is_empty()
