"""Spectral classification of integer operators, read off chi = char(T).

In Z[x], where chi, its radical and every Phi_k are monic: semisimplicity as
rad(chi)(T) = 0 (at once for a squarefree chi, as chi(T) = 0 is checked),
root-of-unity spectra via exhaustive cyclotomic trial division of chi (no
numerics: the candidate list with phi(k) <= n is provably complete) and
finite orders.  In Q[x]/(chi): the exact semisimple-plus-nilpotent
splitting by Newton iteration.

Fitting's kernel chain is read one step at a time: for P = T^m, ker P and
im P from one Hermite form and the determinant of their stacked bases,
square as the ranks add up to n.  It is nonzero exactly when the two meet
only in 0, which by Fitting's lemma is when the chain has stabilized, and
+-1 exactly when Z^n = ker P (+) im P, as a square integer matrix has all
invariant factors 1 exactly when its determinant is a unit.  Images need
not be direct summands, so this is a real test, not an assumption.

_Invariants is the one analysis of an operator: it checks the operator
once, and also holds the split T = 0 (+) (T on im T) at the first step and
at the stable exponent, one FittingSplit record each, the analysis of that
image part and the commutant, which verify, fitting, the certificates, the
root search and the divisibility spectrum read.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from math import lcm

from .exactalg import (IntMatrix, Lattice, QMatrix, _cyclotomic_indices, _kernel_and_image, _zdivmod, _zgcd,
                       _zradical, char_poly, cyclotomic, hnf, kernel_saturated, restrict_to_lattice)
from .primes import prime_factors


@dataclass(frozen=True)
class FittingSplit:
    """Fitting's split of T at exponent m: ker T^m, im T^m and the
    determinant of their stacked bases (nonzero once the chain is stable,
    +-1 when the split is direct), and T, kept to restrict it to im T^m."""

    exponent_m: int
    gen_kernel: Lattice
    image_part: Lattice
    det: int
    operator: IntMatrix = field(repr=False)

    @property
    def is_direct(self) -> bool:
        return abs(self.det) == 1

    # T^m maps Z^n / ker T^m onto im T^m, so |det of T on im T^m|^m =
    # [im T^m : T^m(im T^m)] = [Z^n : ker T^m (+) im T^m] = |det|: T is
    # invertible on the image part exactly when the split is direct.
    restriction_invertible = is_direct

    @cached_property
    def restriction(self) -> IntMatrix:
        """T on the basis of image_part (column vectors), built when first
        read and checked invertible by its own determinant when direct."""
        restriction = restrict_to_lattice(self.operator, self.image_part)
        if self.is_direct and abs(restriction.det()) != 1:
            raise AssertionError("restriction to the image part is not invertible")
        return restriction


class _Invariants:
    """The analysis of one square operator T and its module (None over Z):
    det, chi and its radical r (ascending int tuples), semisimplicity
    (r(T) = 0), the cyclotomic factorization of chi and whether T is
    torsion-spectral, the order, the split
    T = 0 (+) (T on im T) at Fitting's first and stable exponents, the image
    part's analysis, the commutant, and the powers of T, off one ladder of
    squares T, T^2, T^4, ...  The constructor checks that T is square and,
    given a module, that T commutes with its ring action; 0x0 is valid.
    Each invariant, and each square of the ladder, is computed on first
    use, at most once per instance; an analysis builds one instance and
    reads everything off it."""

    def __init__(self, T, module=None):
        if not T.is_square:
            raise ValueError("square matrix required")
        if module is not None:
            module.require_endomorphism(T)
        self.T = T
        self.module = module
        self._ladder = [T]  # T^(2^i) at index i

    def power(self, k: int) -> IntMatrix:
        """T^k for k >= 0: the product of the ladder squares T^(2^i) over the
        bits of k, the ladder extended by squaring its top as needed."""
        while len(self._ladder) < k.bit_length():
            self._ladder.append(self._ladder[-1] * self._ladder[-1])
        factors = [square for i, square in enumerate(self._ladder) if k >> i & 1]
        return reduce(IntMatrix.__mul__, factors) if factors else IntMatrix.identity(self.T.rows)

    @cached_property
    def det(self) -> int:
        return self.T.det()

    @cached_property
    def chi(self) -> tuple[int, ...]:
        return char_poly(self.T)

    @cached_property
    def radical(self) -> tuple[int, ...]:
        """rad(chi), monic in Z[x]."""
        return _zradical(self.chi)

    @cached_property
    def semisimple(self) -> bool:
        if self.radical == self.chi:  # squarefree: r(T) = chi(T) = 0
            return True
        return _scaled_eval(self.radical, self.T)[1].is_zero()

    @cached_property
    def factorization(self) -> tuple[tuple[int, int], ...] | None:
        """((k, multiplicity), ...) when chi is a product of cyclotomic
        polynomials, else None.  Every Phi_k(0) is +-1, so that needs
        |det T| = |chi(0)| = 1."""
        return _cyclotomic_factorization(self.chi) if abs(self.det) == 1 else None

    @cached_property
    def torsion_spectral(self) -> bool:
        """Every eigenvalue is 0 or a root of unity: chi is x^g times a
        product of cyclotomic polynomials, g = gen_kernel_rank."""
        return _cyclotomic_factorization(self.chi[self.gen_kernel_rank:]) is not None

    @cached_property
    def order(self) -> int | None:
        """Multiplicative order, or None for infinite order or a zero
        eigenvalue: the lcm d of the cyclotomic indices of a semisimple
        operator, re-verified as T^d = I and checked minimal as T^(d/p) != I
        for each prime p | d, every power exact and read off the ladder."""
        T = self.T
        if self.factorization is None or not self.semisimple:
            return None
        d = lcm(*(k for k, _ in self.factorization))
        eye = IntMatrix.identity(T.rows)
        if self.power(d) != eye:
            raise AssertionError("candidate order failed re-verification")
        for p in prime_factors(d):
            if self.power(d // p) == eye:
                raise AssertionError("candidate order not minimal")
        return d

    def _split_at(self, m: int) -> FittingSplit:
        """The chain's step at T^m, off the ladder: ker T^m and im T^m from
        one Hermite form and the determinant of their stacked bases."""
        kernel, image = _kernel_and_image(self.power(m))
        n, rows = self.T.rows, kernel.basis.entries + image.basis.entries
        if len(rows) != n * n:
            raise AssertionError("ranks of kernel and image do not add up to n")
        return FittingSplit(m, kernel, image, IntMatrix(n, n, rows).det(), self.T)

    @cached_property
    def split(self) -> FittingSplit:
        """The split at m = 1, direct exactly when Z^n = ker T (+) im T."""
        return self._split_at(1)

    @cached_property
    def fitting(self) -> FittingSplit:
        """The split at the exponent m where the chain stabilizes, is_direct
        reported, never presumed: split itself when the first step's
        determinant is nonzero.  Else, with chi = x^g h and h(0) != 0, h(T)
        is 0 on the invertible part and invertible on the generalised
        kernel, so m is the least m >= 1 with T^m h(T) = 0, at most g."""
        T, split = self.T, self.split
        if not split.det:
            g, m = self.gen_kernel_rank, 1
            P = T * _scaled_eval(self.chi[g:], T)[1]
            while not P.is_zero():
                P, m = T * P, m + 1
                if m > g:
                    raise AssertionError("kernel chain failed to stabilize within g steps")
            split = self._split_at(m)
            if not split.det:
                raise AssertionError("kernel chain not stable at the exponent read off chi")
        if not all(split.gen_kernel.contains(T.apply(v)) for v in split.gen_kernel.basis.nested()):
            raise AssertionError("kernel part not invariant")
        return split

    @cached_property
    def image_part(self) -> _Invariants:
        """The analysis of the matrix M of T on im T.  For det T != 0 it is
        self: in the basis Te_1, ..., Te_n of im T the restriction is T
        itself, so M is GL_n(Z)-conjugate to T and shares its det, chi,
        order and semisimplicity, all that is read off the image part.
        Else T maps Q^n into im T, so it induces 0 on the quotient and
        chi_T = x^k chi_M, k = rank ker T: chi_M is chi_T without that
        factor, once its k low coefficients are checked to be 0 and it
        agrees with tr M and det M."""
        if self.det:
            return self
        M = self.split.restriction
        part, k, m = _Invariants(M), self.split.gen_kernel.rank, M.rows
        chi = self.chi[k:]
        if any(self.chi[:k]) or (m and (chi[-2] != -M.trace() or chi[0] != (-1) ** m * part.det)):
            raise AssertionError("chi of the image part disagrees with its trace or determinant")
        part.chi = chi
        return part

    @cached_property
    def zero_plus_order(self) -> int | None:
        """The order of the invertible part when T is zero plus an
        invertible finite-order operator, else None."""
        return self.image_part.order if self.split.is_direct else None

    @cached_property
    def gen_kernel_rank(self) -> int:
        """The rank g of the generalised kernel of T: the multiplicity of
        the root 0 of chi_T."""
        return next(i for i, c in enumerate(self.chi) if c)

    @cached_property
    def commutant(self) -> Lattice:
        """C(T), or C(T) meet C(omega): the kernel of X -> (XM - MX for each
        M), X flattened row-major.  HNF first halves the cost of the kernel's
        augmented Hermite form: 0.27 s, not 0.56 s, for four random 8 x 8 T,
        and 6.3 s for a random 12 x 12 T (CPython 3.11, 2 cores)."""
        n = self.T.rows
        mats = (self.T,) if self.module is None else (self.T, self.module.omega_action)
        equations = [[(M[j, b] if a == i else 0) - (M[a, i] if j == b else 0)
                      for i in range(n) for j in range(n)]
                     for M in mats for a in range(n) for b in range(n)]
        return kernel_saturated(hnf(IntMatrix.from_rows(equations, cols=n * n)))


def _cyclotomic_factorization(p) -> tuple[tuple[int, int], ...] | None:
    """((k, multiplicity), ...) when the monic p in Z[x] is a product of
    cyclotomic polynomials, else None, by trial division by every Phi_k of
    degree at most deg p: the candidate list is complete."""
    remaining, factorization = p, []
    for k in _cyclotomic_indices(len(p) - 1):
        phi_k, e = cyclotomic(k), 0
        while len(remaining) >= len(phi_k):
            q, r = _zdivmod(remaining, phi_k)
            if r:
                break
            remaining, e = q, e + 1
        if e:
            factorization.append((k, e))
    return tuple(factorization) if len(remaining) == 1 else None


def is_semisimple(T) -> bool:
    """True iff rad(chi)(T) = 0, i.e. the minimal polynomial is squarefree
    (exact integer evaluation)."""
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

    Newton iteration p <- p - r(p) * r'(p)^{-1} on r = rad(chi), from p = x,
    runs in Q[x]/(chi), where r'(p) stays invertible (extended Euclid); as
    chi(T) = 0, S = p(T), evaluated once in integers.  Integrality of the
    output is not guaranteed and not claimed.
    """
    return _jordan_chevalley(_Invariants(T))


def _jordan_chevalley(inv: _Invariants) -> tuple[QMatrix, QMatrix]:
    T = inv.T
    n = T.rows
    if inv.semisimple:
        return QMatrix.from_int_matrix(T), QMatrix.zeros(n, n)
    # r(p) = 0 mod chi and chi(T) = 0 give r(S) = 0, r squarefree: S is semisimple.
    D, DS = _scaled_eval(_newton(inv.radical, inv.chi), T)
    DN = T * D - DS
    if not (DN ** n).is_zero():
        raise AssertionError("nilpotent part is not nilpotent")
    if DS * DN != DN * DS:
        raise AssertionError("parts do not commute")
    return (QMatrix(n, n, tuple(Fraction(e, D) for e in DS.entries)),
            QMatrix(n, n, tuple(Fraction(e, D) for e in DN.entries)))


def _newton(r: tuple[int, ...], chi: tuple[int, ...]) -> tuple:
    """The p in Q[x]/(chi) with r(p) = 0 and p = x mod r, r = rad(chi), as
    ascending int or Fraction coefficients."""
    if len(_zgcd(r, tuple(i * c for i, c in enumerate(r) if i))) > 1:
        raise AssertionError("radical of chi is not squarefree")
    # Quadratic convergence: chi divides r^n, so ceil(log2 n) + 2 steps
    # suffice; exceeding the cap is a bug, not an input property.
    cap = max(1, (len(chi) - 2).bit_length()) + 2
    p = (0, 1)
    for step in range(cap + 1):
        value = slope = ()  # r(p) and r'(p) mod chi, by Horner's rule
        for c in reversed(r):
            value, slope = (_zdivmod(_add(_mul(value, p), (c,)), chi)[1],
                            _zdivmod(_add(_mul(slope, p), value), chi)[1])
        if not value:
            return p
        if step == cap:
            raise AssertionError("Newton iteration failed to converge within the cap")
        p = _zdivmod(_add(p, _mul(value, _inverse_mod(slope, chi)), -1), chi)[1]


def _inverse_mod(a: tuple, m: tuple) -> tuple:
    """a^{-1} mod a monic m, by the extended Euclidean algorithm with every
    divisor made monic, so that _zdivmod divides exactly."""
    r0, r1, s0, s1 = m, a, (), (1,)
    while r1:
        lead = Fraction(r1[-1])
        r1, s1 = tuple(c / lead for c in r1), tuple(c / lead for c in s1)
        q, rem = _zdivmod(r0, r1)
        r0, r1, s0, s1 = r1, rem, s1, _add(s0, _mul(q, s1), -1)
    if r0 != (1,):
        raise AssertionError("r'(p) is not invertible modulo chi")
    return _zdivmod(s0, m)[1]


def _add(a: tuple, b: tuple, sign: int = 1) -> tuple:
    """a + sign * b, trailing zeros trimmed."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += sign * c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _scaled_eval(coeffs, T: IntMatrix) -> tuple[int, IntMatrix]:
    """(D, D p(T)) for p's ascending int or Fraction coefficients and D the
    lcm of their denominators, by Horner's rule in Z."""
    D = lcm(*(c.denominator for c in coeffs))
    acc, eye = IntMatrix.zeros(T.rows, T.rows), IntMatrix.identity(T.rows)
    for c in reversed(coeffs):
        acc = acc * T + eye * (c * D).numerator
    return D, acc


# A report record: serialize writes it as the dict of its fields, so a
# field's name is its JSON key.
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
    inv = _Invariants(T, module)
    factorization = inv.factorization
    order = inv.order
    if (order is not None) != (inv.semisimple and factorization is not None):
        raise AssertionError("order disagrees with semisimplicity and spectrum")
    S, N = _jordan_chevalley(inv)
    return ClassifyReport(inv.semisimple, factorization is not None, order, factorization, S, N)
