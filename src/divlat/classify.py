"""Spectral classification of integer operators, read off chi = char(T).

In Z[x], where chi, its radical and every Phi_k are monic: semisimplicity as
rad(chi)(T) = 0 (at once for a squarefree chi, as chi(T) = 0 holds by
Cayley-Hamilton), root-of-unity spectra via exhaustive cyclotomic trial
division of chi (no numerics: the candidate list with phi(k) <= n is
provably complete) and finite orders.  In Q[x]/(chi): the exact
semisimple-plus-nilpotent splitting by Newton iteration, its parts int
matrices when no denominator arises.

chi is read with the orbit v, T v, ..., T^n v of v = (1, ..., n).  When v
is cyclic, chi comes from one Krylov solve and is proven: it is mu_T, so
T is nonderogatory.  Then T is semisimple exactly when chi is squarefree,
a singular T has rank ker T = 1, and chi is an annihilator a, as is
rad(chi) once r(T) = 0 has been multiplied out.  With a, the order d is
certified by polynomials: T^d = I as a | x^d - 1, and T^(d/p) != I as
(x^(d/p) mod a)(T) v != v.  A claim p(T) != 0 is first tried on v: a
nonzero p(T) v, read off the orbit, proves it with no product, and only a
claimed zero is multiplied out in full.  So a non-semisimple T is told
apart by r(T) v != 0.

Fitting's kernel chain is read one step at a time: for P = T^m, ker P and
im P from one Hermite form and the determinant of their stacked bases,
square as the ranks add up to n.  It is nonzero exactly when the two meet
only in 0, which by Fitting's lemma is when the chain has stabilized, and
+-1 exactly when Z^n = ker P (+) im P, as a square integer matrix has all
invariant factors 1 exactly when its determinant is a unit.  Images need
not be direct summands, so this is a real test, not an assumption.  For
det T != 0 the first step needs no such form: ker T = 0 and
[Z^n : im T] = |det T|, so that determinant is |det T|, read without a
lattice, and im T, when its basis is read, is the n x n Hermite form of
T^t.  For a singular T the chain is entered at the least m_v with
T^m_v h(T) v = 0, chi = x^g h, where it typically stops: one Hermite form.

The split T = 0 (+) (T on im T) needs no lattice where only its facts are
read.  With k = rank ker T, 1 for a cyclic v, else off one fraction-free
elimination of T and certified by k vectors T kills, T induces 0 on
Q^n / im T, so chi_T = x^k chi_M for M = T on im T.  M is then read off
chi_M: |det M| = [Z^n : ker T (+) im T], 0 when the two meet; M is
semisimple when rad(chi_M)(T) T = 0, which for a cyclic v is when chi_M
is squarefree; its order d is certified as T^(d+1) = T and
T^(d/p+1) != T, off the annihilator as above.  Only Fitting's split,
which prints its lattices, builds them.

_Invariants is the one analysis of an operator: it checks the operator
once, and also holds the split T = 0 (+) (T on im T) at the first step and
at the stable exponent, one FittingSplit record each, the image part's
facts and the commutant, which verify, fitting, the certificates, the
root search and the divisibility spectrum read.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from math import gcd, lcm
from operator import mul

from ._record import Record
from .exactalg import (IntMatrix, Lattice, QMatrix, _back_substitute, _bareiss, _chi_and_orbit, _cyclotomic_indices,
                       _identity, _kernel_and_image, _saturation, _tuple_det, _tuple_mul, _zdivmod, _zgcd, _zradical,
                       cyclotomic, hnf, restrict_to_lattice)
from .primes import prime_factors


class FittingSplit(Record):
    """Fitting's split of T at exponent m: ker T^m, im T^m and the
    determinant of their stacked bases (nonzero once the chain is stable,
    +-1 when the split is direct), and T, kept to restrict it to im T^m."""

    exponent_m: int
    gen_kernel: Lattice
    image_part: Lattice
    det: int
    operator: IntMatrix

    _repr_fields = ("exponent_m", "gen_kernel", "image_part", "det")  # the repr leaves out T

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
    det, chi and its radical r (ascending int tuples), the orbit of
    v = (1, ..., n), whether v is cyclic and a proven annihilator, when
    there is one, semisimplicity (r(T) = 0), the cyclotomic factorization
    of chi and whether T is torsion-spectral, the order, the split
    T = 0 (+) (T on im T) at Fitting's first and stable exponents, the facts
    of the image part M = T on im T that verify and the divisibility
    spectrum read (split_det, chi, det, semisimplicity and order of M, all
    read off chi_T and T with no lattice built), the commutant, and the
    powers of T, off one ladder of squares T, T^2, T^4, ...  The
    constructor checks that T is square and, given a module, that T
    commutes with its ring action; 0x0 is valid.
    Each invariant, each square of the ladder and each power is computed
    on first use, at most once per instance; an analysis builds one
    instance and reads everything off it."""

    def __init__(self, T, module=None):
        if not T.is_square:
            raise ValueError("square matrix required")
        if module is not None:
            module.require_endomorphism(T)
        self.T = T
        self.module = module
        self._ladder = [T.entries]  # the entries of T^(2^i) at index i
        self._powers = {}  # T^k by k

    def power(self, k: int) -> IntMatrix:
        """T^k for k >= 0: the product of the ladder squares T^(2^i) over the
        bits of k, the ladder extended by squaring its top as needed, all as
        entry tuples; one IntMatrix is built per power, kept by k."""
        power = self._powers.get(k)
        if power is None:
            n, ladder = self.T.rows, self._ladder
            while len(ladder) < k.bit_length():
                ladder.append(_tuple_mul(ladder[-1], ladder[-1], n, n, n))
            factors = [square for i, square in enumerate(ladder) if k >> i & 1]
            entries = reduce(lambda a, b: _tuple_mul(a, b, n, n, n), factors) if factors else _identity(n)
            power = self._powers[k] = IntMatrix(n, n, entries)
        return power

    @cached_property
    def det(self) -> int:
        return self.T.det()

    @cached_property
    def chi(self) -> tuple[int, ...]:
        """chi_T, read with the orbit v, T v, ..., T^n v of v = (1, ..., n)
        and whether v is cyclic (_chi_and_orbit), both kept here, so chi is
        read before either.  A cyclic v makes chi = mu_T, proven, the
        annihilator that the order checks divide."""
        chi, self.orbit, self.cyclic = _chi_and_orbit(self.T)
        self.annihilator = chi if self.cyclic else None
        return chi

    def _at_v(self, p) -> list[int]:
        """p(T) v for deg p <= n, as sum p_i T^i v off the orbit: no
        product.  A nonzero p(T) v proves p(T) != 0."""
        return [sum(map(mul, p, coordinate)) for coordinate in zip(*self.orbit)]

    @cached_property
    def radical(self) -> tuple[int, ...]:
        """rad(chi), monic in Z[x]."""
        return _zradical(self.chi)

    @cached_property
    def semisimple(self) -> bool:
        """r(T) = 0 (_semisimple)."""
        return self._semisimple(self.chi, self.radical, 0)

    def _semisimple(self, chi, radical, shift: int) -> bool:
        """Whether a(T) = 0 for a = x^shift rad(chi), chi = chi_T (shift 0)
        or chi_M (shift 1, M = T on im T, whose semisimplicity this is, as
        the columns of T span im T): at once for a squarefree chi, by
        Cayley-Hamilton for T or M.  Else False for a cyclic v, as T and M
        are then nonderogatory, and False when a(T) v != 0, read off the
        orbit.  Else a(T) is multiplied out, and a zero makes a the proven
        annihilator."""
        if radical == chi:
            return True
        a = (0,) * shift + radical
        if self.cyclic or any(self._at_v(a)) or not _scaled_eval(a, self.T)[1].is_zero():
            return False
        self.annihilator = a
        return True

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
        operator, certified as T^d = I and T^(d/p) != I for each prime
        p | d (_checked_order)."""
        if self.factorization is None or not self.semisimple:
            return None
        return self._checked_order(self.factorization, 0)

    def _checked_order(self, factorization, shift: int) -> int:
        """The lcm d of the indices of a cyclotomic factorization, certified
        as T^(d + shift) = T^shift and minimal as T^(d/p + shift) != T^shift
        for each prime p | d.  With a proven annihilator a, the first
        follows from a | x^shift (x^d - 1), and each of the others from
        q(T) v != T^shift v, q = x^(d/p + shift) mod a, read off the orbit.
        A power is multiplied out, off the ladder, only where no annihilator
        is proven, a does not divide or the vector test is inconclusive.
        T^(d+1) = T is then kept, so the coprime roots' precondition needs
        no product."""
        d, a = lcm(*(k for k, _ in factorization)), self.annihilator
        x_shift = None if a is None else _xpow_mod(shift, a)
        if a is None or _xpow_mod(d + shift, a) != x_shift:
            if self.power(d + shift) != self.power(shift):
                raise AssertionError("candidate order failed re-verification")
        for p in prime_factors(d):
            if a is None or not any(self._at_v(_add(_xpow_mod(d // p + shift, a), x_shift, -1))):
                if self.power(d // p + shift) == self.power(shift):
                    raise AssertionError("candidate order not minimal")
        self._powers.setdefault(d + 1, self.T)
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
        """The split at m = 1, direct exactly when Z^n = ker T (+) im T.
        For det T != 0, ker T = 0 and im T is the row Hermite form of T^t,
        n x n, whose determinant, the product of its pivots, is
        [Z^n : im T] = |det T|: the same canonical lattices and determinant
        as _split_at(1), which a singular T takes."""
        T, n = self.T, self.T.rows
        if not self.det:
            return self._split_at(1)
        image = hnf(IntMatrix(n, n, tuple(x for j in range(n) for x in T.column(j))))
        return FittingSplit(1, Lattice(n, IntMatrix(0, n, ())), Lattice(n, image), abs(self.det), T)

    @cached_property
    def split_det(self) -> int:
        """|split.det| = [Z^n : ker T (+) im T], or 0 when ker T and im T
        meet, so the split is direct exactly when it is 1: |det M| for M
        the matrix of T on im T, as T maps Z^n / ker T onto im T
        (FittingSplit.restriction_invertible).  For det T != 0 it is
        |det T| (Cohen, GTM 138, 2.4).  No lattice is built."""
        return abs(self.image_det)

    @cached_property
    def fitting(self) -> FittingSplit:
        """The split at the exponent m where the chain stabilizes, is_direct
        reported, never presumed: split itself when det T != 0.  Else, with
        chi = x^g h and h(0) != 0, h(T) is 0 on the invertible part, so
        w = h(T) v, for v = (1, ..., n), lies in the generalised kernel, and
        the least m_v with T^m_v w = 0 is at most the stable exponent, which
        is at most g.  The chain is read from m = max(m_v, 1) up to the first
        step with a nonzero determinant, the stability certificate.  Below
        it, T^(m_v - 1) w != 0 or the zero determinant one step down shows
        that the chain still grows.  Only matrix-vector products reach m_v;
        typically m = m_v, one chain step."""
        T = self.T
        if self.det:
            split = self.split
        else:
            g = self.gen_kernel_rank
            w, m = self._at_v(self.chi[g:]), 0
            while any(w):
                w, m = T.apply(w), m + 1
                if m > g:
                    raise AssertionError("kernel chain failed to stabilize within g steps")
            m = max(m, 1)
            split = self.split if m == 1 else self._split_at(m)
            while not split.det:
                m += 1
                if m > g:
                    raise AssertionError("kernel chain failed to stabilize within g steps")
                split = self._split_at(m)
        if not all(split.gen_kernel.contains(T.apply(v)) for v in split.gen_kernel.basis.nested()):
            raise AssertionError("kernel part not invariant")
        return split

    @cached_property
    def image_chi(self) -> tuple[int, ...]:
        """chi_M for M the matrix of T on im T, read off chi_T: T maps Q^n
        into im T, so it induces 0 on the quotient and chi_T = x^k chi_M,
        k = n - r, r = rank T.  For det T != 0 it is chi_T.  For a cyclic v,
        T is nonderogatory, so k = 1 and chi_M = chi_T / x, with no
        elimination.  Else r, and row and column sets I and J with T[I, J]
        nonsingular, come from one fraction-free elimination of T, and
        chi_T, whose x^(n-1) coefficient _chi_and_orbit has checked against
        -tr T, is checked to have k zero low coefficients and against
        det (T^2)[I, J] = (-1)^r chi_T(k) det T[I, J]: with C = T[:, J], a
        Q-basis of im T, T C = C M' for an M' similar to M over Q, whose
        rows I read T[I, :] T[:, J] = T[I, J] M'.  The nonsingular minor
        shows rank T >= r; rank T <= r is shown by k vectors T kills,
        multiplied out in full: for each column j outside J, the solution
        of the echelon rows by back-substitution with det T[I, J] at j and
        0 at the other columns outside J."""
        T, n, chi = self.T, self.T.rows, self.chi
        if self.det:
            return chi
        if self.cyclic:
            if chi[0]:
                raise AssertionError("chi of the image part: chi_T(0) != 0 for a singular T")
            return chi[1:]
        a = [list(T.row(i)) for i in range(n)]
        J, origin, _ = _bareiss(a, n)
        r, I = len(J), sorted(origin[: len(J)])
        k = n - r
        if any(chi[:k]):
            raise AssertionError(f"chi of the image part: x^{k} does not divide chi_T, k = rank ker T")
        rows_I = tuple(x for i in I for x in T.row(i))
        columns_J = tuple(T[i, j] for i in range(n) for j in J)
        minor = _tuple_det(tuple(T[i, j] for i in I for j in J), r)
        if not minor or _tuple_det(_tuple_mul(rows_I, columns_J, r, n, r), r) != (-1) ** r * chi[k] * minor:
            raise AssertionError("chi of the image part: chi_T disagrees with det (T^2)[I, J] / det T[I, J]")
        if not all(a[i][j] for i, j in enumerate(J)):
            raise AssertionError("chi of the image part: an echelon row of T has a zero pivot")
        for j in sorted(set(range(n)) - set(J)):
            v = [0] * n
            v[j] = minor
            if any(T.apply(_back_substitute(a, J, v))):
                raise AssertionError(f"chi of the image part: T does not kill the kernel vector of column {j}, "
                                     f"so rank T is not {r}")
        return chi[k:]

    @cached_property
    def image_det(self) -> int:
        """det M = (-1)^r chi_M(0), r = rank T: det T when det T != 0."""
        return self.det or (-1) ** (len(self.image_chi) - 1) * self.image_chi[0]

    @cached_property
    def image_semisimple(self) -> bool:
        """Whether M is semisimple: semisimple when det T != 0, else when
        T rad(chi_M)(T) = 0 (_semisimple)."""
        if self.det:
            return self.semisimple
        return self._semisimple(self.image_chi, _zradical(self.image_chi), 1)

    @cached_property
    def image_order(self) -> int | None:
        """The order of M, or None for infinite order or a zero eigenvalue:
        order when det T != 0.  Else the lcm d of the cyclotomic indices of
        chi_M for a semisimple M, certified (_checked_order) as
        T^(d+1) = T, which is M^d = I on the columns of T, and minimal as
        T^(d/p+1) != T for each prime p | d: by the annihilator chi = x chi_M
        for a cyclic v or x rad(chi_M) once image_semisimple has multiplied
        it out, else in the matrix ring."""
        if self.det:
            return self.order
        chi = self.image_chi
        factorization = _cyclotomic_factorization(chi) if abs(chi[0]) == 1 else None
        if factorization is None or not self.image_semisimple:
            return None
        return self._checked_order(factorization, 1)

    @cached_property
    def zero_plus_order(self) -> int | None:
        """The order of M when T is zero plus an invertible finite-order
        operator, else None: the split and M's order are read off chi_T,
        with no lattice built."""
        return self.image_order if self.split_det == 1 else None

    @cached_property
    def gen_kernel_rank(self) -> int:
        """The rank g of the generalised kernel of T: the multiplicity of
        the root 0 of chi_T."""
        return next(i for i, c in enumerate(self.chi) if c)

    @cached_property
    def commutant(self) -> Lattice:
        """C(T), or C(T) meet C(omega): the saturation of hnf(B) for a
        rational basis B of the rational commutant, C_Q meet M_n(Z), a
        canonical lattice (_saturation).  When T, or over a module omega, is
        nonderogatory, the Hermite form of I, M, ..., M^(n-1), each
        flattened to a row of length n^2, has rank n, and B is those powers:
        C_Q(M) = Q[M], and the other matrix of the pair commutes with M, so
        it lies in Q[M].  Else B comes from one fraction-free elimination
        (_bareiss) of the commutator equations X -> (XM - MX for each M),
        X flattened row-major: for each free column j, the kernel vector
        back-substituted with the last pivot, +-det of the r x r minor the
        elimination found (1 when r = 0), at j and 0 at the other free
        columns, integral by Cramer's rule.  Each such X is checked to
        commute with T and omega, a failure raising AssertionError, and is
        divided by its content, which leaves its span and the saturation
        as they are and keeps hnf(B) small."""
        mats = (self.T,) if self.module is None else (self.T, self.module.omega_action)
        n = self.T.rows
        for M in mats:
            powers = [_identity(n)]
            for _ in range(n - 1):
                powers.append(_tuple_mul(powers[-1], M.entries, n, n, n))
            H = hnf(IntMatrix(n, n * n, tuple(chain.from_iterable(powers))))
            if not n or any(H.row(n - 1)):
                break
        else:
            a = [[(M[j, b] if c == i else 0) - (M[c, i] if j == b else 0) for i in range(n) for j in range(n)]
                 for M in mats for c in range(n) for b in range(n)]
            J = _bareiss(a, n * n)[0]
            scale = a[len(J) - 1][J[-1]] if J else 1
            basis = [_back_substitute(a, J, [scale * (i == j) for i in range(n * n)])
                     for j in sorted(set(range(n * n)) - set(J))]
            for x in basis:
                if any(_tuple_mul(x, M.entries, n, n, n) != _tuple_mul(M.entries, x, n, n, n) for M in mats):
                    raise AssertionError("a kernel vector of the commutator equations does not commute with T or omega")
            H = hnf(IntMatrix.from_rows([[c // gcd(*x) for c in x] for x in basis], cols=n * n))
        return _saturation(H)


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
    chi(T) = 0, S = p(T), evaluated once in integers.  For chi = x^n the
    first step gives p = 0, so S = 0 and N = T with no step run.
    Integrality of the output is not guaranteed and not claimed.
    """
    return _jordan_chevalley(_Invariants(T))


def _jordan_chevalley(inv: _Invariants) -> tuple[QMatrix, QMatrix]:
    T = inv.T
    n = T.rows
    if inv.semisimple:
        return QMatrix.from_int_matrix(T), QMatrix.zeros(n, n)
    if inv.radical == (0, 1):
        # Newton's first step from p = x is x - x / 1 = 0.  T^n = 0 is chi(T) = 0: proven for a cyclic v
        # (chi = mu_T), multiplied out off the ladder otherwise.
        if not inv.cyclic and not inv.power(n).is_zero():
            raise AssertionError("nilpotent part is not nilpotent")
        return QMatrix.zeros(n, n), QMatrix.from_int_matrix(T)
    # r(p) = 0 mod chi and chi(T) = 0 give r(S) = 0, r squarefree: S is semisimple.
    D, DS = _scaled_eval(_newton(inv.radical, inv.chi), T)
    DN = T * D - DS
    if not (DN ** n).is_zero():
        raise AssertionError("nilpotent part is not nilpotent")
    if DS * DN != DN * DS:
        raise AssertionError("parts do not commute")
    if D == 1:
        return QMatrix(n, n, DS.entries), QMatrix(n, n, DN.entries)
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


def _xpow_mod(e: int, a: tuple) -> tuple:
    """x^e mod a monic a in Z[x], by repeated squaring."""
    result, square = (1,), (0, 1)
    while e:
        if e & 1:
            result = _zdivmod(_mul(result, square), a)[1]
        e >>= 1
        if e:
            square = _zdivmod(_mul(square, square), a)[1]
    return _zdivmod(result, a)[1]


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
    lcm of their denominators, by Horner's rule in Z: from the leading
    coefficient times T (times I for a constant p), each later coefficient
    added on the diagonal, and the sum times T before the next: deg p - 1
    products."""
    D, n = lcm(*(c.denominator for c in coeffs)), T.rows
    c = [(x * D).numerator for x in coeffs] or [0]
    acc = [c[-1] * x for x in (T.entries if len(c) > 1 else _identity(n))]
    for k in reversed(range(len(c) - 1)):
        acc[:: n + 1] = [a + c[k] for a in acc[:: n + 1]]
        if k:
            acc = list(_tuple_mul(acc, T.entries, n, n, n))
    return D, IntMatrix(n, n, tuple(acc))


# A report record: serialize writes it as the dict of its fields, so a
# field's name is its JSON key.
class ClassifyReport(Record):
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
