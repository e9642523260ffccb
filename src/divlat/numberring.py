"""Quadratic orders, their unit groups, and lattice modules with ring action.

Ring elements are integer pairs (a, b) meaning a + b*omega, where omega is
sqrt(d) for d = 2, 3 (mod 4) and (1 + sqrt(d))/2 for d = 1 (mod 4).  Modules
over the ring are plain Z-lattices equipped with an integer matrix W acting
as omega; this representation covers non-free projective modules without any
ideal arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from ._record import Record
from .exactalg import IntMatrix
from .primes import is_squarefree
from .supernat import FiniteSet, PrimeSet, SDescriptor

Element = tuple[int, int]


class IntegerRing(Record):
    """The rational integers, as a ring descriptor."""

    def __str__(self) -> str:
        return "Z"


ZZ = IntegerRing()


class QuadraticOrder(Record):
    """The ring of integers of Q(sqrt(d)) for squarefree d."""

    d: int

    def __post_init__(self):
        if self.d in (0, 1) or not is_squarefree(self.d):
            raise ValueError(f"d must be squarefree and not 0 or 1, got {self.d}")

    # omega satisfies omega^2 = t*omega + c
    @property
    def omega_params(self) -> tuple[int, int]:
        if self.d % 4 == 1:
            return 1, (self.d - 1) // 4
        return 0, self.d

    def omega_companion(self) -> IntMatrix:
        t, c = self.omega_params
        return IntMatrix.from_rows([[0, c], [1, t]])

    # -- element arithmetic (works for int and Fraction components) ----
    def mul(self, x, y):
        t, c = self.omega_params
        a, b = x
        e, f = y
        return (a * e + c * b * f, a * f + b * e + t * b * f)

    def conj(self, x):
        t, _ = self.omega_params
        a, b = x
        return (a + t * b, -b)

    def norm(self, x):
        t, c = self.omega_params
        a, b = x
        return a * a + t * a * b - c * b * b

    def pow(self, x, k: int):
        if k < 0:
            raise ValueError("negative element power")
        result = (1, 0)
        base = x
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base) if k > 1 else base
            k >>= 1
        return result

    def __str__(self) -> str:
        return f"Z[omega], omega = (1+sqrt({self.d}))/2" if self.d % 4 == 1 else f"Z[sqrt({self.d})]"


def lchar(ring) -> PrimeSet:
    """Local characteristics: every rational prime lies under some maximal
    ideal, for Z and for every quadratic order alike."""
    if isinstance(ring, (IntegerRing, QuadraticOrder)):
        return PrimeSet.all_primes()
    raise TypeError(f"unsupported ring {ring!r}")


# ---------------------------------------------------------------------------
# Unit groups


# A report record: serialize writes it as the dict of its fields, so a
# field's name is its JSON key.
class UnitGroupDesc(Record):
    """Unit group of a quadratic order: cyclic torsion of order w plus, in
    the real case, a fundamental unit of infinite order.  A unit is encoded
    as (t, k) meaning torsion_generator^t * fundamental_unit^k."""

    torsion_order: int
    torsion_generator: Element
    fundamental_unit: Element | None


def _torsion(order: QuadraticOrder) -> tuple[int, Element]:
    """(w, generator) of the roots of unity.  Dirichlet's unit theorem: the
    units are mu_K x Z^(r1 + r2 - 1), and a quadratic field holds a primitive
    n-th root only if phi(n) <= 2, so w = 4 (i) for d = -1, w = 6 (omega) for
    d = -3 and w = 2 (-1) otherwise; Neukirch, ch. I, section 7."""
    if order.d == -1:
        return 4, (0, 1)
    if order.d == -3:
        return 6, (0, 1)
    return 2, (-1, 0)


_CF_STEPS = 100000  # continued-fraction steps before giving up on a unit


def _fundamental_unit(order: QuadraticOrder) -> Element:
    """Fundamental unit of a real quadratic order: the first convergent
    h/k (always k >= 1) of alpha with h + k*omega of norm +-1, found without
    multiplying the norm out.

    alpha = -conj(omega) = (P0 + sqrt(d))/Q0, with (P0, Q0) = (-1, 2) for
    d = 1 (mod 4) and (0, 1) otherwise, so conj(h + k*omega) = h - k*alpha.
    Why the first unit convergent is the fundamental unit eps = a + b*omega:

    - eps > 1 > |conj(eps)|, so eps - conj(eps) = b*(omega - conj(omega))
      gives b >= 1, and conj(eps) = a - b*alpha > -1 gives a >= 0.
    - |conj(eps)| = 1/eps, so |a/b - alpha| = 1/(b*eps).
    - eps > 2b for every squarefree d except 5: the first point gives
      eps > b*sqrt(d) - 1 for d = 1 (mod 4) and eps > 2b*sqrt(d) - 1
      otherwise, and eps = 1 + sqrt(2) for d = 2.  For d = 5, eps = omega
      is the first convergent, 0/1.
    - So |a/b - alpha| < 1/(2b^2); a and b are coprime because the norm is
      +-1, and Legendre's criterion makes a/b a convergent.
    - Every convergent has |h - k*alpha| < 1, so a unit convergent is a
      unit > 1, that is eps^m with m >= 1.  Convergent denominators never
      decrease, and for m >= 2 the second coordinate of eps^m exceeds b
      once eps > 2 (eps^m - conj(eps)^m > eps^2 - 1 > eps - conj(eps)),
      so no unit convergent comes before eps.

    The norm is read off the complete quotients.  f(t, s) = ((Q0*t - P0*s)^2
    - d*s^2)/Q0 has the root alpha, discriminant 4d and f(h, k) = Q0*N(h +
    k*omega).  The convergent h/k, after h'/k', comes before the complete
    quotient x = (P + sqrt(d))/Q, and alpha = (h*x + h')/(k*x + k') with
    h*k' - h'*k = +-1.  That unimodular substitution turns f into a form of
    discriminant 4d, roots x and conj(x) and leading coefficient f(h, k), so
    4d = f(h, k)^2 * (x - conj(x))^2 = f(h, k)^2 * 4d/Q^2: f(h, k) = +-Q,
    and h + k*omega is a unit exactly when the next Q is Q0.

    See Lenstra, "Solving the Pell equation", Notices AMS 49(2), 2002.
    """
    d = order.d
    # complete quotients (P + sqrt(d)) / Q; every one after the first is
    # reduced, so Q stays positive
    P, Q = (-1, 2) if d % 4 == 1 else (0, 1)
    Q0 = Q
    sq = isqrt(d)
    h, h_prev = 1, 0
    k, k_prev = 0, 1
    for _ in range(_CF_STEPS):
        a = (P + sq) // Q  # floor of the complete quotient: sqrt(d) is irrational
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        P = a * Q - P
        Q, rem = divmod(d - P * P, Q)
        if rem or Q <= 0:
            raise AssertionError("continued fraction left the reduced quadratic irrationals")
        if Q == Q0:
            if order.norm((h, k)) not in (1, -1):
                raise AssertionError("a convergent with Q = Q0 is not a unit")
            return (h, k)
    raise ValueError(f"no unit of Q(sqrt({d})) within {_CF_STEPS} continued-fraction steps")


def unit_group(order: QuadraticOrder) -> UnitGroupDesc:
    """Torsion from Dirichlet's table; the fundamental unit by continued fraction."""
    w, generator = _torsion(order)
    return UnitGroupDesc(w, generator, _fundamental_unit(order) if order.d > 0 else None)


def unit_s_divisible(u: tuple[int, int], s: int, order: QuadraticOrder) -> bool:
    """Whether the unit zeta^t * eps^k is an s-th power of a unit.

    Pure exponent arithmetic: (zeta^t' eps^k')^s = zeta^t eps^k needs
    s*k' = k on the free part and s*t' = t (mod w) on torsion, solvable iff
    gcd(s, w) divides t."""
    if s < 2:
        raise ValueError("exponent must be at least 2")
    t, k = u
    if order.d < 0 and k != 0:
        raise ValueError("imaginary quadratic units have no free part")
    if k % s != 0:
        return False
    return t % gcd(s, _torsion(order)[0]) == 0


def mult_hypothesis(S: SDescriptor, ring) -> tuple[bool, str]:
    """Whether the only units divisible by every exponent in S are roots of
    unity.  True for Z and for every quadratic order once S is infinite: a
    unit with nonzero free exponent k would need s | k for arbitrarily large
    s.  Returns the verdict with a one-line proof trace."""
    if isinstance(S, FiniteSet):
        raise ValueError("multiplicative hypothesis undefined for finite S")
    if isinstance(ring, IntegerRing):
        return True, "unit group of Z is {1, -1}: torsion only"
    if isinstance(ring, QuadraticOrder):
        if ring.d < 0:
            return True, "imaginary quadratic unit group is finite: torsion only"
        return True, (
            "free part of the unit group is infinite cyclic; a nonzero exponent "
            "has only finitely many divisors, S is infinite"
        )
    raise TypeError(f"unsupported ring {ring!r}")


# ---------------------------------------------------------------------------
# Modules as Z-lattices with an omega action


class OKModule(Record):
    """A Z-lattice of even rank with an integer matrix W acting as omega."""

    order: QuadraticOrder
    z_rank: int
    omega_action: IntMatrix

    def __post_init__(self):
        if self.z_rank < 2 or self.z_rank % 2:
            raise ValueError("z_rank must be a positive even integer")
        W = self.omega_action
        if not (W.is_square and W.rows == self.z_rank):
            raise ValueError("omega action must be square of size z_rank")
        t, c = self.order.omega_params
        eye = IntMatrix.identity(self.z_rank)
        if W * W - W * t - eye * c != IntMatrix.zeros(self.z_rank, self.z_rank):
            raise ValueError("omega action does not satisfy the minimal polynomial of omega")

    @classmethod
    def regular(cls, order: QuadraticOrder, rank: int) -> "OKModule":
        """The free module of the given rank, with omega acting blockwise."""
        if rank < 1:
            raise ValueError("rank must be positive")
        omega = [[(0, int(i == j)) for j in range(rank)] for i in range(rank)]
        return cls(order, 2 * rank, embed_ok_matrix(order, omega))

    @property
    def module_rank(self) -> int:
        return self.z_rank // 2

    def endomorphism_ok(self, T: IntMatrix) -> bool:
        if not (T.is_square and T.rows == self.z_rank):
            raise ValueError("operator size does not match the module")
        W = self.omega_action
        return T * W == W * T

    def require_endomorphism(self, T: IntMatrix) -> None:
        if not self.endomorphism_ok(T):
            raise ValueError("operator does not commute with the ring action")

    def det_as_ring_element(self, T: IntMatrix):
        """Determinant of a commuting operator as a ring element (a, b).

        Over the quadratic field K the module is a vector space of dimension
        r = module_rank on which W is the scalar omega, and the trace over Q
        of a K-linear map is the field trace of its trace over K.  So
        p_k = a + b*omega, the trace of T^k over K, follows from the integer
        traces u = tr(T^k) = 2a + t*b and v = tr(W T^k) = t*a + (t^2 + 2c)*b,
        a system of determinant t^2 + 4c != 0.  Newton's identities
        k*e_k = sum_i (-1)^(i-1) e_(k-i) p_i then give det T = e_r, which is
        integral because the operator preserves the lattice."""
        self.require_endomorphism(T)
        order = self.order
        t, c = order.omega_params
        delta = t * t + 4 * c
        W = self.omega_action
        power = IntMatrix.identity(self.z_rank)
        p: list[tuple[Fraction, Fraction]] = []  # p[k - 1] = trace of T^k over K
        e = [(1, 0)]  # e[k] = k-th elementary symmetric function of the eigenvalues
        for k in range(1, self.module_rank + 1):
            power = power * T
            u, v = power.trace(), (W * power).trace()
            p.append((Fraction((t * t + 2 * c) * u - t * v, delta), Fraction(2 * v - t * u, delta)))
            a = b = 0
            for i in range(1, k + 1):
                x, y = order.mul(e[k - i], p[i - 1])
                a, b = a + (-1) ** (i - 1) * x, b + (-1) ** (i - 1) * y
            e.append((a / k, b / k))
        a, b = e[-1]
        if a.denominator != 1 or b.denominator != 1:
            raise AssertionError("determinant not integral")
        return (int(a), int(b))


def embed_ok_matrix(order: QuadraticOrder, entries) -> IntMatrix:
    """Turn an r x r matrix of ring elements into the 2r x 2r integer matrix
    acting on the free module (blocks a*I + b*W0)."""
    r = len(entries)
    W0 = order.omega_companion()
    rows = [[0] * (2 * r) for _ in range(2 * r)]
    for i in range(r):
        row = entries[i]
        if len(row) != r:
            raise ValueError("ragged ring matrix")
        for j in range(r):
            a, b = row[j]
            for ii in range(2):
                for jj in range(2):
                    rows[2 * i + ii][2 * j + jj] = (a if ii == jj else 0) + b * W0[ii, jj]
    return IntMatrix.from_rows(rows)
