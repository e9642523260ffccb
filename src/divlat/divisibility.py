"""Root search and certification for integer operators.

Whether T has an s-th root in the matrix ring is treated as a semi-decision
problem: sound impossibility certificates first, then proofs that are no
certificates yet, each ending the search in Exhausted, then a bounded
exhaustive search in lexicographic order: of T's one candidate root when
T has finite order prime to every realizable one, of a rank-2 order or of
cI's (trace, det) classes when n = 2, else of the commutant of T.  An
honest Exhausted outcome is part of the contract; witnesses are always
re-multiplied before being returned.
"""
from __future__ import annotations

import time
from collections.abc import Iterator
from functools import lru_cache
from itertools import count, islice
from math import gcd, inf, isqrt, lcm, prod
from operator import add

from ._record import Record
from .classify import _Invariants
from .exactalg import IntMatrix, Lattice, _cyclotomic_indices, _tuple_det, _tuple_pow
from .primes import euler_phi, is_prime, signed_root

DEFAULT_MAX_CANDIDATES = 20_000_000


# ---------------------------------------------------------------------------
# Certificates: serialize writes each as its kind, its statement and its
# fields by name.


class DetNotPower(Record):
    s: int
    det: int

    def statement(self) -> str:
        return f"det T = {self.det} is not an exact {self.s}-th power in Z"


class NegativeDetEvenPower(Record):
    s: int
    det: int

    def statement(self) -> str:
        return f"det T = {self.det} < 0 but {self.s}-th powers have non-negative determinant"


class NilpotentRankBound(Record):
    s: int
    rank: int

    def statement(self) -> str:
        return (
            f"T is nilpotent and nonzero; any root is nilpotent on a rank-{self.rank} "
            f"module, so its {self.s}-th power vanishes for s >= {self.rank}"
        )


class SpectralObstruction(Record):
    description: str

    def statement(self) -> str:
        return self.description


class OrderObstruction(Record):
    s: int
    order: int

    def statement(self) -> str:
        return (
            f"T has finite order {self.order}; a root X would satisfy "
            f"ord(X)/gcd(ord(X), {self.s}) = {self.order}, but no order realizable "
            "in this matrix size satisfies that"
        )


CertKind = DetNotPower | NegativeDetEvenPower | NilpotentRankBound | SpectralObstruction | OrderObstruction


# ---------------------------------------------------------------------------
# Outcomes: serialize writes each under its kind, found or exhausted as the
# dict of its fields, proved_impossible as its certificate.


class Found(Record):
    witness: IntMatrix
    power: IntMatrix  # stored re-multiplication witness^s


class ProvedImpossible(Record):
    certificate: CertKind


class Exhausted(Record):
    bound: int
    complete: bool = True  # False when a time or candidate budget cut the scan


RootSearchOutcome = Found | ProvedImpossible | Exhausted


@lru_cache(maxsize=None)
def realizable_orders(n: int) -> frozenset[int]:
    """Finite orders realizable in GL_n(Z): exactly the lcms of index sets
    {k_i} with sum of phi(k_i) at most n (companion blocks realize them; the
    cyclotomic factorization of a finite-order element forces the bound).
    One 0/1 knapsack pass over the indices keeps the least phi-cost of each
    lcm reached; each index extends a snapshot of it, so is used once."""
    cost = {1: 0}
    for k in _cyclotomic_indices(n):
        for order, c in list(cost.items()):
            new, c = lcm(order, k), c + euler_phi(k)
            if c <= n and c < cost.get(new, n + 1):
                cost[new] = c
    return frozenset(cost)


def impossibility_certificates(T: IntMatrix, s: int, module=None) -> list[CertKind]:
    """Every certificate proving T has no s-th root; sound by construction,
    empty on actual s-th powers."""
    if s < 2:
        raise ValueError("exponent must be at least 2")
    return list(_certificates(_Invariants(T, module), s))


def _certificates(inv: _Invariants, s: int) -> Iterator[CertKind]:
    """The certificates for an exponent s >= 2, in a fixed order, each
    route computing only what it reads: the first ends a root search."""
    T, module = inv.T, inv.module
    # determinant route: det T = (det X)^s in Z; over a quadratic order the
    # same equation holds for field norms of ring determinants, and the
    # field norm of the ring determinant of T is det T.
    # signed_root has no root for a negative value at an even exponent.
    dt = inv.det
    if dt != 0 and signed_root(dt, s) is None:
        if module is not None:
            yield SpectralObstruction(f"field norm of det T is {dt}, not an exact {s}-th power in Z")
        elif dt < 0 and s % 2 == 0:
            yield NegativeDetEvenPower(s, dt)
        else:
            yield DetNotPower(s, dt)
    # nilpotent route (chi = x^n): roots of nilpotents are nilpotent, hence
    # vanish at the module rank.  A nilpotent T is singular, and a 0x0 T
    # has det 1.
    rank_bound = module.module_rank if module is not None else T.rows
    if dt == 0 and not T.is_zero() and s >= rank_bound and not any(inv.chi[:-1]):
        yield NilpotentRankBound(s, rank_bound)
    # finite-order route: any root of a finite-order operator is itself of
    # finite order realizable in GL_n(Z); only fires because the realizable
    # set is enumerated exhaustively.
    d = inv.order
    if d is not None and not any(e // gcd(e, s) == d for e in realizable_orders(T.rows)):
        yield OrderObstruction(s, d)


def _proved_rootless(inv: _Invariants, s: int) -> bool:
    """Whether a proof that is no certificate yet shows that T has no s-th
    root at any height, so that the search is complete with no commutant
    and no walk.  Each proof holds over a module too, as a root is an
    integer matrix that commutes with T.
    Height: beyond the height bound (_beyond_root_height) every s-th root
    is torsion-spectral, and so is its s-th power, so a T that is not
    torsion-spectral has none.  This one reads every T.
    The other two read a singular T, chi = x^g h, g >= 1.  A root X
    commutes with T, so it preserves V_0 = ker T^g.
    Quotient determinant: on the free quotient Z^n / (V_0 meet Z^n), T
    induces an integer map of determinant e = (-1)^(n-g) h(0), and X one
    whose s-th power it is, so e = (det of X's map)^s is a signed s-th
    power.
    Jordan type at 0: X is a nilpotent s-th root of T on V_0, so T's type
    there (gen_kernel_type) is an s-th power's (_is_power_type).  T = 0
    is 0^s, so it is passed over unread."""
    if _beyond_root_height(inv, s) and not inv.torsion_spectral:
        return True
    if inv.det or inv.T.is_zero():
        return False
    n, g = inv.T.rows, inv.gen_kernel_rank
    if g < n and signed_root((-1) ** (n - g) * inv.chi[g], s) is None:
        return True
    return g >= 2 and not _is_power_type(inv.gen_kernel_type, s)


def _is_power_type(parts: tuple[int, ...], s: int) -> bool:
    """Whether the nilpotent Jordan type parts, descending, is the type of
    an s-th power.  J_m^s, m = qs + r, has r blocks of size q + 1 and
    s - r of size q (Cross and Lancaster, 1974; Psarrakos, ELA 9, 2002),
    so the type is an s-th power's exactly when, padded with zeros to a
    multiple of s parts and cut into consecutive groups of s, every group
    has max - min <= 1.  Checked group by group, the padding never built:
    a short last group has min 0."""
    for i in range(0, len(parts), s):
        group = parts[i : i + s]
        if group[0] - (group[-1] if len(group) == s else 0) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Bounded search


def _box_points(lattice: Lattice, bound: int, deadline=None):
    """The lattice points with every entry in [-bound, bound], in
    lexicographic order: the HNF pivots p_0 < p_1 < ... are positive with
    zeros to their left, so entries before p_i depend on c_0..c_(i-1) only
    and the entry at p_i grows with c_i.  Each c_i runs over the interval
    keeping entries p_i..p_(i+1) - 1 in the box.  One odometer walks them:
    points[i] is the point with c_0..c_(i-1) taken, left[i] the values of
    c_i still to take, and the last coefficient runs in an inner loop that
    yields its points.  A step (one c_i taken, at any depth) costs
    O(ambient rank); the deadline is checked before every step, raising
    TimeoutError, so a spent budget ends the walk before the next
    candidate."""
    N, last = lattice.ambient_rank, lattice.rank - 1
    rows = [lattice.basis.row(i) for i in range(last + 1)]
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows] + [N]
    points, left = [(0,) * N], []
    if last < 0:
        yield points[0]
        return
    while True:
        i = len(left)  # enter level i: c_i's interval, from the point one step before it
        row, p, end, point = rows[i], pivots[i], pivots[i + 1], points[i]
        lo, hi = -inf, inf  # the pivot, first, makes them ints
        for a, x in zip(row[p:end], point[p:end]):
            if a:
                a, x = (a, x) if a > 0 else (-a, -x)
                lo, hi = max(lo, -((bound + x) // a)), min(hi, (bound - x) // a)
            elif abs(x) > bound:
                lo, hi = 1, 0
                break
        point = tuple(x + (lo - 1) * y for x, y in zip(point, row))
        if i < last:
            points.append(point)
            left.append(hi - lo + 1)
        else:
            for _ in range(hi - lo + 1):
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError
                point = tuple(map(add, point, row))
                yield point
        while left and left[-1] <= 0:
            left.pop()
            points.pop()
        if not left:
            return
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError
        left[-1] -= 1
        points[-1] = tuple(map(add, points[-1], rows[len(left) - 1]))


def _beyond_root_height(inv: _Invariants, s: int) -> bool:
    """True when s >= 4n bit_length(R), R = 1 + max |c_k| over the
    coefficients of chi below its leading one: then every s-th root of T is
    torsion-spectral (each eigenvalue 0 or a root of unity).

    Theorem (Dimitrov, arXiv:1912.12545, proving Schinzel-Zassenhaus): an
    algebraic integer of degree d, neither 0 nor a root of unity, has a
    conjugate of modulus at least 2^(1/(4d)).  If X^s = T and an eigenvalue
    mu of X is neither, of degree at most n, its large conjugate is an
    eigenvalue of X too, whose s-th power is an eigenvalue of T of modulus
    at least 2^(s/(4n)).  Cauchy's bound keeps every eigenvalue of T below
    R < 2^bit_length(R), so s < 4n bit_length(R).  R >= 2 unless chi = x^n,
    whose roots are nilpotent anyway: s >= 8n is tested first, and chi is
    read only beyond it."""
    n = inv.T.rows
    if s < 8 * n:
        return False
    R = 1 + max(map(abs, inv.chi[:-1]), default=0)
    return s >= 4 * n * R.bit_length()


def _scan(candidates, inv: _Invariants, s: int):
    """The one test of X^s = T, for the search's candidates and verify's
    witnesses alike: the first candidate X with X^s = T, or None.  None at
    once when det T != 0 has no s-th root; else the candidates with det X
    no s-th root of det T or, for s that is_prime proves prime,
    tr X != tr T mod s are skipped, and so, beyond the height bound, are
    those not torsion-spectral.  Every candidate left there has entries of
    X^k polynomial in k, so X^s, multiplied out, stays small at any s.
    The search never scans a T that is not torsion-spectral beyond the
    bound (_proved_rootless), but verify does: the filter skips its
    witnesses that are not torsion-spectral, never multiplied out."""
    dets = _signed_roots(inv.det, s)
    if not dets:
        return None
    beyond = _beyond_root_height(inv, s)
    n, target, trace_target = inv.T.rows, inv.T.entries, inv.T.trace()
    try:
        prime_s = is_prime(s)
    except ValueError:  # s >= psi_13 passes every base: undecided, so no trace filter
        prime_s = False
    diag = slice(None, None, n + 1)
    for cand in candidates:
        if _tuple_det(cand, n) not in dets:
            continue
        if prime_s and (sum(cand[diag]) - trace_target) % s:
            continue  # tr(X^p) = tr(X) mod p for prime p
        if beyond and not _Invariants(IntMatrix(n, n, cand)).torsion_spectral:
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
) -> RootSearchOutcome:
    """In order: the certificates, the deadline, the proofs that T has no
    s-th root at any height (_proved_rootless, Exhausted(bound) when one
    holds), then exhaustive search, in row-major lexicographic order, over
    the candidates (_candidates): X with max-norm <= bound that commute
    with T (and omega), as every root of T = X^s does, with those that
    cannot be roots left out; returns the lexicographically smallest root.

    The timeout runs from the call; the deadline is checked after the
    certificates, before every walk step (_box_points), so a spent budget
    stops the scan before the next candidate, and before every step of the
    2 x 2 routes' bounded loops, whose few candidates are then scanned
    whole; it is not checked during the certificates, the proofs or the
    commutant.  The candidate budget is DEFAULT_MAX_CANDIDATES, checked
    before the candidates are generated (_candidates).  Either budget cut
    gives Exhausted(complete=False)."""
    deadline = time.monotonic() + timeout_ms / 1000.0 if timeout_ms is not None else None
    if s < 2:
        raise ValueError("exponent must be at least 2")
    if bound < 1:
        raise ValueError("bound must be positive")
    if timeout_ms is not None and timeout_ms < 0:
        raise ValueError("timeout must be nonnegative")
    return _search(_Invariants(T, module), s, bound, deadline)


def _search(inv: _Invariants, s: int, bound: int, deadline) -> RootSearchOutcome:
    """root_search on an analysis, for s >= 2 and bound >= 1; deadline is a
    time.monotonic() value or None.  The certificates, the deadline, the
    proofs, then the candidates (_candidates) and their scan, in that
    order."""
    cert = next(_certificates(inv, s), None)
    if cert is not None:
        return ProvedImpossible(cert)
    if deadline is not None and time.monotonic() >= deadline:
        return Exhausted(bound, complete=False)
    if _proved_rootless(inv, s):
        return Exhausted(bound)
    try:
        candidates = _candidates(inv, s, bound, deadline)
        if candidates is None:
            return Exhausted(bound, complete=False)
        hit = _scan(candidates, inv, s)
    except TimeoutError:
        return Exhausted(bound, complete=False)
    if hit is None:
        return Exhausted(bound)
    witness = IntMatrix(inv.T.rows, inv.T.rows, hit)
    power = witness ** s
    if power != inv.T:
        raise AssertionError("witness failed final re-multiplication")
    return Found(witness, power)


def _candidates(inv: _Invariants, s: int, bound: int, deadline):
    """Every X with max-norm <= bound that can be an s-th root of T, in
    row-major lexicographic order, for _scan to test; None when the
    candidate budget cuts the search.  TimeoutError once the deadline is
    spent.  The first of three routes that applies:
    Finite order: for T of order d and gcd(s, L) = 1, L the lcm of the
    orders realizable in GL_n(Z), a root X has finite order dividing L, so
    X = X^(as) = T^a for as = 1 mod L: T^(s^-1 mod d) is the only root.
    n = 2: the roots read off a rank-2 order, or off the classes of cI
    (_rank_two_candidates).
    Else the commutant's box points (_box_points), the candidate budget
    DEFAULT_MAX_CANDIDATES bounding the product over the commutant's
    pivots of 2*bound // pivot + 1, an upper bound on the points
    enumerated."""
    n, d = inv.T.rows, inv.order
    if d is not None and gcd(s, lcm(*realizable_orders(n))) == 1:
        root = inv.power(pow(s, -1, d)).entries
        return [root] if max(map(abs, root), default=0) <= bound else []
    if n == 2:
        return _rank_two_candidates(inv, s, bound, deadline)
    basis = inv.commutant.basis
    if prod(2 * bound // next(filter(None, basis.row(i))) + 1 for i in range(basis.rows)) > DEFAULT_MAX_CANDIDATES:
        return None
    return _box_points(inv.commutant, bound, deadline)


def _rank_two_candidates(inv: _Invariants, s: int, bound: int, deadline):
    """_candidates for n = 2, over Z or a rank-1 module, with no commutant
    and no walk.  A is T over Z and omega over a module: C(T) meet C(omega)
    is C(omega) there, as T lies in C(omega), which is commutative, omega
    being no integer.  A scalar A is cI (_scalar_candidates).  Else, with
    g = gcd(a12, a21, a22 - a11) and M = (A - a11 I)/g, C(A) = Z I (+) Z M
    exactly: X = aI + bM integral forces b (m12, m21, m22) in Z^3, whose
    gcd is 1, so b and a = x11 are integers.  So theta = M generates the
    order Z[theta], theta^2 = t theta + c with t = m22, c = m12 m21,
    T = t0 + t1 theta, and a root is y = u + v theta,
    det X = N(y) = u^2 + tuv - cv^2.
    D = t^2 + 4c != 0: each eigenvalue of X is an s-th root of one of T,
    below Cauchy's R = 1 + max(|tr T|, |det T|), so at most rho =
    ceil(R^(1/s)), and theirs differ by v sqrt(D): v^2 |D| <= 4 rho^2.  For
    each such v in the box, N(y) = +-r, r the signed s-th root of det T,
    fixes u = (-tv +- q)/2, q^2 = D v^2 + 4N(y), even as q = tv mod 2: at
    most four candidates for each v, the v counted against the candidate
    budget and each checked against the deadline.
    D = 0: t is even, theta = t/2 + E with E^2 = 0, so y = w + vE,
    w = u + vt/2, and y^s = w^s + s w^(s-1) v E: w is a signed s-th root of
    tau_0 = t0 + t1 t/2, and v = t1 / (s w^(s-1)), one exact division, for
    w != 0.  omega's D is no square, so A = T here and t1 = g != 0, and
    w = 0 gives y^s = 0 != T: at most two candidates."""
    T = inv.T
    A = T if inv.module is None else inv.module.omega_action
    a11, a12, a21, a22 = A.entries
    g = gcd(a12, a21, a22 - a11)
    if not g:
        return _scalar_candidates(T[0, 0], s, bound, deadline)
    m12, m21, t = m = (a12 // g, a21 // g, (a22 - a11) // g)
    t0, rest = T[0, 0], (T[0, 1], T[1, 0], T[1, 1] - T[0, 0])
    k = next(k for k in range(3) if m[k])
    t1 = rest[k] // m[k]
    if rest != tuple(t1 * x for x in m):
        raise AssertionError("T does not lie in Z I + Z M")

    def in_box(u: int, v: int) -> tuple[int, int, int, int] | None:
        X = (u, v * m12, v * m21, u + v * t)
        return X if max(map(abs, X)) <= bound else None

    D = t * t + 4 * m12 * m21
    if not D:
        out = []
        for w in _signed_roots(t0 + t1 * (t // 2), s) - {0}:
            v, rem = divmod(t1, s * w ** (s - 1))
            if not rem:
                out.append(in_box(w - v * (t // 2), v))
        return sorted(filter(None, out))
    rho = _ceil_root(1 + max(abs(T.trace()), abs(inv.det)), s)
    vmax = min(isqrt(4 * rho * rho // abs(D)), bound // max(abs(m12), abs(m21)) if m12 or m21 else 2 * bound)
    if 2 * vmax + 1 > DEFAULT_MAX_CANDIDATES:
        return None
    norms, out = _signed_roots(inv.det, s), set()
    for v in range(-vmax, vmax + 1):
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError
        for norm in norms:
            q2 = D * v * v + 4 * norm
            q = isqrt(q2) if q2 >= 0 else -1
            if q * q == q2:
                out.update((in_box((q - t * v) // 2, v), in_box((-q - t * v) // 2, v)))
    out.discard(None)
    return sorted(out)


def _scalar_candidates(c: int, s: int, bound: int, deadline):
    """_candidates for T = cI, n = 2: xI with x^s = c, and each box point
    [[x, y], [z, tr - x]] of a class (tr, d) whose non-scalar X have
    X^s = cI.  Such an X has X^2 = tr X - d I, so X^s = aX + bI with
    (a, b) = _pair_power(tr, d, s), and X^s = cI exactly when (a, b) =
    (0, c): the class is read once, not its points.  Both eigenvalues of
    such an X have modulus |c|^(1/s), so d^s = c^2, and either d > 0 and
    tr^2 <= 4d, or d < 0 and tr = 0; both is (0, 0) when c = 0.  The
    candidate budget counts M_2(Z)'s box, (2 bound + 1)^4 points, as the
    walk of the commutant M_2(Z) did, and the deadline is checked before
    each x."""
    if (2 * bound + 1) ** 4 > DEFAULT_MAX_CANDIDATES:
        return None
    out = {(x, 0, 0, x) for x in _signed_roots(c, s) if abs(x) <= bound}
    for d in _signed_roots(c * c, s):
        span = min(isqrt(4 * d), 2 * bound) if d > 0 else 0
        for tr in range(-span, span + 1):
            if _pair_power(tr, d, s) != (0, c):
                continue
            for x in range(max(-bound, tr - bound), min(bound, tr + bound) + 1):
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError
                yz = x * (tr - x) - d
                if yz:
                    out.update((x, y, yz // y, tr - x) for y in range(-bound, bound + 1)
                               if y and not yz % y and abs(yz // y) <= bound)
                else:
                    out.update((x, 0, z, tr - x) for z in range(-bound, bound + 1))
                    out.update((x, y, 0, tr - x) for y in range(-bound, bound + 1) if y)
    return sorted(out)


def _signed_roots(v: int, s: int) -> set[int]:
    """The integers x with x^s = v."""
    r = signed_root(v, s)
    return set() if r is None else {r, -r} if s % 2 == 0 else {r}


def _pair_power(tr: int, d: int, s: int) -> tuple[int, int]:
    """(a, b) with X^s = aX + bI for every X with X^2 = tr X - d I, by
    repeated squaring on the pairs: (aX + b)(eX + f) = (aetr + af + eb) X
    + (bf - aed)."""
    def mul(p, q):
        (a, b), (e, f) = p, q
        return a * e * tr + a * f + e * b, b * f - a * e * d

    result, square = (0, 1), (1, 0)
    while s:
        if s & 1:
            result = mul(result, square)
        s >>= 1
        if s:
            square = mul(square, square)
    return result


def _ceil_root(R: int, s: int) -> int:
    """The least rho >= 0 with rho^s >= R, for R >= 0 and s >= 1: 2 when
    1 < R < 2^s, so no 2^s is built, else by bisection between 1 and
    2^(b//s + 1), b = bit_length(R)."""
    b = R.bit_length()
    if R <= 1 or s >= b:
        return min(R, 2)
    lo, hi = 1, 1 << (b // s + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid ** s >= R else (mid, hi)
    return hi


# ---------------------------------------------------------------------------
# Constructive roots for zero-plus-finite-order operators


def coprime_root(T: IntMatrix, d: int, n_exp: int) -> IntMatrix:
    """X with X^n_exp = T when T is zero plus an order-d operator and
    gcd(n_exp, d) = 1: take X = T^m for m the inverse of n_exp mod d.
    The result is re-verified by exact multiplication before returning."""
    return _coprime_roots(_Invariants(T), d, (n_exp,))[0][1]


def _coprime_exponents(d: int, k: int) -> list[int]:
    """The first k exponents s >= 2 with gcd(s, d) = 1."""
    return list(islice((s for s in count(2) if gcd(s, d) == 1), k))


def _coprime_roots(inv: _Invariants, d: int, exponents) -> list[tuple[int, IntMatrix]]:
    """The pairs (n_exp, coprime_root(T, d, n_exp)) for each exponent, on
    the analysis of T: T^(d+1) = T is checked once, T^(d+1) and each root
    T^m are products of the analysis's ladder of squares, and each root X
    is still re-verified as X^n_exp = T from its own entries, off one
    ladder of X's squares per distinct root, shared by the exponents with
    that root.  A root equal to T reads the analysis's own powers: where
    the order certificate has kept T^(d+1) = T (_checked_order), the
    precondition and the check X^(d+1) = T read that power, with no
    product."""
    T = inv.T
    if d < 1 or any(n_exp < 1 for n_exp in exponents):
        raise ValueError("order and exponent must be positive")
    if any(gcd(n_exp, d) != 1 for n_exp in exponents):
        raise ValueError("no coprime inverse")
    if inv.power(d + 1) != T:
        raise ValueError(f"operator is not zero plus an operator of order dividing {d}")
    roots, ladders = [], {T.entries: inv}
    for n_exp in exponents:
        X = inv.power(pow(n_exp, -1, d) if d > 1 else 1)
        ladder = ladders.get(X.entries)
        if ladder is None:
            ladder = ladders[X.entries] = _Invariants(X)
        if ladder.power(n_exp) != T:
            raise AssertionError("constructed root failed re-verification")
        roots.append((n_exp, X))
    return roots


def zero_plus_finite_order(T: IntMatrix) -> int | None:
    """Order of the invertible part when T splits cleanly as zero plus an
    invertible finite-order operator; None otherwise."""
    return _Invariants(T).zero_plus_order


# ---------------------------------------------------------------------------
# Divisibility spectrum.  Its records are reports: serialize writes each as
# the dict of its fields, so a field's name is its JSON key.


class SpectrumRow(Record):
    s: int
    outcome: RootSearchOutcome
    theorem_root: IntMatrix | None
    verdict: str  # yes-witness | yes-coprime-order | no-certificate | unknown


class SpectrumTable(Record):
    order: int | None
    rows: tuple[SpectrumRow, ...]
    sufficient_set: str | None


def divisibility_spectrum(T: IntMatrix, s_max: int, bound: int, *, module=None) -> SpectrumTable:
    """Per-exponent verdict table: bounded search outcomes plus the
    guaranteed construction for exponents coprime to the finite order of the
    invertible part (when that structure is present)."""
    if s_max < 2:
        raise ValueError("s_max must be at least 2")
    if bound < 1:
        raise ValueError("bound must be positive")
    inv = _Invariants(T, module)
    d = inv.zero_plus_order
    coprime = [] if d is None else [s for s in range(2, s_max + 1) if gcd(s, d) == 1]
    troots = dict(_coprime_roots(inv, d, coprime)) if coprime else {}
    rows = []
    for s in range(2, s_max + 1):
        outcome = _search(inv, s, bound, None)
        troot = troots.get(s)
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
