"""Exact linear algebra over the integers and rationals.

Dense, immutable, arbitrary-precision matrices; two eliminations: the
Hermite normal form, the one lattice elimination, and one fraction-free
(Bareiss) elimination with one back-substitution, from which the
determinant, the rank profile, the Krylov chains, kernel vectors (those of
the commutator equations too) and the adjugate (the inverse, conjugation)
are read; kernels and honest images as canonical lattices, both read off
one Hermite form, and the saturation of a row span, by duality; and the
characteristic polynomial, proven by the Krylov chains for every operator,
and the cyclotomic polynomials, as ascending coefficient tuples.
Nothing here ever touches a float.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub

from ._record import Record
from .primes import divisors, euler_phi


# ---------------------------------------------------------------------------
# Entry-tuple kernels.  A matrix is a row-major tuple of int or Fraction
# entries; the matrix classes below and the root-search scan share these.


def _identity(n: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def _tuple_mul(a, b, rows: int, inner: int, cols: int) -> tuple:
    """Product of a (rows x inner) and b (inner x cols), entry tuples or
    lists: closed forms for square 2 x 2 and 3 x 3 operands, as _tuple_det
    has for determinants (most products of an analysis and of the
    root-search scan are such), else slicing each row of a and each column
    of b once."""
    if rows == inner == cols == 2:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return (a0 * b0 + a1 * b2, a0 * b1 + a1 * b3,
                a2 * b0 + a3 * b2, a2 * b1 + a3 * b3)
    if rows == inner == cols == 3:
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
        return (a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
                a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
                a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8)
    columns = [b[j::cols] for j in range(cols)]
    return tuple(sum(map(mul, row, col))
                 for row in [a[i * inner : (i + 1) * inner] for i in range(rows)] for col in columns)


def _tuple_pow(x, n: int, k: int) -> tuple:
    """x^k for a square n x n entry tuple and k >= 0, by repeated squaring."""
    result = None
    while k:
        if k & 1:
            result = x if result is None else _tuple_mul(result, x, n, n, n)
        k >>= 1
        if k:
            x = _tuple_mul(x, x, n, n, n)
    return _identity(n) if result is None else result


def _tuple_det(x, n: int) -> int:
    """Determinant of a square n x n integer entry tuple: closed forms up to
    3 x 3 (the root-search scan calls this millions of times), else the
    signed last pivot of one elimination (_bareiss)."""
    if n == 0:
        return 1
    if n == 1:
        return x[0]
    if n == 2:
        return x[0] * x[3] - x[1] * x[2]
    if n == 3:
        return (x[0] * (x[4] * x[8] - x[5] * x[7])
                - x[1] * (x[3] * x[8] - x[5] * x[6])
                + x[2] * (x[3] * x[7] - x[4] * x[6]))
    a = [list(x[i * n : (i + 1) * n]) for i in range(n)]
    J, _, sign = _bareiss(a, n)
    return sign * a[-1][-1] if len(J) == n else 0


def _bareiss(a: list[list[int]], cols: int) -> tuple[list[int], list[int], int]:
    """(J, origin, sign) for the integer rows a, each of length cols,
    eliminated in place by fraction-free Bareiss elimination (E. H.
    Bareiss, Math. Comp. 22 (1968) 565-578) with row pivoting: the one
    elimination of the library beside the Hermite form.  Column j takes the
    next pivot when a row not yet used is nonzero there, swapped up only
    when the diagonal entry is 0; a column with none is skipped.  So
    r = len(J) is the rank, and row k < r of a has its nonzero pivot at
    column J[k], with 0 in every column left of it except the earlier pivot
    columns, whose entries are left stale and never read.  Row k came from
    row origin[k], and sign is (-1)^(row swaps).  After step k each live
    entry is a minor of the input, so every division is exact, the rows
    origin[:r] and columns J of the input form a nonsingular minor, and the
    last pivot of a nonsingular square input is its determinant up to
    sign."""
    rows = len(a)
    origin, J, prev, sign = list(range(rows)), [], 1, 1
    for j in range(cols):
        r = len(J)
        if r == rows:
            break
        top = a[r]
        if not top[j]:
            i0 = next((i for i in range(r + 1, rows) if a[i][j]), None)
            if i0 is None:
                continue
            a[r], a[i0], origin[r], origin[i0] = a[i0], top, origin[i0], origin[r]
            top, sign = a[r], -sign
        pivot, right = top[j], range(j + 1, cols)
        for row in a[r + 1 :]:
            f = row[j]
            for c in right:
                row[c] = (row[c] * pivot - f * top[c]) // prev
        prev = pivot
        J.append(j)
    return J, origin, sign


def _back_substitute(a, J, x: list[int]) -> list[int]:
    """x, completed in place to a vector that every echelon row of a
    eliminated by _bareiss (pivot columns J) kills: given x at the columns
    outside J, each pivot coordinate x[J[k]] is solved from row k, the last
    row first.  The divisions are exact when that vector is integral, as
    for a kernel vector scaled by the minor det x[I, J] at one free column;
    callers check the result, not trust it."""
    for k in reversed(range(len(J))):
        row, j = a[k], J[k]
        x[j] = -sum(map(mul, row[j + 1 :], x[j + 1 :])) // row[j]
    return x


def _adjugate(x, n: int) -> tuple[int, tuple[int, ...] | None]:
    """(det A, adj A) for a square n x n integer entry tuple A, adj A row
    major, or (0, None) when A is singular: one elimination of [A | I],
    then column j of adj A = det A . A^-1 is the kernel vector of [A | I]
    with -det A at column n + j."""
    a = [list(x[i * n : (i + 1) * n]) + [int(i == j) for j in range(n)] for i in range(n)]
    J, _, sign = _bareiss(a, 2 * n)
    if J != list(range(n)):
        return 0, None
    det = sign * a[-1][n - 1] if n else 1
    columns = [_back_substitute(a, J, [0] * (n + j) + [-det] + [0] * (n - 1 - j))[:n] for j in range(n)]
    return det, tuple(chain.from_iterable(zip(*columns)))


# ---------------------------------------------------------------------------
# Polynomial kernels.  A polynomial is an ascending tuple of coefficients
# without trailing zeros; () is the zero polynomial.  The coefficients are
# ints, in Z[x], except in the Newton step of classify, which works in
# Q[x]/(chi) on Fraction coefficients.


def _zdivmod(a, b) -> tuple[tuple, tuple]:
    """(q, r) with a = q b + r and deg r < deg b, for a monic b: exact for
    any coefficient type, in Z[x] for integer a and b."""
    d, r = len(b) - 1, list(a)
    q = [0] * max(len(a) - d, 0)
    for shift in reversed(range(len(q))):
        q[shift] = f = r[shift + d]
        for i in range(d):
            r[shift + i] -= f * b[i]
    del r[d:]
    while r and not r[-1]:
        r.pop()
    return tuple(q), tuple(r)


def _zmul(a, b) -> tuple:
    """The product a b, for any coefficient type."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _zgcd(a, b) -> tuple[int, ...]:
    """The primitive gcd of a and b with a positive leading coefficient, by
    the primitive pseudo-remainder sequence (Knuth, TAOCP 2, 4.6.1); ()
    when both are zero."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        r, lead, d = list(a), b[-1], len(b) - 1
        while len(r) > d:  # pseudo-division: r <- lead r - r[-1] x^k b
            f, shift = r.pop(), len(r) - d
            r = [c * lead for c in r]
            for i in range(d):
                r[shift + i] -= f * b[i]
            while r and not r[-1]:
                r.pop()
        c = gcd(*r)
        a, b = b, tuple(x // c for x in r)
    c = -gcd(*a) if a and a[-1] < 0 else gcd(*a)
    return tuple(x // c for x in a)


def _zradical(p) -> tuple[int, ...]:
    """p / gcd(p, p') for a monic p: its squarefree part, monic.  By Gauss's
    lemma the primitive gcd is monic and divides p exactly in Z[x]."""
    g = _zgcd(p, tuple(i * c for i, c in enumerate(p) if i))
    if len(g) <= 1:
        return tuple(p)
    if g[-1] != 1:
        raise AssertionError("gcd(p, p') is not monic")
    q, r = _zdivmod(p, g)
    if r:
        raise AssertionError("gcd(p, p') does not divide p")
    return q


class _Matrix:
    """Algebra shared by IntMatrix and QMatrix, which supply the fields
    ``rows``, ``cols`` and row-major ``entries``, validate them, and name
    the scalar types in ``_scalars``.  Matrix operands must be of the same
    class."""

    _scalars: tuple[type, ...] = ()

    @classmethod
    def identity(cls, n: int):
        return cls(n, n, _identity(n))

    @classmethod
    def zeros(cls, rows: int, cols: int):
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self.entries)

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __add__(self, other):
        self._same_shape(other)
        return type(self)(self.rows, self.cols, tuple(map(add, self.entries, other.entries)))

    def __sub__(self, other):
        self._same_shape(other)
        return type(self)(self.rows, self.cols, tuple(map(sub, self.entries, other.entries)))

    def __neg__(self):
        return type(self)(self.rows, self.cols, tuple(-a for a in self.entries))

    def _is_scalar(self, x) -> bool:
        return isinstance(x, self._scalars) and not isinstance(x, bool)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            return type(self)(self.rows, other.cols,
                              _tuple_mul(self.entries, other.entries, self.rows, self.cols, other.cols))
        if self._is_scalar(other):
            return type(self)(self.rows, self.cols, tuple(a * other for a in self.entries))
        return NotImplemented

    def __rmul__(self, other):
        if self._is_scalar(other):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        return type(self)(self.rows, self.cols, _tuple_pow(self.entries, self.rows, k))


class IntMatrix(_Matrix, Record):
    """Row-major integer matrix.  Zero-row matrices are allowed so that
    rank-0 lattices (kernels of injective maps) have a representation."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    _scalars = (int,)

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")
        if set(map(type, self.entries)) <= {int}:
            return  # the library's own products and sums: plain ints only
        for e in self.entries:
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"non-integer entry {e!r}")

    # -- construction -------------------------------------------------
    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return cls(len(rows), cols, tuple(int(x) for r in rows for x in r))

    # -- access --------------------------------------------------------
    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def nested(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- algebra ---------------------------------------------------------
    # Bound here rather than inherited: per-class instrumentation (the
    # benchmark's tracer) finds methods in the class __dict__.
    __pow__ = _Matrix.__pow__

    def trace(self) -> int:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum(self.entries[:: self.cols + 1])

    def apply(self, vec) -> tuple[int, ...]:
        """Act on a column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return _tuple_mul(self.entries, tuple(vec), self.rows, self.cols, 1)

    def det(self) -> int:
        """Exact determinant."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        return _tuple_det(self.entries, self.rows)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"non-rational entry {x!r}")


class QMatrix(_Matrix, Record):
    """Dense matrix over the rationals: exact int or Fraction entries, an
    integer kept as an int.  1 == Fraction(1), and the two hash and print
    alike, so equality, hashing and each entry's str do not depend on
    which type an entry has."""

    rows: int
    cols: int
    entries: tuple[int | Fraction, ...]

    _scalars = (int, Fraction)

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")
        if type(self.entries) is not tuple or not set(map(type, self.entries)) <= {int, Fraction}:
            object.__setattr__(self, "entries", tuple(map(_frac, self.entries)))

    @classmethod
    def from_rows(cls, rows) -> "QMatrix":
        rows = [list(r) for r in rows]
        cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, tuple(x for r in rows for x in r))

    @classmethod
    def from_int_matrix(cls, m: IntMatrix) -> "QMatrix":
        return cls(m.rows, m.cols, m.entries)

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.entries)

    def to_int_matrix(self) -> IntMatrix:
        if not self.is_integral():
            raise ValueError("matrix has non-integer entries")
        return IntMatrix(self.rows, self.cols, tuple(int(a) for a in self.entries))

    def inverse(self) -> "QMatrix":
        """Exact inverse: D M is an integer matrix for D the lcm of the
        denominators, and M^-1 = D adj(D M) / det(D M) (_adjugate)."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        D = lcm(*(x.denominator for x in self.entries))
        det, adj = _adjugate(tuple((x * D).numerator for x in self.entries), self.rows)
        if not det:
            raise ZeroDivisionError("matrix is singular")
        return QMatrix(self.rows, self.cols, tuple(Fraction(D * x, det) for x in adj))


# ---------------------------------------------------------------------------
# Canonical forms


def hnf(M: IntMatrix) -> IntMatrix:
    """Row Hermite normal form (unimodular row operations only).

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    and zero rows sink to the bottom.  The result is the canonical
    representative of the row span, so lattices compare entry-wise.
    """
    m, n = M.rows, M.cols
    work = [list(M.row(i)) for i in range(m)]
    r = 0
    for j in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if work[i][j] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(work[i][j]), i))
            if i0 != r:
                work[r], work[i0] = work[i0], work[r]
            if work[r][j] < 0:
                work[r] = [-x for x in work[r]]
            p, tail = work[r][j], work[r][j:]
            done = True
            for i in range(r + 1, m):
                q = work[i][j] // p
                if q:
                    work[i][j:] = [a - q * b for a, b in zip(work[i][j:], tail)]
                if work[i][j]:
                    done = False
            if done:
                break
        if work[r][j]:
            p, tail = work[r][j], work[r][j:]
            for i in range(r):
                q = work[i][j] // p
                if q:
                    work[i][j:] = [a - q * b for a, b in zip(work[i][j:], tail)]
            r += 1
    return IntMatrix(m, n, tuple(chain.from_iterable(work)))  # ints already: no from_rows re-conversion


# ---------------------------------------------------------------------------
# Lattices


def _is_hnf(B: IntMatrix) -> bool:
    """Whether B is a row HNF without zero rows, in O(rows x cols): each
    row's pivot (first nonzero entry) positive and strictly right of the
    previous row's, every entry above a pivot in [0, pivot).  By the
    uniqueness of the HNF these are exactly the B with hnf(B) == B and no
    zero row."""
    last = -1
    for i in range(B.rows):
        row = B.row(i)
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None or p <= last or row[p] < 0:
            return False
        if any(not 0 <= x < row[p] for x in B.entries[p : i * B.cols : B.cols]):
            return False
        last = p
    return True


class Lattice(Record):
    """A sublattice of Z^ambient_rank, stored as an HNF basis (rows) with
    zero rows dropped; equality is therefore structural.  The basis is
    checked by its shape (_is_hnf), not by recomputing its HNF."""

    ambient_rank: int
    basis: IntMatrix

    def __post_init__(self):
        if self.basis.cols != self.ambient_rank:
            raise ValueError("basis column count must equal the ambient rank")
        if _is_hnf(self.basis):
            return
        H = hnf(self.basis)
        if any(not any(H.row(i)) for i in range(H.rows)):
            raise ValueError("basis rows must be independent (no zero HNF rows)")
        raise ValueError("basis must be in Hermite normal form")

    @property
    def rank(self) -> int:
        return self.basis.rows

    def coords_of(self, vec) -> tuple[int, ...] | None:
        """Integer coordinates of vec in the basis, or None if vec is not in
        the lattice.  Greedy back-substitution against the HNF pivots."""
        if len(vec) != self.ambient_rank:
            raise ValueError("vector length mismatch")
        work = list(vec)
        coords = []
        for i in range(self.basis.rows):
            row = self.basis.row(i)
            pivot = next(j for j, x in enumerate(row) if x)
            c, rem = divmod(work[pivot], row[pivot])
            if rem:
                return None
            if c:
                work = [a - c * b for a, b in zip(work, row)]
            coords.append(c)
        return tuple(coords) if all(x == 0 for x in work) else None

    def contains(self, vec) -> bool:
        return self.coords_of(vec) is not None


def _kernel_and_image(T: IntMatrix) -> tuple[Lattice, Lattice]:
    """(ker T, im T) from one row HNF of the augmented cols x (rows + cols)
    matrix [T^t | I] (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4).  Its row span is {(T v, v) : v in Z^cols}.  The rows with
    a nonzero left block come first, and their left blocks are the HNF of
    the span of the columns of T, im T.  The rest have a zero left block,
    and their right blocks are the HNF of {v : T v = 0}, ker T.  Both come
    out canonical, so neither is re-reduced."""
    m, n = T.rows, T.cols
    H = hnf(IntMatrix(n, m + n, tuple(x for j in range(n)
                                      for x in T.column(j) + (0,) * j + (1,) + (0,) * (n - 1 - j))))
    rows = [H.row(i) for i in range(n)]
    r = next((i for i, row in enumerate(rows) if not any(row[:m])), n)
    image = Lattice(m, IntMatrix(r, m, tuple(x for row in rows[:r] for x in row[:m])))
    kernel = Lattice(n, IntMatrix(n - r, n, tuple(x for row in rows[r:] for x in row[m:])))
    return kernel, image


def _saturation(B: IntMatrix) -> Lattice | None:
    """The saturation (Q-span) meet Z^cols of the row span of B, any
    integer k x cols basis, as a canonical Lattice, by duality; None when
    B's rows are dependent.  One fraction-free elimination (_bareiss) gives
    the rank and k echelon rows E of the same Q-span, the stale entries
    left of each pivot zeroed, taken last row first.  A rational
    combination c.E is integral exactly when c lies in the dual of the
    lattice that E's columns span in Z^k.  That lattice's Hermite basis U,
    the top k rows of hnf(E^t), is upper triangular, so the rows of
    Y = U^-t.E are a basis of the saturation: U^t.Y = E is solved by
    forward substitution, every division exact.  Row i of Y combines rows
    0..i of E, whose pivots lie right of row i's, so its pivot is that of
    E's row i, and Y, read back in pivot order, is echelon: hnf(Y), the
    canonical basis, only reduces above its pivots."""
    k, cols = B.rows, B.cols
    a = [list(B.row(i)) for i in range(k)]
    J = _bareiss(a, cols)[0]
    if len(J) < k:
        return None
    rows = [[0] * J[i] + a[i][J[i] :] for i in reversed(range(k))]
    U = hnf(IntMatrix(cols, k, tuple(chain.from_iterable(zip(*rows))))).entries
    basis = []
    for i, row in enumerate(rows):
        for l, y in enumerate(basis):
            u = U[l * k + i]
            if u:
                row = [a - u * b for a, b in zip(row, y)]
        p = U[i * k + i]
        if p != 1:
            if any(a % p for a in row):
                raise AssertionError(f"row {i} of the dual basis does not divide its combination of E by {p}")
            row = [a // p for a in row]
        basis.append(row)
    return Lattice(cols, hnf(IntMatrix(k, cols, tuple(chain.from_iterable(reversed(basis))))))


def restrict_to_lattice(T: IntMatrix, lat: Lattice) -> IntMatrix:
    """Matrix of T on the basis of a T-invariant lattice (column-vector
    convention).  Raises if the lattice is not invariant."""
    k = lat.rank
    cols = []
    for i in range(k):
        image = T.apply(lat.basis.row(i))
        coords = lat.coords_of(image)
        if coords is None:
            raise ValueError("lattice is not invariant under the operator")
        cols.append(coords)
    return IntMatrix(k, k, tuple(cols[j][i] for i in range(k) for j in range(k)))


# ---------------------------------------------------------------------------
# Polynomials, as ascending coefficient tuples (see the kernels above)


def char_poly(T: IntMatrix) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - T), monic in Z[x]: (1,) for 0x0.
    The product of the Krylov chains' polynomials, each closing relation
    multiplied out (_krylov_chains), so proven for every T."""
    if not T.is_square:
        raise ValueError("char_poly requires a square matrix")
    return _krylov_chains(T)[0]


def _krylov_chains(T: IntMatrix) -> tuple[tuple[int, ...], list[list[list[int]]]]:
    """(chi, orbits) for a square T, by the greedy cyclic-subspace (Krylov)
    decomposition (Cohen, GTM 138, 2.2; Gantmacher, The Theory of Matrices,
    vol. 1, ch. VII): orbits[i] is g_i, T g_i, T^2 g_i, ... for the i-th
    generator, g_1 = v = (1, 2, ..., n).  Chain i is g_i, ...,
    T^(d_i - 1) g_i, closing where T^(d_i) g_i falls in the span of the
    chain vectors so far: one elimination (_bareiss) of [basis | orbit of
    g_i], the orbit g_i, T g_i, ..., T^(n - D) g_i for D the chain vectors
    so far, so n + 1 columns in Q^n, which always close.  Once a chain
    closes, its span with the basis is T-invariant, so no later orbit
    column takes a pivot: the pivot columns are 0, ..., m - 1, and column
    m = D + d_i closes the chain.  One back-substitution at m with -s
    there, s the pivot of the column before it, +-det of the nonsingular
    minor the basis and chain form, makes the solution integral by Cramer's
    rule (s = 1 for the first chain, whose solution, mu_v's coefficients,
    is integral).  Its own-chain part is -s times the coefficients of
    f_i = x^(d_i) - sum c_j x^j, and the closing relation, s f_i(T) g_i
    equal to the solved combination of the earlier chains' vectors, is
    multiplied out from the f_i that chi is built from, a failure raising
    AssertionError.  The next generator is e_j for the least coordinate j
    outside the elimination's pivot rows, where the basis so far is
    nonsingular, so e_j lies outside its span.  In the basis of all chains
    T is block upper triangular with the companion blocks of f_1, ..., f_k,
    so chi_T = f_1 ... f_k, proven; each f_i is a monic rational factor of
    chi_T, so in Z[x] by Gauss's lemma.  The generators span Q^n as a
    Q[T]-module, so p(T) = 0 exactly when p(T) g_i = 0 for every i."""
    n, e = T.rows, T.entries
    rows = [e[i * n : (i + 1) * n] for i in range(n)]
    chi, basis, orbits, w = (1,), [], [], list(range(1, n + 1))
    while len(basis) < n:
        if basis:  # e_j for the least coordinate j outside the last elimination's pivot rows origin[:m]
            j = min(origin[m:])
            w = [int(i == j) for i in range(n)]
        D, orbit = len(basis), [w]
        for _ in range(n - D):
            w = [sum(map(mul, row, w)) for row in rows]
            orbit.append(w)
        coordinates = list(zip(*basis, *orbit))
        a = [list(coordinate) for coordinate in coordinates]
        J, origin, _ = _bareiss(a, n + 1)
        m = len(J)  # the closing column, as the pivot columns are 0, ..., m - 1
        d, s = m - D, a[m - 1][m - 1] if D else 1
        x = _back_substitute(a, J, [0] * m + [-s])
        f = [-c // s for c in x[D:m]] + [1]
        weights = x[:D] + [-s * c for c in f] if D else f  # the basis combination x[:D] minus s f(T) g
        if any(sum(map(mul, weights, coordinate)) for coordinate in coordinates):
            raise AssertionError("a Krylov chain's closing relation fails: the characteristic polynomial is wrong")
        chi = _zmul(chi, f) if D else tuple(f)
        basis += orbit[:d]
        orbits.append(orbit)
    return chi, orbits


def companion_matrix(p) -> IntMatrix:
    """Companion matrix of a monic integer polynomial of degree >= 1."""
    n = len(p) - 1
    if n < 1 or p[-1] != 1 or not all(isinstance(c, int) and not isinstance(c, bool) for c in p):
        raise ValueError("companion matrix needs a monic integer polynomial of degree >= 1")
    return IntMatrix(n, n, tuple(-p[i] if j == n - 1 else int(i == j + 1)
                                 for i in range(n) for j in range(n)))


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> tuple[int, ...]:
    """The k-th cyclotomic polynomial Phi_k in Z[x], by iterated exact
    division of x^k - 1."""
    if k < 1:
        raise ValueError("cyclotomic index must be positive")
    poly = (-1,) + (0,) * (k - 1) + (1,)
    for d in divisors(k):
        if d < k:
            poly, rem = _zdivmod(poly, cyclotomic(d))
            if rem:
                raise AssertionError(f"Phi_{d} does not divide x^{k} - 1")
    return poly


@lru_cache(maxsize=None)
def _cyclotomic_indices(n: int) -> tuple[int, ...]:
    """Every k with phi(k) <= n, ascending.  phi(k)^2 >= k/2 for every k,
    so scanning k <= 2n^2 + 1 is exhaustive."""
    return tuple(k for k in range(1, 2 * n * n + 2) if euler_phi(k) <= n)
