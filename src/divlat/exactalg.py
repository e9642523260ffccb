"""Exact linear algebra over the integers and rationals.

Dense, immutable, arbitrary-precision matrices; Hermite and Smith normal
forms; saturated kernels and honest images as canonical lattices, both read
off one Hermite form (the Smith form serves only the ``snf`` command); and
exact characteristic/minimal polynomials.  Nothing here ever touches a float.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, floordiv, mul, sub, truediv

from .primes import divisors, euler_phi


# ---------------------------------------------------------------------------
# Entry-tuple kernels.  A matrix is a row-major tuple of int or Fraction
# entries; the matrix classes below and the root-search scan share these.


def _identity(n: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def _tuple_mul(a, b, rows: int, inner: int, cols: int) -> tuple:
    """Product of a (rows x inner) and b (inner x cols)."""
    columns = [b[j::cols] for j in range(cols)]
    return tuple(sum(map(mul, a[i * inner : (i + 1) * inner], col))
                 for i in range(rows) for col in columns)


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


def _tuple_det(x, n: int):
    """Determinant of a square n x n entry tuple: closed forms up to 3 x 3
    (the root-search scan calls this millions of times), fraction-free
    Bareiss elimination beyond, whose divisions are exact."""
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
    div = floordiv if all(type(e) is int for e in x) else truediv
    a = [list(x[i * n : (i + 1) * n]) for i in range(n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        top, pivot = a[k], a[k][k]
        for row in a[k + 1 :]:
            for j in range(k + 1, n):
                row[j] = div(row[j] * pivot - row[k] * top[j], prev)
            row[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Integer polynomial kernels.  A polynomial in Z[x] is an ascending tuple of
# ints without trailing zeros; () is the zero polynomial.


def _zdivmod(a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(q, r) with a = q b + r and deg r < deg b, for a monic b: exact in Z."""
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


@dataclass(frozen=True)
class IntMatrix(_Matrix):
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

    @classmethod
    def diagonal(cls, values) -> "IntMatrix":
        values = list(values)
        n = len(values)
        return cls(n, n, tuple(values[i] if i == j else 0 for i in range(n) for j in range(n)))

    # -- access --------------------------------------------------------
    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def nested(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- algebra ---------------------------------------------------------
    # Bound here rather than inherited: per-class instrumentation (the
    # benchmark's tracer) finds methods in the class __dict__.
    __pow__ = _Matrix.__pow__

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)))

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

    def rank(self) -> int:
        H = hnf(self)
        return sum(1 for i in range(self.rows) if any(H.row(i)))

    def __str__(self) -> str:
        return "[" + ", ".join(str(list(self.row(i))) for i in range(self.rows)) + "]"


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"non-rational entry {x!r}")


@dataclass(frozen=True)
class QMatrix(_Matrix):
    """Dense matrix over the rationals (exact Fraction entries)."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    _scalars = (int, Fraction)

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")
        object.__setattr__(self, "entries", tuple(_frac(x) for x in self.entries))

    @classmethod
    def from_rows(cls, rows) -> "QMatrix":
        rows = [list(r) for r in rows]
        cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, tuple(_frac(x) for r in rows for x in r))

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
        """Exact inverse by Gauss-Jordan elimination."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = [list(self.row(i)) + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
            if pivot is None:
                raise ZeroDivisionError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            scale = aug[col][col]
            aug[col] = [x / scale for x in aug[col]]
            for i in range(n):
                if i != col and aug[i][col]:
                    f = aug[i][col]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
        return QMatrix.from_rows([r[n:] for r in aug])


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
    return IntMatrix.from_rows(work, cols=n)


def snf(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (D, U, V) with U*M*V = D, U and V
    unimodular, D diagonal with non-negative d_1 | d_2 | ... entries."""
    m, n = M.rows, M.cols
    A = [list(M.row(i)) for i in range(m)]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_sub(i, k, q):
        A[i] = [a - q * b for a, b in zip(A[i], A[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    def col_sub(j, k, q):
        for row in A:
            row[j] -= q * row[k]
        for row in V:
            row[j] -= q * row[k]

    def swap_rows(i, k):
        A[i], A[k] = A[k], A[i]
        U[i], U[k] = U[k], U[i]

    def swap_cols(j, k):
        for row in A:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(m, n):
        entries = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not entries:
            break
        while True:
            _, pi, pj = min(entries)
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            if A[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        row_sub(i, t, q)
                    if A[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        col_sub(j, t, q)
                    if A[t][j]:
                        dirty = True
            if not dirty:
                bad = next(((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
                            if A[i][j] % A[t][t] != 0), None)
                if bad is None:
                    break
                row_sub(t, bad[0], -1)  # row t += row bad
                dirty = True
            entries = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        t += 1
    D = IntMatrix.from_rows(A, cols=n)
    return D, IntMatrix.from_rows(U, cols=m), IntMatrix.from_rows(V, cols=n)


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


@dataclass(frozen=True)
class Lattice:
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

    @classmethod
    def from_generators(cls, ambient: int, gens) -> "Lattice":
        gens = [list(g) for g in gens]
        if not gens:
            return cls(ambient, IntMatrix(0, ambient, ()))
        H = hnf(IntMatrix.from_rows(gens, cols=ambient))
        rows = [H.row(i) for i in range(H.rows) if any(H.row(i))]
        return cls(ambient, IntMatrix.from_rows(rows, cols=ambient))

    @classmethod
    def zero(cls, ambient: int) -> "Lattice":
        return cls(ambient, IntMatrix(0, ambient, ()))

    @classmethod
    def full(cls, ambient: int) -> "Lattice":
        return cls(ambient, IntMatrix.identity(ambient))

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

    def add(self, other: "Lattice") -> "Lattice":
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient rank mismatch")
        gens = [self.basis.row(i) for i in range(self.rank)]
        gens += [other.basis.row(i) for i in range(other.rank)]
        return Lattice.from_generators(self.ambient_rank, gens)

    def intersect(self, other: "Lattice") -> "Lattice":
        """Exact lattice intersection via the integer kernel of the stacked
        relation matrix."""
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient rank mismatch")
        if self.rank == 0 or other.rank == 0:
            return Lattice.zero(self.ambient_rank)
        stacked = IntMatrix.from_rows(
            [self.basis.row(i) for i in range(self.rank)]
            + [other.basis.row(i) for i in range(other.rank)],
            cols=self.ambient_rank,
        )
        relations = kernel_saturated(stacked.transpose())
        gens = []
        for i in range(relations.rank):
            z = relations.basis.row(i)
            x = z[: self.rank]
            gens.append(tuple(sum(x[t] * self.basis[t, j] for t in range(self.rank))
                              for j in range(self.ambient_rank)))
        return Lattice.from_generators(self.ambient_rank, gens)


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


def kernel_saturated(T: IntMatrix) -> Lattice:
    """The lattice {v in Z^cols : T v = 0}, read off the same Hermite form as
    the image (_kernel_and_image).  Kernels of integer matrices are
    automatically saturated: the quotient by them is torsion-free."""
    return _kernel_and_image(T)[0]


def image_lattice(T: IntMatrix) -> Lattice:
    """The honest image T * Z^cols (not saturated by design)."""
    return Lattice.from_generators(T.rows, [T.column(j) for j in range(T.cols)])


def restrict_to_lattice(T: IntMatrix, lat: Lattice) -> IntMatrix:
    """Matrix of T on the basis of a T-invariant lattice (column-vector
    convention).  Raises if the lattice is not invariant."""
    k = lat.rank
    if k == 0:
        return IntMatrix(0, 0, ())
    cols = []
    for i in range(k):
        image = T.apply(lat.basis.row(i))
        coords = lat.coords_of(image)
        if coords is None:
            raise ValueError("lattice is not invariant under the operator")
        cols.append(coords)
    return IntMatrix.from_rows([[cols[j][i] for j in range(k)] for i in range(k)], cols=k)


# ---------------------------------------------------------------------------
# Polynomials


@dataclass(frozen=True)
class RatPoly:
    """Polynomial over Q, coefficients ascending, trailing zeros trimmed."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = [_frac(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def of(cls, *coeffs) -> "RatPoly":
        return cls(tuple(Fraction(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading == 1

    def is_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return RatPoly(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return RatPoly(tuple(c * other for c in self.coeffs))
        if isinstance(other, RatPoly):
            if self.is_zero() or other.is_zero():
                return RatPoly(())
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, c in enumerate(self.coeffs):
                if c:
                    for j, d in enumerate(other.coeffs):
                        out[i + j] += c * d
            return RatPoly(tuple(out))
        return NotImplemented

    __rmul__ = __mul__

    def __divmod__(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        r = list(self.coeffs)
        d = other.coeffs
        while len(r) >= len(d) and any(r):
            if r[-1] == 0:
                r.pop()
                continue
            shift = len(r) - len(d)
            f = r[-1] / d[-1]
            q[shift] = f
            for i, c in enumerate(d):
                r[shift + i] -= f * c
            r.pop()
        return RatPoly(tuple(q)), RatPoly(tuple(r))

    def __mod__(self, other: "RatPoly") -> "RatPoly":
        return divmod(self, other)[1]

    def monic(self) -> "RatPoly":
        if self.is_zero():
            return self
        lead = self.leading
        return RatPoly(tuple(c / lead for c in self.coeffs))

    def derivative(self) -> "RatPoly":
        return RatPoly(tuple(c * i for i, c in enumerate(self.coeffs) if i))

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, M: QMatrix) -> QMatrix:
        """Horner evaluation at a square rational matrix."""
        n = M.rows
        acc = QMatrix.zeros(n, n)
        eye = QMatrix.identity(n)
        for c in reversed(self.coeffs):
            acc = acc * M + eye * c
        return acc

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                x = "x" if i == 1 else f"x^{i}"
                body = x if mag == 1 else f"{mag}*{x}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd over Q by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def squarefree_part(p: RatPoly) -> RatPoly:
    """p divided by gcd(p, p'), made monic: the radical of p."""
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    q, r = divmod(p, g)
    if not r.is_zero():
        raise AssertionError("gcd(p, p') does not divide p")
    return q.monic()


def char_poly(T: IntMatrix) -> RatPoly:
    """Characteristic polynomial det(xI - T), monic with integer coefficients,
    by the Faddeev-LeVerrier recurrence (exact divisions), whose last matrix,
    chi(T), is checked to be zero."""
    if not T.is_square:
        raise ValueError("char_poly requires a square matrix")
    n = T.rows
    cs: list[int] = []
    M = _identity(n)
    for k in range(1, n + 1):
        N = _tuple_mul(T.entries, M, n, n, n)
        tr = sum(N[:: n + 1])
        if tr % k:
            raise AssertionError("Faddeev-LeVerrier division failed")
        c = -(tr // k)
        cs.append(c)
        M = tuple(a + c if i % (n + 1) == 0 else a for i, a in enumerate(N))
    if any(M):  # M = chi(T), zero by Cayley-Hamilton
        raise AssertionError("Faddeev-LeVerrier recurrence did not terminate at zero")
    ascending = [Fraction(c) for c in reversed(cs)] + [Fraction(1)]
    return RatPoly(tuple(ascending))


def min_poly(T) -> RatPoly:
    """Monic minimal polynomial of an IntMatrix or QMatrix, found as the
    first exact linear dependence among I, T, T^2, ... (Krylov search over
    Q; the powers stay in the entry type of T)."""
    if T.rows != T.cols:
        raise ValueError("min_poly requires a square matrix")
    n = T.rows
    basis: list[tuple[int, list[Fraction], list[Fraction]]] = []
    power = _identity(n)
    for k in range(n + 1):
        vec = list(power)
        combo = [Fraction(0)] * k + [Fraction(1)]
        for pivot, bvec, bcombo in basis:
            f = vec[pivot]
            if f:
                vec = [a - f * b for a, b in zip(vec, bvec)]
                for i, c in enumerate(bcombo):
                    combo[i] -= f * c
        if not any(vec):
            return RatPoly(tuple(combo))
        pivot = next(i for i, a in enumerate(vec) if a)
        scale = Fraction(vec[pivot])
        vec = [a / scale for a in vec]
        combo = [c / scale for c in combo]
        basis.append((pivot, vec, combo))
        power = _tuple_mul(power, T.entries, n, n, n)
    raise AssertionError("no annihilating polynomial up to degree n")


def companion_matrix(p: RatPoly) -> IntMatrix:
    """Companion matrix of a monic integer polynomial."""
    if not (p.is_monic() and p.is_integer() and p.degree >= 1):
        raise ValueError("companion matrix needs a monic integer polynomial of degree >= 1")
    n = p.degree
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -int(p.coeffs[i])
    return IntMatrix.from_rows(rows)


@lru_cache(maxsize=None)
def _zcyclotomic(k: int) -> tuple[int, ...]:
    """Phi_k in Z[x], by iterated exact division of x^k - 1."""
    poly = (-1,) + (0,) * (k - 1) + (1,)
    for d in divisors(k):
        if d < k:
            poly, rem = _zdivmod(poly, _zcyclotomic(d))
            if rem:
                raise AssertionError(f"Phi_{d} does not divide x^{k} - 1")
    return poly


@lru_cache(maxsize=None)
def _cyclotomic_indices(n: int) -> tuple[int, ...]:
    """Every k with phi(k) <= n, ascending.  phi(k)^2 >= k/2 for every k,
    so scanning k <= 2n^2 + 1 is exhaustive."""
    return tuple(k for k in range(1, 2 * n * n + 2) if euler_phi(k) <= n)


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> RatPoly:
    """The k-th cyclotomic polynomial."""
    if k < 1:
        raise ValueError("cyclotomic index must be positive")
    return RatPoly(_zcyclotomic(k))


def cyclotomics_up_to_degree(n: int) -> list[tuple[int, RatPoly]]:
    """All (k, Phi_k) with phi(k) <= n, sorted by k."""
    if n < 1:
        raise ValueError("degree bound must be positive")
    return [(k, cyclotomic(k)) for k in _cyclotomic_indices(n)]
