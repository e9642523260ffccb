"""Integer arithmetic owned by the benchmark, kept apart from divlat's.

The answer checks and the large-operator generator use only these helpers,
so a defect in divlat's matrix core cannot hide itself by also corrupting
the check.  Matrices are lists of rows of ints (or Fractions).
"""
from __future__ import annotations

from fractions import Fraction


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_pow(a, k):
    result = identity(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def apply(a, vec):
    return [sum(x * y for x, y in zip(row, vec)) for row in a]


def parse_entry(x):
    """A JSON matrix entry: an int or a "p/q" string."""
    return Fraction(x) if isinstance(x, str) else x


def nested(obj):
    """Rows of a {"rows", "cols", "entries"} matrix object."""
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    if entries and isinstance(entries[0], list):
        return [[parse_entry(x) for x in row] for row in entries]
    flat = [parse_entry(x) for x in entries]
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)]


def quadratic_norm(d, a, b):
    """Norm of a + b*omega in the ring of integers of Q(sqrt(d))."""
    if d % 4 == 1:
        return a * a + a * b - (d - 1) // 4 * b * b
    return a * a - d * b * b


# -- polynomials over Z as ascending coefficient lists ---------------------


def poly_divmod_monic(num, den):
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1]
        q[shift] = c
        if c:
            for i, x in enumerate(den):
                num[shift + i] -= c * x
    return q, num[: len(den) - 1]


_CYCLOTOMIC = {}


def cyclotomic(k):
    """Integer coefficients of Phi_k, ascending."""
    if k not in _CYCLOTOMIC:
        poly = [-1] + [0] * (k - 1) + [1]
        for d in range(1, k):
            if k % d == 0:
                poly, rem = poly_divmod_monic(poly, cyclotomic(d))
                if any(rem):
                    raise ArithmeticError(f"Phi_{d} does not divide x^{k} - 1")
        _CYCLOTOMIC[k] = poly
    return _CYCLOTOMIC[k]


def euler_phi(k):
    return len(cyclotomic(k)) - 1


def companion(poly):
    n = len(poly) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -poly[i]
    return rows


def block_sum(blocks):
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[off + i][off: off + len(row)] = row
        off += len(b)
    return rows


def unimodular_pair(n, rng, steps):
    """(U, U^-1) built from random elementary row operations."""
    u, uinv = identity(n), identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        # U <- E U with E = I + c e_ij ; U^-1 <- U^-1 E^-1, E^-1 = I - c e_ij
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in uinv:
            row[j] -= c * row[i]
    return u, uinv


def conjugate(t, pair):
    u, uinv = pair
    return mat_mul(mat_mul(u, t), uinv)


def pell_unit(d):
    """Fundamental unit (a, b) = a + b*sqrt(d) of Z[sqrt(d)], d > 1 squarefree
    and d = 2, 3 (mod 4): the first continued-fraction convergent of
    sqrt(d) of norm +-1."""
    from math import isqrt

    a0 = isqrt(d)
    m, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while h * h - d * k * k not in (1, -1):
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    return [h, k]
