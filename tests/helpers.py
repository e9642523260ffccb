"""Independent oracles for cross-checking the library.

Everything here is deliberately re-implemented from scratch on nested lists,
ascending coefficient lists and Fractions, without importing the code paths
under test, so the checks stay two-sided.  That includes the Jordan-Chevalley
and rational-invariants oracles, which build on the polynomial arithmetic
over Q below, and the kernel predicate and kernel chain, which use rational
ranks and minors only.  The exceptions are the image oracle and
lattice_from_generators, which reduce with the library's Hermite form so
that lattices compare entry-wise; saturation_oracle, the kernel of the
library's saturated kernel; oracle_image_facts, which reads the image
part of an operator by the library's lattice route, restriction and
analysis, against the facts the analysis reads off chi_T; diagonal_matrix,
full_lattice, scalar_matrix, prime_set_is_infinite and primes_up_to, which
build test inputs and have no caller in the library; and the seeded
builders at the end (rand_matrix to seeded_fitting_operators, submodule
among them), which make test inputs with the library's constructors, and
the golden problem sets of the CLI (module_problems, large_problems,
unit_rings); and the records' oracle, dataclass_twin, the frozen dataclass a
Record class stands for, with record_classes and seeded_records, which
collect the library's record classes and records from its own analyses.
time_limit bounds a test that could hang.
Test modules share code only through this file: none imports another.
"""
from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, permutations, product, takewhile
from math import factorial, gcd, lcm


# -- naive matrix arithmetic on nested lists ------------------------------


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_pow(a, s):
    n = len(a)
    result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(s):
        result = mat_mul(result, a)
    return result


def mat_eq(a, b):
    return a == b


def brute_root_search(T, s, bound):
    """First s-th root of T (nested list) in lexicographic entry order over
    the box [-bound, bound]; full enumeration, no pruning."""
    n = len(T)
    for cand in product(range(-bound, bound + 1), repeat=n * n):
        X = [list(cand[i * n : (i + 1) * n]) for i in range(n)]
        if mat_pow(X, s) == T:
            return X
    return None


def brute_all_roots(T, s, bound):
    n = len(T)
    out = []
    for cand in product(range(-bound, bound + 1), repeat=n * n):
        X = [list(cand[i * n : (i + 1) * n]) for i in range(n)]
        if mat_pow(X, s) == T:
            out.append(X)
    return out


# -- fraction linear algebra ----------------------------------------------


def frac_rank(rows):
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][j]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][j]
        work[rank] = [x / pv for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][j]:
                f = work[i][j]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def frac_det(rows):
    n = len(rows)
    work = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for j in range(n):
        pivot = next((i for i in range(j, n) if work[i][j]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != j:
            work[j], work[pivot] = work[pivot], work[j]
            det = -det
        det *= work[j][j]
        pv = work[j][j]
        for i in range(j + 1, n):
            if work[i][j]:
                f = work[i][j] / pv
                work[i] = [a - f * b for a, b in zip(work[i], work[j])]
    return det


def frac_inverse(rows):
    n = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [r[n:] for r in aug]


def frac_quotient_det(T):
    """Determinant of the map T (nested list) induces on Q^n / ker T, read
    off B^-1 T B in a basis B = (complement, kernel) adapted to the kernel:
    T kills the kernel columns, so the complement block is the induced map."""
    n = len(T)
    # rational kernel basis from the reduced row echelon form of T
    work = [[Fraction(x) for x in r] for r in T]
    pivots = []
    for j in range(n):
        r = len(pivots)
        p = next((i for i in range(r, n) if work[i][j]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        pv = work[r][j]
        work[r] = [x / pv for x in work[r]]
        for i in range(n):
            if i != r and work[i][j]:
                f = work[i][j]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(j)
    free = [j for j in range(n) if j not in pivots]
    kernel = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, j in enumerate(pivots):
            v[j] = -work[r][f]
        kernel.append(v)
    # the pivot coordinate axes complete the kernel to a basis of Q^n
    complement = [[Fraction(int(i == j)) for i in range(n)] for j in pivots]
    cols = complement + kernel
    B = [[cols[j][i] for j in range(n)] for i in range(n)]
    A = mat_mul(frac_inverse(B), mat_mul(T, B))
    r = len(pivots)
    return frac_det([row[:r] for row in A[:r]])


def oracle_direct_and_full(kernel_rows, image_rows, n):
    """Independent check that the two lattices intersect trivially and sum
    to Z^n: Grassmann rank count over Q for the intersection, then
    integrality of the inverse of the stacked basis for the covering."""
    stacked = [list(r) for r in kernel_rows] + [list(r) for r in image_rows]
    if len(stacked) != n:
        return False
    ra = frac_rank(kernel_rows) if kernel_rows else 0
    rb = frac_rank(image_rows) if image_rows else 0
    if frac_rank(stacked) != ra + rb:
        return False  # rational intersection is nontrivial
    inv = frac_inverse(stacked)
    if inv is None:
        return False
    # e_i = z * stacked needs integer z; z-rows are the columns of inv
    return all(x.denominator == 1 for row in inv for x in row)


def oracle_intersection_rank(a_rows, b_rows):
    """dim over Q of span(a) intersect span(b), by Grassmann."""
    if not a_rows or not b_rows:
        return 0
    ra, rb = frac_rank(a_rows), frac_rank(b_rows)
    return ra + rb - frac_rank(list(a_rows) + list(b_rows))


# -- kernel and kernel-chain oracles ---------------------------------------


def is_saturated_kernel(T, lattice):
    """Whether a Lattice is {v in Z^n : T v = 0} for an IntMatrix T: T kills
    every basis row, the rank is n - rank_Q T, and the maximal minors of the
    basis have gcd 1, so the lattice is saturated in Z^n."""
    rows, basis = T.nested(), lattice.basis.nested()
    if any(any(sum(t * x for t, x in zip(row, b)) for row in rows) for b in basis):
        return False
    if len(basis) != T.cols - frac_rank(rows):
        return False
    minors = [frac_det([[b[j] for j in cols] for b in basis])
              for cols in combinations(range(T.cols), len(basis))]
    return gcd(*(int(m) for m in minors)) == 1


def diagonal_matrix(values):
    """The square IntMatrix with the given diagonal."""
    from divlat.exactalg import IntMatrix

    n = len(values)
    return IntMatrix(n, n, tuple(values[i] if i == j else 0 for i in range(n) for j in range(n)))


def full_lattice(ambient):
    """Z^ambient as a Lattice: the identity basis."""
    from divlat.exactalg import IntMatrix, Lattice

    return Lattice(ambient, IntMatrix.identity(ambient))


def lattice_from_generators(ambient, gens):
    """The Lattice spanned by integer vectors of length ambient: the nonzero
    rows of their Hermite form."""
    from divlat.exactalg import IntMatrix, Lattice, hnf

    gens = [list(g) for g in gens]
    H = hnf(IntMatrix.from_rows(gens, cols=ambient)) if gens else IntMatrix(0, ambient, ())
    return Lattice(ambient, IntMatrix.from_rows([r for r in H.nested() if any(r)], cols=ambient))


def saturation_oracle(H):
    """The saturation (Q-span) meet Z^cols of the row span of H, as the
    kernel of its kernel: v lies in it exactly when v is orthogonal to
    every integer w with H w = 0.  Both kernels come from the library's
    _kernel_and_image, one Hermite form of [M^t | I] each, not from the
    dual basis that exactalg._saturation solves for."""
    from divlat.exactalg import _kernel_and_image

    return _kernel_and_image(_kernel_and_image(H)[0].basis)[0]


def image_oracle(T):
    """The honest image of an IntMatrix T: the HNF of its columns."""
    return lattice_from_generators(T.rows, [T.column(j) for j in range(T.cols)])


def oracle_image_facts(T):
    """(|split det|, det M, whether M is semisimple, the order of M or None)
    for M the matrix of an IntMatrix T on im T, by the lattice route: ker T
    and im T from the library's augmented Hermite form, the split's
    determinant that of their stacked bases, M by restriction to the basis
    of im T, and M's facts from a fresh analysis of M."""
    from divlat.classify import _Invariants
    from divlat.exactalg import IntMatrix, _kernel_and_image, restrict_to_lattice

    kernel, image = _kernel_and_image(T)
    n = T.rows
    part = _Invariants(restrict_to_lattice(T, image))
    split_det = abs(IntMatrix(n, n, kernel.basis.entries + image.basis.entries).det())
    return split_det, part.det, part.semisimple, part.order


def fitting_chain_oracle(T):
    """(m, T^m) for the first m with rank_Q T^m = rank_Q T^(m+1).  The
    kernels of the powers grow with m and are saturated, so equal ranks
    mean ker T^m = ker T^(m+1)."""
    from divlat.exactalg import IntMatrix

    rows = T.nested()
    m, power = 1, rows
    while True:
        next_power = mat_mul(power, rows)
        if frac_rank(power) == frac_rank(next_power):
            return m, IntMatrix.from_rows(power)
        m, power = m + 1, next_power


# -- matrices over a quadratic order ----------------------------------------


def ring_mul(params, x, y):
    """(a + b w)(e + f w) for pairs x = (a, b), y = (e, f), where
    w^2 = t w + c and params = (t, c)."""
    t, c = params
    (a, b), (e, f) = x, y
    return (a * e + c * b * f, a * f + b * e + t * b * f)


def ring_mat_mul(params, X, Y):
    """Product of an n x k and a k x m matrix of ring pairs."""
    out = []
    for row in X:
        out.append([])
        for j in range(len(Y[0])):
            terms = [ring_mul(params, x, Y[t][j]) for t, x in enumerate(row)]
            out[-1].append((sum(a for a, _ in terms), sum(b for _, b in terms)))
    return out


def ring_det_leibniz(params, entries):
    """Determinant of a square matrix of ring pairs by the Leibniz expansion:
    the signed sum over all permutations of the products of entries."""
    n = len(entries)
    total = (0, 0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = ((-1) ** inversions, 0)
        for i in range(n):
            term = ring_mul(params, term, entries[i][perm[i]])
        total = (total[0] + term[0], total[1] + term[1])
    return total


def scalar_matrix(module, x):
    """Multiplication by x = (a, b) = a + b w on an OKModule, as an
    IntMatrix."""
    from divlat.exactalg import IntMatrix

    a, b = x
    return IntMatrix.identity(module.z_rank) * a + module.omega_action * b


# -- polynomials over Q on ascending coefficient lists ----------------------


def qpoly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def qpoly_add(a, b):
    width = max(len(a), len(b))
    return qpoly_trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(width))


def qpoly_mul(*factors):
    """The product of the given polynomials, trimmed; [1] for none."""
    out = [1]
    for q in factors:
        q = qpoly_trim(q)
        if not q or not out:
            return []
        prod = [0] * (len(out) + len(q) - 1)
        for i, c in enumerate(out):
            for j, d in enumerate(q):
                prod[i + j] += c * d
        out = prod
    return qpoly_trim(out)


def qpoly_divmod(a, b):
    """(q, r) with a = q b + r, deg r < deg b, over Q for any nonzero b."""
    b = qpoly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(c) for c in qpoly_trim(a)]
    q = [Fraction(0)] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        shift, f = len(r) - len(b), r[-1] / b[-1]
        q[shift] = f
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        r = qpoly_trim(r)
    return qpoly_trim(q), r


def qpoly_monic(p):
    p = qpoly_trim(p)
    return [Fraction(c) / p[-1] for c in p] if p else []


def qpoly_gcd(a, b):
    """Monic gcd over Q by Euclid; [] when both are zero."""
    a, b = qpoly_trim(a), qpoly_trim(b)
    while b:
        a, b = b, qpoly_divmod(a, b)[1]
    return qpoly_monic(a)


def qpoly_derivative(p):
    return qpoly_trim([i * c for i, c in enumerate(p) if i])


def qpoly_radical(p):
    """p / gcd(p, p'), monic: the squarefree part of a nonzero p."""
    q, r = qpoly_divmod(p, qpoly_gcd(p, qpoly_derivative(p)))
    if r:
        raise AssertionError("gcd(p, p') does not divide p")
    return qpoly_monic(q)


def qpoly_eval_matrix(p, rows):
    """p(A) for a square nested list A, by Horner's rule over Fractions."""
    n = len(rows)
    A = [[Fraction(x) for x in row] for row in rows]
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(qpoly_trim(p)):
        acc = mat_mul(acc, A) if n else []
        for i in range(n):
            acc[i][i] += c
    return acc


def frac_min_poly(rows):
    """Monic minimal polynomial of a square nested list over Q: the first
    linear dependence among I, A, A^2, ... (Krylov search)."""
    n = len(rows)
    A = [[Fraction(x) for x in row] for row in rows]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    basis = []  # (pivot, reduced vector, combination of powers)
    for k in range(n + 1):
        vec = [x for row in power for x in row]
        combo = [Fraction(0)] * k + [Fraction(1)]
        for pivot, bvec, bcombo in basis:
            f = vec[pivot]
            if f:
                vec = [a - f * b for a, b in zip(vec, bvec)]
                for i, c in enumerate(bcombo):
                    combo[i] -= f * c
        if not any(vec):
            return combo
        pivot = next(i for i, a in enumerate(vec) if a)
        scale = vec[pivot]
        basis.append((pivot, [a / scale for a in vec], [c / scale for c in combo]))
        power = mat_mul(power, A)
    raise AssertionError("no annihilating polynomial up to degree n")


def min_poly_is_squarefree(rows):
    """Whether a square nested list is semisimple over Q."""
    mu = frac_min_poly(rows)
    return len(qpoly_gcd(mu, qpoly_derivative(mu))) == 1


@lru_cache(maxsize=None)
def count_units(k):
    """phi(k), by counting the units mod k."""
    return sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)


def realizable_orders_by_walk(n):
    """The lcms of the sets of indices k, phi(k) <= n, whose phis sum to at
    most n: a recursive walk over those subsets, each index taken at most
    once.  Exponential in n."""
    ks = [k for k in range(1, 2 * n * n + 2) if count_units(k) <= n]
    found = set()

    def walk(start, budget, order):
        found.add(order)
        for i in range(start, len(ks)):
            if count_units(ks[i]) <= budget:
                walk(i + 1, budget - count_units(ks[i]), lcm(order, ks[i]))

    walk(0, n, 1)
    return frozenset(found)


@lru_cache(maxsize=None)
def cyclotomic_table(n):
    """Every (k, Phi_k) with phi(k) <= n, ascending in k: phi by counting
    units mod k, Phi_k by dividing x^k - 1 by Phi_d for each proper
    divisor d.  phi(k) >= sqrt(k / 2), so k <= 2 n^2 + 1 suffices."""
    table, polys = [], {}
    for k in range(1, 2 * n * n + 2):
        poly = [-1] + [0] * (k - 1) + [1]
        for d in range(1, k):
            if k % d == 0:
                poly, rem = qpoly_divmod(poly, polys[d])
                if rem:
                    raise AssertionError(f"Phi_{d} does not divide x^{k} - 1")
        polys[k] = tuple(int(c) for c in poly)
        if count_units(k) <= n:
            table.append((k, polys[k]))
    return tuple(table)


def char_poly_cofactor(T):
    """det(xI - T) for a square nested list T, ascending, by cofactor
    expansion along the rows over polynomial entries, memoized on the set
    of columns left; independent of the library implementation."""
    n = len(T)
    entry = [[[-T[i][j], 1] if i == j else [-T[i][j]] for j in range(n)] for i in range(n)]

    @lru_cache(maxsize=None)
    def minor(cols):
        i = n - len(cols)
        if not cols:
            return (1,)
        acc = []
        for t, j in enumerate(cols):
            term = qpoly_mul(entry[i][j], minor(cols[:t] + cols[t + 1 :]))
            acc = qpoly_add(acc, [-c for c in term] if t % 2 else term)
        return tuple(acc)

    return list(minor(tuple(range(n))))


# -- Jordan-Chevalley and rational invariants oracles -----------------------


def newton_jordan_chevalley_oracle(T):
    """(semisimple, S, N) for an IntMatrix T, S and N nested lists of
    Fractions, by the matrix-space route: the Krylov minimal polynomial mu
    decides semisimplicity (gcd(mu, mu') = 1), and Newton iteration
    X <- X - r(X) r'(X)^{-1} on r = rad(mu) runs on rational matrices from
    X = T.  classify works on chi and on polynomials modulo chi instead."""
    rows = T.nested()
    n = len(rows)
    mu = frac_min_poly(rows)
    semisimple = len(qpoly_gcd(mu, qpoly_derivative(mu))) == 1
    r = qpoly_radical(mu)
    r_d = qpoly_derivative(r)
    X = [[Fraction(x) for x in row] for row in rows]
    for _ in range(n + 1):
        value = qpoly_eval_matrix(r, X)
        if not any(any(row) for row in value):
            break
        step = mat_mul(value, frac_inverse(qpoly_eval_matrix(r_d, X)))
        X = [[a - b for a, b in zip(x, y)] for x, y in zip(X, step)]
    else:
        raise AssertionError("matrix Newton iteration did not converge")
    return semisimple, X, [[a - b for a, b in zip(t, x)] for t, x in zip(rows, X)]


def rational_invariants_oracle(T):
    """(semisimple, radical, factorization) for a square IntMatrix T by the
    rational route: chi by cofactor expansion, r = rad(chi) by Euclid over
    Q, semisimple iff r(T) = 0 on rational matrices, and the cyclotomic
    factorization of chi by trial division over Q with cyclotomic_table
    (None with a non-cyclotomic factor or a zero eigenvalue).  classify
    computes the same in Z[x] instead."""
    rows = T.nested()
    n = len(rows)
    chi = char_poly_cofactor(rows)
    r = qpoly_radical(chi)
    semisimple = not any(any(row) for row in qpoly_eval_matrix(r, rows))
    if n == 0:
        return semisimple, r, ()
    if chi[0] == 0:
        return semisimple, r, None
    remaining, factorization = chi, []
    for k, phi_k in cyclotomic_table(n):
        e = 0
        while len(remaining) >= len(phi_k):
            q, rem = qpoly_divmod(remaining, phi_k)
            if rem:
                break
            remaining, e = q, e + 1
        if e:
            factorization.append((k, e))
    return semisimple, r, tuple(factorization) if len(remaining) == 1 else None


# -- unit group oracles -----------------------------------------------------


def torsion_by_enumeration(d):
    """(w, generator) of the roots of unity of the ring of integers of
    Q(sqrt(d)) for squarefree d < 0: the elements a + b*omega of norm 1,
    which have |a|, |b| <= 2, their orders by repeated multiplication, and
    the largest (b, a) among those of order w.  Norms and products come
    from omega^2 = t*omega + c."""
    t, c = (1, (d - 1) // 4) if d % 4 == 1 else (0, d)
    units = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if a * a + t * a * b - c * b * b == 1]

    def order(x):
        k, power = 1, x
        while power != (1, 0):
            k, power = k + 1, ring_mul((t, c), power, x)
        return k

    w = len(units)
    b, a = max((b, a) for a, b in units if order((a, b)) == w)
    return w, (a, b)


def brute_fundamental_unit(d, b_max=None):
    """Minimal unit greater than 1 of the ring of integers of Q(sqrt(d)),
    by ascending search on the omega coefficient; exact sign comparisons
    only.  With b_max given, the search stops there and returns None when
    no unit has omega coefficient at most b_max."""
    if d % 4 == 1:
        t, c = 1, (d - 1) // 4
        radicand = d
    else:
        t, c = 0, d
        radicand = 4 * d

    def norm(a, b):
        return a * a + t * a * b - c * b * b

    def greater_than_one(a, b):
        # sign of (2a + t b - 2) + b * sqrt(radicand)
        p, q = 2 * a + t * b - 2, b
        if q == 0:
            return p > 0
        if p >= 0 and q > 0:
            return (p, q) != (0, 0)
        if p <= 0 and q < 0:
            return False
        if q > 0:  # p < 0
            return q * q * radicand > p * p
        return p * p > q * q * radicand  # q < 0, p > 0

    def embeds_less(u, v):
        a, b = u[0] - v[0], u[1] - v[1]
        p, q = 2 * a + t * b, b
        if q == 0:
            return p < 0
        if p <= 0 and q < 0:
            return True
        if p >= 0 and q > 0:
            return False
        if q > 0:
            return p * p > q * q * radicand
        return q * q * radicand > p * p

    from math import isqrt

    b = 1
    while b_max is None or b <= b_max:
        hits = []
        for rhs in (1, -1):
            disc = t * t * b * b + 4 * (c * b * b + rhs)
            if disc < 0:
                continue
            r = isqrt(disc)
            if r * r != disc:
                continue
            for sgn in (1, -1):
                num = -t * b + sgn * r
                if num % 2 == 0:
                    a = num // 2
                    if norm(a, b) in (1, -1):
                        hits.append((a, b))
        candidates = []
        for a, bb in hits:
            for u in ((a, bb), (-a, -bb)):
                if greater_than_one(*u):
                    candidates.append(u)
        if candidates:
            best = candidates[0]
            for u in candidates[1:]:
                if embeds_less(u, best):
                    best = u
            return best
        b += 1
    return None


# -- exponent-set and Pi_S enumeration oracles ------------------------------


def primes_up_to(n):
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(n + 1) if sieve[i]]


def trial_factors(n):
    """The prime factorization of n >= 1 by trial division alone, by 2 and
    the odd numbers."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_set_is_infinite(P):
    """Whether a PrimeSet holds infinitely many primes."""
    return P.cofinite


def elements_up_to(S, limit):
    """The elements <= limit of an exponent-set descriptor, ascending,
    generated from its fields by the set's definition, not by the
    descriptor's own code: scale * base^j (j >= 0), j! (j >= 1),
    a + k*m (positive only), start, start + 1, ..., or the finite list."""
    kind = type(S).__name__
    if kind == "FiniteSet":
        return sorted(e for e in set(S.elements) if e <= limit)
    if kind == "Geometric":
        terms = (S.scale * S.base ** j for j in count())
    elif kind == "Factorials":
        terms = (factorial(j) for j in count(1))
    elif kind == "Residue":
        terms = (S.a + k * S.m for k in count(0 if S.a else 1))
    elif kind == "AllFrom":
        terms = count(S.start)
    else:
        raise TypeError(f"unknown descriptor {S!r}")
    return list(takewhile(lambda v: v <= limit, terms))


def residue_class_max_exponents(a, m, limit, primes):
    """max nu_p over the class {n > 0 : n == a mod m} up to limit, per prime."""
    out = {p: 0 for p in primes}
    start = a if a > 0 else m
    for n in range(start, limit + 1, m):
        for p in primes:
            if n % p == 0:
                e = 0
                q = n
                while q % p == 0:
                    q //= p
                    e += 1
                if e > out[p]:
                    out[p] = e
    return out


def residue_pi_estimate(a, m, limit, primes):
    """Primes judged unbounded over the class, by enumeration: p qualifies
    iff the class up to limit contains a multiple of p^k for every k with
    m * p^k <= limit (a CRT solution exists below m * p^k when one exists
    at all, so the verdict is exact for p with m * p^(nu_p(m)+1) <= limit)."""
    maxes = residue_class_max_exponents(a, m, limit, primes)
    verdict = {}
    for p in primes:
        k_max = 0
        while m * p ** (k_max + 1) <= limit:
            k_max += 1
        verdict[p] = maxes[p] >= k_max
    return verdict


# -- seeded operators -------------------------------------------------------


def unimodular_pair(n, rng, steps):
    """(U, U^-1) as nested lists: U a product of `steps` random elementary
    matrices I + c e_ij, c = +-1, and U^-1 the product of their inverses."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    uinv = [row[:] for row in u]
    for _ in range(steps):
        i, j, c = rng.randrange(n), rng.randrange(n), rng.choice((-1, 1))
        if i != j:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            for row in uinv:
                row[j] -= c * row[i]
    return u, uinv


def seeded_operator(kind, n, rng):
    """An n x n operator as nested lists: entries in [-3, 3] ("random"), or
    a block sum of companion matrices of Phi_k with phi(k) <= 6
    ("finite-order") or a strictly upper triangular matrix ("nilpotent"),
    each conjugated by a random unimodular matrix."""
    if kind == "random":
        return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if kind == "nilpotent":
        T = [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
    else:
        T, left = [[0] * n for _ in range(n)], n
        while left:
            phi = rng.choice([p for _, p in cyclotomic_table(6) if len(p) - 1 <= left])
            m, off = len(phi) - 1, n - left
            for i in range(m):
                T[off + i][off + m - 1] = -phi[i]
                if i:
                    T[off + i][off + i - 1] = 1
            left -= m
    u, uinv = unimodular_pair(n, rng, n)
    return mat_mul(mat_mul(u, T), uinv)


# -- seeded inputs built with the library's constructors -------------------


def rand_matrix(rng, n, bound):
    """An n x n IntMatrix with entries in [-bound, bound]."""
    from divlat.exactalg import IntMatrix

    return IntMatrix(n, n, tuple(rng.randint(-bound, bound) for _ in range(n * n)))


def rand_unimodular(rng, n):
    """A product of ten random elementary row operations with multipliers
    in {-2, -1, 1, 2}, as an IntMatrix."""
    from divlat.exactalg import IntMatrix

    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(10):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


def commutator_equations(mats, n):
    """The integer matrix of X -> (XM - MX for M in mats) on X flattened
    row-major."""
    from divlat.exactalg import IntMatrix

    rows = []
    for M in mats:
        for a in range(n):
            for b in range(n):
                row = [0] * (n * n)
                for j in range(n):
                    row[a * n + j] += M[j, b]
                for i in range(n):
                    row[i * n + b] -= M[a, i]
                rows.append(row)
    return IntMatrix.from_rows(rows, cols=n * n)


def commutant_oracle(mats, n):
    """The integer n x n matrices, flattened row-major, that commute with
    every M in mats: the kernel of commutator_equations, read off the
    library's augmented Hermite form (_kernel_and_image), not off the
    elimination and the saturation that the library's commutant takes."""
    from divlat.exactalg import _kernel_and_image

    return _kernel_and_image(commutator_equations(mats, n))[0]


def seeded_module_problems(seed):
    """(T, module) over the regular modules of ranks 1 and 2 over O_d."""
    from divlat.numberring import OKModule, QuadraticOrder, embed_ok_matrix

    rng = random.Random(seed)
    for d in (-1, -3, 2, 5):
        order = QuadraticOrder(d)
        for rank in (1, 2):
            module = OKModule.regular(order, rank)
            for _ in range(2):
                X = embed_ok_matrix(order, [[(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rank)]
                                            for _ in range(rank)])
                yield X ** rng.choice((1, 2, 3)), module


def submodule(module, lattice):
    """The OKModule that module's ring action induces on an omega-invariant
    sublattice: omega restricted to the lattice's basis."""
    from divlat.exactalg import restrict_to_lattice
    from divlat.numberring import OKModule

    return OKModule(module.order, lattice.rank, restrict_to_lattice(module.omega_action, lattice))


def seeded_fitting_operators(seed, count, n_max=8):
    """Square operators of sizes 1..n_max: random, and conjugated
    nilpotent, low-rank, and zero plus finite order (a zero block beside
    cyclotomic companion blocks)."""
    from divlat.corpus import block_diagonal, conjugate, random_unimodular
    from divlat.exactalg import IntMatrix, companion_matrix, cyclotomic
    from divlat.primes import euler_phi

    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, n_max)
        kind = rng.choice(("random", "nilpotent", "low-rank", "finite-order"))
        if kind == "random":
            yield rand_matrix(rng, n, 3)
            continue
        if kind == "nilpotent":
            T = IntMatrix.from_rows([[rng.randint(-2, 2) if j > i else 0 for j in range(n)]
                                     for i in range(n)])
        elif kind == "low-rank":
            k = rng.randint(0, n)
            left = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
            right = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            T = IntMatrix.from_rows([[sum(left[i][t] * right[t][j] for t in range(k))
                                      for j in range(n)] for i in range(n)])
        else:
            zeros = rng.randint(0, n - 1)
            blocks, left = [IntMatrix.zeros(zeros, zeros)] if zeros else [], n - zeros
            while left:
                k = rng.choice([k for k in range(1, 13) if euler_phi(k) <= left])
                blocks.append(companion_matrix(cyclotomic(k)))
                left -= euler_phi(k)
            T = block_diagonal(blocks)
        yield conjugate(T, random_unimodular(n, rng, steps=2 * n))


# -- the records' dataclass oracle ---------------------------------------------

# The fields a record's repr leaves out, by class, as field(repr=False) did.
REPR_HIDDEN = {"FittingSplit": {"operator"}}


def dataclass_twin(cls):
    """The frozen dataclass a Record class stands for, built from the
    class's own annotations, in order, with a class attribute of a field's
    name as that field's default, under the class's name, so that reprs
    compare."""
    import dataclasses

    own, hidden = vars(cls), REPR_HIDDEN.get(cls.__name__, ())
    fields = []
    for name, annotation in own.get("__annotations__", {}).items():
        default = {"default": own[name]} if name in own else {}
        fields.append((name, annotation, dataclasses.field(repr=name not in hidden, **default)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def record_classes():
    """Every Record class of the library, all its modules imported."""
    import divlat.cli  # noqa: F401 (imports every module)
    from divlat._record import Record

    return [cls for cls in Record.__subclasses__() if cls.__module__.startswith("divlat.")]


def seeded_records(seed):
    """The records reachable, through record fields and tuples, from the
    answers of a few analyses: verify, spectrum, classify, fitting and root
    search on the seed's corpus problems and modules, certificates of each
    kind, unit groups and supernatural numbers.  Returns them by class name,
    in the order found."""
    from divlat._record import Record
    from divlat.classify import classify_operator
    from divlat.corpus import KINDS, gen_corpus
    from divlat.divisibility import divisibility_spectrum, impossibility_certificates, root_search
    from divlat.exactalg import IntMatrix
    from divlat.fitting import fitting_decompose
    from divlat.numberring import ZZ, OKModule, QuadraticOrder, embed_ok_matrix, unit_group
    from divlat.supernat import INF, Factorials, FiniteSet, PrimeSet, Supernatural, lcm_sn, pi_S
    from divlat.verifier import verify

    roots = []
    for kind in KINDS:
        for problem in gen_corpus(kind, seed)[:2]:
            T = problem.operator
            roots += [problem, verify(ZZ, None, T, problem.exponent_set, problem.witnesses), classify_operator(T),
                      fitting_decompose(T), divisibility_spectrum(T, 3, 1), root_search(T, 2, 1, timeout_ms=0)]
    T, module = next(seeded_module_problems(seed))
    roots += [module, verify(module.order, module, T, FiniteSet((3, 2, 3)), ()),
              divisibility_spectrum(T, 3, 1, module=module)]
    order = QuadraticOrder(-1)
    roots += [impossibility_certificates(IntMatrix(1, 1, (e,)), 2) for e in (2, -2, -1)]
    roots += [impossibility_certificates(IntMatrix(2, 2, (0, 1, 0, 0)), 2),
              impossibility_certificates(embed_ok_matrix(order, [[(2, 0)]]), 3, OKModule.regular(order, 1))]
    roots += [(QuadraticOrder(d), unit_group(QuadraticOrder(d))) for d in (-3, 2, 5)]
    roots += [ZZ, FiniteSet((4,)), Factorials(), pi_S(Factorials()), PrimeSet.all_except((2, 3)),
              lcm_sn(Supernatural.of({2: INF, 3: 1}), Supernatural.of({3: 2, 11: 1}))]
    found = {}

    def walk(value):
        if isinstance(value, (tuple, list)):
            for item in value:
                walk(item)
        elif isinstance(value, Record):
            found.setdefault(type(value).__name__, []).append(value)
            walk([getattr(value, name) for name in value._fields])

    walk(roots)
    return found


# -- the golden problem sets of the CLI -------------------------------------


def module_problems():
    """Over the regular modules of ranks 1 and 2 over O_d: a random
    operator, one with a zero last row, a projection onto the first
    coordinate, and a square carrying its root as witness."""
    from divlat.numberring import OKModule, QuadraticOrder, embed_ok_matrix
    from divlat.serialize import problem_to_json
    from divlat.supernat import AllFrom, Geometric

    rng = random.Random(13)
    problems = []
    for d in (-5, -1, 2, 5):
        order = QuadraticOrder(d)
        for rank in (1, 2):
            for shape in ("random", "singular", "projection", "square"):
                rows = [[(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rank)] for _ in range(rank)]
                if shape == "singular":
                    rows[-1] = [(0, 0)] * rank
                elif shape == "projection":
                    rows = [[(int(i == j == 0), 0) for j in range(rank)] for i in range(rank)]
                X = embed_ok_matrix(order, rows)
                if shape == "square":
                    T, S, witnesses = X ** 2, AllFrom(2), ((2, X),)
                else:
                    T, S, witnesses = X, Geometric(2, 1), ()
                problems.append(problem_to_json(order, OKModule.regular(order, rank), T, S, witnesses,
                                                name=f"module-{d}-{rank}-{shape}"))
    return problems


def large_problems():
    """One problem with S = 2^N per kind of seeded_operator and n = 6..12."""
    rng = random.Random(19)
    return [{"name": f"{kind}-{n}", "S": {"geometric": {"base": 2, "scale": 1}},
             "operator": {"rows": n, "cols": n, "entries": seeded_operator(kind, n, rng)}}
            for kind in ("random", "finite-order", "nilpotent") for n in range(6, 13)]


def unit_rings():
    """The ring file of every quadratic order with d in [-200, 200]."""
    from divlat.primes import is_squarefree

    return [{"ring": {"quadratic": {"d": d}}} for d in range(-200, 201) if d not in (0, 1) and is_squarefree(d)]


# -- time limits ---------------------------------------------------------------


class _OverBudget(Exception):
    pass


@contextmanager
def time_limit(seconds):
    """Fail the block with TimeoutError once it has run for `seconds`, so a
    hang fails the test instead of stalling the suite (SIGALRM: POSIX, main
    thread only).  The error is raised afresh here, without the frames the
    alarm interrupted: pytest cannot always render a frame stopped between
    two lines."""
    def over_budget(signum, frame):
        raise _OverBudget

    previous = signal.signal(signal.SIGALRM, over_budget)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _OverBudget:
        raise TimeoutError(f"took longer than {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
