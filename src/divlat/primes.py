"""Small exact number-theory helpers shared across the package."""
from __future__ import annotations

from math import gcd

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # is_prime is proven below this
_TRIAL_DIVISORS = (2, 3, *(k + i for k in range(6, 1000, 6) for i in (-1, 1)))  # 2, 3, 6k +- 1 < 1000
_RHO_CONSTANTS = 8  # Brent's rho tries x^2 + c for c = 1.._RHO_CONSTANTS
_RHO_BATCH = 128  # steps whose differences share one gcd
# rho's last round, comparing points up to 2^23 apart: it misses a prime
# p < sqrt(psi_13) ~ 1.82e12 only if p's rho tail or cycle, near Rayleigh
# with scale sqrt(p), passes 2^23 ~ 6.2 sqrt(p), odds ~ e^-19 ~ 4e-9.  One
# walk, not a restart at the next c: two walks of r <= 2^21 fail likelier.
_RHO_MAX_R = 2 ** 22


def is_prime(n: int) -> bool:
    """Miller-Rabin with the thirteen prime bases 2..41.  A witness proves n
    composite at any size; passing every base proves n prime below
    psi_13 = 3317044064679887385961981 > 3.3e24 (Sorenson and Webster, Math.
    Comp. 86 (2017)) and nothing from there on, so there it raises
    ValueError.  The twelve bases 2..37 alone pass the composite
    psi_12 = 318665857834031151167461 = 399165290221 * 798330580441."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI_13:
        raise ValueError(f"cannot prove {n} prime: Miller-Rabin proves nothing at or above psi_13")
    return True


def _brent_divisor(n: int) -> int | None:
    """A proper divisor of the odd composite n by Brent's variant of
    Pollard's rho (R. P. Brent, BIT 20 (1980)), iterating x^2 + c from 2
    for c = 1, 2, ..., or None when every constant ends in the trivial
    divisor n or a walk outruns _RHO_MAX_R.  A prime factor p of n costs
    about sqrt(p) steps."""
    for c in range(1, _RHO_CONSTANTS + 1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if r > _RHO_MAX_R:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: step again one at a time from its start
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, in ascending order of the primes.
    Trial division by 2, 3 and 6k +- 1 below 1000 stops at the first f with
    f^2 > n.  A work list then holds the cofactor: a number below f^2 is
    prime, as it has no prime factor below f; otherwise is_prime proves it
    prime or composite, and rho splits a composite into two parts that go
    back on the list.  A number below 1001^2 never reaches rho.  Raises
    ValueError naming a number that is_prime cannot decide or rho cannot split."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for f in _TRIAL_DIVISORS:
        if f * f > n:
            break
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
    work = [n] if n > 1 else []
    while work:
        m = work.pop()
        if m < f * f or is_prime(m):
            out[m] = out.get(m, 0) + 1
        elif (d := _brent_divisor(m)) is not None:
            work += (d, m // d)
        else:
            raise ValueError(f"cannot factor {m}: rho finds no divisor within its step bound")
    return dict(sorted(out.items()))


def is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for e in prime_factors(abs(n)).values())


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in prime_factors(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in prime_factors(n).items():
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return sorted(ds)


def integer_root(v: int, k: int) -> int | None:
    """Exact non-negative k-th root of v >= 0, or None if there is none."""
    if v < 0 or k < 1:
        raise ValueError("integer_root needs v >= 0, k >= 1")
    if v in (0, 1) or k == 1:
        return v
    bits = v.bit_length()
    if k >= bits:  # 2^k > v > 1: no root, and 2^k is never built
        return None
    lo, hi = 1 << ((bits - 1) // k), 1 << (bits // k + 1)  # lo^k <= v < hi^k
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid ** k <= v:
            lo = mid
        else:
            hi = mid
    return lo if lo ** k == v else None


def signed_root(v: int, k: int) -> int | None:
    """Exact integer k-th root honoring sign; None when no such root exists."""
    if v >= 0:
        return integer_root(v, k)
    if k % 2 == 0:
        return None
    r = integer_root(-v, k)
    return -r if r is not None else None
