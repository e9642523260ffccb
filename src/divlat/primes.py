"""Small exact number-theory helpers shared across the package."""
from __future__ import annotations

from math import gcd

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # is_prime is proven below this
_RHO_CONSTANTS = 8  # Brent's rho tries x^2 + c for c = 1.._RHO_CONSTANTS
_RHO_BATCH = 128  # steps whose differences share one gcd


def is_prime(n: int) -> bool:
    """Miller-Rabin with the thirteen prime bases 2..41, deterministic below
    psi_13 = 3317044064679887385961981 > 3.3e24 (Sorenson and Webster, Math.
    Comp. 86 (2017)).  The twelve bases 2..37 alone pass the composite
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
    return True


def _brent_divisor(n: int) -> int | None:
    """A proper divisor of the odd composite n by Brent's variant of
    Pollard's rho (R. P. Brent, BIT 20 (1980)), iterating x^2 + c from 2
    for c = 1, 2, ..., or None when every constant fails.  A prime factor
    p of n costs about sqrt(p) steps."""
    for c in range(1, _RHO_CONSTANTS + 1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
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
    Trial division ends early at a proven-prime cofactor: once the divisors
    f pass 1000, a cofactor n >= f^2 below psi_13, where is_prime is
    deterministic, is tested once per value and, if prime, is the last
    factor; if composite, Brent's rho splits it and each part is factored
    in turn.  Where rho fails, and at or above psi_13, trial division goes
    on, so two large prime factors there still cost trial division up to
    the smaller one.  A number below 1001^2 never reaches rho."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f, tested = 5, 1
    while f * f <= n:
        if f > 1000 and n != tested:
            if n < _PSI_13:
                if is_prime(n):
                    break
                d = _brent_divisor(n)
                if d is not None:
                    for part in (d, n // d):
                        for p, e in prime_factors(part).items():
                            out[p] = out.get(p, 0) + e
                    return dict(sorted(out.items()))
            tested = n
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for e in prime_factors(abs(n)).values())


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
