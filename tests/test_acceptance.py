"""Acceptance suite: eleven exhaustive/property criteria at desk scale.

Everything is exact arithmetic, zero tolerance.  Each criterion prints one
PASS line (visible with `pytest -s` or by running this file directly).
"""
import random
from itertools import product
from math import gcd, lcm

from divlat.classify import finite_order, is_semisimple, jordan_chevalley
from divlat.corpus import KINDS, gen_corpus, random_unimodular, conjugate
from divlat.divisibility import (
    Found,
    NilpotentRankBound,
    NegativeDetEvenPower,
    ProvedImpossible,
    coprime_root,
    divisibility_spectrum,
    impossibility_certificates,
    root_search,
)
from divlat.exactalg import IntMatrix, QMatrix, companion_matrix, cyclotomic
from divlat.fitting import fitting_decompose
from divlat.numberring import QuadraticOrder, ZZ, unit_group
from divlat.primes import euler_phi
from divlat.supernat import (
    INF,
    Factorials,
    Geometric,
    PrimeSet,
    Residue,
    Supernatural,
    gcd_sn,
    lcm_sn,
    mul_sn,
    pi_S,
)
from divlat.verifier import verify
from helpers import (
    brute_fundamental_unit,
    brute_root_search,
    elements_up_to,
    is_saturated_kernel,
    min_poly_is_squarefree,
    oracle_direct_and_full,
    primes_up_to,
    residue_pi_estimate,
)

PROVABLE_YES = {"yes-witness", "yes-coprime-order"}


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def all_matrices_2x2(bound):
    for entries in product(range(-bound, bound + 1), repeat=4):
        yield IntMatrix(2, 2, entries)


def test_criterion_01_cavachi_desk_scale():
    """Only the identity in GL_2(Z) with entries in [-2,2] is divisible by
    all of s = 2, 3, 4 (witness bound 6)."""
    survivors = []
    total = 0
    for T in all_matrices_2x2(2):
        if abs(T.det()) != 1:
            continue
        total += 1
        table = divisibility_spectrum(T, 4, 6)
        if all(row.verdict in PROVABLE_YES for row in table.rows if row.s in (2, 3, 4)):
            survivors.append(T)
    assert survivors == [IntMatrix.identity(2)], survivors
    _report(1, f"identity is the unique all-of-2,3,4 divisible among {total} GL_2 matrices")


def test_criterion_02_root_search_soundness():
    """On every true power, no certificate fires and the bounded search
    finds a correctly re-multiplying witness."""
    checked = 0
    for X in all_matrices_2x2(2):
        for s in (2, 3):
            T = X ** s
            assert impossibility_certificates(T, s) == [], (X, s)
            out = root_search(T, s, 2)
            assert isinstance(out, Found), (X, s, out)
            assert out.witness ** s == T
            checked += 1
    _report(2, f"{checked} power instances: certificates silent, witnesses verified")


def test_criterion_03_nilpotent_clause():
    """Nonzero nilpotent 2x2 operators get the nilpotent certificate for
    every s >= 2, and exhaustive search at bound 4 confirms no witness."""
    nilpotents = [T for T in all_matrices_2x2(2) if not T.is_zero() and (T * T).is_zero()]
    assert len(nilpotents) == 16
    for T in nilpotents:
        for s in (2, 3, 4, 5):
            out = root_search(T, s, 4)
            assert out == ProvedImpossible(NilpotentRankBound(s, 2)), (T, s, out)
            assert brute_root_search(T.nested(), s, 4) is None, (T, s)
    _report(3, f"{len(nilpotents)} nilpotent operators x s in 2..5: certificate + exhaustive agreement")


def test_criterion_04_fitting_split():
    """500 seeded random 3x3 operators: stabilization within n, invariance
    of both parts, and the directness certificate matches an independent
    lattice-intersection computation."""
    rng = random.Random(20240601)
    for _ in range(500):
        T = IntMatrix(3, 3, tuple(rng.randint(-5, 5) for _ in range(9)))
        split = fitting_decompose(T)
        assert 1 <= split.exponent_m <= 3
        assert is_saturated_kernel(T ** split.exponent_m, split.gen_kernel)
        assert is_saturated_kernel(T ** (split.exponent_m + 1), split.gen_kernel)
        for i in range(split.gen_kernel.rank):
            assert split.gen_kernel.contains(T.apply(split.gen_kernel.basis.row(i)))
        for i in range(split.image_part.rank):
            assert split.image_part.contains(T.apply(split.image_part.basis.row(i)))
        oracle = oracle_direct_and_full(
            split.gen_kernel.basis.nested(), split.image_part.basis.nested(), 3
        )
        assert split.is_direct == oracle, T
    _report(4, "500 random 3x3 fitting splits: all invariants, certificate matches oracle")


def test_criterion_05_jordan_chevalley():
    """100 seeded random operators, n <= 4: S + N = T, commuting, N
    nilpotent, semisimple part squarefree."""
    rng = random.Random(20240602)
    for _ in range(100):
        n = rng.randint(1, 4)
        T = IntMatrix(n, n, tuple(rng.randint(-4, 4) for _ in range(n * n)))
        S, N = jordan_chevalley(T)
        assert S + N == QMatrix.from_int_matrix(T)
        assert S * N == N * S
        assert (N ** n).is_zero()
        assert min_poly_is_squarefree([list(S.row(i)) for i in range(n)])
    _report(5, "100 random Jordan-Chevalley splits: sum, commute, nilpotency, squarefree")


def _cyclotomic_multisets(budget):
    ks = [k for k in range(1, 2 * budget * budget + 2) if euler_phi(k) <= budget]
    out = []

    def rec(idx, left, current):
        if current:
            out.append(list(current))
        for i in range(idx, len(ks)):
            cost = euler_phi(ks[i])
            if cost <= left:
                current.append(ks[i])
                rec(i, left - cost, current)
                current.pop()

    rec(0, budget, [])
    return out


def _finite_order_instances():
    from divlat.corpus import block_diagonal

    for ks in _cyclotomic_multisets(4):
        T = block_diagonal([companion_matrix(cyclotomic(k)) for k in ks])
        yield ks, T


def test_criterion_06_finite_order_classification():
    """Every companion-block product of cyclotomics of total degree <= 4:
    order exactly lcm(ks), semisimple, stable under 50 unimodular
    conjugations."""
    rng = random.Random(20240603)
    instances = list(_finite_order_instances())
    assert len(instances) >= 40
    for ks, T in instances:
        d = lcm(*ks)
        assert finite_order(T) == d, (ks, d)
        assert is_semisimple(T), ks
        for _ in range(50):
            C = conjugate(T, random_unimodular(T.rows, rng))
            assert finite_order(C) == d
            assert is_semisimple(C)
    _report(6, f"{len(instances)} cyclotomic-block instances x 50 conjugations: order and semisimplicity stable")


def test_criterion_07_coprime_root_constructor():
    """For each finite-order instance of order d and each n in 2..25 with
    gcd(n, d) = 1, the constructed root re-multiplies exactly."""
    count = 0
    for ks, T in _finite_order_instances():
        d = lcm(*ks)
        for n_exp in range(2, 26):
            if gcd(n_exp, d) != 1:
                continue
            X = coprime_root(T, d, n_exp)
            assert X ** n_exp == T
            count += 1
    _report(7, f"{count} coprime roots constructed and re-verified")


def test_criterion_08_minus_identity_asymmetry():
    """-1 behaves differently by dimension and parity: -I_2 has a square
    root, [-1] has none, [-1] is its own cube root."""
    minus_i2 = IntMatrix.identity(2) * -1
    minus_1 = IntMatrix.from_rows([[-1]])
    out = root_search(minus_i2, 2, 1)
    assert isinstance(out, Found)
    assert out.witness == IntMatrix.from_rows([[0, -1], [1, 0]])
    for bound in (1, 2, 5, 9):
        out = root_search(minus_1, 2, bound)
        assert isinstance(out, ProvedImpossible)
        assert out.certificate == NegativeDetEvenPower(2, -1)
    out = root_search(minus_1, 3, 1)
    assert out == Found(minus_1, minus_1)
    _report(8, "sign-flip square/cube asymmetry holds at every tested bound")


def test_criterion_09_unit_groups():
    """Fundamental units match independent brute-force Pell minima; torsion
    orders for the four imaginary fields are 4, 6, 2, 2."""
    for d in (2, 3, 5, 6, 7, 10):
        desc = unit_group(QuadraticOrder(d))
        assert desc.fundamental_unit == brute_fundamental_unit(d), d
    torsion = [unit_group(QuadraticOrder(d)).torsion_order for d in (-1, -3, -2, -7)]
    assert torsion == [4, 6, 2, 2]
    _report(9, "fundamental units d=2,3,5,6,7,10 match brute force; torsion orders 4,6,2,2")


def test_criterion_10_supernatural_algebra():
    """1000 randomized lcm/gcd/nu identity checks, and symbolic Pi_S agrees
    with brute enumeration of the described sets up to 10^6, generated from
    each set's definition by the helpers, not by the library."""
    rng = random.Random(20240604)
    primes = [2, 3, 5, 7, 11, 13]

    def rand_sn():
        support = rng.sample(primes, rng.randint(0, 4))
        return Supernatural.of({p: rng.choice([1, 2, 3, INF]) for p in support})

    for _ in range(1000):
        a, b = rand_sn(), rand_sn()
        for p in primes:
            assert lcm_sn(a, b).nu(p) == max(a.nu(p), b.nu(p))
            assert gcd_sn(a, b).nu(p) == min(a.nu(p), b.nu(p))
            assert mul_sn(a, b).nu(p) == a.nu(p) + b.nu(p)
        assert lcm_sn(a, b) == lcm_sn(b, a)
        assert gcd_sn(a, gcd_sn(a, b)) == gcd_sn(a, b)

    limit = 10 ** 6
    # geometric sets: nu_p over the enumerated elements grows iff p | base
    for b, c in ((2, 3), (6, 1), (10, 7), (15, 4)):
        elements = elements_up_to(Geometric(b, c), limit)
        assert len(elements) >= 5
        symbolic = pi_S(Geometric(b, c))
        for p in (2, 3, 5, 7, 11):
            exps = []
            for e in elements:
                k = 0
                while e % p == 0:
                    e //= p
                    k += 1
                exps.append(k)
            grows = exps[-1] > exps[0]
            assert grows == symbolic.contains(p), (b, c, p)

    # factorials: every prime accumulates; enumeration to 10^6 sees strict
    # growth for p = 2, 3 and presence for 5, 7
    facts = elements_up_to(Factorials(), limit)
    assert pi_S(Factorials()) == PrimeSet.all_primes()
    for p in (2, 3):
        def nu_int(e, p=p):
            k = 0
            while e % p == 0:
                e //= p
                k += 1
            return k
        assert nu_int(facts[-1]) > nu_int(facts[len(facts) // 2])
    for p in (5, 7):
        assert any(e % p == 0 for e in facts)

    # residue classes: enumeration-based estimate is exact for primes with
    # m * p^(nu_p(m)+1) below the limit
    small = primes_up_to(30)
    for a, m in ((1, 3), (0, 4), (2, 4), (5, 9), (3, 6)):
        symbolic = pi_S(Residue(a, m))
        estimate = residue_pi_estimate(a, m, limit, small)
        for p in small:
            assert symbolic.contains(p) == estimate[p], (a, m, p)
    _report(10, "1000 identity checks and Pi_S vs enumeration to 10^6 agree")


def test_criterion_11_theorem_consistency_oracle():
    """Across the whole generated corpus (all kinds, seeds 1-3) the verifier
    never emits COUNTEREXAMPLE-CANDIDATE; any occurrence fails the build."""
    runs = 0
    for kind in KINDS:
        for seed in (1, 2, 3):
            for problem in gen_corpus(kind, seed):
                report = verify(ZZ, None, problem.operator, problem.exponent_set,
                                list(problem.witnesses))
                assert report.verdict != "COUNTEREXAMPLE-CANDIDATE", (kind, seed, problem.name)
                if problem.witnesses:
                    assert report.hypothesis_checks.all_witnesses_valid, problem.name
                runs += 1
    assert runs >= 100
    _report(11, f"{runs} corpus verifications, no counterexample candidate")


if __name__ == "__main__":
    import sys

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failures else 0)
