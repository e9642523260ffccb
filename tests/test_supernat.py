import random
from functools import reduce

import pytest

from divlat.supernat import (
    INF,
    AllFrom,
    Factorials,
    FiniteSet,
    Geometric,
    PrimeSet,
    Residue,
    Supernatural,
    additive_hypothesis,
    gcd_sn,
    lcm_sn,
    mul_sn,
    pi_S,
)
from divlat import primes, supernat
from divlat.primes import is_prime, prime_factors
from helpers import elements_up_to, prime_set_is_infinite, primes_up_to, time_limit, trial_factors


PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521, a strong pseudoprime to every base 2..41


def sn(d):
    return Supernatural.of(d)


class TestValuation:
    def test_nu_infinite(self):
        assert sn({2: INF, 3: 1}).nu(2) == INF

    def test_nu_absent_prime(self):
        assert sn({2: INF, 3: 1}).nu(5) == 0

    def test_nu_of_lcm(self):
        # factor each element, take the max exponent
        lcm = reduce(lcm_sn, (Supernatural.of(prime_factors(k)) for k in (6, 12, 18)))
        assert lcm.nu(3) == 2

    def test_nu_rejects_composite(self):
        with pytest.raises(ValueError, match="not a prime"):
            sn({2: 1}).nu(4)

    def test_canonical_form_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            Supernatural(((2, 0),))
        assert sn({2: 0}) == Supernatural()


class TestLcmGcdMul:
    def test_lcm(self):
        assert lcm_sn(sn({2: INF, 3: 1}), sn({2: 2, 3: INF, 5: 1})) == sn({2: INF, 3: INF, 5: 1})

    def test_gcd(self):
        assert gcd_sn(sn({2: INF, 3: 1}), sn({2: 2, 3: INF, 5: 1})) == sn({2: 2, 3: 1})

    def test_mul_absorbs_infinity(self):
        assert mul_sn(sn({2: 3}), sn({2: INF})) == sn({2: INF})

    def test_each_prime_is_proven_once(self, monkeypatch):
        """lcm, gcd and mul read both factor lists and prove each prime of
        the result once, as the result is built."""
        a, b = sn({2: INF, 3: 1}), sn({2: 2, 3: INF, 5: 1})
        for op in (lcm_sn, gcd_sn, mul_sn):
            proven = []
            monkeypatch.setattr(supernat, "is_prime", lambda p: proven.append(p) or True)
            result = op(a, b)
            assert proven == [p for p, _ in result.factors]

    def test_identity_laws_randomized(self):
        rng = random.Random(7)
        primes = [2, 3, 5, 7, 11]

        def rand_sn():
            return sn({p: rng.choice([0, 1, 2, 3, INF]) for p in rng.sample(primes, 3)})

        for _ in range(300):
            a, b, c = rand_sn(), rand_sn(), rand_sn()
            for p in primes:
                assert lcm_sn(a, b).nu(p) == max(a.nu(p), b.nu(p))
                assert gcd_sn(a, b).nu(p) == min(a.nu(p), b.nu(p))
                assert mul_sn(a, b).nu(p) == a.nu(p) + b.nu(p)
            assert lcm_sn(a, b) == lcm_sn(b, a)
            assert gcd_sn(a, b) == gcd_sn(b, a)
            assert lcm_sn(a, lcm_sn(b, c)) == lcm_sn(lcm_sn(a, b), c)
            assert gcd_sn(a, gcd_sn(b, c)) == gcd_sn(gcd_sn(a, b), c)
            assert lcm_sn(a, a) == a
            assert gcd_sn(a, a) == a


class TestDescriptors:
    def test_validation(self):
        with pytest.raises(ValueError):
            Geometric(1)
        with pytest.raises(ValueError):
            Residue(3, 3)
        with pytest.raises(ValueError, match="^the exponent set is empty$"):
            FiniteSet(())
        with pytest.raises(ValueError, match="^elements must be positive integers$"):
            FiniteSet((0, 2))

    def test_contains(self):
        assert Geometric(2, 3).contains(12)
        assert not Geometric(2, 3).contains(9)
        assert Factorials().contains(120)
        assert not Factorials().contains(100)
        assert Residue(1, 3).contains(7)
        assert not Residue(1, 3).contains(9)
        assert AllFrom(5).contains(5)
        assert not AllFrom(5).contains(4)

    def test_elements_up_to(self):
        """Each descriptor's contains against the enumeration by definition."""
        assert elements_up_to(Geometric(2, 3), 30) == [3, 6, 12, 24]
        assert elements_up_to(Factorials(), 30) == [1, 2, 6, 24]
        assert elements_up_to(Residue(0, 4), 13) == [4, 8, 12]
        limit = 200
        for S in (FiniteSet((7, 1, 3, 300)), Geometric(2), Geometric(3, 5), Geometric(6, 4), Factorials(),
                  Residue(0, 1), Residue(0, 4), Residue(1, 3), Residue(5, 9), AllFrom(1), AllFrom(17)):
            assert [s for s in range(1, limit + 1) if S.contains(s)] == elements_up_to(S, limit), S


class TestPiS:
    def test_geometric(self):
        assert pi_S(Geometric(2, 3)) == PrimeSet.finite([2])

    def test_factorials(self):
        assert pi_S(Factorials()) == PrimeSet.all_primes()

    def test_all_from(self):
        assert pi_S(AllFrom(5)) == PrimeSet.all_primes()

    def test_residue_1_mod_3(self):
        assert pi_S(Residue(1, 3)) == PrimeSet.all_except([3])

    def test_finite_rejected(self):
        with pytest.raises(ValueError, match="undefined for finite"):
            pi_S(FiniteSet((2, 3, 4)))

    def test_residue_closed_form_against_enumeration(self):
        # lock the closed form in against honest enumeration of the class
        from helpers import residue_pi_estimate

        limit = 200_000
        primes = primes_up_to(30)
        for a, m in [(1, 3), (0, 4), (2, 4), (6, 12), (5, 9), (0, 1)]:
            symbolic = pi_S(Residue(a, m))
            estimate = residue_pi_estimate(a, m, limit, primes)
            for p in primes:
                assert symbolic.contains(p) == estimate[p], (a, m, p)

    def test_geometric_against_growth_heuristic(self):
        # max exponent over j <= 40 exceeds 3x the max over j <= 20 only for
        # primes dividing the base
        rng = random.Random(11)
        for _ in range(50):
            b = rng.randint(2, 50)
            c = rng.randint(1, 50)
            candidates = sorted(set(prime_factors(b)) | set(prime_factors(c)))
            elements_20 = [c * b ** j for j in range(21)]
            elements_40 = [c * b ** j for j in range(41)]

            def max_exp(p, elems):
                best = 0
                for e in elems:
                    k = 0
                    while e % p == 0:
                        e //= p
                        k += 1
                    best = max(best, k)
                return best

            symbolic = pi_S(Geometric(b, c))
            for p in candidates:
                m20, m40 = max_exp(p, elements_20), max_exp(p, elements_40)
                if m40 > 3 * m20:  # the heuristic may only fire on divisors of b
                    assert b % p == 0
                assert (m40 > m20) == (b % p == 0)  # honest brute-force estimate
                assert symbolic.contains(p) == (b % p == 0)


class TestAdditiveHypothesis:
    def test_any_infinite_set_over_all_primes(self):
        assert additive_hypothesis(Geometric(2, 1), PrimeSet.all_primes())

    def test_residue_over_all_primes(self):
        assert additive_hypothesis(Residue(1, 3), PrimeSet.all_primes())

    def test_geometric_misses_finite_lchar(self):
        # nu_2(3^j) = 0 for every j, so the sum over {2} stays 0
        assert not additive_hypothesis(Geometric(3, 1), PrimeSet.finite([2]))

    def test_finite_set_rejected(self):
        with pytest.raises(ValueError):
            additive_hypothesis(FiniteSet((2, 4)), PrimeSet.all_primes())

    def test_monotone_in_lchar(self):
        rng = random.Random(3)
        small_primes = primes_up_to(30)
        descriptors = [Geometric(2, 1), Geometric(6, 5), Residue(1, 4), Factorials(), AllFrom(3)]
        for _ in range(200):
            S = rng.choice(descriptors)
            base = sorted(rng.sample(small_primes, rng.randint(0, 4)))
            bigger = sorted(set(base) | {rng.choice(small_primes)})
            for smaller_set, larger_set in [
                (PrimeSet.finite(base), PrimeSet.finite(bigger)),
                (PrimeSet.finite(base), PrimeSet.all_primes()),
                (PrimeSet.all_except(bigger), PrimeSet.all_except(base)),
            ]:
                if additive_hypothesis(S, smaller_set):
                    assert additive_hypothesis(S, larger_set)


class TestPrimeSet:
    def test_intersections(self):
        assert PrimeSet.finite([2, 3]).intersect(PrimeSet.all_except([3])) == PrimeSet.finite([2])
        assert PrimeSet.all_except([2]).intersect(PrimeSet.all_except([3])) == PrimeSet.all_except([2, 3])
        assert PrimeSet.all_primes().intersect(PrimeSet.finite([5])) == PrimeSet.finite([5])
        assert PrimeSet.all_primes().intersect(PrimeSet.all_except([5])) == PrimeSet.all_except([5])

    def test_empty_and_infinite(self):
        assert PrimeSet.finite([]).is_empty()
        assert not PrimeSet.all_except([2]).is_empty()
        assert PrimeSet.all_except([]) == PrimeSet.all_primes() and not PrimeSet.all_primes().is_empty()
        assert prime_set_is_infinite(PrimeSet.all_except([2]))


class TestPrimality:
    def test_strong_pseudoprime_to_the_first_twelve_prime_bases(self):
        """psi_12, the least strong pseudoprime to every base 2..37, is
        composite; base 41 exposes it."""
        p, q = 399165290221, 798330580441
        assert not is_prime(p * q)
        assert is_prime(p) and is_prime(q)
        assert [n for n in range(60) if is_prime(n)] == primes_up_to(59)

    def test_nothing_is_proven_prime_at_or_above_psi_13(self):
        """Passing all thirteen bases proves nothing from psi_13 on: the
        composite psi_13 and the prime 10^25 + 13 both pass, and is_prime
        refuses them, naming them.  A witness still proves a composite
        there, and psi_13's factors lie below it and are proven prime."""
        with time_limit(1.0):
            for n in (PSI_13, 10 ** 25 + 13):
                with pytest.raises(ValueError, match=f"cannot prove {n} prime"):
                    is_prime(n)
            assert not is_prime((10 ** 20 + 39) * (2 * 10 ** 20 + 89))
            assert 1287836182261 * 2575672364521 == PSI_13
            assert is_prime(1287836182261) and is_prime(2575672364521)

    def test_a_proven_prime_cofactor_ends_trial_division(self):
        """Past the small divisors, a cofactor below psi_13 that is prime
        is the last factor: trial division up to the square root of
        p = 10^18 + 3 would take minutes.  Small n keep plain trial
        division."""
        p = 10 ** 18 + 3
        with time_limit(5.0):
            assert prime_factors(p) == {p: 1}
            assert prime_factors(6 * 1009 ** 2 * p) == {2: 1, 3: 1, 1009: 2, p: 1}
            assert pi_S(Geometric(p)) == PrimeSet.finite([p])
        assert [n for n in range(2, 3000) if prime_factors(n) == {n: 1}] == primes_up_to(2999)

    def test_rho_agrees_with_trial_division(self, monkeypatch):
        """Seeded semiprimes, squares and cubes below 10^12 of primes above
        1000, alone and times small factors, factor as trial division
        factors them, in ascending order of the primes; each reaches rho."""
        split = []
        brent = primes._brent_divisor
        monkeypatch.setattr(primes, "_brent_divisor", lambda n: split.append(n) or brent(n))
        rng = random.Random(29)
        big = rng.sample([p for p in primes_up_to(10 ** 6) if p > 1000], 16)
        cases = ([p * q for p, q in zip(big[::2], big[1::2])] + [p ** 2 for p in big[:4]]
                 + [p ** 3 for p in rng.sample(primes_up_to(10 ** 4)[200:], 2)]
                 + [2 ** 5 * 9 * 7 * p * q for p, q in zip(big[:4], big[4:8])])
        with time_limit(20.0):
            for n in cases:
                factors = prime_factors(n)
                assert factors == trial_factors(n) and list(factors) == sorted(factors)
        assert len(split) >= len(cases)

    def test_rho_splits_two_large_primes_below_psi_13(self):
        """Rho splits (10^9 + 7)(10^9 + 9), where trial division would run
        up to 10^9, at once, and a product of two primes near 1.8 * 10^12,
        just below psi_13, within seconds."""
        with time_limit(2.0):
            assert prime_factors(1000000016000000063) == {1000000007: 1, 1000000009: 1}
            assert pi_S(Geometric(1000000016000000063)) == PrimeSet.finite([1000000007, 1000000009])
        with time_limit(20.0):
            assert prime_factors(1800000000047 * 1820000000011) == {1800000000047: 1, 1820000000011: 1}

    def test_small_numbers_never_reach_rho(self, monkeypatch):
        """Rho starts only past divisors 1000, so below 1001^2, and on every
        |d| <= 200, trial division alone answers."""
        def no_rho(n):
            raise AssertionError(f"rho on {n}")

        monkeypatch.setattr(primes, "_brent_divisor", no_rho)
        for n in list(range(1, 3000)) + list(range(1001 ** 2 - 1000, 1001 ** 2)):
            assert prime_factors(n) == trial_factors(n)

    def test_both_phases_agree_with_trial_division(self):
        """Every n < 4 * 10^5, the n within 3000 of 1001^2, where trial
        division hands over to the work list, and seeded n < 10^14, which
        reach is_prime and rho, factor as trial division factors them."""
        rng = random.Random(31)
        cases = [*range(1, 4 * 10 ** 5), *range(1001 ** 2 - 3000, 1001 ** 2 + 3000),
                 *(rng.randrange(1, 10 ** 14) for _ in range(40))]
        with time_limit(30.0):
            for n in cases:
                assert prime_factors(n) == trial_factors(n), n

    def test_rho_splits_a_composite_above_psi_13(self):
        """1820000000011 * 2000000000003 lies above psi_13, where a witness
        still proves it composite; rho splits it, and both parts lie below."""
        with time_limit(5.0):
            assert prime_factors(3640000000027460000000033) == {1820000000011: 1, 2000000000003: 1}

    def test_a_number_nothing_settles_is_refused(self):
        """A cofactor that is_prime cannot decide is refused at once; a
        composite whose least prime factor, about 10^20, is past rho's step
        bound is refused once rho gives up.  Each error names its number."""
        with time_limit(1.0):
            for n in (PSI_13, 10 ** 25 + 13):
                with pytest.raises(ValueError, match=f"cannot prove {n} prime"):
                    prime_factors(n)
        n = (10 ** 20 + 39) * (2 * 10 ** 20 + 89)
        with time_limit(30.0):
            with pytest.raises(ValueError, match=f"cannot factor {n}: rho"):
                prime_factors(n)
