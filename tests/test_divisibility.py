import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import product
from math import gcd, lcm, prod

import pytest

import divlat
import divlat.classify as classify
import divlat.divisibility as divisibility
import divlat.exactalg as exactalg
from divlat.classify import _Invariants
from divlat.divisibility import (
    DetNotPower,
    Exhausted,
    Found,
    NegativeDetEvenPower,
    NilpotentRankBound,
    OrderObstruction,
    ProvedImpossible,
    coprime_root,
    divisibility_spectrum,
    impossibility_certificates,
    realizable_orders,
    root_search,
    zero_plus_finite_order,
)
from divlat.corpus import block_diagonal, conjugate, gen_corpus, random_unimodular
from divlat.exactalg import (IntMatrix, Lattice, _bareiss, _cyclotomic_indices, _tuple_pow, companion_matrix, cyclotomic,
                             hnf)
from divlat.numberring import ZZ, OKModule, QuadraticOrder, embed_ok_matrix
from divlat.primes import signed_root
from divlat.verifier import verify
from helpers import (brute_root_search, commutant_oracle, diagonal_matrix, frac_jordan_type_at_0, frac_rank,
                     lattice_from_generators, mat_mul, realizable_orders_by_walk, seeded_module_problems,
                     seeded_operator, time_limit)

ROT3 = IntMatrix.from_rows([[0, -1], [1, -1]])
J = IntMatrix.from_rows([[0, -1], [1, 0]])  # order 4
MINUS_I2 = IntMatrix.identity(2) * -1


def count_walked_points(monkeypatch):
    """Count the points the commutant walk yields; the count is element 0
    of the returned list."""
    count = [0]
    box_points = divisibility._box_points

    def counting(*args):
        for point in box_points(*args):
            count[0] += 1
            yield point

    monkeypatch.setattr(divisibility, "_box_points", counting)
    return count


class TestRealizableOrders:
    def test_gl2(self):
        assert sorted(realizable_orders(2)) == [1, 2, 3, 4, 6]

    def test_gl3(self):
        assert sorted(realizable_orders(3)) == [1, 2, 3, 4, 6]

    def test_gl4(self):
        assert sorted(realizable_orders(4)) == [1, 2, 3, 4, 5, 6, 8, 10, 12]

    def test_matches_a_knapsack_over_every_index_up_to_2n2_plus_1(self):
        """The one knapsack pass over the indices k <= 2n^2 + 1 with
        phi(k) <= n gives the lcms the subset walk collects."""
        for n in range(0, 19):
            assert realizable_orders(n) == realizable_orders_by_walk(n), n

    def test_their_lcm_is_the_lcm_of_the_indices(self):
        """The lcm of the realizable orders is the lcm of the indices: each
        is realizable alone, each order an lcm of indices."""
        for n in range(0, 25):
            assert lcm(*_cyclotomic_indices(n)) == lcm(*realizable_orders(n)), n


class TestCertificates:
    def test_det_not_square(self):
        assert impossibility_certificates(IntMatrix.from_rows([[2]]), 2) == [DetNotPower(2, 2)]

    def test_negative_det_even_power(self):
        certs = impossibility_certificates(IntMatrix.from_rows([[-1]]), 2)
        assert certs[0] == NegativeDetEvenPower(2, -1)

    def test_order_obstruction_for_quarter_turn(self):
        # a square root of J would have order 8; GL_2(Z) only admits 1,2,3,4,6
        assert impossibility_certificates(J, 2) == [OrderObstruction(2, 4)]

    def test_nilpotent_bound(self):
        certs = impossibility_certificates(IntMatrix.from_rows([[0, 1], [0, 0]]), 2)
        assert certs == [NilpotentRankBound(2, 2)]

    def test_statements_name_the_failing_equation(self):
        for cert in (DetNotPower(2, 2), NegativeDetEvenPower(2, -1),
                     NilpotentRankBound(2, 2), OrderObstruction(2, 4)):
            assert str(cert.s) in cert.statement()

    def test_every_certificate_in_route_order(self):
        """The swap has det -1, no 4th power, and order 2, which no order
        realizable in GL_2(Z) reaches as ord(X)/gcd(ord(X), 4)."""
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert impossibility_certificates(swap, 4) == [NegativeDetEvenPower(4, -1), OrderObstruction(4, 2)]

    def test_a_determinant_search_computes_no_char_poly(self, monkeypatch):
        """The determinant settles a refused det T, and |det T| != 1 rules
        out finite order, so neither search below needs chi, which the
        analysis reads with its Krylov chains."""
        import divlat.classify

        calls = []
        krylov_chains = divlat.classify._krylov_chains
        monkeypatch.setattr(divlat.classify, "_krylov_chains", lambda M: calls.append(M) or krylov_chains(M))
        assert root_search(IntMatrix.from_rows([[2, 0], [0, 1]]), 2, 1) == ProvedImpossible(DetNotPower(2, 2))
        assert isinstance(root_search(IntMatrix.from_rows([[4, 0], [0, 1]]), 2, 2), Found)
        assert calls == []

    def test_never_fires_on_true_powers_exhaustive(self):
        # every 2x2 power with entries in [-2, 2], s in {2, 3}
        for entries in product(range(-3, 4), repeat=4):
            X = IntMatrix(2, 2, entries)
            for s in (2, 3):
                assert impossibility_certificates(X ** s, s) == []


class TestRootSearch:
    def test_minus_one_cube(self):
        out = root_search(IntMatrix.from_rows([[-1]]), 3, 1)
        assert out == Found(IntMatrix.from_rows([[-1]]), IntMatrix.from_rows([[-1]]))

    def test_minus_identity_square(self):
        out = root_search(MINUS_I2, 2, 1)
        assert isinstance(out, Found)
        assert out.witness == J
        assert out.witness ** 2 == MINUS_I2

    def test_nilpotent_proved_impossible(self):
        out = root_search(IntMatrix.from_rows([[0, 1], [0, 0]]), 2, 5)
        assert out == ProvedImpossible(NilpotentRankBound(2, 2))

    def test_exponent_below_two_rejected(self):
        with pytest.raises(ValueError):
            root_search(MINUS_I2, 1, 1)

    def test_witness_is_lexicographic_minimum(self):
        rng = random.Random(89)
        for _ in range(40):
            X = IntMatrix(2, 2, tuple(rng.randint(-2, 2) for _ in range(4)))
            s = rng.choice([2, 3])
            T = X ** s
            bound = 2
            out = root_search(T, s, bound)
            oracle = brute_root_search(T.nested(), s, bound)
            if oracle is None:
                assert not isinstance(out, Found)
            else:
                assert isinstance(out, Found)
                assert out.witness.nested() == oracle

    def test_found_remultiplies(self):
        out = root_search(MINUS_I2, 2, 1)
        assert out.power == MINUS_I2

    def test_exhausted_monotone_under_bigger_bound(self):
        # Exhausted can only turn into Found or a bigger Exhausted, never a
        # certificate: certificates are bound-independent
        T = IntMatrix.from_rows([[-1, -3], [1, 2]])  # order 6 element
        assert zero_plus_finite_order(T) == 6
        out1 = root_search(T, 5, 1)
        assert isinstance(out1, Exhausted)
        assert impossibility_certificates(T, 5) == []
        out2 = root_search(T, 5, 3)
        assert isinstance(out2, Found)  # T = (T^5)^5, entries of T^5 are small

    def test_determinism_bit_for_bit(self):
        T = IntMatrix.from_rows([[2, 1], [1, 1]]) ** 2
        assert root_search(T, 2, 3) == root_search(T, 2, 3)

    def test_timeout_returns_incomplete_exhausted(self, monkeypatch):
        """The deadline runs from the call, so a zero budget ends a search
        that no certificate settles before the commutant walk starts."""
        def no_walk(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(divisibility, "_box_points", no_walk)
        T = diagonal_matrix([1, 2, 2])  # det 4, no certificate fires for s=2
        out = root_search(T, 2, 2, timeout_ms=0)
        assert isinstance(out, Exhausted)
        assert not out.complete

    def test_timeout_counts_every_enumerated_candidate(self, monkeypatch):
        """The deadline is checked before every step of the commutant walk,
        whatever the filters do with the points: on a clock that advances
        one microsecond per enumerated point, a 10 ms budget stops the
        search of I3 (commutant Z^9, first square root at point 27 348)
        after exactly 10 000 points."""
        enumerated = count_walked_points(monkeypatch)

        class Clock:
            @staticmethod
            def monotonic():
                return enumerated[0] * 1e-6

        monkeypatch.setattr(divisibility, "time", Clock)
        assert root_search(IntMatrix.identity(3), 2, 2, timeout_ms=10) == Exhausted(2, complete=False)
        assert enumerated[0] == 10_000

    def test_a_spent_budget_stops_the_scan_before_the_next_candidate(self, monkeypatch):
        """Past the height bound one candidate can cost O(log s) matrix
        products.  On J2(1) (+) I2 at s = 10^8, a clock that jumps past the
        deadline once the first candidate has been raised to s stops the
        walk there: no second candidate is raised."""
        powers = [0]

        def counting_pow(*args):
            powers[0] += 1
            return _tuple_pow(*args)

        class Clock:
            @staticmethod
            def monotonic():
                return 1e9 if powers[0] else 0.0

        monkeypatch.setattr(divisibility, "_tuple_pow", counting_pow)
        monkeypatch.setattr(divisibility, "time", Clock)
        T = block_diagonal([IntMatrix.from_rows([[1, 1], [0, 1]]), IntMatrix.identity(2)])
        assert root_search(T, 10 ** 8, 1, timeout_ms=200) == Exhausted(1, complete=False)
        assert powers[0] == 1

    def test_jordan_block_walks_its_commutant_only(self, monkeypatch):
        """J3 commutes only with a + bN + cN^2 (N = J3 - I), so bound 2
        enumerates at most 5^3 = 125 candidates where the box has 5^9."""
        enumerated = count_walked_points(monkeypatch)
        J3 = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        assert root_search(J3, 2, 2) == Exhausted(2)
        assert enumerated[0] <= 125

    def test_four_by_four_square_is_found(self):
        """A 4x4 box (3^16 points at bound 1) exceeds the candidate budget,
        but the commutant of a square is small enough to walk; the witness
        is at most the generating root in lexicographic order."""
        X = IntMatrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 0, 1, 1]])
        T = X ** 2
        assert (2 * 1 + 1) ** 16 > divisibility.DEFAULT_MAX_CANDIDATES
        out = root_search(T, 2, 1)
        assert isinstance(out, Found)
        assert out.witness ** 2 == T
        assert out.witness.entries <= X.entries

    def test_final_remultiplication_holds_under_optimize(self):
        """A scan that hands back a non-root makes root_search raise, also
        under python -O, where assert statements are stripped."""
        code = textwrap.dedent("""
            import divlat.divisibility as div
            from divlat.exactalg import IntMatrix
            div._scan = lambda *args, **kwargs: (1, 0, 0, 1)
            try:
                out = div.root_search(IntMatrix.from_rows([[1, 1], [0, 1]]), 2, 2)
            except AssertionError:
                print("raised")
            else:
                print("returned", out)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(divlat.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "raised"

    def test_a_huge_exponent_builds_no_huge_integer(self):
        """Neither 2^s nor any det(X)^s is built: at s = 10^7 each call
        allocates less than 1 MB.  2^61 has bit length 62, so the early
        exit leaves a root at k = bit length - 1 alone."""
        I2 = IntMatrix.identity(2)
        for call, args in ((signed_root, (2, 10 ** 7)), (root_search, (I2, 10 ** 7 + 1, 1))):
            tracemalloc.start()
            try:
                out = call(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (call.__name__, peak)
        assert out == Found(I2, I2)
        assert signed_root(2, 10 ** 7) is None
        assert (signed_root(2 ** 61, 61), signed_root(-(3 ** 5), 5), signed_root(3 ** 5, 6)) == (2, -3, None)

    def test_a_finite_order_target_reduces_a_huge_exponent(self):
        """Past the height bound only torsion-spectral candidates are
        multiplied out, at s itself.  On I2 at s = 10^8 the first root is
        the order-2 [[-1, -1], [0, 1]].  The prime s = 10^25 + 13, which
        is_prime cannot decide, is prime to 12, the lcm of GL_2(Z)'s
        orders, so I2 itself is the only candidate."""
        I2 = IntMatrix.identity(2)
        with time_limit(2.0):
            X = IntMatrix.from_rows([[-1, -1], [0, 1]])
            assert root_search(I2, 10 ** 8, 1, timeout_ms=1000) == Found(X, I2)
            assert root_search(I2, 10 ** 25 + 13, 1) == Found(I2, I2)

    def test_a_large_finite_order_operator_is_refused_at_once(self):
        """On Phi_32's companion (+) I12, 28 x 28 of order 32, a square root
        would have order 64, which needs phi-cost 32 > 28: one knapsack
        pass over the indices refuses it within the timeout."""
        T = block_diagonal([companion_matrix(cyclotomic(32)), IntMatrix.identity(12)])
        with time_limit(1.0):
            assert root_search(T, 2, 1, timeout_ms=500) == ProvedImpossible(OrderObstruction(2, 32))

    def test_the_scan_finds_the_direct_first_root_at_large_s(self):
        """Beyond the height bound, s >= 16 on these operators, the scan
        tries only torsion-spectral candidates; below it, every candidate.
        Either way it returns the first root that multiplying each X in
        [-1, 1]^4 out to X^s finds, for the 2x2 finite-order corpus
        operators of seeds 1-3, +-I2, J2(1) and [[-1, 2], [0, -1]], at s in
        {12, 13, 16, 25, 37, 61}; roots turn up among them."""
        Ts = [p.operator for seed in (1, 2, 3) for p in gen_corpus("finite-order", seed) if p.operator.rows == 2]
        Ts += [IntMatrix.identity(2), MINUS_I2, IntMatrix.from_rows([[1, 1], [0, 1]]),
               IntMatrix.from_rows([[-1, 2], [0, -1]])]
        box = list(product((-1, 0, 1), repeat=4))
        exponents = (12, 13, 16, 25, 37, 61)
        roots = 0
        with time_limit(10.0):
            for T in Ts:
                inv = _Invariants(T)
                assert [divisibility._beyond_root_height(inv, s) for s in exponents] == [s >= 16 for s in exponents]
                for s in exponents:
                    first = next((x for x in box if _tuple_pow(x, 2, s) == T.entries), None)
                    assert divisibility._scan(box, inv, s) == first, (T, s)
                    roots += first is not None
        assert roots == 48

    def test_candidate_budget_returns_incomplete(self):
        T = IntMatrix.identity(3)
        assert 13 ** 9 > divisibility.DEFAULT_MAX_CANDIDATES  # commutant Z^9, bound 6
        out = root_search(T, 2, 6)
        assert out == Exhausted(6, complete=False)

    def test_large_box_general_path_matches_bucket_path(self):
        # a bound whose full box (23^4 points) dwarfs the bound-1 box
        T = MINUS_I2
        out_small = root_search(T, 2, 1)
        out_large = root_search(T, 2, 11)
        assert isinstance(out_large, Found)
        # lexicographic minimum over the bigger box is at most the small one
        assert out_large.witness.entries <= out_small.witness.entries


class TestRootHeightBound:
    """_beyond_root_height: at s >= 4n bit_length(R), R the Cauchy bound of
    chi, every s-th root of T is torsion-spectral, so a T that is not has
    none."""

    def test_the_threshold_of_a_fibonacci_square(self):
        """chi = x^2 - 3x + 1 gives R = 4 and the threshold 4 * 2 * 3 = 24;
        diag(0, 2), singular, has chi = x^2 - 2x, R = 3 and 4 * 2 * 2 = 16."""
        for rows, threshold in (([[2, 1], [1, 1]], 24), ([[0, 0], [0, 2]], 16)):
            inv = _Invariants(IntMatrix.from_rows(rows))
            assert not inv.torsion_spectral
            fires = [divisibility._beyond_root_height(inv, s) for s in range(2, 60)]
            assert fires == [s >= threshold for s in range(2, 60)], rows
            assert divisibility._beyond_root_height(inv, 10 ** 8)

    def test_true_powers_pass_the_one_root_test(self):
        """The bound is sound: for seeded X, n <= 3, whose chi is not a power
        of x times cyclotomic factors, the scan still finds X among the
        candidates for T = X^s, s <= 40."""
        rng = random.Random(173)
        tried = 0
        while tried < 60:
            n = rng.randint(1, 3)
            X = IntMatrix(n, n, tuple(rng.randint(-2, 2) for _ in range(n * n)))
            if _Invariants(X).torsion_spectral:
                continue
            tried += 1
            for s in (2, 3, 7, 8 * n, 40):
                assert divisibility._scan([X.entries], _Invariants(X ** s), s) == X.entries, (X, s)

    def test_torsion_spectral_roots_pass_past_the_bound(self):
        """Beyond the bound only torsion-spectral candidates are tried, and
        none of them is lost: for 60 seeded X, n <= 4, conjugated block sums
        of Phi_k companions, J2(+-1), zero blocks and [[0, 1], [0, 0]], the
        scan finds X among the candidates for T = X^s at s = 8n, where the
        bound first can fire, and at 61, 10^8 and 10^25 + 13."""
        blocks = [companion_matrix(cyclotomic(k)) for k in _cyclotomic_indices(4)]
        blocks += [IntMatrix.from_rows([[1, 1], [0, 1]]), IntMatrix.from_rows([[-1, 1], [0, -1]]),
                   IntMatrix.zeros(1, 1), IntMatrix.from_rows([[0, 1], [0, 0]])]
        rng = random.Random(181)
        with time_limit(10.0):
            for _ in range(60):
                parts, n = [], 0
                while not parts or rng.random() < 0.5:
                    fits = [b for b in blocks if n + b.rows <= 4]
                    if not fits:
                        break
                    parts.append(rng.choice(fits))
                    n += parts[-1].rows
                X = conjugate(block_diagonal(parts), random_unimodular(n, rng))
                assert _Invariants(X).torsion_spectral, X
                for s in (8 * n, 61, 10 ** 8, 10 ** 25 + 13):
                    assert divisibility._scan([X.entries], _Invariants(X ** s), s) == X.entries, (X, s)


def jordan_type_operator(parts, rng, tail=None):
    """A unimodular conjugate of the nilpotent Jordan blocks J_m(0), one
    per part, followed by the block tail when given."""
    blocks = [IntMatrix(m, m, tuple(int(j == i + 1) for i in range(m) for j in range(m))) for m in parts]
    blocks += [tail] if tail is not None else []
    n = sum(b.rows for b in blocks)
    return conjugate(block_diagonal(blocks), random_unimodular(n, rng, steps=4 * n))


def count_search_stages(monkeypatch):
    """Count what the searches after the call do: reads of
    _Invariants.commutant, starts of the commutant walk, and each
    (s, verdict) of the proof step.  Call it once per test; switching the
    step off later (without_proof_step) keeps the first two counts."""
    counts = {"commutant": 0, "walks": 0, "proofs": []}
    commutant, box_points, proved = _Invariants.commutant.func, divisibility._box_points, divisibility._proved_rootless

    def reading(self):
        counts["commutant"] += 1
        return commutant(self)

    def walking(*args):
        counts["walks"] += 1
        return box_points(*args)

    def proving(inv, s):
        counts["proofs"].append((s, proved(inv, s)))
        return counts["proofs"][-1][1]

    monkeypatch.setattr(_Invariants, "commutant", property(reading))
    monkeypatch.setattr(divisibility, "_box_points", walking)
    monkeypatch.setattr(divisibility, "_proved_rootless", proving)
    return counts


def without_proof_step(monkeypatch):
    """Switch the proof step off: every search that no certificate settles
    builds the commutant and walks it."""
    monkeypatch.setattr(divisibility, "_proved_rootless", lambda inv, s: False)


def partitions(n, largest=None):
    """Every partition of n, parts descending."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def power_type(parts, s):
    """The Jordan type of X^s for a nilpotent X of type parts, off ranks
    alone: J_m^k has rank max(m - k, 0), so X^(s i) has rank
    sum max(m - s i, 0), and rank N^(i-1) - rank N^i blocks of N = X^s have
    size >= i."""
    ranks = [sum(max(m - s * i, 0) for m in parts) for i in range(max(parts, default=0) + 2)]
    at_least = [a - b for a, b in zip(ranks, ranks[1:])] + [0]
    return tuple(size for size in range(len(at_least) - 1, 0, -1)
                 for _ in range(at_least[size - 1] - at_least[size]))


class TestProofStep:
    """The proof step between the certificates and the commutant: a
    quotient determinant that is no signed s-th power, or a Jordan type at
    0 that is no s-th power's, ends the search in Exhausted(bound) with no
    commutant built and no walk."""

    TYPES = ((3, 1, 1, 1), (4, 2, 1, 1), (5, 3, 2), (6, 3, 2, 1), (4, 4, 1, 1, 1, 1))

    def test_a_proof_builds_no_commutant_and_walks_nothing(self, monkeypatch):
        """J2(0) (+) [2] at s = 2 has the quotient determinant 2, no square;
        the nilpotent type (3, 1) is no square's and no cube's.  With the
        step switched off the same searches build the commutant, walk it
        and print the same outcome."""
        rng = random.Random(191)
        cases = [(jordan_type_operator((2,), rng, IntMatrix.from_rows([[2]])), (2,)),
                 (jordan_type_operator((3, 1), rng), (2, 3))]
        counts, want = count_search_stages(monkeypatch), []
        for T, exponents in cases:
            for s in exponents:
                for bound in (1, 2):
                    counts["proofs"].clear()
                    assert root_search(T, s, bound) == Exhausted(bound), (T, s)
                    assert (counts["commutant"], counts["walks"], counts["proofs"]) == (0, 0, [(s, True)])
                    want.append(Exhausted(bound))
        without_proof_step(monkeypatch)
        assert [root_search(T, s, bound) for T, exponents in cases for s in exponents for bound in (1, 2)] == want
        assert counts["walks"] == len(want) and counts["commutant"] >= len(want)

    def test_spectrum_rows_mix_certified_pruned_and_walked_exponents(self, monkeypatch):
        """On a conjugate of J2(0) (+) J2(0), the type of J4(0)^2, the
        spectrum walks s = 2, proves s = 3, as (2, 2, 0) is no cube's type,
        and certifies s = 4 by the nilpotent rank bound before the step; the
        table is the one the step switched off prints."""
        T = jordan_type_operator((2, 2), random.Random(193))
        counts = count_search_stages(monkeypatch)
        table = divisibility_spectrum(T, 4, 1)
        assert counts["proofs"] == [(2, False), (3, True)] and counts["walks"] == 1
        assert table.rows[1].outcome == Exhausted(1) and table.rows[1].verdict == "unknown"
        assert table.rows[2].outcome == ProvedImpossible(NilpotentRankBound(4, 4))
        without_proof_step(monkeypatch)
        assert divisibility_spectrum(T, 4, 1) == table and counts["walks"] == 3

    def test_huge_exponents_return_at_once(self, monkeypatch):
        """At s = 10^8 and 10^25 + 13 the quotient determinant 2 of
        J2(0) (+) [2] is no s-th power, and the type (2) of J2(0) (+) [1],
        whose quotient determinant is 1, is no s-th power's: each search
        returns at once, allocates less than 1 MB, so no padding of length
        s is built, and reads no commutant."""
        rng = random.Random(197)
        ops = [jordan_type_operator((2,), rng, IntMatrix.from_rows([[c]])) for c in (2, 1)]
        counts = count_search_stages(monkeypatch)
        with time_limit(2.0):
            for T in ops:
                for s in (10 ** 8, 10 ** 25 + 13):
                    tracemalloc.start()
                    try:
                        out = root_search(T, s, 1)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    assert out == Exhausted(1) and peak < 1 << 20, (T, s, peak)
        assert (counts["commutant"], counts["walks"]) == (0, 0)
        assert [fired for _, fired in counts["proofs"]] == [True] * 4
        assert not divisibility._is_power_type((2,), 10 ** 25 + 13)
        assert divisibility._is_power_type((1, 1, 1), 10 ** 25 + 13)

    def test_the_height_proof_ends_an_invertible_search_complete(self, monkeypatch):
        """F = [[2, 1], [1, 1]] is not torsion-spectral, so at s = 10^8,
        past the height bound, neither F at bound 10^5, whose box is past
        the candidate cap, nor a conjugate of F (+) ... (+) F, 12 x 12, at
        bound 1, with or without a timeout, has a root: each search is a
        complete Exhausted(bound), read off the certificates' analysis, with
        no commutant and no walk."""
        F = IntMatrix.from_rows([[2, 1], [1, 1]])
        F6 = conjugate(block_diagonal([F] * 6), random_unimodular(12, random.Random(3), steps=48))
        counts = count_search_stages(monkeypatch)
        s = 10 ** 8
        with time_limit(2.0):
            assert root_search(F, s, 10 ** 5) == Exhausted(10 ** 5)
            assert root_search(F6, s, 1) == Exhausted(1)
            assert root_search(F6, s, 1, timeout_ms=100) == Exhausted(1)
        assert (counts["commutant"], counts["walks"], counts["proofs"]) == (0, 0, [(s, True)] * 3)

    def test_torsion_spectral_operators_still_reach_the_walk(self, monkeypatch):
        """Past the height bound a torsion-spectral T is not refused: at
        s = 10^8, I2 reads its root [[-1, -1], [0, 1]] off the classes of
        cI with no walk, I3 walks its commutant to the root
        [[-1, -1, -1], [0, 0, -1], [0, 1, 0]], and J2(1) (+) I2 walks its
        own until the timeout cuts the scan."""
        I2, I3 = IntMatrix.identity(2), IntMatrix.identity(3)
        T = block_diagonal([IntMatrix.from_rows([[1, 1], [0, 1]]), I2])
        counts = count_search_stages(monkeypatch)
        s = 10 ** 8
        with time_limit(3.0):
            assert root_search(I2, s, 1) == Found(IntMatrix.from_rows([[-1, -1], [0, 1]]), I2)
            assert (counts["commutant"], counts["walks"]) == (0, 0)
            assert root_search(I3, s, 1) == Found(IntMatrix.from_rows([[-1, -1, -1], [0, 0, -1], [0, 1, 0]]), I3)
            assert root_search(T, s, 1, timeout_ms=100) == Exhausted(1, complete=False)
        assert (counts["walks"], counts["proofs"]) == (2, [(s, False)] * 3) and counts["commutant"] >= 2

    def test_verify_still_refuses_the_witnesses_of_a_rootless_operator(self):
        """verify decides each witness by the scan, which keeps its own
        height filter: at s = 10^8 the Fibonacci witness [[1, 1], [1, 0]] of
        F = [[2, 1], [1, 1]], not torsion-spectral, is skipped unmultiplied,
        and I2, whose power is I2, is multiplied out and refused."""
        F = IntMatrix.from_rows([[2, 1], [1, 1]])
        for X in (IntMatrix.from_rows([[1, 1], [1, 0]]), IntMatrix.identity(2)):
            with time_limit(1.0):
                report = verify(ZZ, None, F, None, [(10 ** 8, X)])
            assert report.hypothesis_checks.witnesses[0].reason == "re-multiplication failed", X

    def test_larger_nilpotent_types_complete_without_the_commutant(self, monkeypatch):
        """Conjugated nilpotent types with n = 6 to 12, at each s in {2, 3}
        where the type is no s-th power's and bounds 1 and 2: a complete
        Exhausted(bound), no commutant read.  (4, 4, 1, 1, 1, 1) is the type
        of J8(0)^2 (+) J2(0)^2, so only its s = 3 is proved."""
        rng = random.Random(199)
        counts = count_search_stages(monkeypatch)
        proved = []
        with time_limit(10.0):
            for parts in self.TYPES:
                T = jordan_type_operator(parts, rng)
                for s in (2, 3):
                    if divisibility._is_power_type(parts, s):
                        continue
                    proved.append((parts, s))
                    for bound in (1, 2):
                        assert root_search(T, s, bound) == Exhausted(bound), (parts, s, bound)
        assert len(proved) == 9 and ((4, 4, 1, 1, 1, 1), 2) not in proved
        assert (counts["commutant"], counts["walks"]) == (0, 0)

    def test_the_criterion_matches_brute_force_powers(self):
        """A nilpotent type of n <= 10 passes _is_power_type at s <= 5
        exactly when it is the type of X^s for some nilpotent X of size n,
        every type of X enumerated and its power's type read off ranks."""
        for n in range(1, 11):
            for s in range(2, 6):
                powers = {power_type(parts, s) for parts in partitions(n)}
                for parts in partitions(n):
                    assert divisibility._is_power_type(parts, s) == (parts in powers), (parts, s)

    def test_the_type_matches_a_fraction_rank_oracle(self):
        """gen_kernel_type against helpers.frac_jordan_type_at_0 on seeded
        singular operators, n <= 6 (random, rank-deficient products and
        nilpotent), the conjugated types above and module operators; one
        Krylov chain and several both occur."""
        rng = random.Random(211)
        ops = [(jordan_type_operator(parts, rng), None) for parts in self.TYPES + ((3, 1), (2, 2, 1))]
        ops += [(jordan_type_operator((2, 1), rng, IntMatrix.from_rows([[1, 1], [-1, 0]])), None)]
        for n in range(2, 7):
            for _ in range(8):
                ops.append((IntMatrix.from_rows(seeded_operator("nilpotent", n, rng)), None))
                rank = rng.randint(1, n - 1)
                ops.append((IntMatrix(n, rank, tuple(rng.randint(-2, 2) for _ in range(n * rank)))
                            * IntMatrix(rank, n, tuple(rng.randint(-2, 2) for _ in range(rank * n))), None))
        ops += [(T, module) for seed in (223, 227) for T, module in seeded_module_problems(seed) if not T.det()]
        chains = set()
        for T, module in ops:
            inv = _Invariants(T, module)
            assert inv.gen_kernel_type == frac_jordan_type_at_0(T.nested()), T
            assert sum(inv.gen_kernel_type) == inv.gen_kernel_rank
            chains.add(len(inv.orbits) == 1)
        assert chains == {True, False}

    def test_no_proof_fires_on_a_true_power(self):
        """For seeded X, n <= 5, entries in [-2, 2], conjugated nilpotent
        and singular X included, the step never proves that T = X^s,
        s <= 6, has no s-th root; over 500 of the T are singular and
        nonzero, so the step reads them.  Nor does it on the corpus
        witnesses of seeds 1-8, each a root of its operator."""
        rng = random.Random(229)
        kinds, read = set(), 0
        for _ in range(1000):
            n = rng.randint(1, 5)
            X = IntMatrix(n, n, tuple(rng.randint(-2, 2) for _ in range(n * n)))
            if rng.random() < 0.3:
                X = IntMatrix.from_rows(seeded_operator("nilpotent", n, rng))
            inv = _Invariants(X)
            kinds.add("nilpotent" if not any(inv.chi[:-1]) else "singular" if not inv.det else "invertible")
            for s in range(2, 7):
                T = X ** s
                assert not divisibility._proved_rootless(_Invariants(T), s), (X, s)
                read += not T.det() and not T.is_zero()
        assert kinds == {"nilpotent", "singular", "invertible"} and read > 500, read
        witnesses = [(p.operator, s) for kind in ("finite-order", "powers") for seed in range(1, 9)
                     for p in gen_corpus(kind, seed) for s, _ in p.witnesses]
        assert len(witnesses) > 100
        assert not any(divisibility._proved_rootless(_Invariants(T), s) for T, s in witnesses)

    def test_a_wrong_rank_of_a_power_raises(self, monkeypatch):
        """The ranks of T^2, T^3, ... are certified as rank T is
        (_certified_rank): an elimination that drops its last pivot on T^2
        leaves a kernel vector that T^2 does not kill, and the type
        raises."""
        inv = _Invariants(jordan_type_operator((3, 1), random.Random(251)))
        assert len(inv.image_chi) == 3 and len(inv.orbits) > 1  # rank T = 2, read before the corruption
        bareiss = classify._bareiss

        def dropped(a, cols):
            J, origin, sign = bareiss(a, cols)
            return J[:-1], origin, sign

        monkeypatch.setattr(classify, "_bareiss", dropped)
        with pytest.raises(AssertionError, match=r"Jordan type at 0: T\^2 does not kill"):
            inv.gen_kernel_type

    def test_where_a_proof_fires_the_full_walk_finds_nothing(self, monkeypatch):
        """On the corpus problems of seeds 1-8 at s in {2, 3, 4}, on seeded
        singular operators with n <= 4 and on module operators, wherever no
        certificate fires and the step proves T rootless, the search with
        the step switched off finds no root at bounds 1 and 2 (a bound-2 box
        of more than 2 * 10^4 commutant points is left out, and counted)."""
        rng = random.Random(233)
        ops = [(p.operator, None) for kind in ("finite-order", "nilpotent", "random", "powers")
               for seed in range(1, 9) for p in gen_corpus(kind, seed)]
        for n in range(2, 5):
            for _ in range(40):
                rank = rng.randint(1, n - 1)
                ops.append((IntMatrix(n, rank, tuple(rng.randint(-2, 2) for _ in range(n * rank)))
                            * IntMatrix(rank, n, tuple(rng.randint(-2, 2) for _ in range(rank * n))), None))
                ops.append((IntMatrix.from_rows(seeded_operator("nilpotent", n, rng)), None))
        ops += [(T, module) for seed in range(239, 245) for T, module in seeded_module_problems(seed)]
        proved, large = [], 0
        for T, module in ops:
            for s in (2, 3, 4):
                inv = _Invariants(T, module)
                if next(divisibility._certificates(inv, s), None) is None and divisibility._proved_rootless(inv, s):
                    basis = inv.commutant.basis
                    if prod(4 // next(filter(None, basis.row(i))) + 1 for i in range(basis.rows)) > 2 * 10 ** 4:
                        large += 1
                    else:
                        proved.append((T, module, s))
        without_proof_step(monkeypatch)
        with time_limit(60.0):
            for T, module, s in proved:
                for bound in (1, 2):
                    assert root_search(T, s, bound, module=module) == Exhausted(bound), (T, s, bound)
        assert len(proved) >= 300 and large <= len(proved) // 10, (len(proved), large)
        assert any(module is not None for _, module, _ in proved)


def first_roots_in_box(bound, exponents):
    """{(s, T): the 2 x 2 X with X^s = T and entries in [-bound, bound], in
    brute_root_search's lexicographic order}: that search for every T at
    once, off helpers' list arithmetic."""
    roots = {}
    for cand in product(range(-bound, bound + 1), repeat=4):
        X = power = [list(cand[:2]), list(cand[2:])]
        for s in range(2, max(exponents) + 1):
            power = mat_mul(power, X)
            if s in exponents:
                roots.setdefault((s, tuple(power[0] + power[1])), []).append(cand)
    return roots


class TestRankTwo:
    """n = 2 decided: a 2 x 2 search reads its candidates off the rank-2
    order Z[M], C(A) = Z I (+) Z M for a non-scalar A (T, or omega over a
    module), or off the (trace, det) classes of cI, with no commutant and
    no walk, and gives the least root within the bound or a complete
    Exhausted, at any bound the candidate budget admits."""

    def test_the_decision_matches_brute_force_at_bound_6(self, monkeypatch):
        """Seeded X^s and random T, cI for c in [-9, 9] and operators of
        rank-1 modules over O_d, at s <= 5: the search at bound 6 finds the
        first root of the 13^4-point box that commutes with omega, or none
        is there."""
        exponents = range(2, 6)
        roots = first_roots_in_box(6, exponents)
        rng = random.Random(263)
        problems = [(IntMatrix(2, 2, tuple(rng.randint(-3, 3) for _ in range(4))) ** s, s, None)
                    for s in exponents for _ in range(30)]
        problems += [(IntMatrix(2, 2, tuple(rng.randint(-6, 6) for _ in range(4))), s, None)
                     for s in exponents for _ in range(30)]
        problems += [(IntMatrix.identity(2) * c, s, None) for c in range(-9, 10) for s in exponents]
        for d in (-3, -1, 2, 5):
            module = OKModule.regular(QuadraticOrder(d), 1)
            for _ in range(12):
                X = IntMatrix.identity(2) * rng.randint(-3, 3) + module.omega_action * rng.randint(-3, 3)
                s = rng.choice(exponents)
                problems.append((X ** s if rng.random() < 0.6 else X, s, module))
        I2, J = IntMatrix.identity(2), IntMatrix.from_rows([[-1, 1], [0, -1]])
        first = roots[2, I2.entries][0]
        assert brute_root_search(I2.nested(), 2, 6) == [list(first[:2]), list(first[2:])]
        assert brute_root_search(J.nested(), 2, 6) is None and (2, J.entries) not in roots
        problems.append((J, 2, None))
        counts = count_search_stages(monkeypatch)
        found = modules = 0
        with time_limit(20.0):
            for T, s, module in problems:
                W = None if module is None else module.omega_action
                want = next((X for X in roots.get((s, T.entries), ())
                             if W is None or IntMatrix(2, 2, X) * W == W * IntMatrix(2, 2, X)), None)
                out = root_search(T, s, 6, module=module)
                if want is None:
                    assert out == Exhausted(6) or isinstance(out, ProvedImpossible), (T, s, out)
                else:
                    assert out == Found(IntMatrix(2, 2, want), T), (T, s, out)
                found += want is not None
                modules += want is not None and module is not None
        assert (counts["commutant"], counts["walks"]) == (0, 0)
        assert found > 150 and modules > 20, (found, modules)

    def test_no_two_by_two_search_reads_the_commutant_or_walks(self, monkeypatch):
        """The 2 x 2 corpus operators of seeds 1-8, at s <= 6 and bounds 1
        and 2, their spectra, and rank-1 module operators: no read of
        _Invariants.commutant, no call of _box_points."""
        ops = [(p.operator, None) for kind in ("finite-order", "nilpotent", "random", "powers")
               for seed in range(1, 9) for p in gen_corpus(kind, seed) if p.operator.rows == 2]
        ops += [(T, module) for seed in (269, 271) for T, module in seeded_module_problems(seed) if T.rows == 2]
        counts = count_search_stages(monkeypatch)
        outcomes = set()
        with time_limit(20.0):
            for T, module in ops:
                for s in range(2, 7):
                    for bound in (1, 2):
                        outcomes.add(type(root_search(T, s, bound, module=module)).__name__)
                divisibility_spectrum(T, 6, 2, module=module)
        assert outcomes == {"Found", "Exhausted", "ProvedImpossible"}
        assert len(ops) > 150 and (counts["commutant"], counts["walks"]) == (0, 0), len(ops)

    def test_roots_past_the_candidate_budget_are_decided(self, monkeypatch):
        """Boxes of (2 bound + 1)^2 commutant points past
        DEFAULT_MAX_CANDIDATES: [[1, 2 * 10^9], [0, 1]] at bound 10^9 and
        F = [[2, 1], [1, 1]] at bound 10^6 find their least square roots,
        and 10^12 (3 + 4i) at bound 10^6, whose square roots +-10^6 (2 + i)
        lie outside, is cut by a 50 ms timeout in its 2 * 10^6 + 1 values
        of v, and by the candidate budget at bound 10^8.  I2 at bound 10^6,
        whose box is M_2(Z)'s, is cut at once."""
        big = 10 ** 9
        T = IntMatrix.from_rows([[1, 2 * big], [0, 1]])
        F = IntMatrix.from_rows([[2, 1], [1, 1]])
        G = IntMatrix.from_rows([[3, 4], [-4, 3]]) * 10 ** 12
        counts = count_search_stages(monkeypatch)
        with time_limit(2.0):
            assert root_search(T, 2, big) == Found(IntMatrix.from_rows([[-1, -big], [0, -1]]), T)
            assert root_search(F, 2, 10 ** 6) == Found(IntMatrix.from_rows([[-1, -1], [-1, 0]]), F)
            assert root_search(G, 2, 10 ** 6, timeout_ms=50) == Exhausted(10 ** 6, complete=False)
            assert root_search(G, 2, 10 ** 8) == Exhausted(10 ** 8, complete=False)
            assert root_search(IntMatrix.identity(2), 2, 10 ** 6) == Exhausted(10 ** 6, complete=False)
        assert (counts["commutant"], counts["walks"]) == (0, 0)

    def test_a_finite_order_operator_takes_its_one_root(self, monkeypatch):
        """T of order d at s prime to L = lcm(realizable_orders(n)): every
        root has order dividing L, so T^(s^-1 mod d) is the only one.  I3 at
        s = 10^25 + 13 is found within 0.1 s, one candidate raised to s;
        the finite-order corpus operators of seeds 1-3 at s in {5, 7, 25}
        give the first root of their commutant walk, complete."""
        powers = [0]

        def counting_pow(*args):
            powers[0] += 1
            return _tuple_pow(*args)

        monkeypatch.setattr(divisibility, "_tuple_pow", counting_pow)
        I3 = IntMatrix.identity(3)
        with time_limit(0.1):
            assert root_search(I3, 10 ** 25 + 13, 2) == Found(I3, I3)
        assert powers[0] == 1
        ops = [p.operator for seed in (1, 2, 3) for p in gen_corpus("finite-order", seed)]
        roots = 0
        with time_limit(20.0):
            for T in ops:
                inv = _Invariants(T)
                for s in (5, 7, 25):
                    assert gcd(s, lcm(*realizable_orders(T.rows))) == 1
                    walked = divisibility._scan(divisibility._box_points(inv.commutant, 1), inv, s)
                    want = Exhausted(1) if walked is None else Found(IntMatrix(T.rows, T.rows, walked), T)
                    assert root_search(T, s, 1) == want, (T, s)
                    roots += walked is not None
        assert roots > 30, roots


def seeded_operators(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((2, 3))
        yield IntMatrix(n, n, tuple(rng.choice((-2, -1, 0, 0, 0, 1, 2)) for _ in range(n * n)))


class TestCommutantWalk:
    def test_walk_lists_the_box_points_of_hnf_lattices(self):
        rng = random.Random(137)
        for _ in range(200):
            N = rng.choice((2, 3, 4))
            gens = [[rng.randint(-3, 3) for _ in range(N)] for _ in range(rng.randint(0, N))]
            lattice = lattice_from_generators(N, gens)
            bound = rng.choice((1, 2, 3))
            want = [p for p in product(range(-bound, bound + 1), repeat=N) if lattice.contains(p)]
            assert list(divisibility._box_points(lattice, bound)) == want

    def test_commutant_is_the_saturated_kernel(self):
        for T in seeded_operators(139, 150):
            commutant = _Invariants(T, None).commutant
            assert commutant == commutant_oracle((T,), T.rows)
        for T, module in seeded_module_problems(149):
            commutant = _Invariants(T, module).commutant
            assert commutant == commutant_oracle((T, module.omega_action), T.rows)

    def test_walk_lists_the_commuting_box_points_of_operators(self):
        for T in seeded_operators(151, 12):
            n = T.rows
            bound = 2 if n == 2 else 1
            lattice = _Invariants(T, None).commutant
            box = list(product(range(-bound, bound + 1), repeat=n * n))
            want = [p for p in box if lattice.contains(p)]
            assert want == [p for p in box if IntMatrix(n, n, p) * T == T * IntMatrix(n, n, p)]
            assert list(divisibility._box_points(lattice, bound)) == want

    def test_module_walk_lists_the_box_points_commuting_with_omega(self):
        """Integer matrices commuting with omega are the blocks a*I + b*W0,
        whose a and b are entries, so C(omega) meets the box only at
        coefficients in [-bound, bound]."""
        bound = 1
        for T, module in seeded_module_problems(157):
            order, rank = module.order, module.module_rank
            lattice = _Invariants(T, module).commutant
            ring_box = product(range(-bound, bound + 1), repeat=2 * rank * rank)
            omega_box = []
            for c in ring_box:
                X = embed_ok_matrix(order, [[c[2 * (i * rank + j): 2 * (i * rank + j) + 2] for j in range(rank)]
                                            for i in range(rank)])
                if max(map(abs, X.entries)) <= bound:
                    omega_box.append(X)
            want = sorted(X.entries for X in omega_box if lattice.contains(X.entries))
            assert want == sorted(X.entries for X in omega_box if X * T == T * X)
            assert list(divisibility._box_points(lattice, bound)) == want


def krylov_rows(T):
    """I, T, ..., T^(n-1), each flattened row-major."""
    rows, P = [], IntMatrix.identity(T.rows)
    for _ in range(T.rows):
        rows.append(P.entries)
        P = P * T
    return rows


def nonderogatory_operators(seed):
    """Seeded nonderogatory T, n = 1..6: a random X, X^2 and X^3, and for
    n >= 2 a unimodular conjugate of c*I + p*Y for p in {2, 3, 6, 12}, whose
    commutant contains Y, so Z[T] has saturation index at least p."""
    rng = random.Random(163)

    def draw(n, make):
        while True:
            T = make()
            if frac_rank(krylov_rows(T)) == n:
                return T

    for n in range(1, 7):
        for k in (1, 2, 3):
            yield draw(n, lambda: IntMatrix(n, n, tuple(rng.randint(-2, 2) for _ in range(n * n))) ** k)
        if n > 1:
            for p in (2, 3, 6, 12):
                Y = draw(n, lambda: IntMatrix(n, n, tuple(rng.randint(-2, 2) for _ in range(n * n))))
                T = IntMatrix.identity(n) * rng.randint(-3, 3) + Y * p
                yield conjugate(T, random_unimodular(n, rng, steps=2 * n))


def scalar_module_problems():
    """(c*I, module) over the rank-1 regular modules over O_d: T is scalar,
    so omega, not T, is the nonderogatory matrix of the pair."""
    from divlat.numberring import OKModule, QuadraticOrder

    for d in (-5, -3, -1, 2, 3, 5):
        module = OKModule.regular(QuadraticOrder(d), 1)
        for c in (-2, 0, 1, 3):
            yield IntMatrix.identity(2) * c, module


class TestNonderogatoryCommutant:
    """C(M) = sat(Z[M]) for a nonderogatory M, the saturation of the
    powers I, M, ..., M^(n-1) themselves, from the echelon rows of one
    fraction-free elimination, instead of the n^2 commutator equations."""

    def test_commutant_is_the_saturated_kernel(self):
        indices = set()
        for T in nonderogatory_operators(163):
            commutant = _Invariants(T).commutant
            assert commutant == commutant_oracle((T,), T.rows), T
            indices.add(lattice_from_generators(T.rows ** 2, krylov_rows(T)) != commutant)
        assert indices == {False, True}

    def test_saturation_index_can_be_composite(self):
        """Y (nonderogatory) lies in C(6Y + I) but not in Z[6Y + I]: the
        index is divisible by 6."""
        Y = IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [2, -1, 1]])
        T = Y * 6 + IntMatrix.identity(3)
        commutant = _Invariants(T).commutant
        assert commutant.contains(Y.entries)
        assert not lattice_from_generators(9, krylov_rows(T)).contains(Y.entries)
        assert commutant == commutant_oracle((T,), 3)

    def test_a_composite_index_is_walked(self):
        """I + 6Y with det 1 passes every certificate at s = 2 and 3, so the
        search walks sat(Z[T]), of index 2^3 3^3 over Z[T], and agrees with
        the unpruned scan of the box."""
        Y = IntMatrix.from_rows([[0, -1, 0], [-1, 0, 1], [0, -1, 0]])
        T = Y * 6 + IntMatrix.identity(3)
        commutant = _Invariants(T).commutant
        Z_T = lattice_from_generators(9, krylov_rows(T))
        index = 1
        for a, b in zip(Z_T.basis.nested(), commutant.basis.nested()):
            index *= next(filter(None, a)) // next(filter(None, b))
        assert index == 216 and commutant.contains(Y.entries)
        for s in (2, 3):
            assert root_search(T, s, 1) == Exhausted(1, complete=True)
            assert brute_root_search(T.nested(), s, 1) is None

    def test_a_scalar_module_operator_takes_omega_s_path(self):
        for T, module in scalar_module_problems():
            commutant = _Invariants(T, module).commutant
            assert commutant == commutant_oracle((T, module.omega_action), 2)
            assert commutant.rank == 2

    def test_only_derogatory_operators_build_the_commutator_equations(self, monkeypatch):
        """A commutant eliminates the n^2 x n^2 commutator equations
        (classify's one call of the elimination kernel there) only for a
        derogatory T and omega that are not scalar: 2 I3's commutant is
        read off."""
        built = []

        def recording(a, cols):
            built.append((len(a), cols))
            return _bareiss(a, cols)

        monkeypatch.setattr(classify, "_bareiss", recording)
        for T in nonderogatory_operators(167):
            _Invariants(T).commutant
        for T, module in scalar_module_problems():
            _Invariants(T, module).commutant
        assert built == []
        for T in (IntMatrix.identity(3) * 2, diagonal_matrix([1, 1, 2]), diagonal_matrix([2, 1, 2])):
            _Invariants(T).commutant
        assert built == [(9, 9), (9, 9)]

    def test_twelve_by_twelve_square_within_a_second(self):
        """T = X^2 for the 12 x 12 X with entries in [-1, 1] drawn from
        Random(5): its commutant took seconds through the 144 commutator
        equations, so a 500 ms search overran its budget.  X commutes with
        T, so it lies in the saturation though not in Z[T]."""
        rng = random.Random(5)
        X = IntMatrix(12, 12, tuple(rng.randint(-1, 1) for _ in range(144)))
        T = X * X
        with time_limit(1.0):
            commutant = _Invariants(T).commutant
        assert commutant.rank == 12 and commutant.contains(X.entries)
        assert all(IntMatrix(12, 12, b) * T == T * IntMatrix(12, 12, b)
                   for b in map(tuple, commutant.basis.nested()))
        with time_limit(1.0):
            assert root_search(T, 2, 1, timeout_ms=500) == Exhausted(1, complete=False)

    def test_twenty_four_by_twenty_four_conjugate_within_a_second(self):
        """T = U X^2 U^-1 for the 24 x 24 X with entries in [-1, 1] drawn
        from Random(24) and U unimodular: the Hermite form of its 24 powers
        took 1.2-1.45 s, the saturation of their echelon rows takes
        0.3-0.5 s (CPython 3.11, 2 cores).  U X U^-1 commutes with T, so it
        lies in the commutant."""
        rng = random.Random(24)
        X = IntMatrix(24, 24, tuple(rng.randint(-1, 1) for _ in range(576)))
        U = random_unimodular(24, rng, steps=96)
        T = conjugate(X * X, U)
        with time_limit(1.0):
            commutant = _Invariants(T).commutant
        assert commutant.rank == 24 and commutant.contains(conjugate(X, U).entries)
        assert all(IntMatrix(24, 24, b) * T == T * IntMatrix(24, 24, b)
                   for b in map(tuple, commutant.basis.nested()))

    def test_hermite_forms_do_not_depend_on_the_primes_of_the_index(self, monkeypatch):
        """Exactly two Hermite forms, none of the powers I, T, ..., T^(n-1)
        themselves: the saturation's dual basis, n^2 x n, then its
        canonical basis, n x n^2, whose input is already echelon, whether
        the index is 1, 2, 6 = 2.3, 216 = 2^3 3^3, 1080 = 2^3 3^3 5 or has
        a prime above 1000."""
        forms = []

        def counting(M):
            forms.append(M)
            return hnf(M)

        monkeypatch.setattr(classify, "hnf", counting)
        monkeypatch.setattr(exactalg, "hnf", counting)
        Y = IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [2, -1, 1]])
        operators = [[[0, 1], [1, 1]], [[1, 1, 0], [0, 1, 1], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
                     [[1, 2], [0, 1]], (Y * 6 + IntMatrix.identity(3)).nested(),
                     [[1, -6, 0], [-6, 1, 6], [0, -6, 1]], [[12, 12, 18], [36, 36, 42], [30, 30, 33]],
                     [[1, 1013], [0, 1]], [[1, 2 * 3 * 5 * 7 * 1013], [0, 1]]]
        for rows in operators:
            T = IntMatrix.from_rows(rows)
            n = T.rows
            forms.clear()
            commutant = _Invariants(T).commutant
            assert [(M.rows, M.cols) for M in forms] == [(n * n, n), (n, n * n)], T
            leads = [next(j for j, x in enumerate(row) if x) for row in forms[1].nested()]
            assert leads == sorted(set(leads)), (T, forms[1])
            assert commutant == commutant_oracle((T,), n), T

    def test_a_non_integral_saturation_vector_raises_under_optimize(self):
        """A dual basis with a wrong pivot makes a saturation vector
        non-integral, a division in the forward substitution inexact, and
        the commutant raise, also under python -O, where assert statements
        are stripped.  For [[1, 2], [0, 1]] the echelon rows of I and T,
        last first, are (0, 2, 0, 0) and (1, 0, 0, 1); the Hermite basis of
        their columns has first pivot 2, and doubling it asks for
        (0, 2, 0, 0) / 4."""
        code = textwrap.dedent("""
            import divlat.exactalg as exactalg
            from divlat.classify import _Invariants
            from divlat.exactalg import IntMatrix
            hnf = exactalg.hnf
            def wrong_pivot(M):
                H = hnf(M)
                if M.rows > M.cols:
                    H = IntMatrix(H.rows, H.cols, (2 * H.entries[0],) + H.entries[1:])
                return H
            exactalg.hnf = wrong_pivot
            try:
                out = _Invariants(IntMatrix.from_rows([[1, 2], [0, 1]])).commutant
            except AssertionError as error:
                print("raised:", error)
            else:
                print("returned", out)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(divlat.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("raised: row 0 of the dual basis"), run.stdout


def derogatory_operators(seed):
    """Seeded derogatory T, n = 2..6, each but the scalars conjugated by a
    unimodular matrix: c*I and 0, Y (+) Y, diagonals with a repeated
    eigenvalue and, for n >= 3, J_2(c) (+) c*I."""
    rng = random.Random(seed)
    for n in range(2, 7):
        for c in (0, 1, -3):
            yield IntMatrix.identity(n) * c
        U = lambda: random_unimodular(n, rng, steps=2 * n)
        if n % 2 == 0:
            Y = IntMatrix(n // 2, n // 2, tuple(rng.randint(-2, 2) for _ in range(n * n // 4)))
            yield conjugate(block_diagonal([Y, Y]), U())
        values = [rng.randint(-2, 2) for _ in range(n - 1)]
        yield conjugate(diagonal_matrix(values + [rng.choice(values)]), U())
        if n > 2:
            c = rng.randint(-2, 2)
            J2 = IntMatrix.from_rows([[c, 1], [0, c]])
            yield conjugate(block_diagonal([J2, IntMatrix.identity(n - 2) * c]), U())


def derogatory_module_problems(seed):
    """(T, module) over the regular rank-2 modules over O_d with T and omega
    both derogatory: T = P D P^-1 for D one of x*I, J_2(c) and diag(c, c')
    (x in O_d, c and c' in Z) and P a product of two ring unipotents."""
    from divlat.numberring import OKModule, QuadraticOrder

    rng, one, zero = random.Random(seed), (1, 0), (0, 0)
    for d in (-1, -3, 2, 5):
        order = QuadraticOrder(d)
        module = OKModule.regular(order, 2)
        upper = lambda a, b: embed_ok_matrix(order, [[one, (a, b)], [zero, one]])
        lower = lambda a, b: embed_ok_matrix(order, [[one, zero], [(a, b), one]])
        for _ in range(2):
            x = (rng.randint(-2, 2), rng.randint(1, 2))
            c, c2, u0, u1, v0, v1 = (rng.randint(-2, 2) for _ in range(6))
            P, P_inv = upper(u0, u1) * lower(v0, v1), lower(-v0, -v1) * upper(-u0, -u1)
            for D in ([[x, zero], [zero, x]], [[(c, 0), one], [zero, (c, 0)]], [[(c, 0), zero], [zero, (c2, 0)]]):
                yield P * embed_ok_matrix(order, D) * P_inv, module


def is_derogatory(T):
    return frac_rank(krylov_rows(T)) < T.rows


class TestDerogatoryCommutant:
    """C(T) for a derogatory T (and omega), whose powers the saturation
    finds dependent, from one fraction-free elimination of the n^2
    commutator equations: one integral kernel vector per free column,
    checked to commute, divided by its content and saturated as it is."""

    def test_commutant_is_the_kernel_oracle(self):
        kinds = set()
        for T in derogatory_operators(227):
            assert is_derogatory(T), T
            commutant = _Invariants(T).commutant
            assert commutant == commutant_oracle((T,), T.rows), T
            kinds.add("scalar" if T == IntMatrix.identity(T.rows) * T[0, 0] else "not scalar")
        assert kinds == {"scalar", "not scalar"}
        for T, module in derogatory_module_problems(229):
            assert is_derogatory(T) and is_derogatory(module.omega_action), T
            commutant = _Invariants(T, module).commutant
            assert commutant == commutant_oracle((T, module.omega_action), T.rows), T

    def test_no_hermite_form_of_the_commutator_equations(self, monkeypatch):
        """The commutant of a T that is not scalar takes exactly two
        Hermite forms: the saturation's dual basis, n^2 x delta, then its
        canonical basis, delta x n^2, for delta the rank of the commutant.
        None is of the powers of T, of the n^2 x n^2 commutator equations
        or of the augmented n^2 x 2n^2 form their lattice kernel would
        take.  A scalar T's commutant, M_n(Z), takes none."""
        forms = []

        def counting(M):
            forms.append((M.rows, M.cols))
            return hnf(M)

        monkeypatch.setattr(classify, "hnf", counting)
        monkeypatch.setattr(exactalg, "hnf", counting)
        scalars = 0
        for T in derogatory_operators(233):
            forms.clear()
            n, delta = T.rows, _Invariants(T).commutant.rank
            scalar = T == IntMatrix.identity(n) * T[0, 0]
            assert delta < n * n or scalar, T
            assert forms == ([] if scalar else [(n * n, delta), (delta, n * n)]), (T, forms)
            scalars += scalar
        assert scalars

    def test_a_scalar_commutant_is_read_off(self, monkeypatch):
        """cI commutes with every X, so its commutator equations vanish and
        C(cI) = M_n(Z), the identity lattice of Z^(n^2), is read off with
        no elimination and no Hermite form: the kernel oracle's lattice
        for n <= 6 and c in [-2, 2], 0 x 0 included.  Over the regular
        modules of ranks 1 and 2, C(cI) meet C(omega) is the oracle's
        C(omega)."""
        built = []

        def recording(name, kernel):
            return lambda *args: built.append(name) or kernel(*args)

        monkeypatch.setattr(classify, "_bareiss", recording("_bareiss", _bareiss))
        monkeypatch.setattr(classify, "hnf", recording("hnf", hnf))
        monkeypatch.setattr(exactalg, "hnf", recording("hnf", hnf))
        for n in range(7):
            for c in range(-2, 3):
                T = IntMatrix.identity(n) * c
                commutant = _Invariants(T).commutant
                assert built == [] and commutant == Lattice(n * n, IntMatrix.identity(n * n)), (n, c, built)
                assert commutant == commutant_oracle((T,), n), (n, c)
                built.clear()
        for d in (-3, -1, 2):
            for rank in (1, 2):
                module = OKModule.regular(QuadraticOrder(d), rank)
                for c in range(-2, 3):
                    T = IntMatrix.identity(2 * rank) * c
                    commutant = _Invariants(T, module).commutant
                    assert commutant == commutant_oracle((T, module.omega_action), 2 * rank), (d, rank, c)
                    assert commutant.rank == 2 * rank * rank

    def test_twelve_by_twelve_derogatory_within_three_seconds(self):
        """T = U (Y^2 (+) Y^2) U^-1, Y 6 x 6 with entries in [-1, 1] and U
        unimodular, drawn from Random(5), entries up to 678: no certificate
        refuses s = 2, and the n^2 x 2n^2 Hermite form of its commutator
        equations took 9 s, so a 500 ms search overran its budget.  The
        oracle is C(Y^2 (+) Y^2), whose equations are sparse and small,
        conjugated by U: conjugation by a unimodular matrix maps M_n(Z)
        onto itself and commutants onto commutants."""
        rng = random.Random(5)
        Y = IntMatrix(6, 6, tuple(rng.randint(-1, 1) for _ in range(36)))
        B = block_diagonal([Y * Y, Y * Y])
        U = random_unimodular(12, rng, steps=96)
        T = conjugate(B, U)
        assert max(map(abs, T.entries)) == 678
        with time_limit(3.0):
            commutant = _Invariants(T).commutant
        oracle = lattice_from_generators(144, [conjugate(IntMatrix(12, 12, tuple(x)), U).entries
                                               for x in commutant_oracle((B,), 12).basis.nested()])
        assert commutant == oracle and commutant.rank == 24
        with time_limit(3.0):
            assert root_search(T, 2, 1, timeout_ms=500) == Exhausted(1, complete=False)

    def test_a_kernel_vector_that_does_not_commute_raises_under_optimize(self):
        """One back-substituted kernel vector of diag(1, 1, 2)'s commutator
        equations, moved off its first pivot column, no longer commutes
        with T, and the commutant raises, also under python -O, where
        assert statements are stripped."""
        code = textwrap.dedent("""
            import divlat.classify as classify
            from divlat.exactalg import IntMatrix
            solve = classify._back_substitute
            def perturbed(a, J, x):
                y = solve(a, J, x)
                y[J[0]] += 1
                return y
            classify._back_substitute = perturbed
            try:
                out = classify._Invariants(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]])).commutant
            except AssertionError as error:
                print("raised:", error)
            else:
                print("returned", out)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(divlat.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("raised: a kernel vector of the commutator equations"), run.stdout


class TestCoprimeRoot:
    def test_rotation_fifth_root(self):
        # 2 * 5 = 10 = 1 mod 3, so the root is the square
        X = coprime_root(ROT3, 3, 5)
        assert X == ROT3 ** 2
        assert X ** 5 == ROT3

    def test_identity(self):
        eye = IntMatrix.identity(2)
        for n in (2, 3, 10):
            assert coprime_root(eye, 1, n) == eye

    def test_zero_plus_sign(self):
        T = diagonal_matrix([0, -1])
        X = coprime_root(T, 2, 3)
        assert X == T
        assert X ** 3 == T

    def test_gcd_violation_rejected(self):
        with pytest.raises(ValueError, match="no coprime inverse"):
            coprime_root(ROT3, 3, 6)

    def test_output_commutes_with_input(self):
        rng = random.Random(97)
        for T, d in ((ROT3, 3), (J, 4), (MINUS_I2, 2)):
            for n in (5, 7, 11):
                if gcd(n, d) != 1:
                    continue
                X = coprime_root(T, d, n)
                assert X ** n == T
                assert X * T == T * X


    def test_precondition_is_checked_once_for_many_exponents(self, monkeypatch):
        """T^(d+1) = T is checked once on the analysis's ladder, and each
        root T^m is read off it; each root X is re-multiplied as X^n_exp off
        one ladder of X's squares per distinct root, the analysis's own when
        X = T, and never by IntMatrix.__pow__.  diag(0, -1, 1) is its every
        root; J's roots alternate between J^3 (one new ladder) and J."""
        cases = [  # (T, d, exponents, the roots with a ladder of their own, the ladder calls)
            (diagonal_matrix([0, -1, 1]), 2, (3, 5, 7, 9), [],
             [(0, 3), (0, 1), (0, 3), (0, 1), (0, 5), (0, 1), (0, 7), (0, 1), (0, 9)]),
            (J, 4, (3, 5, 7, 9, 11), [-J],
             [(0, 5), (0, 3), (1, 3), (0, 1), (0, 5), (0, 3), (1, 7), (0, 1), (0, 9), (0, 3), (1, 11)]),
        ]
        wants = [[coprime_root(T, d, e) for e in exponents] for T, d, exponents, _, _ in cases]
        ladder, powers = [], []
        power, ladder_power = IntMatrix.__pow__, _Invariants.power

        def counting(self, k):
            powers.append(k)
            return power(self, k)

        def counting_ladder(self, k):
            ladder.append((self, k))
            return ladder_power(self, k)

        monkeypatch.setattr(IntMatrix, "__pow__", counting)
        monkeypatch.setattr(_Invariants, "power", counting_ladder)
        for (T, d, exponents, roots, calls), want in zip(cases, wants):
            ladder.clear()
            inv = _Invariants(T)
            assert divisibility._coprime_roots(inv, d, exponents) == list(zip(exponents, want))
            ladders = list(dict.fromkeys(lad for lad, _ in ladder))  # in order of first use
            assert ladders[0] is inv
            assert [(ladders.index(lad), k) for lad, k in ladder] == calls
            assert [lad.T for lad in ladders[1:]] == roots
        assert powers == []

    def test_a_corrupted_root_raises_under_optimize(self):
        """A root that is not an n_exp-th root of T fails its
        re-multiplication, off its own ladder (I) or off the analysis's (T
        itself), also under python -O, where assert statements are
        stripped.  Only the analysis's T^3, the root for n_exp = 7, is
        corrupted; the re-multiplication reads T^7."""
        code = textwrap.dedent("""
            from divlat.classify import _Invariants
            from divlat.divisibility import _coprime_roots
            from divlat.exactalg import IntMatrix
            J = IntMatrix.from_rows([[0, -1], [1, 0]])
            for wrong in (IntMatrix.identity(2), J):
                inv = _Invariants(J)
                inv.power = lambda k, power=inv.power, wrong=wrong: wrong if k == 3 else power(k)
                try:
                    _coprime_roots(inv, 4, (5, 7))
                except AssertionError as exc:
                    print(exc)
                else:
                    print("returned")
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(divlat.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["constructed root failed re-verification"] * 2

    def test_precondition_failure_and_bad_arguments(self):
        with pytest.raises(ValueError, match="not zero plus an operator of order dividing 3"):
            coprime_root(J, 3, 2)
        with pytest.raises(ValueError, match="not zero plus an operator of order dividing 3"):
            divisibility._coprime_roots(_Invariants(J), 3, (2, 4))
        with pytest.raises(ValueError, match="must be positive"):
            divisibility._coprime_roots(_Invariants(ROT3), 3, (2, 0))
        with pytest.raises(ValueError, match="no coprime inverse"):
            divisibility._coprime_roots(_Invariants(ROT3), 3, (2, 6))


class TestSpectrum:
    def test_minus_identity_table(self):
        table = divisibility_spectrum(MINUS_I2, 4, 2)
        verdicts = {row.s: row.verdict for row in table.rows}
        assert verdicts[2] == "yes-witness"
        assert verdicts[3] == "yes-witness"
        assert verdicts[4] == "no-certificate"
        row3 = next(r for r in table.rows if r.s == 3)
        assert row3.outcome.witness == MINUS_I2  # lexicographic minimum at this bound
        row4 = next(r for r in table.rows if r.s == 4)
        assert isinstance(row4.outcome.certificate, OrderObstruction)

    def test_identity_found_everywhere(self):
        table = divisibility_spectrum(IntMatrix.identity(2), 5, 1)
        assert all(row.verdict == "yes-witness" for row in table.rows)

    def test_sign_flip_parity(self):
        table = divisibility_spectrum(IntMatrix.from_rows([[-1]]), 4, 1)
        for row in table.rows:
            if row.s % 2:
                assert row.verdict == "yes-witness"
                assert row.outcome.witness == IntMatrix.from_rows([[-1]])
            else:
                assert row.verdict == "no-certificate"

    def test_coprime_order_fallback(self):
        # order-6 element: roots exist for coprime exponents but can exceed
        # any small search box; the construction still certifies yes
        T = IntMatrix.from_rows([[-1, -3], [1, 2]])
        table = divisibility_spectrum(T, 7, 1)
        verdicts = {row.s: row.verdict for row in table.rows}
        assert table.order == 6
        assert verdicts[5] in ("yes-witness", "yes-coprime-order")
        assert verdicts[7] in ("yes-witness", "yes-coprime-order")
        row5 = next(r for r in table.rows if r.s == 5)
        if row5.theorem_root is not None:
            assert row5.theorem_root ** 5 == T


class TestSoundnessCrossChecks:
    def test_impossible_verdicts_match_brute_force(self):
        rng = random.Random(101)
        for _ in range(30):
            T = IntMatrix(2, 2, tuple(rng.randint(-2, 2) for _ in range(4)))
            s = rng.choice([2, 3])
            out = root_search(T, s, 2)
            if isinstance(out, ProvedImpossible):
                assert brute_root_search(T.nested(), s, 2) is None
            elif isinstance(out, Found):
                assert out.witness ** s == T

    def test_exhaustive_scan_agrees_with_search(self):
        for entries in product(range(-1, 2), repeat=4):
            T = IntMatrix(2, 2, entries)
            for s in (2, 3):
                out = root_search(T, s, 1)
                scan = brute_root_search(T.nested(), s, 1)
                if isinstance(out, Found):
                    assert scan is not None
                    assert out.witness.nested() == scan  # both lexicographic minima
                elif isinstance(out, ProvedImpossible):
                    assert scan is None
                else:
                    assert scan is None


class TestOneByOne:
    def test_perfect_cube(self):
        out = root_search(IntMatrix.from_rows([[8]]), 3, 2)
        assert out == Found(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[8]]))

    def test_root_outside_box_is_exhausted_not_impossible(self):
        # 27 = 3^3 passes the determinant certificate but the root sits
        # outside the box, so the honest answer is exhausted
        out = root_search(IntMatrix.from_rows([[27]]), 3, 2)
        assert out == Exhausted(2)
        assert impossibility_certificates(IntMatrix.from_rows([[27]]), 3) == []

    def test_scalar_det_certificate(self):
        out = root_search(IntMatrix.from_rows([[12]]), 2, 12)
        assert out == ProvedImpossible(DetNotPower(2, 12))


class TestThreeByThreeCrossCheck:
    def test_search_matches_brute_oracle(self):
        rng = random.Random(131)
        for _ in range(8):
            X = IntMatrix(3, 3, tuple(rng.randint(-1, 1) for _ in range(9)))
            T = X ** 2
            out = root_search(T, 2, 1)
            oracle = brute_root_search(T.nested(), 2, 1)
            assert isinstance(out, Found)
            assert out.witness.nested() == oracle
            assert out.witness ** 2 == T


class TestZeroPlusOrderSpectrum:
    def test_zero_plus_rotation_structure(self):
        T = IntMatrix.from_rows([[0, 0, 0], [0, 0, -1], [0, 1, -1]])
        assert zero_plus_finite_order(T) == 3
        table = divisibility_spectrum(T, 5, 1)
        verdicts = {row.s: row.verdict for row in table.rows}
        # exponents coprime to 3 are covered by the construction
        assert verdicts[2] in ("yes-witness", "yes-coprime-order")
        assert verdicts[4] in ("yes-witness", "yes-coprime-order")
        assert verdicts[5] in ("yes-witness", "yes-coprime-order")
        for row in table.rows:
            if row.theorem_root is not None:
                assert row.theorem_root ** row.s == T

    def test_huge_power_witness(self):
        """Arbitrary precision end to end: a root of a big-entry square.
        For 2 x 2 the rank-2 order Z[N], N = [[0, 1], [0, 0]], decides it at
        once, the least root first; J2 (+) [1], whose commutant box is far
        beyond DEFAULT_MAX_CANDIDATES, is cut by the candidate budget."""
        big = 10 ** 9
        X = IntMatrix.from_rows([[1, big], [0, 1]])
        T = X * X
        assert T[0, 1] == 2 * big
        with time_limit(1.0):
            assert root_search(T, 2, big) == Found(IntMatrix.from_rows([[-1, -big], [0, -1]]), T)
        X3 = block_diagonal([X, IntMatrix.identity(1)])
        assert root_search(X3 * X3, 2, big) == Exhausted(big, complete=False)
        # the certificate layer stays silent on these true powers
        assert impossibility_certificates(T, 2) == [] == impossibility_certificates(X3 * X3, 2)
