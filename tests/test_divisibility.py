import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import product
from math import gcd, lcm

import pytest

import divlat
import divlat.divisibility as divisibility
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
from divlat.exactalg import IntMatrix, _cyclotomic_indices, _tuple_pow, companion_matrix, cyclotomic, kernel_saturated
from divlat.numberring import embed_ok_matrix
from divlat.primes import signed_root
from helpers import (brute_root_search, commutator_equations, diagonal_matrix, lattice_from_generators,
                     realizable_orders_by_walk, seeded_module_problems, time_limit)

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
        out finite order, so neither search below needs chi."""
        import divlat.classify

        calls = []
        char_poly = divlat.classify.char_poly
        monkeypatch.setattr(divlat.classify, "char_poly", lambda M: calls.append(M) or char_poly(M))
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
        """The deadline is checked every 4096 steps of the commutant walk,
        whatever the filters do with the points: on a clock that advances
        one microsecond per enumerated point, a 10 ms budget stops the
        search of I3 (commutant Z^9, first square root at point 27 348)
        within one check interval of 10 000 points."""
        enumerated = count_walked_points(monkeypatch)

        class Clock:
            @staticmethod
            def monotonic():
                return enumerated[0] * 1e-6

        monkeypatch.setattr(divisibility, "time", Clock)
        assert root_search(IntMatrix.identity(3), 2, 2, timeout_ms=10) == Exhausted(2, complete=False)
        assert 10_000 < enumerated[0] <= 10_000 + 4096

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
        the order-2 [[-1, -1], [0, 1]].  At the prime s = 10^25 + 13,
        is_prime cannot decide s, so the scan goes on without the trace
        filter to I2 itself."""
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
            assert commutant == kernel_saturated(commutator_equations((T,), T.rows))
        for T, module in seeded_module_problems(149):
            commutant = _Invariants(T, module).commutant
            assert commutant == kernel_saturated(commutator_equations((T, module.omega_action), T.rows))

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
        T, d, exponents = diagonal_matrix([0, -1, 1]), 2, (3, 5, 7, 9)
        want = [coprime_root(T, d, e) for e in exponents]
        ladder, powers = [], []
        power, ladder_power = IntMatrix.__pow__, _Invariants.power

        def counting(self, k):
            powers.append(k)
            return power(self, k)

        def counting_ladder(self, k):
            ladder.append(k)
            return ladder_power(self, k)

        monkeypatch.setattr(IntMatrix, "__pow__", counting)
        monkeypatch.setattr(_Invariants, "power", counting_ladder)
        assert divisibility._coprime_roots(_Invariants(T), d, exponents) == list(zip(exponents, want))
        # T^(d+1) once and T^m per exponent off the ladder, then the
        # re-multiplication X^n_exp per exponent
        assert ladder == [d + 1] + [1] * len(exponents)
        assert powers == list(exponents)

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
        # arbitrary precision end to end: search a root of a big-entry square
        big = 10 ** 9
        X = IntMatrix.from_rows([[1, big], [0, 1]])
        T = X * X
        assert T[0, 1] == 2 * big
        out = root_search(T, 2, big)  # box far beyond DEFAULT_MAX_CANDIDATES
        assert out == Exhausted(big, complete=False)
        # but the certificate layer stays silent on this true power
        assert impossibility_certificates(T, 2) == []
