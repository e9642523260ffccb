import random

import pytest

from divlat.classify import _Invariants
from divlat.divisibility import divisibility_spectrum
from divlat.corpus import block_diagonal
from divlat.exactalg import IntMatrix, QMatrix, companion_matrix, cyclotomic
from divlat.numberring import OKModule, QuadraticOrder, ZZ, embed_ok_matrix
from divlat.serialize import canonical_dumps, problem_from_json, theorem_report_to_json
from divlat.supernat import AllFrom, FiniteSet, Geometric, PrimeSet, Residue
from divlat.fitting import clean_split, fitting_decompose
from divlat.verifier import verify
from helpers import (diagonal_matrix, frac_quotient_det, image_oracle, is_saturated_kernel, module_problems,
                     oracle_direct_and_full, oracle_intersection_rank, seeded_fitting_operators, seeded_operator,
                     time_limit)

ROT3 = IntMatrix.from_rows([[0, -1], [1, -1]])


class TestClause1Reasons:
    def test_split_reasons(self):
        """Clause 1's verdict and reason, read off the stacked determinant's
        three outcomes, against the saturated-kernel predicate, the
        rational intersection rank and the integrality oracle."""
        reasons = set()
        for T in seeded_fitting_operators(79, 300, n_max=6):
            clause1 = verify(ZZ, None, T, None, ()).clause1
            kernel_lattice = clean_split(T).gen_kernel
            assert is_saturated_kernel(T, kernel_lattice), T
            kernel, image = kernel_lattice.basis.nested(), image_oracle(T).basis.nested()
            direct = oracle_direct_and_full(kernel, image, T.rows)
            assert clause1.clean_split == direct, T
            if not direct:
                meets = oracle_intersection_rank(kernel, image) > 0
                assert clause1.reason == ("ker T and im T intersect nontrivially" if meets
                                          else "ker T + im T is a proper sublattice of Z^n"), T
            reasons.add(clause1.reason)
        assert len(reasons) == 3


class TestQuotientDeterminant:
    def test_against_adapted_basis_oracle(self):
        """The determinant of the image part, which verify reads as that of
        the map T induces on Z^n / ker T, against det of the induced map
        computed in a basis adapted to ker T, on invertible, singular and
        zero operators and on the operators of the module problems."""
        rng = random.Random(77)
        for _ in range(300):
            n = rng.randint(1, 6)
            rank = rng.randint(0, n)
            left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(n)]
            right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
            rows = [[sum(left[i][t] * right[t][j] for t in range(rank)) for j in range(n)]
                    for i in range(n)]
            if rng.random() < 0.3:
                rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            T = IntMatrix.from_rows(rows)
            assert _Invariants(T).image_part.det == frac_quotient_det(rows), rows
        for problem in map(problem_from_json, module_problems()):
            T = problem["operator"]
            assert _Invariants(T, problem["module"]).image_part.det == frac_quotient_det(T.nested()), T


class TestGeneralisedKernelRank:
    def test_multiplicity_of_zero_in_chi_matches_fitting(self):
        """g read off chi_T against the stabilised kernel chain of
        fitting_decompose, on invertible, singular and nilpotent operators."""
        rng = random.Random(79)
        for _ in range(300):
            n = rng.randint(1, 5)
            if rng.random() < 0.4:
                # strictly upper triangular, conjugated: nilpotent
                rows = [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
                if rng.random() < 0.5:
                    rows[0][0] = rng.choice([-1, 1, 2])
            else:
                rank = rng.randint(0, n)
                left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(n)]
                right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
                rows = [[sum(left[i][t] * right[t][j] for t in range(rank)) for j in range(n)]
                        for i in range(n)]
            T = IntMatrix.from_rows(rows)
            assert _Invariants(T).gen_kernel_rank == fitting_decompose(T).gen_kernel.rank, rows


class TestCharacteristicPolynomialOnce:
    """For |det T| = 1 the restriction to the image is T itself, so the
    kernel invariants, the image part and its order share one chi; for a
    singular T the image part's chi is read off chi_T."""

    T = IntMatrix.from_rows([[1, 2, 0], [0, 1, 3], [1, 2, 1]])

    def counted_char_polys(self, monkeypatch):
        import divlat.classify
        import divlat.exactalg

        assert abs(self.T.det()) == 1
        calls = []
        char_poly = divlat.exactalg.char_poly

        def counting(M):
            calls.append(M)
            return char_poly(M)

        for module in (divlat.exactalg, divlat.classify):
            monkeypatch.setattr(module, "char_poly", counting)
        return calls

    def test_one_char_poly_for_a_unimodular_operator(self, monkeypatch):
        calls = self.counted_char_polys(monkeypatch)
        report = verify(ZZ, None, self.T, Geometric(2, 1), [])
        assert report.clause1.clean_split
        assert calls == [self.T]

    def test_one_char_poly_per_verify_of_a_singular_operator(self, monkeypatch):
        calls = self.counted_char_polys(monkeypatch)
        rng = random.Random(163)
        operators = [IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[2, 0], [0, 0]]),
                     IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
                     IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, -1]])]
        operators += [IntMatrix.from_rows(seeded_operator("nilpotent", n, rng)) for n in (4, 8)]
        for T in operators:
            calls.clear()
            verify(ZZ, None, T, Geometric(2, 1), [])
            assert calls == [T]
            assert _Invariants(T).image_part.T != T

    def test_one_char_poly_per_spectrum(self, monkeypatch):
        """The zero-plus-finite-order structure and every search of the
        spectrum read one analysis of T."""
        calls = self.counted_char_polys(monkeypatch)
        table = divisibility_spectrum(self.T, 4, 1)
        assert table.order is None and len(table.rows) == 3
        assert calls == [self.T]


class TestRingActionCheckedOnce:
    """The analysis checks that T commutes with the ring action when it is
    built, not once per exponent of a spectrum."""

    def test_one_check_per_spectrum(self, monkeypatch):
        order = QuadraticOrder(-1)
        module = OKModule.regular(order, 2)
        T = embed_ok_matrix(order, [[(0, 1), (1, 0)], [(0, 0), (-1, 0)]])
        calls = []
        endomorphism_ok = OKModule.endomorphism_ok

        def counting(self, M):
            calls.append(M)
            return endomorphism_ok(self, M)

        monkeypatch.setattr(OKModule, "endomorphism_ok", counting)
        table = divisibility_spectrum(T, 6, 1, module=module)
        assert len(table.rows) == 5
        assert calls == [T]


class TestVerifyExamples:
    def test_identity_all_clauses(self):
        eye = IntMatrix.identity(2)
        report = verify(ZZ, None, eye, Geometric(2, 1), [(2, eye), (4, eye)])
        assert report.verdict == "CONSISTENT"
        assert report.clause1.clean_split
        assert report.clause2.semisimple
        assert report.clause3.finite_order == 1
        assert report.clause3.order_coprime_to_pi_s
        assert report.hypothesis_checks.all_witnesses_valid

    def test_sign_flip_with_odd_exponents(self):
        T = IntMatrix.from_rows([[-1]])
        report = verify(ZZ, None, T, Residue(1, 2), [(3, T), (5, T)])
        assert report.verdict == "CONSISTENT"
        assert report.clause3.finite_order == 2
        assert report.clause3.pi_s == PrimeSet.all_except([2])
        # 2 is outside Pi_S, so the order is made of primes outside Pi_S
        assert report.clause3.order_coprime_to_pi_s

    def test_zero_plus_rotation(self):
        T = IntMatrix.from_rows([[0, 0, 0], [0, 0, -1], [0, 1, -1]])
        # T^4 = T since the invertible part has order 3
        report = verify(ZZ, None, T, Residue(1, 3), [(4, T), (7, T)])
        assert report.verdict == "CONSISTENT"
        assert report.clause1.clean_split
        assert report.clause2.semisimple
        assert report.clause3.finite_order == 3
        assert report.clause3.order_coprime_to_pi_s  # 3 is excluded from Pi_S

    def test_witness_exponent_membership_is_tracked(self):
        eye = IntMatrix.identity(2)
        report = verify(ZZ, None, eye, Geometric(2, 1), [(2, eye), (3, eye)])
        by_s = {c.s: c.in_exponent_set for c in report.hypothesis_checks.witnesses}
        assert by_s[2] is True
        assert by_s[3] is False  # 3 is not a power of 2

    def test_a_huge_exponent_witness_of_a_finite_order_target(self):
        """On I2 the witness X = [[2, 1], [1, 1]] at s = 10^8, whose powers
        grow like Fibonacci numbers, fails at once: X has no finite order.
        The order-2 X = [[-1, -1], [0, 1]] passes at that s and fails at
        s + 1."""
        eye = IntMatrix.identity(2)
        X, Y = IntMatrix.from_rows([[2, 1], [1, 1]]), IntMatrix.from_rows([[-1, -1], [0, 1]])
        with time_limit(2.0):
            report = verify(ZZ, None, eye, Geometric(2, 1), [(10 ** 8, X), (10 ** 8, Y), (10 ** 8 + 1, Y)])
        assert [(c.valid, c.reason) for c in report.hypothesis_checks.witnesses] == [
            (False, "re-multiplication failed"), (True, "verified"), (False, "re-multiplication failed")]

    def test_a_large_finite_order_witness(self):
        """On Phi_32's companion (+) I12, 28 x 28 of order 32, the witness
        X = T at s = 33 is multiplied out, and verify ends within a
        second."""
        T = block_diagonal([companion_matrix(cyclotomic(32)), IntMatrix.identity(12)])
        with time_limit(1.0):
            report = verify(ZZ, None, T, Residue(1, 32), [(33, T)])
        assert [(c.valid, c.reason) for c in report.hypothesis_checks.witnesses] == [(True, "verified")]
        assert report.verdict == "CONSISTENT" and report.clause3.finite_order == 32

    def test_pi_s_is_decided_once(self, monkeypatch):
        """The additive hypothesis and clause 3 read one Pi_S: 6 is
        factored once per descriptor."""
        import divlat.supernat as supernat

        calls = []
        prime_factors = supernat.prime_factors
        monkeypatch.setattr(supernat, "prime_factors", lambda n: calls.append(n) or prime_factors(n))
        supernat.pi_S.cache_clear()
        eye = IntMatrix.identity(2)
        for _ in range(2):
            assert verify(ZZ, None, eye, Geometric(6), ()).clause3.pi_s == PrimeSet.finite([2, 3])
        assert calls == [6]


class TestVerdictTaxonomy:
    def test_failing_witness_runs_diagnostic_mode(self):
        eye = IntMatrix.identity(2)
        bad = IntMatrix.from_rows([[1, 1], [0, 1]])
        report = verify(ZZ, None, eye, Geometric(2, 1), [(2, bad)])
        assert not report.hypothesis_checks.all_witnesses_valid
        assert report.hypothesis_checks.witnesses[0].reason == "re-multiplication failed"
        # pipeline still ran: the conclusions all hold for the identity
        assert report.verdict == "CONSISTENT"
        # on a unipotent T != I the failed witness leaves clause (2) failing
        T = IntMatrix.from_rows([[1, 2], [0, 1]])
        report = verify(ZZ, None, T, Geometric(2, 1), [(3, eye)])
        assert report.hypothesis_checks.witnesses[0].reason == "re-multiplication failed"
        assert report.verdict == "INCONCLUSIVE"

    def test_non_integral_witness_reported(self):
        from fractions import Fraction

        eye = IntMatrix.identity(2)
        half = QMatrix(2, 2, (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2)))
        report = verify(ZZ, None, eye, Geometric(2, 1), [(2, half)])
        assert report.hypothesis_checks.witnesses[0].reason == "witness not integral"
        # a rational square root of a unipotent T is no integral witness
        T = IntMatrix.from_rows([[1, 1], [0, 1]])
        X = QMatrix.from_rows([[1, Fraction(1, 2)], [0, 1]])
        report = verify(ZZ, None, T, Geometric(2, 1), [(2, X)])
        assert report.hypothesis_checks.witnesses[0].reason == "witness not integral"
        assert not report.hypothesis_checks.all_witnesses_valid

    def test_exponent_and_shape_are_checked_before_the_power(self):
        """A witness below exponent 2 or of the wrong shape fails with its
        own reason; an integral QMatrix witness is read as an integer one
        and verifies."""
        from fractions import Fraction

        T = IntMatrix.from_rows([[1, 2], [0, 1]])
        X = IntMatrix.from_rows([[1, 1], [0, 1]])
        witnesses = [(1, X), (2, IntMatrix.identity(3)), (2, QMatrix.from_rows([[Fraction(2, 2), 1], [0, 1]]))]
        report = verify(ZZ, None, T, Geometric(2, 1), witnesses)
        assert [(c.s, c.valid, c.reason) for c in report.hypothesis_checks.witnesses] == [
            (1, False, "exponent below 2"), (2, False, "witness shape mismatch"), (2, True, "verified")]

    def test_unipotent_power_is_inconclusive_not_counterexample(self):
        # T is 2-divisible, hypotheses pass, yet T is not semisimple: finite
        # evidence cannot contradict anything, so INCONCLUSIVE
        T = IntMatrix.from_rows([[1, 2], [0, 1]])
        X = IntMatrix.from_rows([[1, 1], [0, 1]])
        report = verify(ZZ, None, T, Geometric(2, 1), [(2, X)])
        assert report.hypothesis_checks.all_witnesses_valid
        assert report.hypothesis_checks.additive_ok
        assert report.hypothesis_checks.mult_ok
        assert not report.clause2.semisimple
        assert report.verdict == "INCONCLUSIVE"

    def test_nilpotent_power_is_inconclusive_not_counterexample(self):
        # 3x3 shift: its square is 2-divisible by construction but fails the
        # split; the witnessed exponent is below the nilpotency threshold
        J3 = IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        T = J3 * J3
        report = verify(ZZ, None, T, Geometric(2, 1), [(2, J3)])
        assert report.hypothesis_checks.all_witnesses_valid
        assert not report.clause1.clean_split
        assert not report.clause1.forced_by_witnesses
        assert report.verdict == "INCONCLUSIVE"

    def test_a_witness_forces_the_quotient_determinant_only_below_2_to_the_s(self):
        # diag(0, 4) = diag(0, 2)^2: its quotient determinant is 4 = 2^s
        X = diagonal_matrix([0, 2])
        report = verify(ZZ, None, X * X, Geometric(2, 1), [(2, X)])
        assert report.hypothesis_checks.all_witnesses_valid
        assert not report.clause1.clean_split
        assert not report.clause1.forced_by_witnesses
        assert report.verdict == "INCONCLUSIVE"

    def test_no_witnesses_failing_clause_is_inconclusive(self):
        T = diagonal_matrix([0, 2])
        report = verify(ZZ, None, T, Geometric(2, 1), [])
        assert not report.clause1.clean_split
        assert report.verdict == "INCONCLUSIVE"
        assert "no verified witnesses" in report.reason

    def test_finite_descriptor_flagged_as_evidence(self):
        eye = IntMatrix.identity(2)
        report = verify(ZZ, None, eye, FiniteSet((2, 3)), [(2, eye)])
        assert report.hypothesis_checks.additive_ok is None
        assert report.hypothesis_checks.s_symbolic_infinite is False
        assert any("evidence, not proof" in n for n in report.notes)
        report = verify(ZZ, None, eye, FiniteSet((2, 3)), [(2, eye), (3, eye)])
        assert [c.reason for c in report.hypothesis_checks.witnesses] == ["verified", "verified"]
        assert report.verdict == "CONSISTENT"


class TestClause4RoundTrip:
    def test_constructed_roots_feed_back(self):
        report = verify(ZZ, None, ROT3, Residue(1, 3), [(4, ROT3)])
        assert report.clause4.constructed_roots
        for n_exp, X in report.clause4.constructed_roots:
            assert X ** n_exp == ROT3
        again = verify(ZZ, None, ROT3, Residue(1, 3), list(report.clause4.constructed_roots))
        assert again.clause1 == report.clause1
        assert again.clause2 == report.clause2
        assert again.clause3 == report.clause3
        assert again.verdict == report.verdict == "CONSISTENT"


class TestDeterminism:
    def test_byte_identical_reports(self):
        T = diagonal_matrix([0, -1])
        runs = [
            canonical_dumps(theorem_report_to_json(
                verify(ZZ, None, T, Residue(1, 2), [(3, T)])
            ))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestQuadraticRing:
    def test_gaussian_scalar(self):
        O = QuadraticOrder(-1)
        M = OKModule.regular(O, 1)
        W = M.omega_action  # multiplication by i, order 4
        report = verify(O, M, W, Residue(1, 4), [(5, W), (9, W)])
        assert report.verdict == "CONSISTENT"
        assert report.clause3.finite_order == 4
        # Pi_S of 1 mod 4 excludes 2, so order 4 = 2^2 stays outside Pi_S
        assert report.clause3.order_coprime_to_pi_s

    def test_module_required_for_quadratic_ring(self):
        with pytest.raises(ValueError, match="module"):
            verify(QuadraticOrder(-1), None, IntMatrix.identity(2), Geometric(2, 1), [])

    def test_module_over_another_order_rejected(self):
        """A module over Z[sqrt(2)] is no module over Z[i]: verify would
        report the multiplicative trace of the wrong unit group."""
        M = OKModule.regular(QuadraticOrder(2), 1)
        with pytest.raises(ValueError, match="module"):
            verify(QuadraticOrder(-1), M, M.omega_action, Geometric(2, 1), [])

    def test_module_rejected_over_the_integers(self):
        M = OKModule.regular(QuadraticOrder(-1), 1)
        with pytest.raises(ValueError, match="module"):
            verify(ZZ, M, M.omega_action, Geometric(2, 1), [])

    def test_non_commuting_witness_rejected(self):
        O = QuadraticOrder(2)
        M = OKModule.regular(O, 1)
        eye = IntMatrix.identity(2)
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])  # swap^2 = I but not O-linear
        report = verify(O, M, eye, Geometric(3, 1), [(2, swap)])
        assert report.hypothesis_checks.witnesses[0].reason == (
            "witness does not commute with the ring action"
        )


EYE2 = IntMatrix.identity(2)
MINUS_ONE = IntMatrix.from_rows([[-1]])
HEX6 = IntMatrix.from_rows([[0, -1], [1, 1]])  # order 6 (companion of x^2 - x + 1)
SING = diagonal_matrix([0, 1])

# Five runs over Z covering the motivating questions: infinite exponent sets
# (sign flip with odd exponents), all-but-finitely-many exponents (identity),
# finite order from infinitely many exponents, order coprime to the
# exponents' prime support, and the singular split case.
INTRO_SCENARIOS = (
    ("minus-one-odd", MINUS_ONE, Residue(1, 2), ((3, MINUS_ONE), (5, MINUS_ONE))),
    ("cavachi-identity", EYE2, Geometric(2, 1), ((2, EYE2), (4, EYE2))),
    ("finite-order-rotation", ROT3, Residue(1, 3), ((4, ROT3), (7, ROT3))),
    ("order-coprime-exponents", HEX6, Geometric(5, 1), ((5, HEX6 ** 5), (25, HEX6))),
    ("singular-idempotent", SING, AllFrom(2), ((2, SING), (3, SING))),
)


def intro_reports():
    return {name: verify(ZZ, None, T, S, ws) for name, T, S, ws in INTRO_SCENARIOS}


class TestIntroScenarios:
    def test_five_scenarios_all_consistent(self):
        reports = intro_reports()
        assert list(reports) == [
            "minus-one-odd",
            "cavachi-identity",
            "finite-order-rotation",
            "order-coprime-exponents",
            "singular-idempotent",
        ]
        for name, report in reports.items():
            assert report.verdict == "CONSISTENT", name

    def test_expected_orders(self):
        by_name = intro_reports()
        assert by_name["cavachi-identity"].clause3.finite_order == 1
        assert by_name["minus-one-odd"].clause3.finite_order == 2
        assert by_name["finite-order-rotation"].clause3.finite_order == 3
        assert by_name["order-coprime-exponents"].clause3.finite_order == 6
        assert by_name["singular-idempotent"].clause3.finite_order == 1

    def test_singular_idempotent_details(self):
        rep = intro_reports()["singular-idempotent"]
        assert rep.clause1.clean_split
        # the invertible part is the 1x1 identity
        assert rep.clause3.finite_order == 1


class TestOrderCoprimality:
    def test_order_is_outside(self):
        """Clause 3 holds when no prime factor of the order lies in Pi_S."""
        I2 = IntMatrix.identity(2)
        for T, S, outside in ((HEX6, Geometric(5), True), (HEX6, Geometric(2), False),
                              (I2, AllFrom(2), True), (-I2, AllFrom(2), False), (-I2, Residue(1, 2), True)):
            assert verify(ZZ, None, T, S, ()).clause3.order_coprime_to_pi_s is outside, (T, S)


class TestSingularIdempotentRestriction:
    def test_invertible_part_is_one(self):
        cs = clean_split(diagonal_matrix([0, 1]))
        assert cs.is_direct
        assert cs.restriction == IntMatrix.from_rows([[1]])
