import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations

import pytest

import divlat
from divlat.corpus import conjugate, random_unimodular
from divlat.exactalg import IntMatrix, restrict_to_lattice
from divlat.fitting import fitting_decompose
from divlat.numberring import (
    OKModule,
    QuadraticOrder,
    ZZ,
    embed_ok_matrix,
    lchar,
    mult_hypothesis,
    unit_group,
    unit_s_divisible,
)
from divlat.supernat import Factorials, FiniteSet, Geometric, PrimeSet, Residue
from helpers import (brute_fundamental_unit, lattice_from_generators, ring_det_leibniz, ring_mat_mul, scalar_matrix,
                     submodule, time_limit, torsion_by_enumeration)


class TestQuadraticOrder:
    def test_squarefree_required(self):
        with pytest.raises(ValueError):
            QuadraticOrder(4)
        with pytest.raises(ValueError):
            QuadraticOrder(12)
        with pytest.raises(ValueError):
            QuadraticOrder(1)

    def test_norm_conventions(self):
        # d = 2, 3 mod 4: omega = sqrt(d)
        assert QuadraticOrder(2).norm((3, 1)) == 7
        # d = 1 mod 4: omega = (1 + sqrt(d)) / 2, golden ratio has norm -1
        assert QuadraticOrder(5).norm((0, 1)) == -1

    def test_norm_multiplicative_on_elements(self):
        rng = random.Random(103)
        for d in (2, 5, -1, -3, 6, 13):
            O = QuadraticOrder(d)
            for _ in range(50):
                x = (rng.randint(-9, 9), rng.randint(-9, 9))
                y = (rng.randint(-9, 9), rng.randint(-9, 9))
                assert O.norm(O.mul(x, y)) == O.norm(x) * O.norm(y)

    def test_conjugation(self):
        O = QuadraticOrder(5)
        x = (2, 3)
        assert O.mul(x, O.conj(x)) == (O.norm(x), 0)


class TestUnitGroup:
    def test_gaussian_units(self):
        desc = unit_group(QuadraticOrder(-1))
        assert desc.torsion_order == 4
        assert desc.torsion_generator == (0, 1)
        assert desc.fundamental_unit is None

    def test_eisenstein_units(self):
        desc = unit_group(QuadraticOrder(-3))
        assert desc.torsion_order == 6
        assert desc.fundamental_unit is None

    def test_generic_imaginary(self):
        for d in (-2, -7, -5, -11):
            desc = unit_group(QuadraticOrder(d))
            assert desc.torsion_order == 2
            assert desc.torsion_generator == (-1, 0)

    def test_small_real_fields(self):
        expected = {2: (1, 1), 3: (2, 1), 5: (0, 1), 6: (5, 2), 7: (8, 3), 10: (3, 1)}
        for d, eps in expected.items():
            desc = unit_group(QuadraticOrder(d))
            assert desc.fundamental_unit == eps
            assert desc.torsion_order == 2

    def test_fundamental_units_match_brute_force_below_200(self):
        """Every squarefree 2 <= d < 200: the oracle's unit where some unit
        has omega coefficient below 5000, a larger coefficient elsewhere."""
        from divlat.primes import is_squarefree

        compared = 0
        for d in range(2, 200):
            if not is_squarefree(d):
                continue
            eps = unit_group(QuadraticOrder(d)).fundamental_unit
            brute = brute_fundamental_unit(d, b_max=4999)
            if brute is None:
                assert eps[1] >= 5000, d
            else:
                assert eps == brute, d
                compared += 1
        assert compared == 106

    def test_large_pell_solutions_within_budget(self):
        """Known minimal Pell solutions x + y*sqrt(d), each x^2 - d*y^2 = 1,
        found within a few seconds in total."""
        known = {
            127: (4730624, 419775),
            139: (77563250, 6578829),
            151: (1728148040, 140634693),
            163: (64080026, 5019135),
            166: (1700902565, 132015642),
            191: (8994000, 650783),
            199: (16266196520, 1153080099),
        }

        with time_limit(5.0):
            got = {d: unit_group(QuadraticOrder(d)).fundamental_unit for d in known}
        assert got == known

    def test_the_step_budget_ends_a_long_period(self):
        """d = 10^18 + 3 is prime, so checking it squarefree costs one
        primality test, and its unit lies beyond the continued-fraction
        budget, which ends the search in seconds."""
        with time_limit(15.0), pytest.raises(ValueError, match="within 100000 continued-fraction steps"):
            unit_group(QuadraticOrder(10 ** 18 + 3))

    def test_torsion_matches_enumeration_for_imaginary_d(self):
        """Dirichlet's table against the norm-1 elements and their orders,
        for every squarefree d in [-200, -1]."""
        from divlat.primes import is_squarefree

        imaginary = [d for d in range(-200, 0) if is_squarefree(d)]
        assert len(imaginary) == 122
        for d in imaginary:
            desc = unit_group(QuadraticOrder(d))
            assert (desc.torsion_order, desc.torsion_generator) == torsion_by_enumeration(d), d

    def test_torsion_generator_has_exact_order(self):
        for d in (-1, -3, -2, -7):
            O = QuadraticOrder(d)
            desc = unit_group(O)
            w = desc.torsion_order
            assert O.pow(desc.torsion_generator, w) == (1, 0)
            for k in range(1, w):
                assert O.pow(desc.torsion_generator, k) != (1, 0)


class TestUnitDivisibility:
    def test_square_of_fundamental(self):
        O = QuadraticOrder(2)
        assert unit_s_divisible((0, 2), 2, O)

    def test_cube_fails_on_square(self):
        # 3 does not divide 2, and no torsion adjustment fixes the free part
        O = QuadraticOrder(2)
        assert not unit_s_divisible((0, 2), 3, O)

    def test_gaussian_i_is_a_cube(self):
        # 3 t' = 1 mod 4 has the solution t' = 3
        assert unit_s_divisible((1, 0), 3, QuadraticOrder(-1))

    def test_agrees_with_bounded_exponent_search(self):
        rng = random.Random(107)
        for _ in range(200):
            d = rng.choice([2, 5, -1, -3, 10])
            O = QuadraticOrder(d)
            desc = unit_group(O)
            w = desc.torsion_order
            k = rng.randint(-4, 4) if desc.fundamental_unit is not None else 0
            t = rng.randrange(w)
            s = rng.randint(2, 6)
            brute = any(
                (s * t2 - t) % w == 0 and s * k2 == k
                for t2 in range(w)
                for k2 in range(-abs(k) - 1, abs(k) + 2)
            )
            assert unit_s_divisible((t, k), s, O) == brute


class TestHypotheses:
    def test_any_infinite_set_works(self):
        ok, trace = mult_hypothesis(Geometric(2, 1), QuadraticOrder(2))
        assert ok and trace

    def test_imaginary_field(self):
        ok, _ = mult_hypothesis(Factorials(), QuadraticOrder(-1))
        assert ok

    def test_residue_real_field(self):
        ok, _ = mult_hypothesis(Residue(1, 3), QuadraticOrder(5))
        assert ok

    def test_integers(self):
        ok, trace = mult_hypothesis(Geometric(2, 1), ZZ)
        assert ok and "torsion" in trace

    def test_finite_set_rejected(self):
        with pytest.raises(ValueError):
            mult_hypothesis(FiniteSet((2, 3)), QuadraticOrder(2))

    def test_lchar_all_primes(self):
        assert lchar(ZZ) == PrimeSet.all_primes()
        assert lchar(QuadraticOrder(-1)) == PrimeSet.all_primes()
        assert lchar(QuadraticOrder(-5)) == PrimeSet.all_primes()


class TestOKModule:
    def test_regular_module_actions(self):
        O = QuadraticOrder(2)
        M = OKModule.regular(O, 1)
        # multiplication by omega commutes with everything in the ring
        assert M.endomorphism_ok(M.omega_action)
        for a in range(-2, 3):
            for b in range(-2, 3):
                assert M.endomorphism_ok(scalar_matrix(M, (a, b)))

    def test_swap_is_not_linear(self):
        O = QuadraticOrder(2)
        M = OKModule.regular(O, 1)
        T = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert not M.endomorphism_ok(T)

    def test_omega_action_validated(self):
        O = QuadraticOrder(2)
        with pytest.raises(ValueError, match="minimal polynomial"):
            OKModule(O, 2, IntMatrix.identity(2))

    def test_closure_under_sum_and_product(self):
        rng = random.Random(109)
        O = QuadraticOrder(-1)
        M = OKModule.regular(O, 2)
        for _ in range(40):
            A = embed_ok_matrix(O, [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]
                                    for _ in range(2)])
            B = embed_ok_matrix(O, [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]
                                    for _ in range(2)])
            assert M.endomorphism_ok(A)
            assert M.endomorphism_ok(B)
            assert M.endomorphism_ok(A * B)
            assert M.endomorphism_ok(A + B)

    def test_ring_determinant_of_scalar(self):
        O = QuadraticOrder(2)
        M = OKModule.regular(O, 1)
        for x in ((1, 1), (3, -2), (0, 1)):
            assert M.det_as_ring_element(scalar_matrix(M, x)) == x

    def test_ring_determinant_of_embedded_matrix(self):
        O = QuadraticOrder(5)
        M = OKModule.regular(O, 2)
        a, b, c, d = (1, 1), (0, 1), (2, 0), (1, -1)
        T = embed_ok_matrix(O, [[a, b], [c, d]])
        assert M.det_as_ring_element(T) == ring_det_leibniz(O.omega_params, [[a, b], [c, d]])

    def test_ring_determinant_holds_under_optimize(self):
        """The trace computation and the integrality check in
        det_as_ring_element run under python -O, where assert statements and
        their side effects are stripped."""
        code = textwrap.dedent("""
            from divlat.numberring import OKModule, QuadraticOrder, embed_ok_matrix
            O = QuadraticOrder(-1)
            T = embed_ok_matrix(O, [[(1, 1), (0, 1)], [(2, 0), (1, -1)]])
            print(OKModule.regular(O, 2).det_as_ring_element(T))
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(divlat.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        # (1 + i)(1 - i) - i * 2 = 2 - 2i
        assert run.stdout.strip() == "(2, -2)"

    def test_norm_of_ring_det_is_integer_det(self):
        rng = random.Random(113)
        for d in (2, -1, 5, -3):
            O = QuadraticOrder(d)
            M = OKModule.regular(O, 2)
            for _ in range(25):
                T = embed_ok_matrix(O, [[(rng.randint(-2, 2), rng.randint(-2, 2))
                                         for _ in range(2)] for _ in range(2)])
                assert O.norm(M.det_as_ring_element(T)) == T.det()

    def test_norm_multiplicativity_on_operators(self):
        rng = random.Random(127)
        O = QuadraticOrder(2)
        M = OKModule.regular(O, 2)
        for _ in range(25):
            A = embed_ok_matrix(O, [[(rng.randint(-2, 2), rng.randint(-2, 2))
                                     for _ in range(2)] for _ in range(2)])
            B = embed_ok_matrix(O, [[(rng.randint(-2, 2), rng.randint(-2, 2))
                                     for _ in range(2)] for _ in range(2)])
            na = O.norm(M.det_as_ring_element(A))
            nb = O.norm(M.det_as_ring_element(B))
            assert O.norm(M.det_as_ring_element(A * B)) == na * nb

    def test_ring_determinant_on_conjugated_modules(self):
        """omega action and operator both conjugated by a unimodular U: W is
        no longer blockwise, and the ring determinant is still that of the
        ring matrix.  d = -3 and 17 give t^2 + 4c = d with c < 0 and c > 0."""
        rng = random.Random(131)
        for d in (-5, -3, -1, 2, 5, 13, 17):
            O = QuadraticOrder(d)
            for r in (1, 2, 3, 4):
                M = OKModule.regular(O, r)
                for _ in range(8):
                    X = [[(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(r)] for _ in range(r)]
                    U = random_unimodular(2 * r, rng)
                    C = OKModule(O, 2 * r, conjugate(M.omega_action, U))
                    T = conjugate(embed_ok_matrix(O, X), U)
                    assert C.det_as_ring_element(T) == ring_det_leibniz(O.omega_params, X), (d, X, U)

    def test_ring_determinant_on_image_submodules(self):
        """L = im S for S = embed(Y), Y = P Q of rank at most k, and T = S A
        for A = embed(X).  T maps into L, so its ring determinant on L, of
        rank k' = L.rank / 2, is the sum of the principal k' x k' minors of
        Y X, the coefficient of x^(r - k') in its characteristic polynomial
        up to sign.  For d = -5 the first L is the non-free ideal
        (2, 1 + omega) beside 0."""
        rng = random.Random(137)
        lower_rank = 0
        for d in (-5, -3, -1, 2, 5, 13, 17):
            O = QuadraticOrder(d)
            params = O.omega_params
            for r in (1, 2, 3, 4):
                M = OKModule.regular(O, r)
                for trial in range(8):
                    if d == -5 and r == 2 and trial == 0:
                        Y = [[(2, 0), (1, 1)], [(0, 0), (0, 0)]]
                    else:
                        k = rng.randint(1, r)
                        P = [[(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(k)] for _ in range(r)]
                        Q = [[(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(r)] for _ in range(k)]
                        Y = ring_mat_mul(params, P, Q)
                    X = [[(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(r)] for _ in range(r)]
                    S = embed_ok_matrix(O, Y)
                    L = lattice_from_generators(2 * r, [S.column(j) for j in range(2 * r)])
                    if L.rank == 0:
                        continue
                    sub = submodule(M, L)
                    Z = ring_mat_mul(params, Y, X)
                    expected = (0, 0)
                    for rows in combinations(range(r), sub.module_rank):
                        minor = ring_det_leibniz(params, [[Z[i][j] for j in rows] for i in rows])
                        expected = (expected[0] + minor[0], expected[1] + minor[1])
                    T = restrict_to_lattice(S * embed_ok_matrix(O, X), L)
                    assert sub.det_as_ring_element(T) == expected, (d, Y, X)
                    lower_rank += sub.module_rank < r
        assert lower_rank >= 10

    def test_fitting_with_module_context(self):
        # multiplication by omega on the regular module: invertible iff the
        # norm of omega is a unit
        O = QuadraticOrder(-1)  # norm(i) = 1
        M = OKModule.regular(O, 1)
        split = fitting_decompose(M.omega_action, module=M)
        assert split.is_direct and split.restriction_invertible
        O2 = QuadraticOrder(2)  # norm(sqrt 2) = -2
        M2 = OKModule.regular(O2, 1)
        split2 = fitting_decompose(M2.omega_action, module=M2)
        assert not split2.restriction_invertible

    def test_root_search_restricted_to_commuting_candidates(self):
        from divlat.divisibility import Found, root_search

        O = QuadraticOrder(-1)
        M = OKModule.regular(O, 1)
        W = M.omega_action  # i, order 4
        T = W * W  # -1 as a ring scalar
        out = root_search(T, 2, 1, module=M)
        assert isinstance(out, Found)
        assert M.endomorphism_ok(out.witness)
        assert out.witness ** 2 == T

    def test_module_certificate_uses_field_norm(self):
        from divlat.divisibility import ProvedImpossible, SpectralObstruction, root_search

        O = QuadraticOrder(2)
        M = OKModule.regular(O, 1)
        T = scalar_matrix(M, (0, 1))  # sqrt(2), norm -2
        out = root_search(T, 2, 2, module=M)
        assert isinstance(out, ProvedImpossible)
        assert isinstance(out.certificate, SpectralObstruction)
        assert "-2" in out.certificate.statement()


class TestNonFreeModule:
    """The ideal (2, 1 + omega) of Z[sqrt(-5)] is projective but not free;
    as a Z-lattice with omega action it is a legal module here."""

    def _ideal_module(self):
        O = QuadraticOrder(-5)
        # basis b1 = 2, b2 = 1 + omega; multiplication by omega in that basis
        W = IntMatrix.from_rows([[-1, -3], [2, 1]])
        return O, OKModule(O, 2, W)

    def test_omega_action_satisfies_min_poly(self):
        O, M = self._ideal_module()
        W = M.omega_action
        assert (W * W + IntMatrix.identity(2) * 5).is_zero()

    def test_scalars_are_endomorphisms_with_correct_determinant(self):
        O, M = self._ideal_module()
        for a in range(-2, 3):
            for b in range(-2, 3):
                T = scalar_matrix(M, (a, b))
                assert M.endomorphism_ok(T)
                assert M.det_as_ring_element(T) == (a, b)

    def test_fitting_on_scalar_action(self):
        from divlat.classify import _Invariants

        O, M = self._ideal_module()
        T = scalar_matrix(M, (2, 1))  # norm 4 + 5 = 9, not a unit
        cs = _Invariants(T, M).split
        assert not cs.is_direct  # injective but not onto: image is a proper sublattice
        U = scalar_matrix(M, (-1, 0))
        assert _Invariants(U, M).split.is_direct
