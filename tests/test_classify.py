import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import lcm

import pytest

import divlat
import divlat.classify as classify
from divlat.classify import (
    classify_operator,
    finite_order,
    is_semisimple,
    jordan_chevalley,
    roots_of_unity_spectrum,
)
from divlat.exactalg import IntMatrix, QMatrix, _bareiss, _krylov_chains, char_poly, companion_matrix, cyclotomic
from divlat.corpus import KINDS, block_diagonal, conjugate, finite_order_matrix, gen_corpus
from divlat.divisibility import impossibility_certificates
from divlat.numberring import ZZ
from divlat.primes import euler_phi, prime_factors
from divlat.verifier import verify
from divlat.serialize import problem_from_json
from helpers import (char_poly_cofactor, diagonal_matrix, fitting_chain_oracle, frac_det, frac_min_poly, frac_rank,
                     image_oracle, mat_pow, min_poly_is_squarefree, module_problems, newton_jordan_chevalley_oracle,
                     oracle_image_facts, qpoly_add, qpoly_divmod, qpoly_eval_matrix, qpoly_mul, qpoly_radical,
                     rand_matrix, rand_unimodular, rational_invariants_oracle, seeded_operator)

ROT3 = IntMatrix.from_rows([[0, -1], [1, -1]])  # order 3


class TestSemisimple:
    def test_identity(self):
        assert is_semisimple(IntMatrix.identity(2))

    def test_jordan_block(self):
        assert not is_semisimple(IntMatrix.from_rows([[1, 1], [0, 1]]))

    def test_rotation(self):
        assert is_semisimple(ROT3)


class TestSpectrum:
    def test_rotation(self):
        assert roots_of_unity_spectrum(ROT3) == (True, ((3, 1),))

    def test_non_root_eigenvalue(self):
        assert roots_of_unity_spectrum(diagonal_matrix([1, 2])) == (False, None)

    def test_minus_identity(self):
        assert roots_of_unity_spectrum(IntMatrix.identity(2) * -1) == (True, ((2, 2),))

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="zero eigenvalue"):
            roots_of_unity_spectrum(diagonal_matrix([0, 1]))

    def test_success_implies_radical_divides_x_pow_L_minus_1(self):
        # x^L - 1 is squarefree, so it picks up each cyclotomic factor once:
        # the squarefree part of char(T) divides it exactly
        from math import lcm

        samples = [ROT3, IntMatrix.identity(3), IntMatrix.identity(2) * -1,
                   IntMatrix.from_rows([[0, -1], [1, 1]]), IntMatrix.from_rows([[0, -1], [1, 0]])]
        for T in samples:
            ok, fact = roots_of_unity_spectrum(T)
            assert ok
            L = lcm(*(k for k, _ in fact))
            q, r = qpoly_divmod([-1] + [0] * (L - 1) + [1], qpoly_radical(char_poly(T)))
            assert not r


class TestFiniteOrder:
    def test_rotation_has_order_3(self):
        assert finite_order(ROT3) == 3
        assert ROT3 ** 3 == IntMatrix.identity(2)
        assert ROT3 != IntMatrix.identity(2)

    def test_sign_flip(self):
        assert finite_order(IntMatrix.from_rows([[-1]])) == 2

    def test_unipotent_has_no_finite_order(self):
        T = IntMatrix.from_rows([[1, 1], [0, 1]])
        assert finite_order(T) is None
        # corner entry grows, so no power is the identity
        for d in range(1, 13):
            assert T ** d != IntMatrix.identity(2)

    def test_order_is_minimal(self):
        from divlat.primes import prime_factors

        samples = [ROT3, IntMatrix.from_rows([[0, -1], [1, 1]]), IntMatrix.from_rows([[0, -1], [1, 0]])]
        for T in samples:
            d = finite_order(T)
            assert T ** d == IntMatrix.identity(T.rows)
            for p in prime_factors(d):
                assert T ** (d // p) != IntMatrix.identity(T.rows)

    def test_conjugation_invariance(self):
        rng = random.Random(73)
        for T in (ROT3, IntMatrix.from_rows([[0, -1], [1, 1]]), IntMatrix.identity(2) * -1):
            for _ in range(20):
                U = rand_unimodular(rng, 2)
                assert finite_order(conjugate(T, U)) == finite_order(T)


class TestJordanChevalley:
    def test_unipotent_case(self):
        S, N = jordan_chevalley(IntMatrix.from_rows([[1, 1], [0, 1]]))
        assert S == QMatrix.identity(2)
        assert N == QMatrix.from_rows([[0, 1], [0, 0]])

    def test_semisimple_fixed_point(self):
        S, N = jordan_chevalley(ROT3)
        assert S == QMatrix.from_int_matrix(ROT3)
        assert N.is_zero()

    def test_single_eigenvalue_2(self):
        S, N = jordan_chevalley(IntMatrix.from_rows([[2, 1], [0, 2]]))
        assert S == QMatrix.from_int_matrix(diagonal_matrix([2, 2]))
        assert N == QMatrix.from_rows([[0, 1], [0, 0]])

    def test_invariants_randomized(self):
        rng = random.Random(79)
        for _ in range(100):
            n = rng.randint(1, 4)
            T = rand_matrix(rng, n, 4)
            S, N = jordan_chevalley(T)
            Tq = QMatrix.from_int_matrix(T)
            assert S + N == Tq
            assert S * N == N * S
            assert (N ** n).is_zero()
            assert min_poly_is_squarefree([list(S.row(i)) for i in range(n)])

    def test_rational_output(self):
        # eigenvalues can live outside Z even for integer input; entries of
        # the parts are rational and nothing more is claimed
        T = IntMatrix.from_rows([[0, 2], [1, 1], ])
        S, N = jordan_chevalley(T)
        assert S + N == QMatrix.from_int_matrix(T)


def coupled_jordan_sum(rng, blocks):
    """The sum of the Jordan blocks J_k(lam), (lam, k) in blocks sorted by
    lam, with random entries above the diagonal coupling blocks of distinct
    eigenvalues.  Block triangular with disjoint diagonal spectra, it is
    similar over Q to the plain sum, but its semisimple part picks up
    denominators from the eigenvalue gaps."""
    eigen = [lam for lam, k in blocks for _ in range(k)]
    block = [b for b, (_, k) in enumerate(blocks) for _ in range(k)]
    n = len(eigen)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = eigen[i]
        for j in range(i + 1, n):
            if block[i] == block[j]:
                rows[i][j] = int(j == i + 1)
            elif eigen[i] != eigen[j]:
                rows[i][j] = rng.randint(-2, 2)
    return IntMatrix.from_rows(rows)


def oracle_operators():
    """Seeded operators with n <= 8: the 0x0 and 1x1 edge cases, random,
    nilpotent, and derogatory non-semisimple ones."""
    rng = random.Random(89)
    ops = [IntMatrix(0, 0, ()), IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[-7]])]
    for n in range(1, 9):
        for _ in range(4):
            ops.append(rand_matrix(rng, n, 3))
        upper = IntMatrix(n, n, tuple(rng.randint(-2, 2) if j > i else 0
                                      for i in range(n) for j in range(n)))
        ops.append(conjugate(upper, rand_unimodular(rng, n)))
    derogatory = []
    for _ in range(16):
        lam, gap = rng.choice([-2, 0, 1]), rng.choice([2, 3])
        blocks = sorted([(lam, rng.choice([2, 3])), (lam, rng.choice([1, 2]))]
                        + [(lam + gap, rng.choice([1, 2])) for _ in range(rng.randint(1, 2))])
        T = coupled_jordan_sum(rng, blocks)
        derogatory.append(conjugate(T, rand_unimodular(rng, T.rows)))
    return ops, derogatory


def squared_and_cubed_golden_blocks():
    """companion((x^2 - 3x + 1)^e) for e = 2, 3 and a conjugate of each:
    a single eigenvalue pair outside Q with one Jordan block each, where
    Newton needs e - 1 updates of p."""
    rng = random.Random(101)
    ops = []
    for e in (2, 3):
        T = companion_matrix(tuple(qpoly_mul(*[(1, -3, 1)] * e)))
        ops += [(e - 1, T), (e - 1, conjugate(T, rand_unimodular(rng, T.rows)))]
    return ops


class TestNilpotentJordanChevalley:
    """For chi = x^n, Newton's first step from p = x gives p = 0: S = 0 and
    N = T, with no Newton step; T^n = 0 is chi(T) = 0, as chi is proven."""

    def test_parts_match_the_oracle_with_no_newton_step(self, monkeypatch):
        """Seeded nonzero nilpotent operators, n <= 8, and the shifts
        J_n(0), conjugated: the parts agree with the matrix Newton oracle,
        no Newton step runs, and no power of T is multiplied out, for one
        Krylov chain or several."""
        rng, seen = random.Random(227), set()
        ops = [IntMatrix.from_rows(seeded_operator("nilpotent", n, rng)) for n in range(2, 9) for _ in range(3)]
        ops = [T for T in ops if not T.is_zero()]
        ops += [conjugate(IntMatrix(n, n, tuple(int(j == i + 1) for i in range(n) for j in range(n))),
                          rand_unimodular(rng, n)) for n in range(2, 9)]
        newton_calls = []
        newton = classify._newton
        monkeypatch.setattr(classify, "_newton", lambda *args: newton_calls.append(args) or newton(*args))
        for T in ops:
            semisimple, S, N = newton_jordan_chevalley_oracle(T)
            inv = classify._Invariants(T)
            assert inv.chi == (0,) * T.rows + (1,), T
            assert classify._jordan_chevalley(inv) == (QMatrix.from_rows(S), QMatrix.from_rows(N)), T
            assert N == T.nested() and not semisimple, T
            assert inv._powers == {}, T
            seen.add(len(inv.orbits) == 1)
        assert newton_calls == []
        assert seen == {True, False}

    def test_a_chi_claiming_nilpotency_raises_under_optimize(self):
        """A Krylov solve that hands back every chain's own coefficients as
        0, so that each f_i is x^(d_i) and chi claims x^n, makes
        classify_operator raise, also under python -O.  The chain of
        g_i ends at column m_i = D_i + d_i, D_i the chain vectors before
        it, so D_i = m_(i-1).  For T = 0 (+) 1, conjugated so that T kills
        v = (1, 2), and for T = 0 (+) 1 (+) -1, of trace 0, conjugated so
        that T kills v = (1, 2, 3), the first chain is v alone and rightly
        x; the second chain's closing relation refuses x^(d_2)."""
        code = textwrap.dedent("""
            import divlat.exactalg as exactalg
            from divlat.classify import classify_operator
            from divlat.corpus import conjugate
            from divlat.exactalg import IntMatrix
            solve = exactalg._back_substitute
            ends = []

            def nilpotent(a, J, x):
                y = solve(a, J, x)
                D = ends[-1] if ends else 0
                ends.append(len(J))
                y[D : len(J)] = [0] * (len(J) - D)
                return y

            ops = [conjugate(IntMatrix.from_rows(D), IntMatrix.from_rows(U)) for D, U in
                   [([[0, 0], [0, 1]], [[1, 0], [2, 1]]),
                    ([[0, 0, 0], [0, 1, 0], [0, 0, -1]], [[1, 0, 0], [2, 1, 0], [3, 0, 1]])]]
            exactalg._back_substitute = nilpotent
            for T in ops:
                ends.clear()
                try:
                    out = classify_operator(T)
                except AssertionError as e:
                    print("raised", T.apply(range(1, T.rows + 1)), ends, e)
                else:
                    print("returned", out)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(divlat.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        wrong = "a Krylov chain's closing relation fails: the characteristic polynomial is wrong"
        assert run.stdout.splitlines() == [f"raised (0, 0) [1, 2] {wrong}", f"raised (0, 0, 0) [1, 2] {wrong}"]


class TestAgainstMatrixNewtonOracle:
    """classify runs Newton on polynomials modulo chi and decides
    semisimplicity by rad(chi)(T) = 0; the oracle runs on mu and on rational
    matrices.  S is unique, so the two agree entry for entry."""

    def test_parts_and_semisimplicity_match_the_oracle(self):
        ops, derogatory = oracle_operators()
        ops += [T for _, T in squared_and_cubed_golden_blocks()]
        non_integral = 0
        for T in ops + derogatory:
            semisimple, S, N = newton_jordan_chevalley_oracle(T)
            assert jordan_chevalley(T) == (QMatrix.from_rows(S), QMatrix.from_rows(N)), T
            assert is_semisimple(T) == semisimple, T
            non_integral += not QMatrix.from_rows(S).is_integral()
        for T in derogatory:
            assert len(frac_min_poly(T.nested())) <= T.rows and not is_semisimple(T), T
        assert non_integral >= 8

    def test_newton_steps_on_fraction_coefficients(self, monkeypatch):
        """The Newton step runs in Q[x]/(chi) on Fraction tuples: on the
        golden-ratio blocks it inverts r'(p) once per update, and the p it
        returns has non-integral coefficients and solves r(p) = 0 mod chi."""
        inverses, results = [], []
        inverse_impl, newton_impl = classify._inverse_mod, classify._newton

        def counting_inverse(a, m):
            inverses.append(a)
            return inverse_impl(a, m)

        def recording_newton(r, chi):
            results.append((r, chi, newton_impl(r, chi)))
            return results[-1][2]

        monkeypatch.setattr(classify, "_inverse_mod", counting_inverse)
        monkeypatch.setattr(classify, "_newton", recording_newton)
        for updates, T in squared_and_cubed_golden_blocks():
            inverses.clear()
            results.clear()
            semisimple, S, N = newton_jordan_chevalley_oracle(T)
            assert not semisimple
            assert jordan_chevalley(T) == (QMatrix.from_rows(S), QMatrix.from_rows(N))
            assert len(inverses) == updates
            (r, chi, p), = results
            assert r == (1, -3, 1) and any(isinstance(c, Fraction) and c.denominator > 1 for c in p)
            value = []
            for c in reversed(r):
                value = qpoly_add(qpoly_mul(value, p), [c])
            assert not qpoly_divmod(value, chi)[1]

    def test_no_krylov_polynomial_and_no_rational_inverse(self, monkeypatch):
        """classify_operator reads everything off chi: on a 10x10 random and
        a 10x10 nilpotent operator it never inverts a rational matrix."""
        calls = {"inverse": 0}
        inverse_impl = QMatrix.inverse

        def counting_inverse(self):
            calls["inverse"] += 1
            return inverse_impl(self)

        monkeypatch.setattr(QMatrix, "inverse", counting_inverse)
        rng = random.Random(97)
        n = 10
        random_op = rand_matrix(rng, n, 3)
        nilpotent = IntMatrix(n, n, tuple(rng.randint(-2, 2) if j > i else 0
                                          for i in range(n) for j in range(n)))
        random_report, nilpotent_report = classify_operator(random_op), classify_operator(nilpotent)
        assert random_report.semisimple and not nilpotent_report.semisimple
        assert nilpotent_report.jordan_nilpotent_part == QMatrix.from_int_matrix(nilpotent)
        assert calls == {"inverse": 0}

    def test_broken_newton_result_raises_under_optimize(self):
        """A Newton helper that hands back p = 0 makes jordan_chevalley
        raise, also under python -O, where assert statements are stripped."""
        code = textwrap.dedent("""
            import divlat.classify as classify
            from divlat.exactalg import IntMatrix
            classify._newton = lambda *args: ()
            try:
                out = classify.jordan_chevalley(IntMatrix.from_rows([[1, 1], [0, 1]]))
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


def invariants_operators():
    """Seeded operators with n = 0..8: the corpus kinds, conjugated Jordan
    sums with repeated eigenvalues, finite-order sums with repeated Phi_k,
    operators with cyclotomic chi that are not semisimple, |det| = 1
    operators of infinite order, and nilpotent ones."""
    rng = random.Random(103)
    ops = [IntMatrix(0, 0, ()), IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[-1]])]
    for kind in KINDS:
        for seed in (1, 2):
            ops += [p.operator for p in gen_corpus(kind, seed) if p.operator.rows <= 8]
    ops += oracle_operators()[1]
    for ks in ((1, 1), (4, 4), (1, 2), (2, 2, 2), (3, 6, 3), (1, 1, 2, 4), (6, 6, 4, 4), (5, 10)):
        ops.append(finite_order_matrix(list(ks), rand_unimodular(rng, sum(map(euler_phi, ks)))))
    def phi(*ks):
        return tuple(qpoly_mul(*map(cyclotomic, ks)))

    cat = IntMatrix.from_rows([[2, 1], [1, 1]])
    blocks = [
        [companion_matrix(phi(1, 1))], [companion_matrix(phi(4, 4))],
        [companion_matrix(phi(1, 2))], [companion_matrix(phi(3, 3, 1))],
        [IntMatrix.from_rows([[-1, 1], [0, -1]]), companion_matrix(phi(6))],
        [cat], [cat, cat], [cat, companion_matrix(phi(4))], [IntMatrix.from_rows([[0, 1], [1, 1]])],
        [companion_matrix(tuple(qpoly_mul((1, -3, 1), (1, -3, 1))))],
        [companion_matrix(tuple(qpoly_mul((1, -3, 1), (1, -3, 1), (1, -3, 1))))],
    ]
    for bs in blocks:
        T = block_diagonal(bs)
        ops += [T, conjugate(T, rand_unimodular(rng, T.rows))]
    for n in range(1, 9):
        upper = IntMatrix(n, n, tuple(rng.randint(-2, 2) if j > i else 0
                                      for i in range(n) for j in range(n)))
        ops.append(conjugate(upper, rand_unimodular(rng, n)))
    return ops


class TestAgainstRationalInvariantsOracle:
    """classify computes rad(chi), semisimplicity and the cyclotomic
    factorization in Z[x]; the oracle takes the rational route: Euclid over
    Q, rational matrices and trial division over Q."""

    def test_invariants_match_the_oracle(self):
        kinds = set()
        for T in invariants_operators():
            semisimple, radical, factorization = rational_invariants_oracle(T)
            inv = classify._Invariants(T)
            assert (inv.semisimple, list(inv.radical), inv.factorization) \
                == (semisimple, radical, factorization), T
            if factorization is None:
                kinds.add("unit, infinite order" if abs(inv.det) == 1 else "|det| != 1")
            else:
                kinds.add("cyclotomic" if semisimple else "cyclotomic, not semisimple")
                if any(e > 1 for _, e in factorization):
                    kinds.add("repeated Phi_k")
            if T.rows and not any(inv.chi[:-1]):
                kinds.add("nilpotent")
        assert kinds == {"|det| != 1", "unit, infinite order", "cyclotomic",
                         "cyclotomic, not semisimple", "repeated Phi_k", "nilpotent"}

    def test_no_rational_polynomial_arithmetic(self, monkeypatch):
        """On semisimple operators the certificates, verify and
        classify_operator stay in Z[x]: they never enter the Newton step,
        classify's only arithmetic in Q[x]; a random 10x10 operator, whose
        chi is squarefree, evaluates no r(T).  On J_2(1) r(T) v != 0 settles
        semisimplicity, so the one polynomial evaluated in T is the Newton
        step's S = p(T)."""
        calls = {"newton": 0, "inverse mod chi": 0, "r(T)": 0}

        def counting(name, impl):
            def wrapper(*args):
                calls[name] += 1
                return impl(*args)
            return wrapper

        monkeypatch.setattr(classify, "_newton", counting("newton", classify._newton))
        monkeypatch.setattr(classify, "_inverse_mod", counting("inverse mod chi", classify._inverse_mod))
        rng = random.Random(107)
        order_4 = finite_order_matrix([4, 1], rand_unimodular(rng, 3))
        assert classify._Invariants(order_4).order == 4
        impossibility_certificates(order_4, 2)
        problem = gen_corpus("finite-order", 1)[0]
        verify(ZZ, None, problem.operator, problem.exponent_set, problem.witnesses)
        repeated = finite_order_matrix([3, 3, 4, 4, 1, 1], rand_unimodular(rng, 10))
        assert classify_operator(repeated).semisimple
        assert calls == {"newton": 0, "inverse mod chi": 0, "r(T)": 0}
        monkeypatch.setattr(classify, "_scaled_eval", counting("r(T)", classify._scaled_eval))
        assert classify_operator(rand_matrix(rng, 10, 3)).semisimple
        assert calls == {"newton": 0, "inverse mod chi": 0, "r(T)": 0}
        assert not classify_operator(IntMatrix.from_rows([[1, 1], [0, 1]])).semisimple
        assert calls == {"newton": 1, "inverse mod chi": 1, "r(T)": 1}

    def test_broken_gcd_raises_under_optimize(self):
        """A gcd helper that hands back a polynomial not dividing chi makes
        semisimplicity raise, also under python -O."""
        code = textwrap.dedent("""
            import divlat.exactalg as exactalg
            from divlat.classify import _Invariants
            from divlat.exactalg import IntMatrix
            exactalg._zgcd = lambda a, b: (1, 1)
            try:
                out = _Invariants(IntMatrix.from_rows([[1, 1], [0, 1]])).semisimple
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


class TestPowerLadder:
    """Every power of T in one analysis is a product of the squares T^(2^i),
    each computed once."""

    def test_power_matches_exponentiation(self):
        rng = random.Random(151)
        operators = [IntMatrix(0, 0, ()), IntMatrix.from_rows([[-2]]), IntMatrix.from_rows([[1]])]
        for n in (2, 4, 6):
            operators += [IntMatrix.from_rows(seeded_operator(kind, n, rng))
                          for kind in ("finite-order", "random")]
        for T in operators:
            inv, ks = classify._Invariants(T), list(range(41))
            rng.shuffle(ks)  # the ladder grows out of order
            for k in ks:
                assert inv.power(k) == T ** k, (T, k)

    def test_power_against_repeated_nested_products(self):
        """power(k) against T^k multiplied out one factor at a time in nested
        lists, for n = 2 and 3 (the closed-form products) and 5 (the sliced
        columns), on random and finite-order operators and on entries past
        2^64."""
        from helpers import mat_mul

        rng = random.Random(157)
        for n in (2, 3, 5):
            operators = [IntMatrix.from_rows(seeded_operator(kind, n, rng)) for kind in ("finite-order", "random")]
            operators.append(IntMatrix(n, n, tuple(rng.randint(-2 ** 70, 2 ** 70) for _ in range(n * n))))
            for T in operators:
                inv, rows = classify._Invariants(T), T.nested()
                expected = [[int(i == j) for j in range(n)] for i in range(n)]
                for k in range(18):
                    assert inv.power(k).nested() == expected, (T, k)
                    expected = mat_mul(expected, rows)

    @staticmethod
    def recorded_products(monkeypatch):
        """The operand pairs (a, b) of every _tuple_mul call from now on,
        classify's (the ladder, Horner's rule, the commutant) and exactalg's
        (IntMatrix products and powers) alike."""
        import divlat.exactalg as exactalg

        products, tuple_mul = [], exactalg._tuple_mul

        def recording(a, b, *shape):
            products.append((a, b))
            return tuple_mul(a, b, *shape)

        for module in (exactalg, classify):
            monkeypatch.setattr(module, "_tuple_mul", recording)
        return products

    def test_verify_squares_no_matrix_twice(self, monkeypatch):
        """The roots T^m share one ladder; the order checks T^d = I and
        T^(d/p) != I are polynomial tests and keep T^(d+1) = T.  T has order
        120 and trace 1, so the re-multiplication of a root squares no
        matrix the ladder has squared.  The ladder's squares are made in
        classify, and the record sees each of T, T^2, ..., T^32 squared."""
        T = IntMatrix.from_rows(seeded_operator("finite-order", 12, random.Random(9)))
        assert (classify._Invariants(T).order, T.trace()) == (120, 1)
        ladder = {(T ** 2 ** i).entries for i in range(6)}
        products = self.recorded_products(monkeypatch)
        report = verify(ZZ, None, T, None, ())
        assert len(report.clause4.constructed_roots) == 4
        squared = [a for a, b in products if a == b]
        assert ladder <= set(squared)
        assert len(set(squared)) == len(squared)

    def test_a_power_is_kept_by_its_exponent(self, monkeypatch):
        """power keeps T^k by k.  For a singular T = 0 (+) X, X of order 12,
        the image part's order check multiplies T^13 out, and the coprime
        root for the exponent 13, X = T^1 = T, reads it twice more, for the
        precondition T^13 = T and as the root's own check X^13 = T, with
        no further product.  A power not yet kept, T^3, is then multiplied
        out, and recorded, so the record sees the ladder's products."""
        from divlat.divisibility import _coprime_roots

        U = rand_unimodular(random.Random(179), 6)
        T = conjugate(block_diagonal([IntMatrix.zeros(2, 2), companion_matrix(cyclotomic(12))]), U)
        inv = classify._Invariants(T)
        assert inv.zero_plus_order == 12
        cube, products = T ** 3, self.recorded_products(monkeypatch)
        assert _coprime_roots(inv, 12, (13,)) == [(13, T)]
        assert products == []
        assert inv.power(3) == cube and products

    def test_a_verified_order_records_the_next_power(self, monkeypatch):
        """Once order has verified T^d = I for an invertible T of order
        d = 12, T^13 is kept as T, so the coprime root for the exponent 13,
        X = T, reads its precondition T^13 = T and its own check X^13 = T
        with no product.  A power not yet kept, T^3, is then multiplied
        out, and recorded, so the record sees the ladder's products."""
        from divlat.divisibility import _coprime_roots

        T = conjugate(companion_matrix(cyclotomic(12)), rand_unimodular(random.Random(181), 4))
        inv = classify._Invariants(T)
        assert inv.order == 12 and inv.power(13) is T
        cube, products = T ** 3, self.recorded_products(monkeypatch)
        assert _coprime_roots(inv, 12, (13,)) == [(13, T)]
        assert products == []
        assert inv.power(3) == cube and products


def counted_products(monkeypatch):
    """The shapes (rows, inner, cols) of classify's own _tuple_mul calls,
    recorded from now on."""
    products, tuple_mul = [], classify._tuple_mul
    monkeypatch.setattr(classify, "_tuple_mul", lambda a, b, *shape: products.append(shape) or tuple_mul(a, b, *shape))
    return products


class TestScaledEval:
    """_scaled_eval against Horner's rule over Fractions, from the leading
    coefficient times T: deg p - 1 products of n x n matrices, one for
    x^2 - 3x + 1, where a start from the leading coefficient times I took
    deg p."""

    def test_against_fraction_horner(self, monkeypatch):
        products = counted_products(monkeypatch)
        rng, degrees = random.Random(239), set()
        for _ in range(300):
            n = rng.randint(0, 4)
            T = rand_matrix(rng, n, 3)
            p = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 5)))
            p = p[: max((i + 1 for i, c in enumerate(p) if c), default=0)]
            products.clear()
            D, DP = classify._scaled_eval(p, T)
            assert D == lcm(*(c.denominator for c in p)), p
            assert [[Fraction(x, D) for x in row] for row in DP.nested()] == qpoly_eval_matrix(p, T.nested()), (p, T)
            assert products == [(n, n, n)] * max(len(p) - 2, 0), (p, T)
            degrees.add(len(p) - 1)
        assert degrees == {-1, 0, 1, 2, 3, 4}
        products.clear()
        classify._scaled_eval((1, -3, 1), IntMatrix.from_rows([[1, 2, 0], [0, 1, 3], [4, 0, 1]]))
        assert products == [(3, 3, 3)]


class TestVectorCertificates:
    """A claim p(T) != 0 is settled by one vector v = (1, ..., n) with
    p(T) v != 0: matrix-vector products, no polynomial in T multiplied
    out."""

    def test_no_polynomial_in_t_is_multiplied_out(self, monkeypatch):
        """fitting on nilpotent operators, semisimple on non-semisimple
        ones and image_semisimple on singular ones whose image part is not
        semisimple never call _scaled_eval."""
        calls = []
        scaled_eval = classify._scaled_eval
        monkeypatch.setattr(classify, "_scaled_eval", lambda *args: calls.append(args) or scaled_eval(*args))
        rng = random.Random(191)
        nilpotent = [IntMatrix.from_rows(seeded_operator("nilpotent", n, rng)) for n in range(4, 13)]
        J2 = IntMatrix.from_rows([[1, 1], [0, 1]])
        unipotent = [conjugate(block_diagonal([J2, IntMatrix.identity(k)]), rand_unimodular(rng, k + 2))
                     for k in range(4)]
        singular = [conjugate(block_diagonal([IntMatrix.zeros(k, k), J2]), rand_unimodular(rng, k + 2))
                    for k in range(1, 4)]
        for T in nilpotent:
            inv = classify._Invariants(T)
            assert inv.fitting.exponent_m >= 2 and not inv.semisimple and not inv.image_semisimple, T
        for T in unipotent:
            assert not classify._Invariants(T).semisimple, T
        for T in singular:
            inv = classify._Invariants(T)
            assert not inv.image_semisimple and inv.fitting.exponent_m == 1, T
        assert calls == []

    def test_a_zero_vector_is_settled_by_the_later_chains(self, monkeypatch):
        """When r(T) v = 0, r(T) g_i != 0 for a later generator g_i settles
        the claim, with no matrix product: T = J_2(1) (+) (1) and the
        singular S = 0 (+) J_2(1), each conjugated so that v = (1, 2, 3) is
        a fixed vector, stay non-semisimple, and neither r(T) nor any other
        n x n matrix is multiplied out."""
        calls, products = [], counted_products(monkeypatch)
        scaled_eval = classify._scaled_eval
        monkeypatch.setattr(classify, "_scaled_eval", lambda *args: calls.append(args) or scaled_eval(*args))
        T = conjugate(IntMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                      IntMatrix.from_rows([[1, 0, 0], [2, 1, 0], [3, 0, 1]]))  # v = U e1
        S = conjugate(IntMatrix.from_rows([[0, 0, 0], [0, 1, 1], [0, 0, 1]]),
                      IntMatrix.from_rows([[0, 1, 0], [1, 2, 0], [0, 3, 1]]))  # v = U e2
        for X in (T, S):
            assert X.apply((1, 2, 3)) == (1, 2, 3), X
        inv_T, inv_S = classify._Invariants(T), classify._Invariants(S)
        assert not inv_T.semisimple and not inv_S.image_semisimple
        assert [len(inv.orbits) for inv in (inv_T, inv_S)] == [3, 3]
        assert calls == [] and products == []

    def test_no_matrix_product_for_any_fact(self, monkeypatch):
        """For every T, derogatory included, semisimplicity, the order, the
        image part's facts and the Fitting exponent are polynomial tests on
        the chains' orbits: no _scaled_eval call and no n x n product, and
        the only powers kept are T^(d+1) = T for an order d and T^m for the
        split at Fitting's exponent m.  The operators are seeded ones with
        one to n chains: random, finite-order, nilpotent, scalar, zero,
        conjugated X (+) X and 0 (+) X (+) X for X of finite order, and
        J_2(1) (+) J_2(1)."""
        rng, chains = random.Random(229), set()
        operators = []
        for n in range(1, 8):
            operators += [IntMatrix.from_rows(seeded_operator(kind, n, rng))
                          for kind in ("random", "finite-order", "nilpotent")]
            operators += [IntMatrix.identity(n) * c for c in (0, 1, -1, 2)]
        for n in range(1, 4):
            X = IntMatrix.from_rows(seeded_operator("finite-order", n, rng))
            operators.append(conjugate(block_diagonal([X, X]), rand_unimodular(rng, 2 * n)))
            operators.append(conjugate(block_diagonal([IntMatrix.zeros(1, 1), X, X]), rand_unimodular(rng, 2 * n + 1)))
        J2 = IntMatrix.from_rows([[1, 1], [0, 1]])
        operators.append(conjugate(block_diagonal([J2, J2]), rand_unimodular(rng, 4)))
        calls = []
        scaled_eval = classify._scaled_eval
        monkeypatch.setattr(classify, "_scaled_eval", lambda *args: calls.append(args) or scaled_eval(*args))
        products = TestProvenAnnihilator.counted(monkeypatch, "_tuple_mul")
        for T in operators:
            inv = classify._Invariants(T)
            facts = (inv.semisimple, inv.order, abs(inv.image_det), inv.image_semisimple, inv.image_order,
                     inv.zero_plus_order)
            assert calls == [] and products == [], T
            kept = {d + 1 for d in (inv.order, inv.image_order) if d}
            assert set(inv._powers) <= kept, T
            assert set(inv._powers) <= kept | {inv.fitting.exponent_m}, T
            assert calls == [], T
            products.clear()
            chains.add(min(len(inv.orbits), 4))
            assert facts[0] == min_poly_is_squarefree(T.nested()), T
        assert chains == {1, 2, 3, 4}


def krylov_chain_cases(family):
    """Operators with many Krylov chains, by family: the 0x0 operator, and
    the scalar and the zero operators up to n = 10, one chain per
    dimension; Y^2 (+) Y^2 for a random Y, conjugated, two or more; and
    nilpotent operators T with T v = 0, v = (1, ..., n), conjugated
    strictly upper triangular matrices, whose first chain has length 1."""
    rng = random.Random(233)
    if family == "empty, scalar and zero":
        yield IntMatrix(0, 0, ())
        for n in (1, 2, 3, 4, 5, 7, 10):
            for c in (0, 1, -2, 3):
                yield IntMatrix.identity(n) * c
    elif family == "Y^2 (+) Y^2":
        for n in (1, 2, 3, 3, 4, 4):
            Y = rand_matrix(rng, n, 1)
            yield conjugate(block_diagonal([Y * Y, Y * Y]), rand_unimodular(rng, 2 * n))
    else:
        for n in range(2, 9):
            for _ in range(3):
                N = IntMatrix.from_rows([[rng.choice((0, 0, rng.randint(-2, 2))) if j > i else 0 for j in range(n)]
                                         for i in range(n)])
                U = IntMatrix.from_rows([[i + 1 if j == 0 else int(i == j) for j in range(n)] for i in range(n)])
                T = conjugate(N, U)  # U e_1 = v and N e_1 = 0
                assert not any(T.apply(range(1, n + 1))), T
                yield T


class TestKrylovChains:
    """The facts of operators with zero to many Krylov chains against the
    independent oracles."""

    @pytest.mark.parametrize("family", ["empty, scalar and zero", "Y^2 (+) Y^2", "nilpotent killing v"])
    def test_facts_against_the_oracles(self, family):
        """chi against cofactor expansion; semisimplicity, the radical and
        the cyclotomic factorization against rational_invariants_oracle;
        the order against matrix powers; the image part's facts against
        oracle_image_facts; and Fitting's exponent and image part against
        fitting_chain_oracle."""
        chains = set()
        for T in krylov_chain_cases(family):
            rows, n = T.nested(), T.rows
            inv = classify._Invariants(T)
            assert inv.chi == tuple(char_poly_cofactor(rows)), T
            semisimple, radical, factorization = rational_invariants_oracle(T)
            assert (inv.semisimple, list(inv.radical), inv.factorization) == (semisimple, radical, factorization), T
            if n and inv.order is not None:
                identity = mat_pow(rows, 0)
                assert mat_pow(rows, inv.order) == identity, T
                assert all(mat_pow(rows, inv.order // p) != identity for p in prime_factors(inv.order)), T
            facts = (abs(inv.image_det), inv.image_det, inv.image_semisimple, inv.image_order)
            assert facts == oracle_image_facts(T), T
            if n:
                m, power = fitting_chain_oracle(T)
                assert (inv.fitting.exponent_m, inv.fitting.image_part) == (m, image_oracle(power)), T
            chains.add(len(inv.orbits))
        assert {"empty, scalar and zero": {0, 1, 2, 3, 4, 5, 7, 10}, "Y^2 (+) Y^2": {2, 4},
                "nilpotent killing v": {2, 3, 4, 5}}[family] <= chains


class TestProvenAnnihilator:
    """chi is proven for every T, so semisimplicity, the order and the image
    part's facts are polynomial tests modulo chi on the Krylov chains'
    orbits; with v = (1, ..., n) cyclic, one chain, chi is mu_T.  Each fact
    is checked against an independent oracle."""

    @staticmethod
    def counted(monkeypatch, name):
        """The calls to classify's or exactalg's kernel name, recorded as
        their shapes (n x n products only, for _tuple_mul)."""
        import divlat.exactalg as exactalg

        calls, original = [], getattr(exactalg, name)

        def counting(*args):
            if name != "_tuple_mul" or args[4] > 1:
                calls.append(args[2:])
            return original(*args)

        for module in (exactalg, classify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
        return calls

    def test_semisimple_for_a_cyclic_vector_is_a_squarefree_chi(self):
        """For a cyclic v, one chain, T is semisimple exactly when chi is
        squarefree; semisimplicity against the Fraction minimal polynomial,
        on seeded n <= 8, with one chain or several."""
        rng, seen = random.Random(197), set()
        for n in range(1, 9):
            for kind in ("random", "finite-order", "nilpotent"):
                for _ in range(3):
                    rows = seeded_operator(kind, n, rng)
                    inv = classify._Invariants(IntMatrix.from_rows(rows))
                    assert inv.semisimple == min_poly_is_squarefree(rows), rows
                    cyclic = len(inv.orbits) == 1
                    if cyclic:
                        assert inv.semisimple == (inv.radical == inv.chi), rows
                    seen.add((cyclic, inv.semisimple))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def block_sums(self):
        """Block sums of cyclotomic companion matrices, with and without a
        repeated block, of a zero block too, each conjugated by a unimodular
        matrix: (T, d, shift) with d the lcm of the indices and shift 1
        when T is singular."""
        rng = random.Random(199)
        zero = IntMatrix.zeros(1, 1)
        for ks in ((3, 3), (4, 4, 2), (6, 3, 3), (1, 1, 4), (5, 5), (12, 12), (2, 3, 4), (7, 9), (28,), (8, 8, 3)):
            blocks = [companion_matrix(cyclotomic(k)) for k in ks]
            for extra, shift in (([], 0), ([zero], 1)):
                n = sum(b.rows for b in blocks) + len(extra)
                T = conjugate(block_diagonal(extra + blocks), rand_unimodular(rng, n))
                yield T, lcm(*ks), shift

    def test_order_against_matrix_powers(self):
        """order, or image_order for a singular T, is d, with T^(d + shift)
        = T^shift and T^(d/p + shift) != T^shift for each prime p | d,
        multiplied out in nested lists."""
        from divlat.primes import prime_factors
        from helpers import mat_pow

        seen = set()
        for T, d, shift in self.block_sums():
            inv = classify._Invariants(T)
            assert (inv.image_order if shift else inv.order) == d, T
            rows = T.nested()
            target = mat_pow(rows, shift)
            assert mat_pow(rows, d + shift) == target, T
            for p in prime_factors(d):
                assert mat_pow(rows, d // p + shift) != target, T
            seen.add((shift, len(inv.orbits) == 1))
        assert seen == {(0, True), (0, False), (1, True), (1, False)}

    def test_no_product_in_the_order_of_a_cyclic_operator(self, monkeypatch):
        """The order of the 12 x 12 companion matrix of Phi_28, conjugated,
        and its classification, multiply out no n x n matrix: chi is proven
        squarefree, divides x^28 - 1, and x^14 and x^4 mod chi move v."""
        T = conjugate(companion_matrix(cyclotomic(28)), rand_unimodular(random.Random(211), 12))
        products = self.counted(monkeypatch, "_tuple_mul")
        inv = classify._Invariants(T)
        assert inv.order == 28 and len(inv.orbits) == 1
        assert classify_operator(T).order == 28
        assert products == []

    def test_no_elimination_for_a_cyclic_singular_operator(self, monkeypatch):
        """A singular T with a cyclic v is nonderogatory, so rank ker T = 1:
        verify reads the image part with no elimination of T, on
        0 (+) Phi_12's companion and on J_6(0), conjugated, and the image
        part's split, semisimplicity and order multiply out no n x n matrix
        (the coprime roots verify constructs still do).  The eliminations
        counted are classify's own calls of the one elimination kernel;
        det T and chi take theirs inside exactalg."""
        rng = random.Random(223)
        shift = IntMatrix(6, 6, tuple(int(j == i + 1) for i in range(6) for j in range(6)))
        operators = [conjugate(block_diagonal([IntMatrix.zeros(1, 1), companion_matrix(cyclotomic(12))]),
                               rand_unimodular(rng, 5)),
                     conjugate(shift, rand_unimodular(rng, 6))]
        eliminations = []
        monkeypatch.setattr(classify, "_bareiss", lambda a, cols: eliminations.append(cols) or _bareiss(a, cols))
        products = self.counted(monkeypatch, "_tuple_mul")
        facts = []
        for T in operators:
            inv = classify._Invariants(T)
            facts.append((abs(inv.image_det), inv.image_semisimple, inv.image_order, inv.zero_plus_order))
            assert inv.image_chi == inv.chi[1:] and len(inv.orbits) == 1, T
        assert facts == [(1, True, 12, 12), (0, False, None, None)]
        assert products == []
        reports = [verify(ZZ, None, T, None, ()) for T in operators]
        assert [(r.clause1.clean_split, r.clause2.semisimple) for r in reports] == [(True, True), (False, False)]
        assert eliminations == []

    def test_a_derogatory_order_takes_no_power(self, monkeypatch):
        """T = I_2 (+) Phi_4's companion, conjugated so that v = (1, 2, 3, 4)
        is fixed, is derogatory: semisimplicity, r = (x - 1)(x^2 + 1) of
        T, and the order 4, T^4 = I and T^2 != I, are read off the chains'
        orbits with no n x n product; T^5 = T is the one power kept."""
        U = IntMatrix.from_rows([[1, 0, 0, 0], [2, 1, 0, 0], [3, 0, 1, 0], [4, 0, 0, 1]])  # v = U e1
        T = conjugate(block_diagonal([IntMatrix.identity(2), companion_matrix(cyclotomic(4))]), U)
        assert T.apply((1, 2, 3, 4)) == (1, 2, 3, 4)
        products = counted_products(monkeypatch)
        inv = classify._Invariants(T)
        assert inv.semisimple and inv.radical == (-1, 1, -1, 1) and len(inv.orbits) > 1
        assert inv.order == 4 and sorted(inv._powers) == [5] and inv.power(5) is T
        assert products == []


class TestImagePart:
    """The facts of the image part M = T on im T, read off chi_T and one
    fraction-free elimination of T, against the lattice route."""

    def singular_operators(self):
        """Seeded singular operators, n <= 8: zero, nilpotent, rank-deficient
        products, 0 (+) X for X unimodular of finite order (a direct split),
        0 (+) 2X (a proper sublattice), 0 (+) J_2(1) (+) X (direct, M not
        semisimple) and J_2(0) (+) X (ker T meets im T), each conjugated by
        a unimodular matrix."""
        rng = random.Random(157)
        J2 = IntMatrix.from_rows([[0, 1], [0, 0]])
        ops = [IntMatrix.zeros(n, n) for n in (1, 2, 5, 8)]
        for n in range(2, 9):
            U = rand_unimodular(rng, n)
            ops.append(IntMatrix.from_rows(seeded_operator("nilpotent", n, rng)))
            rank = rng.randint(1, n - 1)
            ops.append(IntMatrix(n, rank, tuple(rng.randint(-3, 3) for _ in range(n * rank)))
                       * IntMatrix(rank, n, tuple(rng.randint(-3, 3) for _ in range(rank * n))))
            zeros = rng.randint(1, n - 1)
            X = IntMatrix.from_rows(seeded_operator("finite-order", n - zeros, rng))
            ops.append(conjugate(block_diagonal([IntMatrix.zeros(zeros, zeros), X]), U))
            ops.append(conjugate(block_diagonal([IntMatrix.zeros(zeros, zeros), X * 2]), U))
            if n >= 3:
                Y = IntMatrix.from_rows(seeded_operator("random", n - 2, rng))
                ops.append(conjugate(block_diagonal([J2, Y]), U))
                ops.append(conjugate(block_diagonal([IntMatrix.zeros(1, 1), J2 + IntMatrix.identity(2),
                                                     IntMatrix.identity(n - 3)]), U))
        return [(T, None) for T in ops]

    def module_operators(self):
        """The singular operators of the module problems, over the regular
        modules of ranks 1 and 2."""
        problems = map(problem_from_json, module_problems())
        return [(p["operator"], p["module"]) for p in problems if not p["operator"].det()]

    def test_chi_matches_a_direct_char_poly(self):
        """chi_M, chi_T without its factor x^k, is the characteristic
        polynomial of the restriction of T to the Hermite basis of im T."""
        kinds = set()
        for T, module in self.singular_operators() + self.module_operators():
            inv = classify._Invariants(T, module)
            assert inv.image_chi == char_poly(inv.split.restriction), T
            kinds.add("split" if inv.split.is_direct else "not split")
            kinds.add("nilpotent" if not any(inv.chi[:-1]) else "not nilpotent")
        assert kinds == {"split", "not split", "nilpotent", "not nilpotent"}

    def test_facts_match_the_restriction_oracle(self):
        """image_det, its absolute value the split's index, image_semisimple
        and image_order against helpers.oracle_image_facts, with
        chi_M = chi_T / x^k; the rank r and the sets I and J of the
        elimination against a Fraction rank oracle, T[I, J] nonsingular."""
        kinds = set()
        for T, module in self.singular_operators() + self.module_operators():
            n = T.rows
            inv = classify._Invariants(T, module)
            facts = (abs(inv.image_det), inv.image_det, inv.image_semisimple, inv.image_order)
            assert facts == oracle_image_facts(T), T
            J, origin, _ = _bareiss(T.nested(), n)
            r, I = len(J), sorted(origin[: len(J)])
            assert r == frac_rank(T.nested()) and len(I) == len(J) == r, T
            assert list(I) == sorted(set(I)) and list(J) == sorted(set(J)), T
            assert frac_det([[T[i, j] for j in J] for i in I]) != 0, T
            assert inv.image_chi == inv.chi[n - r:], T
            assert inv.zero_plus_order == (inv.image_order if abs(inv.image_det) == 1 else None), T
            kinds.add((min(abs(inv.image_det), 2), inv.image_semisimple, inv.image_order is not None,
                       module is not None))
        assert kinds == {(0, False, False, False), (0, True, False, False), (1, False, False, False),
                         (1, True, False, True), (1, True, True, False), (1, True, True, True),
                         (2, True, False, False), (2, True, False, True)}

    def test_an_injective_operator_is_its_own_image_part(self):
        """For det T != 0 the image part's facts are T's own det,
        semisimplicity and order, and chi_M is chi_T; they agree with the
        restriction M to the Hermite basis of im T, which is
        GL_n(Z)-conjugate to T.  The seeded operators, n <= 6, are random,
        finite-order and a non-semisimple 2 (J_2(1) (+) X) for X
        finite-order, so that M != T for most."""
        rng = random.Random(167)
        ops = []
        for n in range(1, 7):
            for kind in ("random", "finite-order"):
                ops += [IntMatrix.from_rows(seeded_operator(kind, n, rng)) for _ in range(4)]
            if n >= 3:
                X = IntMatrix.from_rows(seeded_operator("finite-order", n - 2, rng))
                ops.append(block_diagonal([IntMatrix.from_rows([[1, 1], [0, 1]]), X]) * 2)
        moved, facts = 0, set()
        for T in ops:
            inv = classify._Invariants(T)
            if not inv.det:
                continue
            assert (inv.image_chi, inv.image_det, inv.image_semisimple, inv.image_order) == \
                (inv.chi, inv.det, inv.semisimple, inv.order), T
            assert (abs(inv.image_det), inv.det, inv.semisimple, inv.order) == oracle_image_facts(T), T
            moved += inv.split.restriction != T
            facts.add((inv.order is not None, inv.semisimple))
        assert moved >= 10
        assert facts == {(True, True), (False, True), (False, False)}

    @pytest.mark.parametrize("chi", [(1, 0, -2, -1, 1)], ids=["low coefficient"])
    def test_a_chi_disagreeing_with_the_image_part_raises(self, chi):
        """T = diag(0, 0, 2, -1) has chi_T = x^2 (x - 2)(x + 1) =
        (0, 0, -2, -1, 1) and image part diag(2, -1); T is derogatory, so
        the image part is read off the elimination of T, and a chi_T with a
        nonzero coefficient below x^k, k = rank ker T, is refused by every
        fact of the image part.  chi_T itself is proven by its Krylov
        chains (test_exactalg)."""
        for fact in ("image_det", "image_semisimple", "image_order", "zero_plus_order"):
            inv = classify._Invariants(diagonal_matrix([0, 0, 2, -1]))
            assert inv.chi == (0, 0, -2, -1, 1) and len(inv.orbits) > 1  # the orbits are read with chi
            inv.chi = chi
            with pytest.raises(AssertionError, match="chi of the image part"):
                getattr(inv, fact)

    @pytest.mark.parametrize("corruption", ["rank one too low", "one column of J swapped"])
    def test_a_wrong_elimination_raises_under_optimize(self, corruption):
        """An elimination that reports the rank one too low, or J with its
        last column swapped for the first column outside J, makes verify
        raise on diag(0, 0, 2, -1) and on a 4 x 4 nilpotent of rank 2, also
        under python -O, where assert statements are stripped.  Both are
        derogatory, so v = (1, ..., n) is not cyclic and the image part is
        read off the elimination."""
        code = textwrap.dedent(f"""
            import divlat.classify as classify
            from divlat.exactalg import IntMatrix, _bareiss
            from divlat.numberring import ZZ
            from divlat.verifier import verify

            def corrupted(a, cols):
                J, origin, sign = _bareiss(a, cols)
                if {corruption!r} == "rank one too low":
                    return J[:-1], origin, sign
                return J[:-1] + [min(set(range(cols)) - set(J))], origin, sign

            classify._bareiss = corrupted
            for rows in ([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, -1]],
                         [[0, 4, 3, -2], [0, -2, -2, 2], [0, 1, 1, -1], [0, -1, -1, 1]]):
                try:
                    out = verify(ZZ, None, IntMatrix.from_rows(rows), None, ())
                except AssertionError as e:
                    print("raised", str(e).startswith("chi of the image part"))
                else:
                    print("returned", out.verdict)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(divlat.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split("\n")[:2] == ["raised True"] * 2

    def test_a_rank_one_too_low_raises_under_optimize(self):
        """An elimination that drops its last pivot passes the check on
        chi_T's low coefficients when chi_T = x^n, as on nilpotent
        operators; the kernel vector read off the echelon rows for the
        dropped column is then not killed by T, so verify raises, also
        under python -O, on the shift J_3 (+) 0 and on four seeded nilpotent
        4 x 4 operators.  Each is derogatory, so v = (1, ..., n) is not
        cyclic and the image part is read off the elimination."""
        operators = [[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]]
        operators += [seeded_operator("nilpotent", 4, random.Random(s)) for s in (1, 2, 6, 7)]
        assert all(len(_krylov_chains(IntMatrix.from_rows(rows))[1]) > 1 for rows in operators)
        code = textwrap.dedent(f"""
            import divlat.classify as classify
            from divlat.exactalg import IntMatrix, _bareiss
            from divlat.numberring import ZZ
            from divlat.verifier import verify

            def dropped(a, cols):
                J, origin, sign = _bareiss(a, cols)
                return J[:-1], origin, sign

            classify._bareiss = dropped
            for rows in {operators!r}:
                try:
                    out = verify(ZZ, None, IntMatrix.from_rows(rows), None, ())
                except AssertionError as e:
                    print("raised", str(e).startswith("chi of the image part: T does not kill"))
                else:
                    print("returned", out.verdict)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(divlat.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split("\n")[:5] == ["raised True"] * 5


class TestClassifyReport:
    def test_rotation_report(self):
        report = classify_operator(ROT3)
        assert report.semisimple
        assert report.all_eigen_roots_of_unity
        assert report.order == 3
        assert report.cyclotomic_factorization == ((3, 1),)

    def test_singular_operator_report(self):
        report = classify_operator(diagonal_matrix([0, 1]))
        assert report.semisimple
        assert not report.all_eigen_roots_of_unity
        assert report.order is None
        assert report.cyclotomic_factorization is None

    def test_order_present_iff_semisimple_and_roots(self):
        rng = random.Random(83)
        for _ in range(80):
            T = rand_matrix(rng, rng.randint(1, 3), 3)
            report = classify_operator(T)
            assert (report.order is not None) == (
                report.semisimple and report.all_eigen_roots_of_unity
            )
