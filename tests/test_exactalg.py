import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd, prod
from operator import mul

import pytest

import divlat
import divlat.exactalg as exactalg
from divlat.corpus import block_diagonal, conjugate
from divlat.exactalg import IntMatrix, Lattice, QMatrix, char_poly, companion_matrix, cyclotomic, hnf
from divlat.exactalg import (_back_substitute, _bareiss, _cyclotomic_indices, _kernel_and_image, _saturation,
                             _tuple_mul, _tuple_pow, _zdivmod, _zgcd, _zradical)
from helpers import (char_poly_cofactor, commutator_equations, cyclotomic_table, diagonal_matrix, frac_det,
                     frac_inverse, frac_min_poly, frac_rank, full_lattice, image_oracle, is_saturated_kernel,
                     lattice_from_generators, mat_mul, mat_pow, qpoly_divmod, qpoly_eval_matrix, qpoly_gcd, qpoly_monic,
                     qpoly_mul, qpoly_radical, qpoly_trim, rand_matrix, rand_unimodular, saturation_oracle,
                     seeded_module_problems, seeded_operator)


class TestKernels:
    """The shared entry-tuple kernels against the nested-list oracles."""

    def _cases(self, rng, n, cols=None, count=40):
        """Random, singular (a repeated row) and zero-leading-pivot n x cols
        matrices, cols = n by default, and one with a zero column."""
        cols = n if cols is None else cols
        for _ in range(count):
            entries = [rng.randint(-6, 6) for _ in range(n * cols)]
            yield entries
            if n >= 2:
                i, j = rng.sample(range(n), 2)
                singular = list(entries)
                singular[j * cols : (j + 1) * cols] = entries[i * cols : (i + 1) * cols]
                yield singular
            if n and cols:
                zero_pivot = list(entries)
                zero_pivot[0] = 0
                yield zero_pivot
                zero_column = list(entries)
                zero_column[rng.randrange(cols) :: cols] = [0] * n
                yield zero_column

    def test_det_against_fraction_elimination(self):
        """Closed forms to 3 x 3, the signed last pivot of the elimination
        beyond, to 12 x 12, the largest operators the benchmark analyses."""
        rng = random.Random(41)
        for n in range(13):
            for entries in self._cases(rng, n, count=40 if n <= 6 else 8):
                rows = [entries[i * n : (i + 1) * n] for i in range(n)]
                expected = frac_det(rows)
                assert IntMatrix(n, n, tuple(entries)).det() == expected, rows

    def test_elimination_against_fraction_rank(self):
        """On rows x cols inputs from 0 x 0 to 6 x 7: the pivot count is
        the rank, the pivot rows and columns, ascending, form a nonsingular
        minor, and back-substitution with that minor at a column outside J
        gives a vector the input kills."""
        rng = random.Random(47)
        for rows in range(7):
            for cols in range(8):
                for entries in self._cases(rng, rows, cols, count=4):
                    x = [entries[i * cols : (i + 1) * cols] for i in range(rows)]
                    a = [list(row) for row in x]
                    J, origin, _ = _bareiss(a, cols)
                    I = sorted(origin[: len(J)])
                    assert len(J) == frac_rank(x) and sorted(origin) == list(range(rows)), x
                    assert J == sorted(set(J)), x
                    minor = frac_det([[x[i][j] for j in J] for i in I])
                    assert minor, x
                    for j in sorted(set(range(cols)) - set(J)):
                        v = [0] * cols
                        v[j] = int(minor)
                        y = _back_substitute(a, J, v)
                        assert not any(sum(map(mul, row, y)) for row in x), (x, y)

    def test_zero_pivot_column_is_singular(self):
        M = IntMatrix.from_rows([[0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 8, 9], [0, 1, 1, 1]])
        assert M.det() == 0

    def test_product_and_power_against_nested_lists(self):
        rng = random.Random(42)
        for _ in range(60):
            r, k, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
            a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(r)]
            b = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(k)]
            flat = _tuple_mul(tuple(x for row in a for x in row), tuple(x for row in b for x in row), r, k, c)
            expected = mat_mul(a, b) if k else [[0] * c for _ in range(r)]
            assert list(flat) == [x for row in expected for x in row]
        for _ in range(40):
            n, s = rng.randint(1, 4), rng.randint(0, 9)
            x = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            flat = _tuple_pow(tuple(v for row in x for v in row), n, s)
            assert list(flat) == [v for row in mat_pow(x, s) for v in row]

    def test_rational_algebra_matches_integer_algebra(self):
        rng = random.Random(43)
        for _ in range(30):
            A, B = rand_matrix(rng, 3, 4), rand_matrix(rng, 3, 4)
            qa, qb = QMatrix.from_int_matrix(A), QMatrix.from_int_matrix(B)
            for q, i in ((qa * qb, A * B), (qa + qb, A + B), (qa - qb, A - B), (-qa, -A),
                         (qa ** 3, A ** 3), (qa * 2, A * 2), (2 * qa, 2 * A)):
                assert q == QMatrix.from_int_matrix(i)


class _Sliced(tuple):
    """An entry tuple that records every slice taken of it in SLICES."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            SLICES.append(key)
        return tuple.__getitem__(self, key)


SLICES: list[slice] = []


class TestProductKernel:
    """_tuple_mul's closed forms for square 2 x 2 and 3 x 3 operands against
    products of nested lists; every other shape takes the sliced columns."""

    @staticmethod
    def flat(rows):
        return [x for row in rows for x in row]

    def operands(self, rng, n):
        """Pairs of n x n nested lists: small entries, entries past 2^64,
        a zero matrix, and a zero row and column."""
        for bound in (5, 5, 2 ** 70, 2 ** 70):
            yield ([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)],
                   [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        yield a, [[0] * n for _ in range(n)]
        b = [row[:] for row in a]
        b[rng.randrange(n)] = [0] * n
        for row in a:
            row[rng.randrange(n)] = 0
        yield a, b

    def test_closed_forms_against_nested_lists(self):
        """Tuple and list operands alike, ints staying ints, and no slice
        taken of either operand."""
        rng = random.Random(53)
        for n in (2, 3):
            for a, b in self.operands(rng, n):
                expected = tuple(self.flat(mat_mul(a, b)))
                for x, y in ((tuple(self.flat(a)), tuple(self.flat(b))), (self.flat(a), self.flat(b))):
                    product = _tuple_mul(x, y, n, n, n)
                    assert product == expected and type(product) is tuple, (a, b)
                    assert set(map(type, product)) <= {int}, (a, b)
                SLICES.clear()
                assert _tuple_mul(_Sliced(self.flat(a)), _Sliced(self.flat(b)), n, n, n) == expected
                assert SLICES == [], n

    def test_closed_forms_on_fraction_entries(self):
        """QMatrix products of Fraction entries, and of Fractions mixed with
        ints, against the nested-list product, exact in Q."""
        rng = random.Random(59)
        for n in (2, 3):
            for _ in range(20):
                a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
                b = [[rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6))])
                      for _ in range(n)] for _ in range(n)]
                product = QMatrix.from_rows(a) * QMatrix.from_rows(b)
                assert product == QMatrix.from_rows(mat_mul(a, b)), (a, b)
                assert list(product.entries) == self.flat(mat_mul(a, b)), (a, b)

    def test_other_shapes_take_the_sliced_columns(self):
        """2 x 3 by 3 x 2, 3 x 2 by 2 x 3, n x n by n x 1 for n <= 4 and
        4 x 4 by 4 x 4 slice the columns of b and agree with the nested-list
        product; 0 x 0 by 0 x 0, where there is no column to slice, is the
        empty tuple."""
        rng = random.Random(61)
        shapes = [(2, 3, 2), (3, 2, 3), (4, 4, 4)] + [(n, n, 1) for n in range(1, 5)]
        for rows, inner, cols in shapes:
            a = [[rng.randint(-2 ** 70, 2 ** 70) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(inner)]
            SLICES.clear()
            product = _tuple_mul(_Sliced(self.flat(a)), _Sliced(self.flat(b)), rows, inner, cols)
            assert list(product) == self.flat(mat_mul(a, b)), (rows, inner, cols)
            assert slice(0, None, cols) in SLICES, (rows, inner, cols)
        assert _tuple_mul((), (), 0, 0, 0) == ()


class TestHNF:
    def test_canonical_example(self):
        # hand row reduction: swap, clear, reduce above the second pivot
        assert hnf(IntMatrix.from_rows([[2, 4], [1, 3]])) == IntMatrix.from_rows([[1, 1], [0, 2]])

    def test_row_span_preserved(self):
        rng = random.Random(5)
        for _ in range(100):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            M = IntMatrix(m, n, tuple(rng.randint(-9, 9) for _ in range(m * n)))
            H = hnf(M)
            LM = lattice_from_generators(n, [M.row(i) for i in range(m)])
            LH = lattice_from_generators(n, [H.row(i) for i in range(m)])
            assert LM == LH

    def test_canonical_shape(self):
        rng = random.Random(6)
        for _ in range(100):
            M = rand_matrix(rng, rng.randint(1, 4), 9)
            H = hnf(M)
            pivots = []
            for i in range(H.rows):
                row = H.row(i)
                if not any(row):
                    assert all(not any(H.row(k)) for k in range(i, H.rows))
                    break
                j = next(k for k, x in enumerate(row) if x)
                assert row[j] > 0
                pivots.append(j)
                for above in range(i):
                    assert 0 <= H.row(above)[j] < row[j]
            assert pivots == sorted(pivots)


    def test_forms_are_built_without_reconverting_entries(self, monkeypatch):
        """hnf assembles its result from rows that hold only ints, so it
        skips IntMatrix.from_rows and its per-entry int()."""
        rng = random.Random(7)
        cases = [rand_matrix(rng, 4, 9), IntMatrix(2, 3, (1, 2, 3, 4, 5, 6)), IntMatrix(0, 2, ()), IntMatrix(2, 0, ())]
        expected = [hnf(M) for M in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("IntMatrix.from_rows called")

        monkeypatch.setattr(IntMatrix, "from_rows", classmethod(refuse))
        for M, H in zip(cases, expected):
            assert hnf(M) == H
            assert all(type(x) is int for x in hnf(M).entries)


class TestCharMinPoly:
    def test_char_2x2_against_cofactor(self):
        T = IntMatrix.from_rows([[0, -1], [1, -1]])
        assert char_poly(T) == tuple(char_poly_cofactor(T.nested()))
        assert char_poly(T) == (1, 1, 1)

    def test_char_cofactor_randomized(self):
        rng = random.Random(23)
        for _ in range(60):
            T = rand_matrix(rng, rng.randint(1, 4), 6)
            assert char_poly(T) == tuple(char_poly_cofactor(T.nested()))
        assert char_poly(IntMatrix(0, 0, ())) == (1,)

    def test_cayley_hamilton_randomized(self):
        rng = random.Random(29)
        for _ in range(200):
            T = rand_matrix(rng, rng.randint(1, 5), 5)
            chi = char_poly(T)
            assert not any(any(row) for row in qpoly_eval_matrix(chi, T.nested()))

    @staticmethod
    def _oracle_cases(rng, n_max):
        """Every seeded_operator kind for n = 1..n_max, entries around 10^20
        for n = 0..n_max, and the 0x0 and 1x1 matrices, as nested lists."""
        yield from ([], [[0]], [[-7]], [[10**20 + 1]])
        for n in range(1, n_max + 1):
            for kind in ("random", "finite-order", "nilpotent"):
                yield seeded_operator(kind, n, rng)
        for n in range(n_max + 1):
            yield [[rng.randint(-10**20, 10**20) for _ in range(n)] for _ in range(n)]
            yield [[10**20 + rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]

    def test_char_against_cofactor_on_seeded_operators(self):
        for rows in self._oracle_cases(random.Random(41), 10):
            T = IntMatrix.from_rows(rows, len(rows))
            assert char_poly(T) == tuple(char_poly_cofactor(rows)), rows

    def test_cayley_hamilton_in_full_on_seeded_operators(self):
        """The library checks each Krylov chain's closing relation, one
        vector each; chi(T) = 0 in full is checked here."""
        for rows in self._oracle_cases(random.Random(43), 8):
            chi = char_poly(IntMatrix.from_rows(rows, len(rows)))
            assert not any(any(row) for row in qpoly_eval_matrix(chi, rows)), rows

    def test_char_poly_makes_matrix_vector_products_only(self, monkeypatch):
        """chi of a 12x12 operator takes matrix-vector products only: no
        _tuple_mul call with more than one output column.  The recording
        hook itself sees a full product."""
        shapes = []

        def recording(a, b, rows, inner, cols):
            shapes.append((rows, inner, cols))
            return _tuple_mul(a, b, rows, inner, cols)

        monkeypatch.setattr(exactalg, "_tuple_mul", recording)
        T = IntMatrix.from_rows(seeded_operator("random", 12, random.Random(47)))
        char_poly(T)
        assert [shape for shape in shapes if shape[2] > 1] == []
        T * T
        assert shapes[-1] == (12, 12, 12)

    def test_wrong_recurrence_raises_under_optimize(self):
        """A wrong recurrence raises an explicit AssertionError, also under
        python -O, where assert statements are stripped: each Krylov chain
        closes with the recurrence s T^(d_i) g_i = s sum c_j T^j g_i plus a
        combination of the earlier chains' vectors, and a back-substitution
        that hands back any one coordinate of its solution off by the scale
        s at the closing column, on the closing solve of any one chain, puts
        each coefficient of each f_i, which chi is assembled from, off by
        one, or each coefficient of the earlier chains' combination.  The
        operators are derogatory: J_2(0) (+) 0, Phi_3 (+) Phi_3, 2 I_3, the
        4 x 4 zero and the 4 x 4 T = [[2, -1, 0, 0], 0, 0, 0], which kills v
        and for which a chi with a wrong x^1 coefficient, x^4 - 2x^3 + x,
        passed the earlier chi(T) v = 0 and trace checks."""
        operators = [[[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                     [[0, -1, 0, 0], [1, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]],
                     [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
                     [[0] * 4 for _ in range(4)],
                     [[2, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]]
        code = textwrap.dedent(f"""
            import divlat.exactalg as exactalg
            from divlat.exactalg import IntMatrix, char_poly
            solve = exactalg._back_substitute
            for rows in {operators!r}:
                T = IntMatrix.from_rows(rows)
                lengths = []  # the solved coordinates of each chain's closing solve
                exactalg._back_substitute = lambda a, J, x: lengths.append(len(J)) or solve(a, J, x)
                chains, outcomes = len(exactalg._krylov_chains(T)[1]), set()
                for call, length in enumerate(lengths):
                    for i in range(length):
                        seen = []

                        def corrupted(a, J, x):
                            scale = -x[-1]  # the closing column's entry, -s
                            y = solve(a, J, x)
                            if len(seen) == call:
                                y[i] += scale
                            seen.append(call)
                            return y

                        exactalg._back_substitute = corrupted
                        try:
                            out = char_poly(T)
                        except AssertionError as e:
                            outcomes.add(str(e))
                        else:
                            outcomes.add(f"returned {{out}}")
                print(chains, sum(lengths), sorted(outcomes))
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(divlat.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        raised = ["a Krylov chain's closing relation fails: the characteristic polynomial is wrong"]
        assert run.stdout.splitlines() == [f"2 5 {raised}", f"2 6 {raised}", f"3 6 {raised}", f"4 10 {raised}",
                                           f"3 8 {raised}"]

    def test_wrong_trace_coefficient_raises_under_optimize(self):
        """A chi whose x^(n-1) coefficient, -tr T, is off by one raises,
        also under python -O.  For J_2(0) (+) 0, T^2 v = 0, so v = (1, 2, 3)
        is not cyclic: the first chain is v, T v with f_1 = x^2, and chi =
        f_1 f_2.  A closing solve that hands back f_1's x coefficient off by
        one, x^2 + x, would put chi's x^2 coefficient off by one.  chi =
        x^3 + x^2 would still kill v at T, but f_1 = x^2 + x does not:
        f_1(T) v = T v = (2, 0, 0), and the first chain's closing relation
        refuses it."""
        T = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
        chi, orbits = exactalg._krylov_chains(IntMatrix.from_rows(T))
        assert chi == (0, 0, 0, 1) and orbits[0][:3] == [[1, 2, 3], [2, 0, 0], [0, 0, 0]]
        code = textwrap.dedent(f"""
            import divlat.exactalg as exactalg
            from divlat.exactalg import IntMatrix, char_poly
            solve = exactalg._back_substitute
            calls = []

            def corrupted(a, J, x):  # the first chain's solve: x[:2] = -(c_0, c_1), s = 1
                y = solve(a, J, x)
                if not calls:
                    y[1] -= 1
                calls.append(len(J))
                return y

            exactalg._back_substitute = corrupted
            try:
                out = char_poly(IntMatrix.from_rows({T!r}))
            except AssertionError as e:
                print("raised", calls, e)
            else:
                print("returned", out)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(divlat.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == ("raised [2] a Krylov chain's closing relation fails: "
                                      "the characteristic polynomial is wrong")

    def test_wrong_krylov_solve_raises_under_optimize(self):
        """A Krylov solve whose back-substitution hands back one coefficient
        off by one, each in turn, fails the chi(T) v = 0 check on a cyclic
        T, one chain, also under python -O: T^i v != 0 for every i < n
        when v is cyclic."""
        T = [[2, 1, 0], [0, 1, 3], [1, 0, -1]]
        assert len(exactalg._krylov_chains(IntMatrix.from_rows(T))[1]) == 1
        code = textwrap.dedent(f"""
            import divlat.exactalg as exactalg
            from divlat.exactalg import IntMatrix, char_poly
            solve = exactalg._back_substitute
            for i in range(3):
                exactalg._back_substitute = lambda a, J, x: [c + (j == i) for j, c in
                                                             enumerate(solve(a, J, x))]
                try:
                    out = char_poly(IntMatrix.from_rows({T!r}))
                except AssertionError as e:
                    print("raised", str(e).startswith("a Krylov chain's closing relation fails"))
                else:
                    print("returned", out)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(divlat.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split("\n")[:3] == ["raised True"] * 3

    def test_min_divides_char(self):
        rng = random.Random(31)
        for _ in range(100):
            T = rand_matrix(rng, rng.randint(1, 4), 4)
            q, r = qpoly_divmod(char_poly(T), frac_min_poly(T.nested()))
            assert not r

    def test_conjugation_invariance(self):
        rng = random.Random(37)
        for _ in range(100):
            n = rng.randint(1, 4)
            T = rand_matrix(rng, n, 5)
            U = rand_unimodular(rng, n)
            C = conjugate(T, U)
            assert char_poly(C) == char_poly(T)

    def test_conjugation_needs_a_unimodular_matrix(self):
        """Conjugation refuses det U = +-2, a singular and a non-square U."""
        T = IntMatrix.from_rows([[1, 2], [3, 4]])
        for U in ([[2, 0], [0, 1]], [[1, 1], [1, -1]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 1, 0]]):
            with pytest.raises(ValueError, match="conjugation needs a unimodular matrix"):
                conjugate(T, IntMatrix.from_rows(U))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly(IntMatrix.zeros(2, 3))


class TestKrylovChi:
    """chi as the product of the greedy Krylov chains' polynomials: the
    first generator is v = (1, ..., n), each later one a unit vector."""

    def test_chi_and_the_cyclic_flag_against_the_oracles(self):
        """chi against cofactor expansion; each orbit is its generator's
        under T, the first generator v, each later one a unit vector; v is
        cyclic, one chain, exactly when the Krylov matrix
        [v, ..., T^(n-1) v] has rank n over Q, and then the minimal
        polynomial of T has degree n.  Seeded operators, n <= 8, derogatory
        ones (finite-order block sums with a repeated block, and nilpotents
        of low rank) included, so both one and several chains are built."""
        rng, seen = random.Random(193), set()
        for n in range(1, 9):
            for kind in ("random", "finite-order", "nilpotent"):
                for _ in range(4):
                    rows = seeded_operator(kind, n, rng)
                    chi, orbits = exactalg._krylov_chains(IntMatrix.from_rows(rows))
                    assert chi == tuple(char_poly_cofactor(rows)), rows
                    assert orbits[0][0] == list(range(1, n + 1)), rows
                    for orbit in orbits:
                        assert len(orbit) >= 2 and sorted(orbit[0]) in (list(range(1, n + 1)),
                                                                        [0] * (n - 1) + [1]), rows
                        for w, Tw in zip(orbit, orbit[1:]):
                            assert list(Tw) == [sum(a * b for a, b in zip(row, w)) for row in rows], rows
                    cyclic = len(orbits) == 1
                    krylov = [list(column) for column in zip(*orbits[0][:n])]
                    assert cyclic == (frac_rank(krylov) == n), rows
                    derogatory = len(frac_min_poly(rows)) <= n
                    assert not (cyclic and derogatory), rows
                    seen.add((kind, cyclic, derogatory))
        assert {(cyclic, derogatory) for _, cyclic, derogatory in seen} == {(True, False), (False, False),
                                                                          (False, True)}
        assert {kind for kind, _, derogatory in seen if derogatory} == {"finite-order", "nilpotent"}

    def test_the_empty_operator(self):
        """0x0: chi = (1,), and no chain."""
        assert exactalg._krylov_chains(IntMatrix(0, 0, ())) == ((1,), [])
        assert char_poly(IntMatrix(0, 0, ())) == (1,)

    def test_eliminations_per_chain(self, monkeypatch):
        """Each chain takes one elimination of [basis | orbit] with n + 1
        columns, the orbit g_i, ..., T^(n - D) g_i for D the chain vectors
        so far, so a cyclic v takes one.  I_3 takes three, each later chain
        closing at its first step; T = [[2, -1, 0, 0], 0, 0, 0] kills v and
        takes three, its second chain of length 2.  Many short chains: 0_n
        and c I_n for n <= 16, n chains of length 1 and chi = (x - c)^n,
        and the 28 x 28 Phi_32 (+) I_12, whose first chain has length 17
        (v's orbit meets Phi_32 and x - 1) and the other eleven length 1,
        chi = Phi_32 (x - 1)^12."""
        calls = []
        bareiss = exactalg._bareiss
        monkeypatch.setattr(exactalg, "_bareiss", lambda a, cols: calls.append(cols) or bareiss(a, cols))
        T = IntMatrix.from_rows([[2, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        cases = [(companion_matrix(cyclotomic(28)), cyclotomic(28), [13]),
                 (IntMatrix.identity(3), (-1, 3, -3, 1), [4, 4, 4]), (T, (0, 0, 0, -2, 1), [5, 5, 5])]
        cases += [(diagonal_matrix([c] * n), tuple(qpoly_mul(*[(-c, 1)] * n)), [n + 1] * n)
                  for n in range(1, 17) for c in (0, 3, -2)]
        cases.append((block_diagonal([companion_matrix(cyclotomic(32)), IntMatrix.identity(12)]),
                      tuple(qpoly_mul(cyclotomic(32), *[(-1, 1)] * 12)), [29] * 12))
        for T, chi, columns in cases:
            calls.clear()
            assert char_poly(T) == chi and calls == columns, T


class TestKernelImage:
    def test_kernel_coordinate_projection(self):
        assert _kernel_and_image(diagonal_matrix([0, 1]))[0].basis == IntMatrix.from_rows([[1, 0]])

    def test_image_scaled_axis(self):
        assert _kernel_and_image(diagonal_matrix([0, 2]))[1].basis == IntMatrix.from_rows([[0, 2]])

    def test_kernel_saturation(self):
        # solve 2a = 2b exactly; content division saturates to (1, 1)
        L = _kernel_and_image(IntMatrix.from_rows([[2, -2], [1, -1]]))[0]
        assert L.basis == IntMatrix.from_rows([[1, 1]])

    def test_rank_nullity(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(1, 5)
            T = rand_matrix(rng, n, 5)
            assert _kernel_and_image(T)[0].rank + frac_rank(T.nested()) == n

    def test_kernel_is_saturated_randomized(self):
        rng = random.Random(43)
        for _ in range(50):
            n = rng.randint(2, 4)
            T = rand_matrix(rng, n, 3)
            K = _kernel_and_image(T)[0]
            for i in range(K.rank):
                v = K.basis.row(i)
                assert all(x == 0 for x in T.apply(v))
            # saturation: any integer vector with T v = 0 lies in K
            for _ in range(20):
                coeffs = [rng.randint(-3, 3) for _ in range(K.rank)]
                v = tuple(sum(c * K.basis[i, j] for i, c in enumerate(coeffs))
                          for j in range(n))
                assert K.contains(v)


class TestLattice:
    def test_membership_and_coords(self):
        L = lattice_from_generators(2, [(2, 0), (0, 3)])
        assert L.coords_of((4, 3)) == (2, 1)
        assert L.coords_of((1, 0)) is None


class TestCyclotomics:
    def test_degree_one(self):
        assert [(k, cyclotomic(k)) for k in _cyclotomic_indices(1)] == [(1, (-1, 1)), (2, (1, 1))]
        for k in (0, -3):
            with pytest.raises(ValueError, match="positive"):
                cyclotomic(k)

    def test_degree_two_members(self):
        assert cyclotomic(3) == (1, 1, 1)
        assert cyclotomic(4) == (1, 0, 1)
        assert cyclotomic(6) == (1, -1, 1)

    def test_degree_two_exact_count(self):
        assert _cyclotomic_indices(2) == (1, 2, 3, 4, 6)

    def test_product_over_divisors(self):
        from divlat.primes import divisors

        for k in (6, 12, 30):
            assert qpoly_mul(*(cyclotomic(d) for d in divisors(k))) == [-1] + [0] * (k - 1) + [1]

    def test_table_against_the_oracle(self):
        for n in range(1, 9):
            assert tuple((k, cyclotomic(k)) for k in _cyclotomic_indices(n)) == cyclotomic_table(n)


def rand_zpoly(rng, degree, bound=3, monic=False):
    """A random integer polynomial of the given degree, ascending; () for -1."""
    if degree < 0:
        return ()
    lead = 1 if monic else rng.choice([-1, 1]) * rng.randint(1, bound)
    return tuple(rng.randint(-bound, bound) for _ in range(degree)) + (lead,)


def zmul(*factors):
    return tuple(qpoly_mul(*factors))


class TestIntegerPolynomialKernels:
    """The Z[x] kernels against the helpers' arithmetic over Q on lists."""

    def test_divmod_by_a_monic_divisor(self):
        rng = random.Random(211)
        for _ in range(300):
            b = rand_zpoly(rng, rng.randint(0, 4), monic=True)
            a = rand_zpoly(rng, rng.randint(-1, 8), bound=rng.choice([3, 10 ** 12]))
            if rng.random() < 0.3:
                a = zmul(a, b)
            Q, R = qpoly_divmod(a, b)
            assert _zdivmod(a, b) == (tuple(Q), tuple(R)), (a, b)
            assert all(type(c) is int for p in _zdivmod(a, b) for c in p), (a, b)

    def test_divmod_over_q_by_a_monic_divisor(self):
        """The Newton step of classify divides Fraction polynomials by the
        monic remainders of extended Euclid."""
        rng = random.Random(229)
        for _ in range(300):
            b = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(0, 4))) + (1,)
            a = tuple(qpoly_trim([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(0, 8))]))
            Q, R = qpoly_divmod(a, b)
            assert _zdivmod(a, b) == (tuple(Q), tuple(R)), (a, b)

    def test_gcd(self):
        rng = random.Random(223)
        for _ in range(300):
            g = rand_zpoly(rng, rng.randint(0, 3))  # often not monic
            a = zmul(g, rand_zpoly(rng, rng.randint(0, 3)), rng.choice([(1,), g, (6,)]))
            b = zmul(g, rand_zpoly(rng, rng.randint(0, 3)), rng.choice([(1,), (-4,)]))
            for x, y in ((a, b), (b, a), (a, ()), ((), b), (a, (5,)), ((0, 3), b)):
                z, expected = _zgcd(x, y), qpoly_gcd(x, y)
                assert z and z[-1] > 0 and gcd(*z) == 1, (x, y)
                assert qpoly_monic(z) == expected, (x, y)
        assert _zgcd((), ()) == ()
        assert _zgcd((0, -4, 2), (-6, 3)) == (-2, 1)

    def test_radical(self):
        rng = random.Random(227)
        for _ in range(300):
            factors = [rand_zpoly(rng, rng.randint(1, 2), monic=True) for _ in range(rng.randint(0, 3))]
            p = zmul(*factors, *(f for f in factors if rng.random() < 0.5),
                     *(factors[:1] * rng.randint(0, 3)))
            assert list(_zradical(p)) == qpoly_radical(p), p
        assert _zradical((1,)) == (1,)
        assert _zradical((5, 1)) == (5, 1)
        assert _zradical((0, 0, 0, 1)) == (0, 1)

    def test_radical_of_a_non_monic_square_raises(self):
        # (2x + 1)^2: gcd(p, p') = 2x + 1 is primitive but not monic
        with pytest.raises(AssertionError, match="not monic"):
            _zradical((1, 4, 4))


class TestPolynomialTuples:
    def test_gcd_and_squarefree(self):
        p = (1, -2, 1)  # (x-1)^2
        assert _zgcd(p, (-2, 2)) == (-1, 1)
        assert _zradical(p) == (-1, 1)

    def test_divmod_exact(self):
        assert _zdivmod((-1, 0, 0, 1), (-1, 1)) == ((1, 1, 1), ())  # x^3 - 1 = (x^2 + x + 1)(x - 1)

    def test_fraction_coefficients(self):
        # x^2 + 1/2 = (x + 1/2)(x - 1/2) + 3/4
        assert _zdivmod((Fraction(1, 2), 0, 1), (Fraction(-1, 2), 1)) == ((Fraction(1, 2), 1), (Fraction(3, 4),))

    def test_companion_matrix(self):
        C = companion_matrix(cyclotomic(6))
        assert char_poly(C) == cyclotomic(6)
        assert companion_matrix((5, 1)) == IntMatrix.from_rows([[-5]])
        assert companion_matrix((1, 2, 3, 1)) == IntMatrix.from_rows([[0, 0, -1], [1, 0, -2], [0, 1, -3]])
        for p in ((1,), (), (2,), (1, 2), (1, 1, 0), (1, -1, 2), (Fraction(1), 1), (1.0, 1), (1, True)):
            with pytest.raises(ValueError, match="monic integer polynomial of degree >= 1"):
                companion_matrix(p)


class TestCanonicalUniqueness:
    def test_same_lattice_same_basis(self):
        # two different generating sets of one lattice canonicalize equally
        rng = random.Random(137)
        for _ in range(60):
            n = rng.randint(2, 4)
            gens = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, n))]
            L1 = lattice_from_generators(n, gens)
            # scramble: integer row ops and redundant generators
            extra = [g[:] for g in gens]
            for _ in range(6):
                i, j = rng.randrange(len(extra)), rng.randrange(len(extra))
                if i != j:
                    c = rng.choice([-2, -1, 1, 2])
                    extra[i] = [a + c * b for a, b in zip(extra[i], extra[j])]
            extra.append([sum(g[k] for g in gens) for k in range(n)])
            rng.shuffle(extra)
            L2 = lattice_from_generators(n, extra)
            assert L1 == L2


class TestArbitraryPrecision:
    def test_huge_entries(self):
        big = 10 ** 20
        M = IntMatrix.from_rows([[big, big + 1], [big - 1, big]])
        assert M.det() == big * big - (big + 1) * (big - 1) == 1
        assert hnf(M) == IntMatrix.identity(2)  # unimodular: its rows span Z^2
        chi = char_poly(M)
        assert chi == (1, -2 * big, 1)
        assert not any(any(row) for row in qpoly_eval_matrix(chi, M.nested()))

    def test_huge_kernel(self):
        big = 10 ** 18
        T = IntMatrix.from_rows([[big, -big], [2 * big, -2 * big]])
        K = _kernel_and_image(T)[0]
        assert K.basis == IntMatrix.from_rows([[1, 1]])


def rank_k_matrix(rng, rows, cols, k, bound=3):
    """A rows x cols product of random rows x k and k x cols factors."""
    left = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(rows)]
    right = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(k)]
    return IntMatrix.from_rows([[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)]
                                for i in range(rows)], cols=cols)


class TestKernelAndImageAgainstOracles:
    """_kernel_and_image against the saturated-kernel predicate and the HNF
    of the columns."""

    def check(self, T):
        kernel, image = _kernel_and_image(T)
        assert is_saturated_kernel(T, kernel), T
        assert image == image_oracle(T), T
        assert kernel.rank + image.rank == T.cols
        return image.rank

    def test_square_and_rectangular(self):
        rng = random.Random(167)
        ranks = set()
        for _ in range(400):
            rows, cols = rng.randint(0, 6), rng.randint(0, 6)
            if rng.random() < 0.3:
                T = IntMatrix(rows, cols, tuple(rng.randint(-4, 4) for _ in range(rows * cols)))
            else:
                T = rank_k_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
            rank = self.check(T)
            ranks.add("zero" if rank == 0 else "full" if rank == min(rows, cols) else "between")
        assert ranks == {"zero", "between", "full"}

    def test_empty_shapes(self):
        for n in range(4):
            for T in (IntMatrix(0, n, ()), IntMatrix(n, 0, ()), IntMatrix.zeros(n, n)):
                self.check(T)
        assert _kernel_and_image(IntMatrix(0, 3, ()))[0] == full_lattice(3)
        assert _kernel_and_image(IntMatrix(3, 0, ()))[1] == Lattice(3, IntMatrix(0, 3, ()))

    def test_commutator_systems(self):
        rng = random.Random(173)
        for n in (1, 2, 3, 4):
            for _ in range(6):
                T = rank_k_matrix(rng, n, n, rng.randint(0, n), 2) if rng.random() < 0.5 else rand_matrix(rng, n, 2)
                E = commutator_equations((T,), n)
                self.check(E)
                self.check(hnf(E))
        for T, module in seeded_module_problems(179):
            self.check(commutator_equations((T, module.omega_action), T.rows))


def pivots(B):
    return [next(filter(None, B.row(i))) for i in range(B.rows)]


class TestSaturation:
    """_saturation of seeded full-rank k x cols bases, k <= 4 and cols <= 9,
    Hermite forms or not, against the kernel of the kernel; None for a
    basis whose rows are dependent."""

    # 2^5 3^3 5; a prime above 1000 alone, beside 6 and beside another; small indices; 1
    INDICES = (4320, 1009, 6 * 1013, 1009 * 1013, 2, 7, 12, 1)

    def sublattice(self, rng, k, cols, index):
        """(B, S): B = A.S, where S is k rows of a unimodular matrix (a
        saturated basis) and A a k x k upper triangular matrix of
        determinant index, so [sat(B) : B] = index.  An index divisible by
        6 is split over two diagonal entries."""
        diagonal = [1] * k
        if index % 6 == 0 and k > 1:
            diagonal[0], diagonal[-1] = index // 6, 6
        else:
            diagonal[rng.randrange(k)] = index
        A = IntMatrix.from_rows([[diagonal[i] if i == j else rng.randint(-4, 4) if j > i else 0 for j in range(k)]
                                 for i in range(k)])
        S = IntMatrix(k, cols, rand_unimodular(rng, cols).entries[: k * cols])
        return A * S, S

    def test_against_the_kernel_of_the_kernel(self):
        """A.S itself and its Hermite form give the same saturation."""
        rng = random.Random(181)
        seen = set()
        for _ in range(240):
            k = rng.randint(1, 4)
            cols = rng.randint(k, 9)
            index = rng.choice(self.INDICES)
            B, S = self.sublattice(rng, k, cols, index)
            H = hnf(B)
            sat = _saturation(B)
            assert sat == _saturation(H) == saturation_oracle(B) == lattice_from_generators(cols, S.nested()), B
            assert prod(pivots(H)) == index * prod(pivots(sat.basis)), B
            seen.add(index)
            seen.add("k = cols" if k == cols else "k < cols")
            seen.add("D = 1" if prod(pivots(H)) == 1 else "saturated, D > 1" if index == 1 else "D > 1")
            seen.add("B = H" if B == H else "B != H")
        assert seen == {*self.INDICES, "k = cols", "k < cols", "D = 1", "saturated, D > 1", "D > 1", "B = H", "B != H"}

    def test_dependent_rows_have_no_saturation(self):
        """One row of A.S replaced by the sum of two others: None."""
        rng = random.Random(191)
        for _ in range(60):
            k = rng.randint(3, 4)
            cols = rng.randint(k, 9)
            B, _ = self.sublattice(rng, k, cols, rng.choice(self.INDICES))
            rows = B.nested()
            i, j, l = rng.sample(range(k), 3)
            rows[i] = [a + b for a, b in zip(rows[j], rows[l])]
            assert _saturation(IntMatrix.from_rows(rows)) is None, rows


class TestHermiteShapeCheck:
    """Lattice validates its basis by _is_hnf; on mutated HNF bases that
    must agree with hnf(B) == B without zero rows, error text included."""

    @staticmethod
    def recomputed_error(B):
        H = hnf(B)
        if any(not any(H.row(i)) for i in range(H.rows)):
            return "basis rows must be independent (no zero HNF rows)"
        return None if H == B else "basis must be in Hermite normal form"

    @staticmethod
    def mutants(rng, B):
        rows = [list(B.row(i)) for i in range(B.rows)]
        pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
        k, out = len(rows), {}
        i = rng.randrange(k)
        out["negated pivot"] = rows[:i] + [[-x for x in rows[i]]] + rows[i + 1 :]
        if k >= 2:
            i = rng.randrange(1, k)
            a, p = rng.randrange(i), pivots[i]
            for name, value in (("entry above a pivot at the pivot", rows[i][p]),
                                ("entry above a pivot negative", -1),
                                ("entry above a pivot in range", rng.randrange(rows[i][p]))):
                changed = [list(r) for r in rows]
                changed[a][p] = value
                out[name] = changed
            a, b = rng.sample(range(k), 2)
            swapped = [list(r) for r in rows]
            swapped[a], swapped[b] = swapped[b], swapped[a]
            out["swapped rows"] = swapped
            out["dependent rows"] = rows + [[x + y for x, y in zip(rows[a], rows[b])]]
        i = rng.randint(0, k)
        out["zero row"] = rows[:i] + [[0] * B.cols] + rows[i:]
        out["repeated row"] = rows + [list(rows[-1])]
        out["doubled row below"] = rows + [[2 * x for x in rows[-1]]]  # same pivot, entry above in range
        return out

    def test_mutated_bases(self):
        from divlat.exactalg import _is_hnf

        rng = random.Random(181)
        seen = set()
        for _ in range(300):
            N = rng.randint(1, 5)
            gens = [[rng.randint(-5, 5) for _ in range(N)] for _ in range(rng.randint(1, N))]
            B = lattice_from_generators(N, gens).basis
            if not B.rows:
                continue
            cases = {"unchanged": B.nested(), **self.mutants(rng, B)}
            for name, rows in cases.items():
                M = IntMatrix.from_rows(rows, cols=N)
                want = self.recomputed_error(M)
                assert _is_hnf(M) == (want is None), (name, rows)
                if want is None:
                    assert Lattice(N, M).basis == M
                else:
                    with pytest.raises(ValueError) as err:
                        Lattice(N, M)
                    assert str(err.value) == want, (name, rows)
                seen.add((name, want))
        assert {want for _, want in seen} == {None, "basis rows must be independent (no zero HNF rows)",
                                              "basis must be in Hermite normal form"}


class TestIntMatrixValidation:
    def test_plain_int_entries(self):
        M = IntMatrix(2, 2, (1, -2, 10 ** 30, 0))
        assert M.entries == (1, -2, 10 ** 30, 0)
        assert IntMatrix(0, 3, ()).rows == 0

    def test_int_subclasses_are_accepted(self):
        class Tagged(int):
            pass

        M = IntMatrix(1, 2, (Tagged(3), 4))
        assert M.entries == (3, 4) and type(M.entries[0]) is Tagged

    def test_bool_and_non_integers_are_rejected(self):
        for bad, entries in ((True, (1, True)), (False, (False, 0)), (Fraction(1, 2), (Fraction(1, 2), 1)),
                             (1.0, (2, 1.0)), ("1", ("1", 1))):
            with pytest.raises(TypeError) as err:
                IntMatrix(1, 2, entries)
            assert str(err.value) == f"non-integer entry {bad!r}"


class TestQMatrixEntries:
    def test_int_and_fraction_entries_compare_and_hash_alike(self):
        """Integers stay ints; a matrix of Fractions equal to them is
        equal, hashes alike and prints each entry alike."""
        ints = QMatrix(2, 2, (1, -2, 10 ** 30, 0))
        fractions = QMatrix(2, 2, tuple(map(Fraction, ints.entries)))
        assert ints.entries == (1, -2, 10 ** 30, 0) and {type(x) for x in ints.entries} == {int}
        assert {type(x) for x in fractions.entries} == {Fraction}
        assert ints == fractions and hash(ints) == hash(fractions)
        assert [str(x) for x in ints.entries] == [str(x) for x in fractions.entries]
        assert QMatrix.from_rows([[1, Fraction(1, 2)]]).entries == (1, Fraction(1, 2))
        assert QMatrix(1, 2, [3, 4]).entries == (3, 4)  # a list is stored as a tuple

    def test_inverse_of_int_entries_is_exact(self):
        for rows in ([[2, 1], [1, 1]], [[2, 0], [0, 4]], [[0, 3, 1], [1, 0, 2], [2, 1, 0]]):
            Q = QMatrix.from_rows(rows)
            inverse = Q.inverse()
            assert all(isinstance(x, (int, Fraction)) for x in inverse.entries), rows
            assert Q * inverse == QMatrix.identity(len(rows)) == inverse * Q, rows
        assert QMatrix.from_rows([[2, 0], [0, 4]]).inverse().entries == (Fraction(1, 2), 0, 0, Fraction(1, 4))

    def test_inverse_against_the_fraction_oracle(self):
        """The adjugate over the determinant of the matrix with its
        denominators cleared, on int and Fraction entries and 0 x 0, equals
        Fraction Gauss-Jordan; a singular matrix raises ZeroDivisionError."""
        rng = random.Random(53)
        assert QMatrix(0, 0, ()).inverse() == QMatrix(0, 0, ())
        singular = 0
        for _ in range(150):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) if rng.random() < 0.6 else Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                     for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.2:
                rows[-1] = list(rows[0])
            expected = frac_inverse(rows)
            if expected is None:
                singular += 1
                with pytest.raises(ZeroDivisionError):
                    QMatrix.from_rows(rows).inverse()
            else:
                assert QMatrix.from_rows(rows).inverse() == QMatrix.from_rows(expected), rows
        assert singular >= 10

    def test_bool_and_float_entries_are_rejected(self):
        for bad, entries in ((True, (1, True)), (False, (Fraction(1, 2), False)), (0.5, (0.5, 1)),
                             ("1", (1, "1"))):
            with pytest.raises(TypeError) as err:
                QMatrix(1, 2, entries)
            assert str(err.value) == f"non-rational entry {bad!r}"
            with pytest.raises(TypeError):
                QMatrix.from_rows([entries])
