import random
import sys
from itertools import product

import pytest

from divlat import exactalg
from divlat.classify import _Invariants
from divlat.corpus import block_diagonal, conjugate, random_unimodular
from divlat.exactalg import IntMatrix, QMatrix
from divlat.fitting import clean_split, fitting_decompose
from helpers import (
    diagonal_matrix,
    fitting_chain_oracle,
    full_lattice,
    image_oracle,
    is_saturated_kernel,
    oracle_direct_and_full,
    rand_matrix,
    rand_unimodular,
    seeded_fitting_operators,
    seeded_module_problems,
    seeded_operator,
    submodule,
)


def seeded_nilpotent_operators():
    """helpers.seeded_operator("nilpotent", n, Random(5)) for n = 6..12,
    whose kernel chains stop at m = 5..11."""
    rng = random.Random(5)
    return [IntMatrix.from_rows(seeded_operator("nilpotent", n, rng)) for n in range(6, 13)]


def nilpotent_plus_invertible(seed, count):
    """(k, T) with T conjugate to N (+) A: N a k x k strictly upper
    triangular block with a nonzero superdiagonal, so nilpotent of index
    k >= 2, and A a nonsingular block, so chi = x^k chi_A with chi_A(0) != 0
    and chi_A(T) != I.  The chain stops at m = k."""
    rng = random.Random(seed)
    for _ in range(count):
        k, r = rng.randint(2, 4), rng.randint(1, 4)
        N = IntMatrix.from_rows([[rng.choice((-2, -1, 1, 2)) if j == i + 1 else rng.randint(-2, 2) if j > i else 0
                                  for j in range(k)] for i in range(k)])
        A = rand_matrix(rng, r, 3)
        while not A.det():
            A = rand_matrix(rng, r, 3)
        yield k, conjugate(block_diagonal([N, A]), random_unimodular(k + r, rng, steps=2 * (k + r)))


def invertible_operators(seed):
    """(T, module) with det T != 0: random operators of sizes 1..8 with
    entries up to 10^20 and up to 3, the nonsingular ones among
    seeded_fitting_operators and among the rank-1 and rank-2 module
    operators of seeded_module_problems."""
    rng = random.Random(seed)
    operators = [rand_matrix(rng, rng.randint(1, 8), bound) for bound in (10 ** 20, 3) for _ in range(30)]
    problems = [(T, None) for T in operators + list(seeded_fitting_operators(seed, 60))]
    return [(T, module) for T, module in problems + list(seeded_module_problems(seed)) if T.det()]


def counting_calls(monkeypatch, *functions):
    """Record the arguments of every call of the given exactalg functions
    from any divlat module, one list per function."""
    calls = {f: [] for f in functions}

    def counting(f):
        def counted(*args):
            calls[f].append(args)
            return f(*args)
        return counted

    for name, module in list(sys.modules.items()):
        for f in calls:
            if name.startswith("divlat") and getattr(module, f.__name__, None) is f:
                monkeypatch.setattr(module, f.__name__, counting(f))
    return calls.values()


class TestFittingDecompose:
    def test_idempotent_diagonal(self):
        split = fitting_decompose(diagonal_matrix([0, 1]))
        assert split.exponent_m == 1
        assert split.gen_kernel.basis == IntMatrix.from_rows([[1, 0]])
        assert split.image_part.basis == IntMatrix.from_rows([[0, 1]])
        assert split.is_direct
        assert split.restriction_invertible

    def test_non_summand_image(self):
        # Z (+) 2Z is a proper sublattice of Z^2
        split = fitting_decompose(diagonal_matrix([0, 2]))
        assert split.exponent_m == 1
        assert not split.is_direct

    def test_nilpotent_jordan_block(self):
        split = fitting_decompose(IntMatrix.from_rows([[0, 1], [0, 0]]))
        assert split.exponent_m == 2
        assert split.gen_kernel == full_lattice(2)
        assert split.image_part.rank == 0
        assert split.is_direct
        assert split.restriction_invertible  # rank-0 restriction is vacuously invertible

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            fitting_decompose(IntMatrix.zeros(2, 3))

    def test_invariants_randomized(self):
        rng = random.Random(53)
        for _ in range(200):
            n = rng.randint(1, 4)
            T = rand_matrix(rng, n, 5)
            split = fitting_decompose(T)
            assert 1 <= split.exponent_m <= n
            # stabilized: ker T^m = ker T^(m+1)
            assert is_saturated_kernel(T ** split.exponent_m, split.gen_kernel)
            assert is_saturated_kernel(T ** (split.exponent_m + 1), split.gen_kernel)
            # both parts are T-invariant
            for i in range(split.gen_kernel.rank):
                assert split.gen_kernel.contains(T.apply(split.gen_kernel.basis.row(i)))
            for i in range(split.image_part.rank):
                assert split.image_part.contains(T.apply(split.image_part.basis.row(i)))
            # directness certificate against the independent oracle
            oracle = oracle_direct_and_full(
                split.gen_kernel.basis.nested(), split.image_part.basis.nested(), n
            )
            assert split.is_direct == oracle

    def test_adapted_basis_block_structure(self):
        # when both flags hold, conjugating into the adapted basis splits T
        # into a nilpotent block and a unit-determinant block
        rng = random.Random(59)
        checked = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            T = rand_matrix(rng, n, 5)
            split = fitting_decompose(T)
            if not (split.is_direct and split.restriction_invertible):
                continue
            checked += 1
            k = split.gen_kernel.rank
            rows = [split.gen_kernel.basis.row(i) for i in range(k)]
            rows += [split.image_part.basis.row(i) for i in range(split.image_part.rank)]
            Q = QMatrix.from_rows([[rows[j][i] for j in range(n)] for i in range(n)])
            A = (Q.inverse() * QMatrix.from_int_matrix(T) * Q).to_int_matrix()
            # off-diagonal blocks vanish
            for i in range(n):
                for j in range(n):
                    if (i < k) != (j < k):
                        assert A[i, j] == 0
            nil = IntMatrix.from_rows([[A[i, j] for j in range(k)] for i in range(k)], cols=k)
            inv = IntMatrix.from_rows(
                [[A[i, j] for j in range(k, n)] for i in range(k, n)], cols=n - k
            )
            assert (nil ** max(split.exponent_m, 1)).is_zero()
            if inv.rows:
                assert abs(inv.det()) == 1
        assert checked > 20


class TestCleanSplit:
    def test_identity(self):
        assert clean_split(IntMatrix.identity(3)).is_direct

    def test_zero_plus_sign(self):
        cs = clean_split(diagonal_matrix([0, -1]))
        assert cs.is_direct
        assert cs.restriction == IntMatrix.from_rows([[-1]])
        stacked = IntMatrix.from_rows(cs.gen_kernel.basis.nested() + cs.image_part.basis.nested())
        assert abs(stacked.det()) == 1

    def test_empty_and_non_square(self):
        """The library takes 0x0 as the trivial split (only the CLI refuses
        it); the chain's one step refuses a non-square matrix."""
        empty = IntMatrix(0, 0, ())
        assert clean_split(empty).is_direct
        split = fitting_decompose(empty)
        assert (split.exponent_m, split.is_direct, split.restriction_invertible) == (1, True, True)
        for decide in (clean_split, fitting_decompose):
            with pytest.raises(ValueError, match="^square matrix required$"):
                decide(IntMatrix(2, 3, (1,) * 6))

    def test_nilpotent_fails(self):
        cs = clean_split(IntMatrix.from_rows([[0, 1], [0, 0]]))
        assert not cs.is_direct
        assert cs.det == 0  # ker T and im T intersect nontrivially

    def test_agreement_with_fitting_at_m_1(self):
        rng, direct = random.Random(61), 0
        for _ in range(150):
            n = rng.randint(1, 4)
            T = rand_matrix(rng, n, 4)
            cs = clean_split(T)
            if cs.det:  # the chain stops at m = 1, directly or not
                assert fitting_decompose(T) == cs
            if cs.is_direct:
                assert cs.exponent_m == 1 and cs.restriction_invertible
                direct += 1
        assert direct > 10

    def test_conjugation_invariance(self):
        rng = random.Random(67)
        for _ in range(100):
            n = rng.randint(1, 4)
            T = rand_matrix(rng, n, 4)
            U = rand_unimodular(rng, n)
            C = conjugate(T, U)
            assert clean_split(C).is_direct == clean_split(T).is_direct

    def test_split_against_the_independent_oracle(self):
        # the operators drawn in this file: seed, count and entry bound
        outcomes = set()
        for seed, count, bound in ((53, 200, 5), (59, 300, 5), (61, 150, 4), (67, 100, 4)):
            rng = random.Random(seed)
            for _ in range(count):
                n = rng.randint(1, 4)
                T = rand_matrix(rng, n, bound)
                cs = clean_split(T)
                for i in range(cs.gen_kernel.rank):
                    assert not any(T.apply(cs.gen_kernel.basis.row(i)))
                for j in range(n):
                    assert cs.image_part.contains(tuple(T[i, j] for i in range(n)))
                oracle = oracle_direct_and_full(cs.gen_kernel.basis.nested(), cs.image_part.basis.nested(), n)
                assert cs.is_direct == oracle
                outcomes.add(cs.is_direct)
        assert outcomes == {True, False}

    def test_nonzero_nilpotent_2x2_exhaustive(self):
        eye = IntMatrix.identity(2)
        count = 0
        for entries in product(range(-2, 3), repeat=4):
            T = IntMatrix(2, 2, entries)
            if T.is_zero() or not (T * T).is_zero():
                continue
            count += 1
            assert not clean_split(T).is_direct
        assert count == 16


class TestAgainstTheKernelChainOracle:
    def test_seeded_operators(self):
        """fitting_decompose stops at the first m whose kernel and image
        meet only in 0; the oracle compares the rational ranks of T^m and
        T^(m+1).  The inputs: operators of sizes up to 8, nilpotent
        operators of sizes 6..12, and nilpotent-plus-invertible ones."""
        exponents, directness = set(), set()
        operators = list(seeded_fitting_operators(71, 250)) + seeded_nilpotent_operators()
        for k, T in [(None, T) for T in operators] + list(nilpotent_plus_invertible(97, 40)):
            split = fitting_decompose(T)
            m, power = fitting_chain_oracle(T)
            assert k in (None, m), T
            assert (split.exponent_m, split.image_part) == (m, image_oracle(power)), T
            assert is_saturated_kernel(power, split.gen_kernel), T
            direct = oracle_direct_and_full(split.gen_kernel.basis.nested(),
                                            split.image_part.basis.nested(), T.rows)
            assert split.is_direct == direct, T
            exponents.add(m)
            directness.add(direct)
        assert {1, 2, 3, 11} <= exponents
        assert directness == {True, False}

    def test_module_operators(self):
        """Over a module, the split's directness, decided by the integer
        determinant of the stacked bases alone, agrees with the ring
        determinant of T on the image part: its norm is +-1 exactly when
        the split is direct."""
        directness = set()
        for T, module in seeded_module_problems(73):
            split = fitting_decompose(T, module=module)
            m, power = fitting_chain_oracle(T)
            assert (split.exponent_m, split.image_part) == (m, image_oracle(power)), T
            assert is_saturated_kernel(power, split.gen_kernel), T
            if split.image_part.rank:
                det_el = submodule(module, split.image_part).det_as_ring_element(split.restriction)
                assert (module.order.norm(det_el) in (1, -1)) == split.is_direct, T
                directness.add(split.is_direct)
        assert directness == {True, False}


class TestStableExponentFromChi:
    def test_one_chain_step_on_nilpotent_operators(self, monkeypatch):
        """The stable exponent is read off the orbits of h(T) g_i, not walked:
        a nilpotent T takes the step at T^m alone, one Hermite form of
        [P^t | I] in place of m.  Over Z a split restricts T to its image
        only when its restriction is read: not before the first read, once
        however often it is read, whether or not the first step stops the
        chain, and never in verify, which reads the image part's facts off
        chi_T."""
        from divlat.numberring import ZZ
        from divlat.verifier import verify

        steps, restrictions = counting_calls(monkeypatch, exactalg._kernel_and_image, exactalg.restrict_to_lattice)
        for T in seeded_nilpotent_operators():
            steps.clear()
            restrictions.clear()
            split = fitting_decompose(T)
            assert split.exponent_m >= 5 and steps == [(T ** split.exponent_m,)], (T, split.exponent_m, len(steps))
            assert restrictions == [], T
            assert split.restriction is split.restriction
            assert len(restrictions) == 1, T
        stops_at_1 = set()
        for T in seeded_fitting_operators(71, 60):
            restrictions.clear()
            split = fitting_decompose(T)
            assert restrictions == [], T
            assert split.restriction is split.restriction
            assert len(restrictions) == 1, T
            restrictions.clear()
            verify(ZZ, None, T, None, ())
            assert restrictions == [], T
            stops_at_1.add(split.exponent_m == 1)
        assert stops_at_1 == {True, False}


class TestStableExponentFromOneOrbit:
    """For a singular T, chi = x^g h: the stable exponent m is the least i
    with T^i h(T) g_i = 0 for every generator g_i of the Krylov chains, of
    which v = (1, ..., n) is the first; v's orbit alone may fall short."""

    def degenerate_orbits(self):
        """(m, T) for operators whose orbit of v falls short of m or is
        empty, so the later generators reach m: [[0, 3, -2], [0, 0, 0],
        [0, 0, 0]] kills v, so T h(T) v = 0 and m = 2; [[1, 2], [2, 4]] has v
        as an eigenvector of eigenvalue 5, so h(T) v = 0 and m = 1; and
        J_2(0) (+) (2), conjugated so that v is its eigenvector of
        eigenvalue 2, has h(T) v = 0 and m = 2."""
        eigen_2 = conjugate(IntMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 2]]),
                            IntMatrix.from_rows([[0, 0, 1], [1, 0, 2], [0, 1, 3]]))  # v = U e3
        cases = [(2, IntMatrix.from_rows([[0, 3, -2], [0, 0, 0], [0, 0, 0]]), (0, 0, 0)),
                 (1, IntMatrix.from_rows([[1, 2], [2, 4]]), (5, 10)), (2, eigen_2, (2, 4, 6))]
        for m, T, image_of_v in cases:
            assert T.apply(range(1, T.rows + 1)) == image_of_v, T
        return [(m, T) for m, T, _ in cases]

    def test_against_the_kernel_chain_oracle(self):
        """m, ker T^m and im T^m against fitting_chain_oracle on seeded
        operators up to n = 12, on module operators and on the degenerate
        orbits."""
        exponents = set()
        problems = [(T, None) for T in seeded_fitting_operators(199, 120, n_max=12)]
        problems += list(seeded_module_problems(211))
        for m, T in self.degenerate_orbits():
            assert fitting_decompose(T).exponent_m == m, T
            problems.append((T, None))
        for T, module in problems:
            split = fitting_decompose(T, module=module)
            m, power = fitting_chain_oracle(T)
            assert (split.exponent_m, split.image_part) == (m, image_oracle(power)), T
            assert is_saturated_kernel(power, split.gen_kernel), T
            exponents.add(m)
        assert {1, 2, 3, 9} <= exponents


class TestSingularImagePart:
    def test_no_lattice_for_the_image_part_of_a_singular_operator(self, monkeypatch):
        """verify, divisibility_spectrum and zero_plus_finite_order on a
        singular T read the image part off chi_T: they never take the
        Hermite form of [T^t | I] nor restrict T to a lattice.
        fitting_decompose still takes one such form, of [(T^m)^t | I] at the
        stable exponent m, which the orbits of h(T) g_i reach with no form,
        and restricts T once its restriction is read.  The operators are nonderogatory, so the
        spectrum's commutant is sat(Z[T]), not a kernel."""
        from divlat.divisibility import divisibility_spectrum, zero_plus_finite_order
        from divlat.numberring import ZZ
        from divlat.verifier import verify

        J4 = IntMatrix.from_rows([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
        operators = [diagonal_matrix([0, 2, -1]), conjugate(J4, random_unimodular(4, random.Random(7), steps=8)),
                     exactalg.companion_matrix((0, 1, 0, 1)), exactalg.companion_matrix((0, 1, 1, 1)),
                     block_diagonal([IntMatrix.from_rows([[0, 1], [0, 0]]), IntMatrix.from_rows([[2]])]),
                     block_diagonal([IntMatrix.zeros(1, 1), IntMatrix.from_rows([[0, -2], [2, -2]])])]
        steps, restrictions = counting_calls(monkeypatch, exactalg._kernel_and_image, exactalg.restrict_to_lattice)
        orders = set()
        for T in operators:
            assert not T.det(), T
            for run in (lambda: verify(ZZ, None, T, None, ((2, T),)), lambda: zero_plus_finite_order(T),
                        lambda: divisibility_spectrum(T, 3, 1)):
                steps.clear()
                restrictions.clear()
                run()
                assert (steps, restrictions) == ([], []), T
            orders.add(zero_plus_finite_order(T))
            steps.clear()
            split = fitting_decompose(T)
            assert steps == [(T ** split.exponent_m,)] and restrictions == [], T
            split.restriction
            assert len(restrictions) == 1, T
        assert orders == {None, 4, 3}


class TestInvertibleSplit:
    def test_split_matches_the_augmented_hermite_form(self):
        """For det T != 0 the split read off the n x n Hermite form of T^t
        is _split_at(1)'s, off the n x 2n one of [T^t | I], field by field,
        its determinant |det T| up to sign."""
        direct = set()
        for T, module in invertible_operators(83):
            inv = _Invariants(T, module)
            split, step = inv.split, inv._split_at(1)
            assert (split.exponent_m, split.gen_kernel, split.image_part, split.operator) == \
                (step.exponent_m, step.gen_kernel, step.image_part, step.operator), T
            assert split.gen_kernel.rank == 0 and abs(split.det) == abs(step.det) == abs(T.det()), T
            assert abs(inv.image_det) == split.det, T
            direct.add(split.is_direct)
        assert direct == {True, False}

    def test_directness_off_det_agrees_with_the_oracle(self):
        """|image_det|, |det T| for det T != 0 and else the stacked
        determinant, is 1 exactly when the oracle finds
        Z^n = ker T (+) im T, on invertible and singular operators."""
        from divlat.numberring import ZZ
        from divlat.verifier import verify

        operators = [T for T, _ in invertible_operators(89)] + list(seeded_fitting_operators(89, 120))
        seen = set()
        for T in operators:
            inv = _Invariants(T)
            kernel = inv.split.gen_kernel
            assert is_saturated_kernel(T, kernel), T
            oracle = oracle_direct_and_full(kernel.basis.nested(), image_oracle(T).basis.nested(), T.rows)
            assert (abs(inv.image_det) == 1) == oracle, T
            assert verify(ZZ, None, T, None, ()).clause1.clean_split == oracle, T
            seen.add((bool(T.det()), oracle))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_no_augmented_hermite_form_for_an_invertible_operator(self, monkeypatch):
        """verify, divisibility_spectrum and zero_plus_finite_order on a
        nonsingular T never take the Hermite form of [T^t | I], and verify
        and zero_plus_finite_order take none at all; fitting_decompose and
        clean_split take one, n x n.  The operators are nonderogatory, so
        the spectrum's commutant is sat(Z[T]), not a kernel."""
        from divlat.divisibility import divisibility_spectrum, zero_plus_finite_order
        from divlat.numberring import ZZ
        from divlat.verifier import verify

        operators = [IntMatrix.from_rows([[0, -1], [1, -1]]), IntMatrix.from_rows([[2, 1], [1, 1]]),
                     IntMatrix.from_rows([[3, 1], [0, 2]]), exactalg.companion_matrix((1, -2, 0, 1))]
        steps, hnfs = counting_calls(monkeypatch, exactalg._kernel_and_image, exactalg.hnf)
        for T in operators:
            n = T.rows
            for run in (lambda: verify(ZZ, None, T, None, ((2, T),)), lambda: zero_plus_finite_order(T)):
                steps.clear()
                hnfs.clear()
                run()
                assert (steps, hnfs) == ([], []), T
            steps.clear()
            divisibility_spectrum(T, 3, 1)
            assert steps == [], T
            for decide in (fitting_decompose, clean_split):
                hnfs.clear()
                decide(T)
                assert [(M.rows, M.cols) for M, in hnfs] == [(n, n)], T
