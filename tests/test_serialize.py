import json
import re
from fractions import Fraction

import pytest

from divlat.exactalg import IntMatrix, QMatrix
from divlat.numberring import OKModule, QuadraticOrder, ZZ
from divlat.serialize import (
    InputError,
    canonical_dumps,
    matrix_from_json,
    matrix_to_json,
    okmodule_from_json,
    okmodule_to_json,
    primeset_from_json,
    primeset_to_json,
    problem_from_json,
    problem_to_json,
    ring_from_json,
    ring_to_json,
    sdescriptor_from_json,
    sdescriptor_to_json,
    supernatural_from_json,
    supernatural_to_json,
)
from divlat.supernat import (
    INF,
    AllFrom,
    Factorials,
    FiniteSet,
    Geometric,
    PrimeSet,
    Residue,
    Supernatural,
)


class TestMatrixJson:
    def test_nested_and_flat_entries_normalize(self):
        nested = {"rows": 2, "cols": 2, "entries": [[0, -1], [1, -1]]}
        flat = {"rows": 2, "cols": 2, "entries": [0, -1, 1, -1]}
        assert matrix_from_json(nested) == matrix_from_json(flat)

    def test_round_trip(self):
        M = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert matrix_from_json(json.loads(json.dumps(matrix_to_json(M)))) == M

    def test_entry_count_checked(self):
        with pytest.raises(InputError, match="expected 4 entries"):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [1, 2, 3]})

    def test_nested_entries_must_be_rows_of_cols_entries(self):
        """Nested entries are exactly rows lists of cols entries each; a
        ragged or mixed nesting is not reshaped but rejected by row."""
        cases = [
            ([[1, 2, 3], [4]], r"matrix\.entries\[0\]: expected a row of 2 entries"),
            ([[1, 2], [3]], r"matrix\.entries\[1\]: expected a row of 2 entries"),
            ([[1, 2], 3, 4], r"matrix\.entries\[1\]: expected a row of 2 entries"),
            ([[1, 2], [3, 4], []], r"matrix\.entries\[2\]: expected a row of 2 entries"),
            ([[1, 2]], r"matrix\.entries: expected 2 rows, got 1"),
            ([[1, 2], [3, 4], [5, 6]], r"matrix\.entries: expected 2 rows, got 3"),
        ]
        for entries, message in cases:
            with pytest.raises(InputError, match=message):
                matrix_from_json({"rows": 2, "cols": 2, "entries": entries})
        with pytest.raises(InputError, match=r"op\.entries\[0\]: expected a row of 0 entries"):
            matrix_from_json({"rows": 1, "cols": 0, "entries": [[1]]}, what="op")
        with pytest.raises(InputError, match=r"matrix\.entries: expected 2 rows, got 1"):
            matrix_from_json({"rows": 2, "cols": 0, "entries": [[]]})
        assert matrix_from_json({"rows": 2, "cols": 0, "entries": [[], []]}) == IntMatrix(2, 0, ())
        assert matrix_from_json({"rows": 0, "cols": 0, "entries": []}) == IntMatrix(0, 0, ())

    def test_negative_shape_rejected_by_field(self):
        for obj, field in (({"rows": -1, "cols": -1, "entries": [5]}, "rows"),
                           ({"rows": 1, "cols": -2, "entries": []}, "cols")):
            for allow_rational in (False, True):
                with pytest.raises(InputError, match=rf"^w\.{field}: expected a nonnegative integer"):
                    matrix_from_json(obj, what="w", allow_rational=allow_rational)
        with pytest.raises(InputError, match=r"^w\.rows: "):
            matrix_from_json({"rows": -1, "cols": -1, "entries": ["1/2"]}, what="w", allow_rational=True)

    def test_unknown_field_rejected(self):
        with pytest.raises(InputError, match="unknown field"):
            matrix_from_json({"rows": 1, "cols": 1, "entries": [1], "pad": 0})

    def test_float_entries_rejected(self):
        with pytest.raises(InputError):
            matrix_from_json({"rows": 1, "cols": 1, "entries": [0.5]})

    def test_rational_strings_when_allowed(self):
        obj = {"rows": 1, "cols": 2, "entries": ["1/2", 1]}
        M = matrix_from_json(obj, allow_rational=True)
        assert isinstance(M, QMatrix)
        assert M[0, 0] == Fraction(1, 2)
        with pytest.raises(InputError):
            matrix_from_json(obj)  # not allowed by default


class TestSupernaturalJson:
    def test_round_trip_with_infinity(self):
        x = Supernatural.of({2: INF, 3: 2})
        obj = supernatural_to_json(x)
        assert obj == {"factors": {"2": "inf", "3": 2}}
        assert supernatural_from_json(obj) == x

    def test_bad_prime_rejected(self):
        with pytest.raises(InputError):
            supernatural_from_json({"factors": {"4": 1}})

    @pytest.mark.parametrize("key", ["03", "1_1", " 3", "3 ", "+3", "-3", "\u0663", "", "x", "None"])
    def test_a_prime_key_has_one_spelling(self, key):
        """Only the canonical decimal form of a prime is a key: int() reads
        each of the first seven as some integer, so two keys could name one
        prime and one of them be dropped."""
        with pytest.raises(InputError, match=f"^{re.escape(f'supernatural: bad prime key {key!r}')}$"):
            supernatural_from_json({"factors": {key: 1}})


class TestDescriptorJson:
    def test_all_five_forms(self):
        cases = [
            (FiniteSet((2, 3, 4)), {"finite": [2, 3, 4]}),
            (Geometric(2, 1), {"geometric": {"base": 2, "scale": 1}}),
            (Factorials(), {"factorials": True}),
            (Residue(1, 3), {"residue": {"a": 1, "m": 3}}),
            (AllFrom(5), {"all_from": 5}),
        ]
        for descriptor, obj in cases:
            assert sdescriptor_to_json(descriptor) == obj
            assert sdescriptor_from_json(obj) == descriptor

    def test_invalid_values_are_input_errors(self):
        with pytest.raises(InputError):
            sdescriptor_from_json({"residue": {"a": 3, "m": 3}})
        with pytest.raises(InputError):
            sdescriptor_from_json({"mystery": 1})


class TestPrimeSetAndRingJson:
    def test_primeset_round_trip(self):
        for ps in (PrimeSet.finite([2, 5]), PrimeSet.all_primes(), PrimeSet.all_except([3])):
            assert primeset_from_json(primeset_to_json(ps)) == ps

    def test_ring_round_trip(self):
        assert ring_from_json("Z") == ZZ
        ring = QuadraticOrder(-5)
        assert ring_from_json(ring_to_json(ring)) == ring

    def test_non_squarefree_rejected(self):
        with pytest.raises(InputError):
            ring_from_json({"quadratic": {"d": 8}})


class TestProblemJson:
    def test_quadratic_problem_round_trip(self):
        order = QuadraticOrder(-1)
        module = OKModule.regular(order, 1)
        W = module.omega_action
        obj = problem_to_json(order, module, W, Geometric(3, 1), [(5, W)], name="gauss")
        parsed = problem_from_json(json.loads(json.dumps(obj)))
        assert parsed["ring"] == order
        assert parsed["module"] == module
        assert parsed["operator"] == W
        assert parsed["witnesses"] == ((5, W),)
        assert parsed["name"] == "gauss"

    def test_module_requires_quadratic_ring(self):
        module_json = okmodule_to_json(OKModule.regular(QuadraticOrder(2), 1))
        with pytest.raises(InputError, match="quadratic"):
            problem_from_json({
                "ring": "Z",
                "module": module_json,
                "operator": {"rows": 2, "cols": 2, "entries": [1, 0, 0, 1]},
            })

    def test_quadratic_ring_requires_module(self):
        with pytest.raises(InputError, match="requires a module"):
            problem_from_json({
                "ring": {"quadratic": {"d": 2}},
                "operator": {"rows": 2, "cols": 2, "entries": [1, 0, 0, 1]},
            })

    def test_rational_witness_passes_parsing(self):
        obj = {
            "operator": {"rows": 1, "cols": 1, "entries": [1]},
            "witnesses": [{"s": 2, "matrix": {"rows": 1, "cols": 1, "entries": ["1/2"]}}],
        }
        parsed = problem_from_json(obj)
        (s, X), = parsed["witnesses"]
        assert isinstance(X, QMatrix)

    def test_rational_operator_rejected(self):
        # operators are parsed strictly: entry strings are never accepted
        with pytest.raises(InputError, match="bad entry"):
            problem_from_json({"operator": {"rows": 1, "cols": 1, "entries": ["1/2"]}})

    def test_okmodule_bad_action_rejected(self):
        with pytest.raises(InputError):
            okmodule_from_json(
                {"z_rank": 2, "omega_action": [[1, 0], [0, 1]]}, QuadraticOrder(2)
            )


class TestCanonicalDumps:
    def test_key_order_is_stable(self):
        a = canonical_dumps({"b": 1, "a": [3, {"z": 1, "y": 2}]})
        b = canonical_dumps({"a": [3, {"y": 2, "z": 1}], "b": 1})
        assert a == b
        assert a.endswith("\n")
