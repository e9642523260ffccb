import contextlib
import io
import json
import random
import re
import sys
from fractions import Fraction

import pytest

import divlat.cli
from divlat.corpus import KINDS
from divlat.exactalg import IntMatrix, QMatrix
from divlat.numberring import OKModule, QuadraticOrder, ZZ
from divlat.serialize import (
    InputError,
    _stdlib_canonical,
    _write_canonical,
    canonical_dumps,
    matrix_from_json,
    matrix_to_json,
    okmodule_from_json,
    okmodule_to_json,
    primeset_from_json,
    primeset_to_json,
    problem_from_json,
    problem_to_json,
    qmatrix_to_json,
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
from helpers import large_problems, module_problems, unit_rings


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

    def test_entry_errors_and_results_by_entry_type(self):
        """All-int entries become the IntMatrix at once; any other entry
        takes the per-entry walk, whose error texts and results stay as
        they were: a boolean, a float, a string where no rational is
        allowed, a bad 'p/q', an integral 'p/q' (an IntMatrix) and a
        fractional one (a QMatrix)."""
        parse = lambda entries, allow=False: matrix_from_json({"rows": 1, "cols": 2, "entries": entries},
                                                              what="w", allow_rational=allow)
        assert parse([[3, -2 ** 70]]) == IntMatrix(1, 2, (3, -2 ** 70))
        assert type(parse([3, -4], True)) is IntMatrix
        hint = " (integers only; rationals as 'p/q' strings where allowed)"
        for entries, allow, message in (([1, True], False, "w: boolean entry"),
                                        ([[True, 1]], True, "w: boolean entry"),
                                        ([1, 1.0], False, "w: bad entry 1.0" + hint),
                                        ([[1.0, 1]], True, "w: bad entry 1.0" + hint),
                                        ([1, "1/2"], False, "w: bad entry '1/2'" + hint),
                                        ([1, "1/0"], True, "w: bad rational entry '1/0'"),
                                        ([1, "p/q"], True, "w: bad rational entry 'p/q'"),
                                        ([1, None], True, "w: bad entry None" + hint)):
            with pytest.raises(InputError) as raised:
                parse(entries, allow)
            assert str(raised.value) == message, entries
        assert parse([1, "4/2"], True) == IntMatrix(1, 2, (1, 2))
        assert parse([[1, "2/4"]], True) == QMatrix(1, 2, (1, Fraction(1, 2)))
        with pytest.raises(InputError) as raised:
            parse([[1, 2], [3]])
        assert str(raised.value) == "w.entries[1]: expected a row of 2 entries"

    def test_qmatrix_with_int_entries_is_written_as_an_int_matrix(self):
        """An all-int QMatrix is written as matrix_to_json writes the
        IntMatrix; with Fraction entries, integral ones are ints and the
        others 'p/q' strings, whatever type each entry has."""
        T = IntMatrix.from_rows([[2, 0, -2], [0, 0, 2], [0, 1, 1]])
        assert qmatrix_to_json(QMatrix.from_int_matrix(T)) == matrix_to_json(T)
        mixed = QMatrix(2, 2, (Fraction(2, 3), 1, Fraction(4, 2), -3))
        assert qmatrix_to_json(mixed) == {"rows": 2, "cols": 2, "entries": [["2/3", 1], [2, -3]]}
        assert qmatrix_to_json(QMatrix(2, 2, tuple(map(Fraction, mixed.entries)))) == qmatrix_to_json(mixed)


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


def _stdlib(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _golden_payloads(tmp_path, monkeypatch):
    """Every payload the CLI writes with --json on the golden problem sets:
    corpus seeds 1 and 2 of every kind (the corpus itself, classify,
    verify, fitting, root and spectrum), the module and large-operator
    problems and the unit rings."""
    payloads = []
    monkeypatch.setattr(divlat.cli, "canonical_dumps", lambda obj: payloads.append(obj) or "")

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return divlat.cli.main(["--json"] + argv)

    def paths(problems):
        for i, problem in enumerate(problems):
            path = tmp_path / f"p{i}.json"
            path.write_text(json.dumps(problem))
            yield str(path)

    problems = module_problems()
    for kind in KINDS:
        for seed in ("1", "2"):
            assert run(["corpus", kind, "--seed", seed]) == 0
            problems += payloads[-1]
    every = (["classify"], ["verify"], ["fitting"], ["root", "--s", "2", "--bound", "1"],
             ["spectrum", "--s-max", "3", "--bound", "1"])
    for path in paths(problems):
        for command, *args in every:
            run([command, path] + args)
    for path in paths(large_problems()):
        for command in ("classify", "fitting", "verify"):
            run([command, path])
    for path in paths(unit_rings()):
        run(["units", path])
    return payloads


def _random_tree(rng, depth):
    """A JSON-like tree of depth <= depth: dicts with str keys, lists and
    tuples, some empty, and leaves that mix bools into ints, negative and
    4300-digit ints, None and strings."""
    leaves = [lambda: rng.randint(-10 ** 6, 10 ** 6), lambda: rng.choice([True, False, 0, 1]),
              lambda: -rng.randrange(10 ** 4299, 10 ** 4300), lambda: None,
              lambda: "".join(rng.choice("ab\"\\\n\x00é€😀") for _ in range(rng.randint(0, 4)))]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)()
    size = rng.choice([0, 1, 2, 5])
    kind = rng.choice(["dict", "list", "tuple", "ints"])
    if kind == "dict":
        return {rng.choice(["", "a", "b", "ß", "\t", "key"]) + str(i): _random_tree(rng, depth - 1)
                for i in range(size)}
    if kind == "ints":
        return [rng.choice([rng.randint(-9, 9), rng.choice([True, False])]) for _ in range(size)]
    items = [_random_tree(rng, depth - 1) for _ in range(size)]
    return items if kind == "list" else tuple(items)


class TestCanonicalWriter:
    """The writer against json.dumps(obj, sort_keys=True, indent=2) + "\n",
    on every Python, whichever of the two canonical_dumps is."""

    def test_canonical_dumps_is_the_writer_before_python_3_13(self):
        assert canonical_dumps is (_write_canonical if sys.version_info < (3, 13) else _stdlib_canonical)

    def test_every_golden_payload(self, tmp_path, monkeypatch):
        payloads = _golden_payloads(tmp_path, monkeypatch)
        assert len(payloads) > 800
        for obj in payloads:
            assert _write_canonical(obj) == _stdlib(obj) == _stdlib_canonical(obj)

    def test_seeded_random_trees(self):
        rng = random.Random(7)
        for _ in range(300):
            obj = _random_tree(rng, 5)
            assert _write_canonical(obj) == _stdlib(obj)

    def test_empty_containers_and_scalars(self):
        for obj in ({}, [], (), [[]], {"a": {}}, {"a": []}, 0, -1, True, False, None, "", [True, 1, False, 0]):
            assert _write_canonical(obj) == _stdlib(obj)

    def test_escapes(self):
        text = '"\\/' + "".join(map(chr, range(32))) + "\x7f é ß € \u2028 😀 \U0010ffff \ud800"
        for obj in (text, [text], {text: text}, {"a": text, text[:5]: [text, 1]}):
            assert _write_canonical(obj) == _stdlib(obj)

    def test_an_int_past_the_digit_limit_raises_as_in_json(self):
        limit = sys.get_int_max_str_digits()
        for obj in (10 ** limit, [10 ** limit, 1], {"a": -10 ** limit}, [[1, 10 ** limit]]):
            with pytest.raises(ValueError):
                _stdlib(obj)
            with pytest.raises(ValueError, match="integer string conversion"):
                _write_canonical(obj)

    @pytest.mark.parametrize("obj", [1.5, [0.0], {"a": Fraction(1, 2)}, {1, 2}, {1: 2}, {"a": 1, 2: 3},
                                     {(1,): 2}, [b"x"]])
    def test_anything_else_is_a_type_error(self, obj):
        """A float json.dumps accepts, and a non-str key it would convert,
        are refused: no divlat payload holds one."""
        with pytest.raises(TypeError):
            _write_canonical(obj)
