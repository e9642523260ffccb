import argparse
import contextlib
import hashlib
import io
import json
import random
import sys

import pytest

import divlat
from divlat.cli import build_parser, main
from divlat.corpus import KINDS, conjugate, gen_corpus, random_unimodular
from divlat.exactalg import IntMatrix
from divlat.serialize import problem_from_json, problem_to_json
from divlat.numberring import ZZ
from helpers import frac_inverse, large_problems, mat_mul, module_problems, time_limit, unit_rings


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


ROT3_JSON = {"rows": 2, "cols": 2, "entries": [[0, -1], [1, -1]]}
MINUS_I2_JSON = {"rows": 2, "cols": 2, "entries": [[-1, 0], [0, -1]]}


class TestSubcommands:
    def test_classify_prints_order(self, tmp_path, capsys):
        assert main(["classify", write(tmp_path, "m.json", ROT3_JSON)]) == 0
        out = capsys.readouterr().out
        assert "order: 3" in out

    def test_root_finds_quarter_turn(self, tmp_path, capsys):
        rc = main(["root", write(tmp_path, "m.json", MINUS_I2_JSON), "--s", "2", "--bound", "1"])
        assert rc == 0
        assert "[[0, -1], [1, 0]]" in capsys.readouterr().out

    def test_fitting_output(self, tmp_path, capsys):
        rc = main(["fitting", write(tmp_path, "m.json", {"rows": 2, "cols": 2, "entries": [0, 0, 0, 2]})])
        assert rc == 0
        out = capsys.readouterr().out
        assert "direct and full: no" in out

    def test_spectrum(self, tmp_path, capsys):
        rc = main(["spectrum", write(tmp_path, "m.json", MINUS_I2_JSON), "--s-max", "4", "--bound", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "s=4: no-certificate" in out

    def test_spectrum_text_names_a_budget_cut(self, tmp_path, capsys):
        """The 2000001^4-point box of I_2 at bound 10^6 exceeds the candidate
        budget, so each row's scan is cut; the text says so, as root's does,
        and agrees with the row's "complete": false under --json."""
        path = write(tmp_path, "m.json", {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]})
        args = ["spectrum", path, "--s-max", "3", "--bound", "1000000"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:] == [f"s={s}: yes-coprime-order (exhausted at bound 1000000, budget cut the scan)"
                             for s in (2, 3)]
        assert main(["--json"] + args) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["outcome"] for row in rows] == [{"exhausted": {"bound": 1000000, "complete": False}}] * 2

    def test_verify_identity_consistent(self, tmp_path, capsys):
        problem = {
            "ring": "Z",
            "operator": {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]},
            "S": {"geometric": {"base": 2, "scale": 1}},
            "witnesses": [
                {"s": 2, "matrix": {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]}},
                {"s": 4, "matrix": {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]}},
            ],
            "name": "cavachi-identity",
        }
        rc = main(["verify", write(tmp_path, "p.json", problem)])
        assert rc == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_units(self, tmp_path, capsys):
        rc = main(["units", write(tmp_path, "r.json", {"ring": {"quadratic": {"d": 2}}})])
        assert rc == 0
        assert "fundamental unit: [1, 1]" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_units_names_the_ring_of_an_unprintable_unit(self, tmp_path, capsys, flags):
        """A fundamental unit past CPython's digit limit for int to str is
        an input error naming the ring, the unit's size and the limit, in
        text and JSON alike; the process-wide limit stays as it was."""
        limit = sys.get_int_max_str_digits()
        with time_limit(10.0):
            rc = main(flags + ["units", write(tmp_path, "r.json", {"ring": {"quadratic": {"d": 1000000007}}})])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == (
            "error: units: Z[sqrt(1000000007)]: the fundamental unit has a 21198-bit coordinate, "
            f"more decimal digits than sys.get_int_max_str_digits() = {limit} allows\n")
        assert sys.get_int_max_str_digits() == limit

    def test_there_is_no_smith_form(self, tmp_path, capsys):
        """Hermite is the one lattice elimination: snf is neither a
        subcommand nor a library name."""
        rc = main(["snf", write(tmp_path, "m.json", {"rows": 2, "cols": 2, "entries": [[2, 0], [0, 3]]})])
        assert rc == 2
        assert "invalid choice: 'snf'" in capsys.readouterr().err
        assert not hasattr(divlat.exactalg, "snf") and not hasattr(divlat, "snf")

    def test_supernat_pi_s(self, tmp_path, capsys):
        rc = main(["supernat", write(tmp_path, "s.json", {"pi_s": {"residue": {"a": 1, "m": 3}}})])
        assert rc == 0
        assert "except {3}" in capsys.readouterr().out

    def test_supernat_lcm(self, tmp_path, capsys):
        obj = {"lcm": [{"factors": {"2": "inf", "3": 1}}, {"factors": {"3": 2}}]}
        rc = main(["supernat", write(tmp_path, "s.json", obj)])
        assert rc == 0
        assert "2^inf*3^2" in capsys.readouterr().out

    @pytest.mark.parametrize("op, want", [
        ("gcd", "1\n"),  # the empty product
        ("lcm", "2*3^2\n"),  # exponent 1 prints the bare prime
    ])
    def test_supernat_products_print_as_products(self, tmp_path, capsys, op, want):
        obj = {op: [{"factors": {"2": 1}}, {"factors": {"3": 2}}]}
        assert main(["supernat", write(tmp_path, "s.json", obj)]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("prime, want", [(2, "true"), (3, "false")])
    def test_supernat_additive(self, tmp_path, capsys, prime, want):
        """Pi_S of the powers of 2 is {2}: it meets lchar = {2}, not {3}."""
        obj = {"additive": {"S": {"geometric": {"base": 2, "scale": 1}}, "lchar": {"finite": [prime]}}}
        path = write(tmp_path, "a.json", obj)
        assert main(["supernat", path]) == 0
        assert capsys.readouterr().out == want + "\n"
        assert main(["supernat", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"additive_hypothesis": want == "true"}


class TestJsonOutput:
    def test_classify_json_parses(self, tmp_path, capsys):
        rc = main(["classify", write(tmp_path, "m.json", ROT3_JSON), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == 3
        assert payload["cyclotomic_factorization"] == [[3, 1]]

    def test_verify_json_parses(self, tmp_path, capsys):
        problem = {
            "operator": {"rows": 1, "cols": 1, "entries": [[-1]]},
            "S": {"residue": {"a": 1, "m": 2}},
            "witnesses": [{"s": 3, "matrix": {"rows": 1, "cols": 1, "entries": [[-1]]}}],
        }
        rc = main(["verify", write(tmp_path, "p.json", problem), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "CONSISTENT"
        assert payload["clause3"]["finite_order"] == 2


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert main(["root"]) == 2  # missing required arguments
        assert main(["nosuchcommand"]) == 2

    def test_domain_error_is_1(self, tmp_path, capsys):
        bad = write(tmp_path, "m.json", {"rows": 2, "cols": 3, "entries": [[1, 2, 3], [4, 5, 6]]})
        assert main(["classify", bad]) == 1
        assert "error" in capsys.readouterr().err

    def test_ragged_entries_are_a_schema_violation(self, tmp_path, capsys):
        for entries in ([[1, 2, 3], [4]], [[1, 2], 3, 4]):
            bad = write(tmp_path, "m.json", {"rows": 2, "cols": 2, "entries": entries})
            assert main(["classify", bad]) == 1
            assert "expected a row of 2 entries" in capsys.readouterr().err

    def test_schema_violation_is_1(self, tmp_path, capsys):
        bad = write(tmp_path, "m.json", {"rows": 1, "cols": 1, "entries": [[1]], "extra": True})
        assert main(["classify", bad]) == 1
        assert "unknown field" in capsys.readouterr().err

    def test_finite_pi_s_is_domain_error(self, tmp_path, capsys):
        bad = write(tmp_path, "s.json", {"pi_s": {"finite": [2, 3]}})
        assert main(["supernat", bad]) == 1
        assert "undefined for finite" in capsys.readouterr().err

    def test_missing_file_is_1(self, capsys):
        assert main(["classify", "/nonexistent/x.json"]) == 1

    @pytest.mark.parametrize("command, obj", [
        ("supernat", {"nu": {"p": 2, "n": {"factors": [1, 2]}}}),
        ("supernat", {"lcm": [{"factors": "2"}, {"factors": {}}]}),
        ("supernat", {"gcd": [{"factors": {}}, {"factors": None}]}),
        ("verify", {"operator": ROT3_JSON, "S": {"finite": 3}}),
        ("verify", {"operator": ROT3_JSON, "S": {"finite": None}}),
        ("supernat", {"additive": {"S": {"all_from": 2}, "lchar": {"finite": 3}}}),
        ("supernat", {"pi_s": {"finite": None}}),
        ("verify", {"operator": ROT3_JSON, "witnesses": None}),
        ("verify", {"operator": ROT3_JSON, "witnesses": 5}),
    ], ids=["factors-list", "factors-string", "factors-null", "S-finite-int", "S-finite-null",
            "lchar-finite-int", "pi_s-finite-null", "witnesses-null", "witnesses-int"])
    def test_malformed_shape_is_a_schema_violation(self, tmp_path, capsys, command, obj):
        assert main([command, write(tmp_path, "bad.json", obj)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_all_primes_takes_only_true(self, tmp_path, capsys):
        obj = {"additive": {"S": {"all_from": 2}, "lchar": {"all_primes": False}}}
        assert main(["supernat", write(tmp_path, "a.json", obj)]) == 1
        assert capsys.readouterr() == ("", "error: lchar: all_primes takes the value true\n")

    @pytest.mark.parametrize("command, obj, err", [
        ("supernat", {"pi_s": {"finite": ["a"]}}, "S: expected an integer, got 'a'"),
        ("supernat", {"additive": {"S": {"all_from": 2}, "lchar": {"finite": ["a"]}}},
         "lchar: expected an integer, got 'a'"),
        ("supernat", {"additive": {"S": {"all_from": 2}, "lchar": {"finite": 3}}},
         "lchar.finite: expected a list, got int"),
        ("units", {"quadratic": {"d": "x"}}, "ring: expected an integer, got 'x'"),
        # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to every base 2..37
        ("supernat", {"nu": {"p": 318665857834031151167461,
                             "n": {"factors": {"318665857834031151167461": 2}}}},
         "supernatural: not a prime: 318665857834031151167461"),
        # json.load keeps every one of these keys, and int() reads each as 3 or 11
        ("supernat", {"nu": {"p": 3, "n": {"factors": {"3": 1, "03": 2}}}}, "supernatural: bad prime key '03'"),
        ("supernat", {"nu": {"p": 11, "n": {"factors": {"1_1": 1}}}}, "supernatural: bad prime key '1_1'"),
        ("supernat", {"nu": {"p": 3, "n": {"factors": {" 3": 1}}}}, "supernatural: bad prime key ' 3'"),
        ("classify", {"rows": -1, "cols": -1, "entries": [5]}, "matrix.rows: expected a nonnegative integer, got -1"),
        ("verify", {"operator": ROT3_JSON, "witnesses": [{"s": 2, "matrix": {"rows": 2, "cols": -1, "entries": []}}]},
         "problem.witnesses[0].matrix.cols: expected a nonnegative integer, got -1"),
        ("fitting", {"ring": {"quadratic": {"d": -1}}, "module": {"z_rank": -2, "omega_action": []},
                     "operator": ROT3_JSON}, "problem.module.z_rank: expected a nonnegative integer, got -2"),
    ], ids=["S", "primes", "lchar-finite", "ring", "pseudoprime-key", "zero-padded-key", "underscored-key",
            "spaced-key", "negative-operator-shape", "negative-witness-shape", "negative-z-rank"])
    def test_an_error_names_its_field_once(self, tmp_path, capsys, command, obj, err):
        assert main([command, write(tmp_path, "bad.json", obj)]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize("command, text, key", [
        ("classify", '{"rows": 1, "cols": 1, "entries": [1], "rows": 1}', "rows"),
        ("supernat", '{"nu": {"p": 3, "n": {"factors": {"3": 1, "3": 2}}}}', "3"),
    ], ids=["top-level", "nested"])
    def test_a_repeated_key_is_refused(self, tmp_path, capsys, command, text, key):
        """json.load alone keeps the last of two equal keys, at any depth."""
        path = tmp_path / "dup.json"
        path.write_text(text)
        assert main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: invalid JSON (repeated key {key!r})\n")

    def test_a_byte_order_mark_is_refused(self, tmp_path, capsys):
        """As json.load refuses a file that starts with a UTF-8 BOM."""
        path = tmp_path / "bom.json"
        path.write_bytes(b'\xef\xbb\xbf{"rows": 1, "cols": 1, "entries": [1]}')
        assert main(["classify", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: invalid JSON (Unexpected UTF-8 BOM "
                                           "(decode using utf-8-sig): line 1 column 1 (char 0))\n")

    @pytest.mark.parametrize("content", [
        pytest.param(b"\xff\xfe{}", id="not-utf-8"),
        pytest.param(b'{"rows": 1, "cols": 1, "entries": [' + b"7" * 5000 + b"]}", id="entry-past-the-int-digit-limit",
                     marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                              reason="CPython without the int digit limit")),
    ])
    def test_every_undecodable_file_is_named(self, tmp_path, capsys, content):
        """A decoding error, a 5000-digit integer (past CPython's default
        limit of 4300) included, names the file as bad JSON does."""
        path = tmp_path / "m.json"
        path.write_bytes(content)
        assert main(["classify", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}: invalid JSON (")

    @pytest.mark.parametrize("command, obj, err", [
        ("supernat", [], "supernat file: exactly one of pi_s, nu, lcm, gcd, mul, additive"),
        ("supernat", {"nu": {"p": 2}, "lcm": []}, "supernat file: exactly one of pi_s, nu, lcm, gcd, mul, additive"),
        ("supernat", {"nu": {"p": 2}}, 'nu takes {"p": prime, "n": SUPERNATURAL}'),
        ("supernat", {"lcm": [{"factors": {}}]}, "lcm takes a pair of supernaturals"),
        ("supernat", {"mul": 5}, "mul takes a pair of supernaturals"),
        ("supernat", {"additive": {"S": {"all_from": 2}}}, 'additive takes {"S": DESCRIPTOR, "lchar": PRIMESET}'),
        ("supernat", {"sqrt": 4}, "unknown supernat operation 'sqrt'"),
        ("units", {"ring": "Z"}, 'units: need a quadratic ring, e.g. {"ring": {"quadratic": {"d": 2}}}'),
    ], ids=["not-a-dict", "two-operations", "nu-fields", "lcm-single", "mul-int", "additive-fields",
            "unknown-operation", "units-over-Z"])
    def test_a_malformed_request_is_refused(self, tmp_path, capsys, command, obj, err):
        assert main([command, write(tmp_path, "bad.json", obj)]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_units_rejects_unknown_fields(self, tmp_path, capsys):
        obj = {"ring": {"quadratic": {"d": 2}}, "bogus": 1}
        assert main(["units", write(tmp_path, "r.json", obj)]) == 1
        assert capsys.readouterr() == ("", "error: units file: unknown field(s) ['bogus']\n")


NONCOMMUTING_JSON = {"ring": {"quadratic": {"d": -1}},
                     "module": {"z_rank": 2, "omega_action": [[0, -1], [1, 0]]},
                     "operator": {"rows": 2, "cols": 2, "entries": [[1, 2], [3, 4]]}}


class TestErrorPrecedence:
    """The error a bad request reports first.  Recorded before the split
    moved into the operator analysis, except the non-square spectrum
    message, which now matches root and classify."""

    @pytest.mark.parametrize("obj, argv, err", [
        (NONCOMMUTING_JSON, ["root", "--s", "1", "--bound", "1"], "exponent must be at least 2"),
        (NONCOMMUTING_JSON, ["root", "--s", "2", "--bound", "0"], "bound must be positive"),
        (NONCOMMUTING_JSON, ["root", "--s", "2", "--bound", "0", "--timeout-ms", "-5"], "bound must be positive"),
        (NONCOMMUTING_JSON, ["root", "--s", "2", "--bound", "1", "--timeout-ms", "-5"],
         "timeout must be nonnegative"),
        (NONCOMMUTING_JSON, ["root", "--s", "2", "--bound", "1", "--timeout-ms", "0"],
         "operator does not commute with the ring action"),
        (NONCOMMUTING_JSON, ["spectrum", "--s-max", "3", "--bound", "0"], "bound must be positive"),
        (NONCOMMUTING_JSON, ["spectrum", "--s-max", "3", "--bound", "1"],
         "operator does not commute with the ring action"),
        ({"rows": 0, "cols": 0, "entries": []}, ["spectrum", "--s-max", "3", "--bound", "1"], "empty operator"),
        ({"rows": 2, "cols": 3, "entries": [[1, 2, 3], [4, 5, 6]]}, ["spectrum", "--s-max", "3", "--bound", "1"],
         "square matrix required"),
    ], ids=["root-s-1", "root-bound-0", "root-bound-0-timeout-negative", "root-timeout-negative",
            "root-timeout-0", "spectrum-bound-0", "spectrum-noncommuting", "spectrum-0x0",
            "spectrum-non-square"])
    def test_first_error(self, tmp_path, capsys, obj, argv, err):
        command, *args = argv
        assert main([command, write(tmp_path, "p.json", obj)] + args) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")


class TestOperatorShape:
    """Every command reads its operator through one loader, which refuses a
    0x0 or non-square operator before the command checks its arguments."""

    @pytest.mark.parametrize("argv", [
        ["fitting"], ["classify"], ["root", "--s", "2", "--bound", "1"], ["root", "--s", "1", "--bound", "0"],
        ["spectrum", "--s-max", "3", "--bound", "1"], ["spectrum", "--s-max", "1", "--bound", "0"], ["verify"],
    ], ids=["fitting", "classify", "root", "root-bad-args", "spectrum", "spectrum-bad-args", "verify"])
    @pytest.mark.parametrize("matrix, err", [
        ({"rows": 0, "cols": 0, "entries": []}, "empty operator"),
        ({"rows": 2, "cols": 3, "entries": [[1, 2, 3], [4, 5, 6]]}, "square matrix required"),
    ], ids=["0x0", "2x3"])
    @pytest.mark.parametrize("as_problem", [False, True], ids=["matrix-file", "problem-file"])
    def test_refused_by_every_command(self, tmp_path, capsys, argv, matrix, err, as_problem):
        command, *args = argv
        path = write(tmp_path, "p.json", {"operator": matrix} if as_problem else matrix)
        assert main([command, path] + args) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize("argv", [
        ["fitting"], ["classify"], ["root", "--s", "1", "--bound", "1"], ["root", "--s", "2", "--bound", "1"],
        ["spectrum", "--s-max", "1", "--bound", "1"], ["spectrum", "--s-max", "3", "--bound", "1"], ["verify"],
    ], ids=["fitting", "classify", "root-s-1", "root", "spectrum-s-max-1", "spectrum", "verify"])
    @pytest.mark.parametrize("operator", [
        {"rows": 3, "cols": 3, "entries": [[1, 0, 0]] * 3},
        {"rows": 2, "cols": 3, "entries": [[1, 0, 0]] * 2},
        {"rows": 0, "cols": 0, "entries": []},
    ], ids=["3x3", "2x3", "0x0"])
    def test_size_against_the_module_is_checked_first(self, tmp_path, capsys, argv, operator):
        """An operator of another size than the 2x2 omega action is refused
        when the file is read, before the command checks its arguments or
        the operator's shape."""
        problem = dict(NONCOMMUTING_JSON, operator=operator)
        command, *args = argv
        assert main([command, write(tmp_path, "p.json", problem)] + args) == 1
        assert capsys.readouterr() == ("", "error: operator size does not match the module\n")

    def test_verify_still_requires_a_problem_file(self, tmp_path, capsys):
        assert main(["verify", write(tmp_path, "m.json", ROT3_JSON)]) == 1
        assert capsys.readouterr() == ("", "error: problem: missing field(s) ['operator']\n")
        assert main(["verify", write(tmp_path, "x.json", {"S": {"all_from": 2}})]) == 1
        assert capsys.readouterr() == ("", "error: problem: missing field(s) ['operator']\n")


class TestThreadsDeterminism:
    def test_thread_count_never_changes_output(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", MINUS_I2_JSON)
        outputs = []
        for threads in ("1", "3"):
            rc = main(["spectrum", path, "--s-max", "4", "--bound", "2", "--threads", threads, "--json"])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_root_large_box_threads(self, tmp_path, capsys):
        # bound 11 leaves the cached-table path, exercising the block scanner
        path = write(tmp_path, "m.json", MINUS_I2_JSON)
        outputs = []
        for threads in ("1", "4"):
            rc = main(["root", path, "--s", "2", "--bound", "11", "--threads", threads, "--json"])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestCorpus:
    def test_kinds(self):
        assert set(KINDS) == {"finite-order", "nilpotent", "random", "powers"}

    def test_deterministic(self):
        a = gen_corpus("finite-order", 1)
        b = gen_corpus("finite-order", 1)
        assert [(p.name, p.operator) for p in a] == [(q.name, q.operator) for q in b]

    def test_finite_order_seed_1_includes_an_order_6_gl2_element(self):
        from divlat.classify import finite_order

        problems = gen_corpus("finite-order", 1)
        assert any(p.operator.rows == 2 and finite_order(p.operator) == 6 for p in problems)

    def test_powers_carry_ground_truth(self):
        for p in gen_corpus("powers", 1):
            assert len(p.witnesses) == 1
            (s, X), = p.witnesses
            assert X ** s == p.operator

    def test_nilpotent_entries_vanish(self):
        for p in gen_corpus("nilpotent", 1):
            assert (p.operator ** p.operator.rows).is_zero()

    def test_conjugate_against_the_rational_inverse(self):
        rng = random.Random(173)
        for _ in range(100):
            n = rng.randint(1, 5)
            T = IntMatrix(n, n, tuple(rng.randint(-4, 4) for _ in range(n * n)))
            U = random_unimodular(n, rng, steps=3 * n)
            expected = mat_mul(mat_mul(U.nested(), T.nested()), frac_inverse(U.nested()))
            assert conjugate(T, U).nested() == expected, (T, U)

    def test_conjugate_rejects_a_matrix_outside_gl_n_z(self):
        T = IntMatrix.from_rows([[1, 2], [3, 4]])
        for U in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[2, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]]):
            with pytest.raises(ValueError):
                conjugate(T, IntMatrix.from_rows(U))

    def test_json_round_trip_lossless(self):
        for kind in KINDS:
            for p in gen_corpus(kind, 2):
                obj = problem_to_json(ZZ, None, p.operator, p.exponent_set, p.witnesses, name=p.name)
                back = problem_from_json(json.loads(json.dumps(obj)))
                assert back["operator"] == p.operator
                assert back["S"] == p.exponent_set
                assert back["witnesses"] == p.witnesses
                assert back["name"] == p.name

    def test_cli_corpus_emits_json(self, capsys):
        rc = main(["corpus", "powers", "--seed", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 10
        for entry in payload:
            problem_from_json(entry)


class TestQuadraticProblemEndToEnd:
    def test_gaussian_scalar_verify(self, tmp_path, capsys):
        problem = {
            "ring": {"quadratic": {"d": -1}},
            "module": {"z_rank": 2, "omega_action": [[0, -1], [1, 0]]},
            "operator": {"rows": 2, "cols": 2, "entries": [[0, -1], [1, 0]]},
            "S": {"residue": {"a": 1, "m": 4}},
            "witnesses": [{"s": 5, "matrix": {"rows": 2, "cols": 2, "entries": [[0, -1], [1, 0]]}}],
            "name": "gaussian-i",
        }
        rc = main(["verify", write(tmp_path, "p.json", problem), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "CONSISTENT"
        assert payload["clause3"]["finite_order"] == 4

    def test_fitting_json_bases_in_hnf(self, tmp_path, capsys):
        rc = main(["fitting", write(tmp_path, "m.json",
                                    {"rows": 2, "cols": 2, "entries": [[0, 0], [0, 1]]}),
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gen_kernel"]["basis"] == [[1, 0]]
        assert payload["image_part"]["basis"] == [[0, 1]]
        assert payload["restriction"]["entries"] == [[1]]

    def test_rational_witness_diagnostic_through_cli(self, tmp_path, capsys):
        problem = {
            "operator": {"rows": 2, "cols": 2, "entries": [[1, 1], [0, 1]]},
            "witnesses": [{"s": 2, "matrix": {"rows": 2, "cols": 2,
                                              "entries": [[1, "1/2"], [0, 1]]}}],
        }
        rc = main(["verify", write(tmp_path, "p.json", problem), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        checks = payload["hypothesis_checks"]["witnesses"]
        assert checks[0]["reason"] == "witness not integral"
        assert payload["verdict"] == "INCONCLUSIVE"


def _module_problem(d, omega_action, operator):
    n = len(operator)
    return {"ring": {"quadratic": {"d": d}},
            "module": {"z_rank": n, "omega_action": omega_action},
            "operator": {"rows": n, "cols": n, "entries": operator}}


IDEAL_OMEGA = [[-1, -3], [2, 1]]  # omega on the non-free ideal (2, 1 + omega) of Z[sqrt(-5)]
REGULAR_5 = [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]]  # Z[(1+sqrt 5)/2]^2
REGULAR_5_RANK_3 = [[0, 1, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                    [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 1]]  # Z[(1+sqrt 5)/2]^3
IDENTITY_6 = [[int(i == j) for j in range(6)] for i in range(6)]
NILPOTENT_5 = [[0, 0, 0, 1, 1, 0], [0, 0, 1, 1, 0, 1], [0, 0, 0, 0, 0, 1],
               [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]
J2_PLUS_5 = [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0],
             [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 2, 1], [0, 0, 0, 0, 1, 3]]


class TestModuleFittingGolden:
    """fitting --json on module problems, where the invertibility of the
    restriction is decided by its ring determinant.  The expected bytes were
    recorded before the ring determinant was computed from traces."""

    @pytest.mark.parametrize("problem, m, kernel, image, direct, restriction, invertible", [
        # T = omega on the regular module of d = 2: norm(sqrt 2) = -2
        (_module_problem(2, [[0, 2], [1, 0]], [[0, 2], [1, 0]]),
         1, [], [[2, 0], [0, 1]], False, [[0, 1], [2, 0]], False),
        # the scalar 2 + omega on the ideal: norm 9
        (_module_problem(-5, IDEAL_OMEGA, [[1, -3], [2, 3]]),
         1, [], [[1, 2], [0, 9]], False, [[-5, -27], [2, 9]], False),
        # the scalar -1 on the ideal
        (_module_problem(-5, IDEAL_OMEGA, [[-1, 0], [0, -1]]),
         1, [], [[1, 0], [0, 1]], True, [[-1, 0], [0, -1]], True),
        # embed([[2 + omega, 0], [2 + omega, 0]]) over d = 5: the image
        # (2 + omega)(1, 1) has module rank 1 and omega acts on its Hermite
        # basis by [[3, 5], [-1, -2]], not by the regular companion matrix
        (_module_problem(5, REGULAR_5, [[2, 1, 0, 0], [1, 3, 0, 0], [2, 1, 0, 0], [1, 3, 0, 0]]),
         1, [[0, 0, 1, 0], [0, 0, 0, 1]], [[1, 3, 1, 3], [0, 5, 0, 5]], False, [[5, 5], [-1, 0]], False),
        # m >= 2, recorded while the chain was walked one power at a time:
        # embed([[0, omega, 1], [0, 0, omega], [0, 0, 0]]) over d = 5, nilpotent
        (_module_problem(5, REGULAR_5_RANK_3, NILPOTENT_5),
         3, IDENTITY_6, [], True, [], True),
        # embed(J_2(0) (+) (2 + omega)) over d = 5: norm(2 + omega) = 5
        (_module_problem(5, REGULAR_5_RANK_3, J2_PLUS_5),
         2, IDENTITY_6[:4], [[0, 0, 0, 0, 5, 0], [0, 0, 0, 0, 0, 5]], False, [[2, 1], [1, 3]], False),
    ], ids=["omega-d2", "ideal-2-plus-omega", "ideal-minus-one", "d5-image-rank-1",
            "d5-nilpotent-m-3", "d5-j2-plus-unit-m-2"])
    def test_fitting_json_bytes(self, tmp_path, capsys, problem, m, kernel, image, direct,
                                restriction, invertible):
        n = problem["operator"]["rows"]
        expected = {
            "exponent_m": m,
            "gen_kernel": {"ambient_rank": n, "basis": kernel},
            "image_part": {"ambient_rank": n, "basis": image},
            "is_direct": direct,
            "restriction": {"rows": len(restriction), "cols": len(restriction), "entries": restriction},
            "restriction_invertible": invertible,
        }
        assert main(["fitting", write(tmp_path, "p.json", problem), "--json"]) == 0
        out, err = capsys.readouterr()
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"
        assert err == ""


class TestSupernatNu:
    def test_infinite_valuation(self, tmp_path, capsys):
        obj = {"nu": {"p": 2, "n": {"factors": {"2": "inf", "3": 1}}}}
        rc = main(["supernat", write(tmp_path, "s.json", obj)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_absent_prime(self, tmp_path, capsys):
        obj = {"nu": {"p": 5, "n": {"factors": {"2": "inf", "3": 1}}}}
        rc = main(["supernat", write(tmp_path, "s.json", obj), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {"nu": 0}


PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521, a strong pseudoprime to every base 2..41
I2_JSON = {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]}


class TestNoInputHangs:
    @pytest.mark.parametrize("obj, where, n", [
        ({"nu": {"p": PSI_13, "n": {"factors": {str(PSI_13): 2}}}}, "supernatural: ", PSI_13),
        ({"additive": {"S": {"all_from": 2}, "lchar": {"finite": [PSI_13]}}}, "lchar: ", PSI_13),
        ({"pi_s": {"geometric": {"base": PSI_13}}}, "", PSI_13),
        ({"pi_s": {"geometric": {"base": 10 ** 25 + 13}}}, "", 10 ** 25 + 13),
    ], ids=["nu-key", "lchar", "base-psi-13", "prime-base"])
    def test_an_unprovable_prime_is_refused(self, tmp_path, capsys, obj, where, n):
        """A prime key, a prime-set prime or a factor that Miller-Rabin
        cannot prove prime, at or above psi_13, is an input error naming
        the number, given at once."""
        with time_limit(1.0):
            rc = main(["supernat", write(tmp_path, "s.json", obj)])
        assert rc == 1
        assert capsys.readouterr() == (
            "", f"error: {where}cannot prove {n} prime: Miller-Rabin proves nothing at or above psi_13\n")

    def test_a_base_above_psi_13_is_split(self, tmp_path, capsys):
        obj = {"pi_s": {"geometric": {"base": 3640000000027460000000033}}}
        with time_limit(5.0):
            rc = main(["supernat", write(tmp_path, "s.json", obj)])
        assert rc == 0
        assert capsys.readouterr().out == "{1820000000011, 2000000000003}\n"

    def test_a_huge_exponent_on_a_finite_order_operator(self, tmp_path, capsys):
        """root and verify on I2 at s = 10^8, and root at the prime
        s = 10^25 + 13, answer at once."""
        path = write(tmp_path, "i2.json", I2_JSON)
        problem = {"operator": I2_JSON, "S": {"geometric": {"base": 2, "scale": 1}},
                   "witnesses": [{"s": 10 ** 8, "matrix": {"rows": 2, "cols": 2, "entries": [[2, 1], [1, 1]]}}]}
        with time_limit(2.0):
            assert main(["root", path, "--s", str(10 ** 8), "--bound", "1", "--timeout-ms", "1000"]) == 0
            assert capsys.readouterr().out == "FOUND witness [[-1, -1], [0, 1]] (re-multiplied exactly)\n"
            assert main(["root", path, "--s", str(10 ** 25 + 13), "--bound", "1"]) == 0
            assert capsys.readouterr().out == "FOUND witness [[1, 0], [0, 1]] (re-multiplied exactly)\n"
            assert main(["verify", write(tmp_path, "p.json", problem)]) == 0
        assert capsys.readouterr().out.startswith("witness s=100000000: re-multiplication failed\n")

    def test_a_huge_exponent_on_an_operator_without_finite_order(self, tmp_path, capsys):
        """[[2, 1], [1, 1]] has an eigenvalue that is neither 0 nor a root of
        unity, so at s = 10^8 it has no s-th root (a height bound): root
        exhausts its box and verify refuses the Fibonacci witness, both
        without multiplying out a 10^8-th power."""
        T = {"rows": 2, "cols": 2, "entries": [[2, 1], [1, 1]]}
        problem = {"operator": T, "S": {"geometric": {"base": 2, "scale": 1}},
                   "witnesses": [{"s": 10 ** 8, "matrix": {"rows": 2, "cols": 2, "entries": [[1, 1], [1, 0]]}}]}
        with time_limit(2.0):
            assert main(["root", write(tmp_path, "t.json", T), "--s", str(10 ** 8), "--bound", "1",
                         "--timeout-ms", "1000"]) == 0
            assert capsys.readouterr().out == "EXHAUSTED bound 1\n"
            assert main(["verify", write(tmp_path, "p.json", problem)]) == 0
        assert capsys.readouterr().out.startswith("witness s=100000000: re-multiplication failed\n")

    def test_a_huge_exponent_on_a_unipotent_operator(self, tmp_path, capsys):
        """J2(1) (+) I2 is torsion-spectral without finite order.  At
        s = 10^8, past the height bound, root tries only torsion-spectral
        candidates, whose powers grow polynomially, until its budget cuts
        the scan; verify refuses a Fibonacci block witness, not
        torsion-spectral, at once, and T itself, whose 10^8-th power is not
        T, after multiplying it out."""
        T = {"rows": 4, "cols": 4, "entries": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
        fib = {"rows": 4, "cols": 4, "entries": [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
        problem = {"operator": T, "S": {"geometric": {"base": 2, "scale": 1}},
                   "witnesses": [{"s": 10 ** 8, "matrix": fib}, {"s": 10 ** 8, "matrix": T}]}
        with time_limit(3.0):
            assert main(["root", write(tmp_path, "t.json", T), "--s", str(10 ** 8), "--bound", "1",
                         "--timeout-ms", "1000"]) == 0
        assert capsys.readouterr().out == "EXHAUSTED bound 1 (budget cut the scan)\n"
        with time_limit(1.0):
            assert main(["verify", write(tmp_path, "p.json", problem)]) == 0
        assert capsys.readouterr().out.startswith("witness s=100000000: re-multiplication failed\n" * 2)


class TestGlobalFlags:
    def run(self, capsys, argv):
        rc = main(argv)
        out = capsys.readouterr()
        return rc, out.out, out.err

    @pytest.mark.parametrize("flag, sub, rest", [
        (["--json"], "units", []),
        (["--json"], "classify", []),
        (["--seed", "3"], "corpus", []),
        (["--threads", "2"], "root", ["--s", "2", "--bound", "1", "--json"]),
    ], ids=["json-units", "json-classify", "seed-corpus", "threads-root"])
    def test_flag_before_or_after_the_subcommand(self, tmp_path, capsys, flag, sub, rest):
        if sub == "corpus":
            operands = ["powers"]
        elif sub == "units":
            operands = [write(tmp_path, "r.json", {"ring": {"quadratic": {"d": 2}}})]
        else:
            operands = [write(tmp_path, "m.json", MINUS_I2_JSON)]
        before = self.run(capsys, flag + [sub] + operands + rest)
        after = self.run(capsys, [sub] + operands + rest + flag)
        assert before == after
        assert before[0] == 0
        without = self.run(capsys, [sub] + operands + rest)
        # --threads is ignored; --json and --seed change the output
        assert (without == after) == (flag[0] == "--threads")


class TestSharedParser:
    def test_no_state_survives_a_call(self, tmp_path, capsys):
        argv = ["root", write(tmp_path, "m.json", MINUS_I2_JSON), "--s", "2", "--bound", "1", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(["root"]) == 2
        bad = write(tmp_path, "bad.json", {"rows": 2, "cols": 3, "entries": [[1, 2, 3], [4, 5, 6]]})
        assert main(["classify", bad]) == 1
        capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert (second.out, second.err) == (first.out, first.err)

    def test_a_call_constructs_no_parser(self, tmp_path, capsys, monkeypatch):
        build_parser()
        constructed = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["classify", write(tmp_path, "m.json", ROT3_JSON), "--json"]) == 0
        assert constructed == []
        assert build_parser() is build_parser()


GOLDEN_COMMANDS = {
    "classify": ["classify"],
    "classify --json": ["classify", "--json"],
    "verify": ["verify"],
    "verify --json": ["verify", "--json"],
    "fitting": ["fitting"],
    "fitting --json": ["fitting", "--json"],
    "root": ["root", "--s", "2", "--bound", "1", "--json"],
    "spectrum": ["spectrum", "--s-max", "3", "--bound", "1"],
    "spectrum --json": ["spectrum", "--s-max", "3", "--bound", "1", "--json"],
}
# sha256 over (exit code, stdout, stderr) of every problem of corpus seeds 1
# and 2, in corpus order, per kind and command.  Recorded with the
# Fraction-polynomial classify that the Z[x] kernels replaced, and the
# verify and fitting rows with the Smith-form kernels and the kernel-chain
# loop that the one-Hermite-form split replaced, and the spectrum --json rows
# while verify read clause 1's quotient determinant off chi_T: a change of a
# digest is a change of CLI output bytes.
GOLDEN_DIGESTS = {
    "finite-order classify":
        "02665df42a11c302e13d370221807e094792eeefb02cbdfdbcd54ebcd16df1a7",
    "finite-order classify --json":
        "8c57c7dcd74ed6ae2025d5723cb60d293f24e76c195f1bda578559c37133069e",
    "finite-order verify":
        "c30244bcb32c666510093eaecd5bf6e559c744589b4a3c58b43c720b6ded8f85",
    "finite-order verify --json":
        "8444b6bc387ab73c0571b961b3ec2387f80e052e13dd8f75fcf69e64c2350b7b",
    "finite-order fitting":
        "3d6aaa2fe417ebd2e4b16ef3f3c165a0d744b2754568f21310f073ecf4a22df2",
    "finite-order fitting --json":
        "b40004dbce1c1e1ab1b371acbc94a9c7f7370786eb1658c07ee446666f5191a5",
    "finite-order root":
        "a055c02483fea297fd177f808c6d5401af24d487db8f56579b732a90a9b4f208",
    "finite-order spectrum":
        "2aef39c1dc660b74db38c37b24eecf822ea6f14ed00d862b439c4c75fbc9d15d",
    "finite-order spectrum --json":
        "ebea429dbf0c365743cd5aef204385b0d0bd313a05d2c2c49ee22d29448a3d74",
    "nilpotent classify":
        "b696ce419ee4c88319c02806329cdbdcd32518816ffccd31fa6e9d25a979a683",
    "nilpotent classify --json":
        "202c9e6ac6137fd97f7edc73cefae45a1cb6924437f296b8f0b80a723c42666f",
    "nilpotent verify":
        "8ae5a85798fee9c6971b34c2cd72aabcfc5560a91e530d51b040a104df782bdf",
    "nilpotent verify --json":
        "774ff5470f57bc77d595c95208050d6483f60bd0b3d885015e657be4140cc8a5",
    "nilpotent fitting":
        "a929c5110c8d32f76d96711ad5dd542b2ec8629e6f4606f97c8e8fc7748b5357",
    "nilpotent fitting --json":
        "6ea7050632ed5aead6fddaf3a948c0e7d79a5864c900caad5fa29c5e9c14f506",
    "nilpotent root":
        "da15f147f3aa35d6a2b16cc00a512fbbc17ff9aa59d145ba59f8e7e72634e417",
    "nilpotent spectrum":
        "6ad5c2f0bc4b73d287bdf32f59c8ad1725fdd405b253f8c356206e0a9656fcae",
    "nilpotent spectrum --json":
        "63fc66ffbfa765bc1c9c1c7a7881a9285158d198ad1e57788bc5092d26db6154",
    "random classify":
        "009a122b92e6e2b00db9bf5b2f32fe1ed573d642fe9cfb2ccbfd51ff78cb5a0d",
    "random classify --json":
        "15cec94189e947a1c4ca51c7d3b2284994a8bbf90df8d625255720e38efb14e9",
    "random verify":
        "5d58dce2f4de010c2f710350272f30e62eef5d363464a4e9e947a669ae488d65",
    "random verify --json":
        "5527cadb3e0545ac2fd963861dc0856a8ee79d8bc72dfc0121f15a610548aae7",
    "random fitting":
        "c60c5257a518f0f92b71f3891ce550f6334ba4a239f7376563c9ae7d6feb2636",
    "random fitting --json":
        "2863ee418d8afbe3a0e90bc263865b0c45f61aed26d122b11afd3f15a3631ea0",
    "random root":
        "eb0d1e8c29c74a15b2db71318484e2c53242eb0ee97f1a8dca52b7f323f66600",
    "random spectrum":
        "d3b55b8527db7361f3b2db2dc0c2b5c3b50d623badeb0bcea5a77668eb5e5419",
    "random spectrum --json":
        "43924f654f4e3affc5ef5fb80e6767b8ee69d493bf13bc26115c5d4d094c0371",
    "powers classify":
        "e64cdb13701592459bdedcf0578ad94a33d2cfcf6aecb7fecbd0d4b2c1258780",
    "powers classify --json":
        "5f223aa9209d3c05980eb69d8aad8ed3fd97f5ea1eae8b43e82821af14372aad",
    "powers verify":
        "f444dc3c14b64e35f447a631eaef80d42be3f80d35e2b4b3505bc6968468423b",
    "powers verify --json":
        "1d9b68e3c0b9b38aa61af18cb6711de1ad942997c4524e3c1a1b55d9593df402",
    "powers fitting":
        "3823721de756ecf5b68156c3d58185c5fbfc39d9fd1d7d54e8756541e04764ab",
    "powers fitting --json":
        "cfc85e11fae34d7269e4082d31d44baf644e6ba383bfd6be570b8c83761fcf6b",
    "powers root":
        "df25605ff7c88b175c3e6563c056fea9b2db6bdb9383e354ec4b55f2038f39dd",
    "powers spectrum":
        "4e9476f5aed88298b2e17729b7d5a263427f235d656c5d37e2fad0c537e55107",
    "powers spectrum --json":
        "def09be636dd75af6af74dc6f85121775b65d5110d15feefe40164cb520718f3",
}


# The same over the module problems of module_problems, recorded before the
# split moved into the operator analysis (spectrum --json with the corpus
# row).
GOLDEN_MODULE_DIGESTS = {
    "module classify":
        "b8a97f4b63488855110ed2fbdd728668edca9f539ca8654f0f4f2bcfb415770a",
    "module classify --json":
        "2c6b7662e43c5659f7d1468a4a84bf13291bf2dc88c0b33e17f461e4ec423f27",
    "module verify":
        "6fb62b5d2cf36bf9fbb1e0db5581132903db7dc14947f5de9823d36e06ed1362",
    "module verify --json":
        "b3ef7b933a1d405376a3d2d6fc5c9c510999fe55af270ffb4ed3a94b1d356d0e",
    "module fitting":
        "d74b1444fdd6914576f32b4cfc2c3715e3d780ffaa2c0f221a951f76c1479a2e",
    "module fitting --json":
        "05d0d5497d6ec073f3ff04d90f60bcd7729eea1a62ec996a05d91a7fc04e8f87",
    "module root":
        "6be338c028eb7b157afcb1c21d0600d96dcfe994d0d922949f0aa7174f7f1997",
    "module spectrum":
        "55bf87044ab406f04f0e5a45d205f481741da24ddaccbabe2da7fcf892bc0a73",
    "module spectrum --json":
        "0495aef2436039cd34f7bb42cc9f2b7cf2e375ab9b9bdcd49518224428269675",
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _digests(prefix, paths, commands=tuple(GOLDEN_COMMANDS)):
    """sha256 per command over (exit code, stdout, stderr) on every path."""
    hashes = {name: hashlib.sha256() for name in commands}
    for path in paths:
        for name in commands:
            command, *args = GOLDEN_COMMANDS[name]
            hashes[name].update(repr(_run([command, path] + args)).encode())
    return {f"{prefix} {name}": h.hexdigest() for name, h in hashes.items()}


def corpus_digests(tmp_path, seeds=(1, 2), commands=tuple(GOLDEN_COMMANDS)):
    digests = {}
    for kind in KINDS:
        paths = []
        for seed in seeds:
            rc, out, _ = _run(["corpus", kind, "--seed", str(seed)])
            assert rc == 0
            paths += [write(tmp_path, f"{kind}-{seed}-{i}.json", p) for i, p in enumerate(json.loads(out))]
        digests.update(_digests(kind, paths, commands))
    return digests


# The same for verify --json over corpus seeds 3 to 8, which with seeds 1
# and 2 make up the 320 corpus problems of seeds 1-8; recorded while verify
# read clause 1's quotient determinant off chi_T.
GOLDEN_LATER_SEED_DIGESTS = {
    "finite-order verify --json":
        "802f5686bf6e4ef21632479cf926ddc369fc6bbdb71e33a4faad67af23fa50fa",
    "nilpotent verify --json":
        "92e6e27a51d4146e575885e2116171624bfbef729a0584934de91e37c5687c2e",
    "random verify --json":
        "f36caeedd2ad7798d38699a52adc3c724c3493ecd462af7aed976f40616a468d",
    "powers verify --json":
        "29fcf392de1114caa3f633b339c0b4f2f5bfdc229e7b46c25aa2c16d746dc195",
}


LARGE_COMMANDS = ("classify --json", "fitting --json", "verify --json")
# The same over large_problems, recorded before the powers of an operator
# were read off one ladder of squares.
GOLDEN_LARGE_DIGESTS = {
    "large classify --json":
        "ad6caa584b3cb1fc52106b701cc29281d0f6f0aefe0153cefeb7897347f3a363",
    "large fitting --json":
        "b159efd2da19adc8b1aa108b398adc9e2349ef0a82325f7b777dce6db2263bea",
    "large verify --json":
        "cee631b4709b298293f11a6779037add917ea3276bfaf00356276af4089c4a90",
}


# sha256 over (exit code, stdout, stderr) of units and units --json on every
# ring of unit_rings, recorded while the torsion units were found by
# enumerating the small elements of norm 1.
GOLDEN_UNITS_DIGEST = "30a7eb07633a9a8da8d292da73e245b283169439d9b4a6f34c23060422dbc261"


class TestGoldenBytes:
    def test_corpus_outputs_match_the_recorded_digests(self, tmp_path):
        assert corpus_digests(tmp_path) == GOLDEN_DIGESTS

    def test_later_seed_verify_outputs_match_the_recorded_digests(self, tmp_path):
        assert corpus_digests(tmp_path, range(3, 9), ("verify --json",)) == GOLDEN_LATER_SEED_DIGESTS

    def test_module_outputs_match_the_recorded_digests(self, tmp_path):
        paths = [write(tmp_path, f"{p['name']}.json", p) for p in module_problems()]
        assert _digests("module", paths) == GOLDEN_MODULE_DIGESTS

    def test_large_operator_outputs_match_the_recorded_digests(self, tmp_path):
        paths = [write(tmp_path, f"{p['name']}.json", p) for p in large_problems()]
        assert _digests("large", paths, LARGE_COMMANDS) == GOLDEN_LARGE_DIGESTS

    def test_units_outputs_match_the_recorded_digest(self, tmp_path):
        rings = unit_rings()
        assert len(rings) == 243
        digest = hashlib.sha256()
        for ring in rings:
            path = write(tmp_path, "ring.json", ring)
            for args in ([], ["--json"]):
                digest.update(repr(_run(["units", path] + args)).encode())
        assert digest.hexdigest() == GOLDEN_UNITS_DIGEST
