"""Problem-file parsing, run reports, exit codes, byte determinism."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import re
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cli_oracle
from hptmaster import cli

F = Fraction


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    doc = json.loads(out)
    assert doc["schema"] == "hptmaster/1"
    return doc


def test_validate_dgla_ok(fixture_dir, capsys):
    code, out, err = run(["validate", str(fixture_dir / "l3.json")], capsys)
    assert code == 0
    doc = report_of(out)
    assert doc["kind"] == "dgla"
    assert doc["verdict"]["passed"]
    assert "elapsed" in err


def test_cli_calls_share_one_parser(monkeypatch, fixture_dir, capsys):
    # a subcommand's arguments go straight to its subparser, anything else
    # through the whole parser: both belong to the one build_parser keeps
    parsers = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        recording)
    for _ in range(2):
        assert run(["validate", str(fixture_dir / "l3.json")], capsys)[0] == 0
    validate = cli.build_parser().subcommands["validate"]
    assert len(parsers) == 2 and all(p is validate for p in parsers)
    parsers.clear()
    for _ in range(2):
        with pytest.raises(SystemExit):
            cli.main(["bogus"])
    assert len(parsers) == 2 and all(p is cli.build_parser() for p in parsers)


def parse_outcome(parse, argv):
    """vars(Namespace), or the SystemExit code, with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["validate", "-h"], ["massey", "--help"],
    ["bogus"], ["bogus", "l3.json"], ["validate"],
    ["validate", "nope.json"], ["validate", "l3.json", "--bogus"],
    ["transfer", "--bogus", "l3.json"], ["validate", "l3.json", "extra"],
    ["transfer", "l3.json", "--max-word-length", "x"],
    ["transfer", "l3.json", "--check", "--max-word-length", "3"],
    ["validate", "--out", "report.json", "l3.json"],
    ["bv", "kahler_bv.json", "--pipeline", "bogus"],
    ["bv", "--pipeline", "flat-unit", "kahler_bv.json"],
    ["massey", "--seed", "3", "--theta", "zero"], ["massey", "--seed", "3"],
    ["massey", "--spheres", "3,5", "--order", "6"],
    ["validate", "--", "l3.json"], ["-h", "validate"],
], ids=lambda argv: " ".join(argv) or "no-args")
def test_direct_dispatch_parses_as_the_whole_parser(argv):
    assert (parse_outcome(cli.parse_args, argv)
            == parse_outcome(cli.build_parser().parse_args, argv))


def test_validate_broken_jacobi_exit_one(fixture_dir, capsys):
    code, out, _ = run(
        ["validate", str(fixture_dir / "broken_jacobi.json")], capsys)
    assert code == 1
    doc = report_of(out)
    assert not doc["verdict"]["jacobi"]
    assert doc["verdict"]["jacobi_witness"]


def test_validate_bad_rational_exit_two(fixture_dir, capsys):
    code, out, err = run(
        ["validate", str(fixture_dir / "bad_rational.json")], capsys)
    assert code == 2
    assert out == ""
    assert "bad rational" in err


@pytest.mark.parametrize("text, message", [
    ('{"basis": [["x", 0]], "differential": 5}',
     "differential: expected a list of rows"),
    ('{"basis": 3}', "basis: expected a list of rows"),
    ('{"basis": [["x", true]]}', "basis[0]: expected [label, integer degree]"),
    ('{"basis": [[["x"], 0]]}', "basis[0]: label must be a string"),
    ('{"basis": [["a", 0], ["b", 0], ["c", 0]], "differential": ["abc"]}',
     "differential[0]: expected [src, dst, coefficient]"),
    ('{"basis": [["x", 0]], "bracket": [[["x"], "x", "x", "1"]]}',
     "bracket[0]: label must be a string"),
    ('{"basis": [["x", 0]], "unit": ["x"], "product": []}',
     "unit: label must be a string"),
    ("[" * 100000 + "]" * 100000, "nested too deeply"),
    ('{"basis": [["x", 1%s]]}' % ("0" * 4300), "integer string conversion"),
    ('{"basis": [["x", 0], ["y", 1]], "differential": [["y", "x", 1%s]]}'
     % ("0" * 4300), "integer string conversion"),
    ('{"basis": [["x", 0], ["y", 1]], "differential": [["y", "x", '
     '"1e1000000"]]}', "differential[0]: bad rational '1e1000000'"),
    ('{"basis": [["x", 0], ["y", 1]], "differential": [["y", "x", "1_000"]]}',
     "differential[0]: bad rational '1_000'"),
    # x x = -x x for odd x, and [x, x] = -[x, x] when |x| - 1 is even
    ('{"basis": [["1", 0], ["x", 1], ["y", 2]], "unit": "1", '
     '"product": [["x", "x", "y", "1"]]}',
     "product: the square of 'x' must vanish"),
    ('{"basis": [["1", 0], ["x", 1], ["y", 1]], "product": [], '
     '"bracket": [["x", "x", "y", "1"]]}',
     "bracket: the square of 'x' must vanish"),
], ids=["differential-number", "basis-number", "bool-degree", "list-label",
        "string-row", "list-label-in-row", "list-unit", "deep-nesting",
        "long-int-degree", "long-int-coefficient", "exponent", "underscore",
        "odd-product-square", "even-shifted-bracket-square"])
def test_malformed_sections_exit_two_with_location(text, message, tmp_path,
                                                   capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert message in err


# the coefficient parser as it stood before it read ints, kept as the
# oracle of cli._ratio: the grammar check, then Fraction(text)
FRACTION_GRAMMAR = re.compile(r"[+-]?([0-9]+(/[0-9]+|\.[0-9]*)?|\.[0-9]+)")


def fraction_coefficient(text, where):
    if not FRACTION_GRAMMAR.fullmatch(str(text)):
        raise cli.InputError("%s: bad rational %r (expected an integer, a "
                             "decimal or p/q)" % (where, text))
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise cli.InputError("%s: bad rational %r (%s)" % (where, text, exc))


digit_runs = st.text("0123456789", max_size=5)
signs = st.sampled_from(["", "+", "-"])
coefficient_texts = st.one_of(
    # integers, p/q and decimals with signs and leading zeros; an empty
    # run gives "", "1/", "/2", "1.", ".5" or "."
    st.builds(lambda sign, a: sign + a, signs, digit_runs),
    st.builds(lambda sign, a, b: sign + a + "/" + b, signs, digit_runs,
              digit_runs),
    st.builds(lambda sign, a, b: sign + a + "." + b, signs, digit_runs,
              digit_runs),
    # near misses: exponents, underscores, spaces, stray signs
    st.text("0123456789+-./e_ ", max_size=8),
    st.sampled_from(["1/0", "0/0", "-0/0", "+3/000", "1e3", "1_000", " 1",
                     "-1.50", "1" + "0" * 4300, "1." + "5" * 4301,
                     "-2/" + "3" * 4301]),
    # JSON numbers and other values
    st.integers(-10 ** 6, 10 ** 6), st.floats(), st.booleans(), st.none())


@settings(max_examples=500, deadline=None)
@given(coefficient_texts)
def test_coefficient_parser_matches_fraction(text):
    try:
        want = fraction_coefficient(text, "x[0]")
    except cli.InputError as exc:
        with pytest.raises(cli.InputError) as refused:
            cli._ratio(text, "x[0]")
        assert str(refused.value) == str(exc)
        return
    p, q = cli._ratio(text, "x[0]")
    assert type(p) is int and type(q) is int and q > 0
    assert Fraction(p, q) == want == Fraction(str(text))


def test_true_after_one_is_a_bad_rational(tmp_path, capsys):
    # JSON true equals 1, so a memo of parsed coefficients keyed by any
    # JSON value would take it after a 1
    for first in ("1", 1):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "basis": [["x", 0], ["y", 1]],
            "differential": [["y", "x", first], ["y", "x", True]]}))
        code, out, err = run(["validate", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: differential[1]: bad rational True ")


report_strings = st.text() | st.sampled_from(
    ['"', "\\", "\x00", "\x1f\x7f", "\u2028", "\u00e9", "\U0001f600",
     "a\"b\\c\nd"])
report_values = st.recursive(
    st.none() | st.booleans() | st.integers() | report_strings,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(report_strings, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(report_values)
def test_report_writer_matches_json(value):
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)


@settings(max_examples=100, deadline=None)
@given(report_values, st.floats() | st.fractions()
       | st.dictionaries(st.integers() | st.floats() | st.booleans()
                         | st.none() | st.tuples(st.text()),
                         report_values, min_size=1))
def test_report_writer_refuses_other_types(value, other):
    with pytest.raises(TypeError):
        cli._dumps({"report": value, "other": [other]})


def test_non_utf8_input_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"basis": [["\xff", 0]]}')
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 2
    assert "not UTF-8" in err


LABELS = ["a", "b", "c"]
json_leaves = (st.none() | st.booleans() | st.integers(-3, 3)
               | st.floats(allow_nan=False, allow_infinity=False)
               | st.text(max_size=4) | st.sampled_from(LABELS))
json_values = st.recursive(
    json_leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=10)
coefficients = st.sampled_from(["1", "-1", "1/2", "2", 3])
ROW_WIDTHS = {"differential": 3, "bracket": 4, "product": 4, "delta": 3}


@st.composite
def well_formed_documents(draw):
    """Documents of the problem schema; their verdicts may still fail."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, unique=True))
    doc = {"basis": [[lab, draw(st.integers(-1, 2))] for lab in labels]}
    degrees = {"differential": -1, "bracket": 0}
    if draw(st.booleans()):
        degrees = {"differential": 1, "product": 0, "delta": -1}
        doc["unit"] = labels[0]
    cohomological = "delta" in degrees
    if draw(st.booleans()):
        doc["grading"] = draw(st.sampled_from(["homological",
                                               "cohomological"]))
        if (doc["grading"] == "cohomological") != cohomological:
            degrees = {key: -deg for key, deg in degrees.items()}
    deg = dict(doc["basis"])
    for key, shift in degrees.items():
        # rows of the right degree, so that some documents pass
        fits = [row for row in itertools.product(
                    labels, repeat=ROW_WIDTHS[key] - 1)
                if deg[row[-1]] == sum(deg[lab] for lab in row[:-1]) + shift]
        if fits:
            doc[key] = draw(st.lists(
                st.tuples(st.sampled_from(fits), coefficients)
                .map(lambda rc: list(rc[0]) + [rc[1]]), max_size=3))
    return doc


@st.composite
def damaged_documents(draw):
    """A schema document with one section, row or cell replaced."""
    doc = draw(well_formed_documents())
    key = draw(st.sampled_from(sorted(doc) + ["unit", "grading"]))
    value = doc.get(key)
    if isinstance(value, list) and value and draw(st.booleans()):
        row = draw(st.integers(0, len(value) - 1))
        if isinstance(value[row], list) and draw(st.booleans()):
            cell = draw(st.integers(0, len(value[row]) - 1))
            value[row][cell] = draw(json_values)
        else:
            value[row] = draw(json_values)
    else:
        doc[key] = draw(json_values)
    return doc


documents = well_formed_documents() | damaged_documents() | json_values


@settings(max_examples=300, deadline=None)
@given(documents)
def test_validate_fuzz_exit_code_contract(doc):
    # 0 and 1 come with a verdict in the report, 2 with a message and no
    # report; an exception escaping main would be a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["validate", path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    else:
        verdict = report_of(out.getvalue())["verdict"]
        assert verdict["passed"] == (code == 0)


def loaded(result):
    """A loaded problem as comparable data: kind, digest and structure."""
    kind, obj, digest = result
    if kind == "dgla":
        tables = (obj.bracket,)
        maps = (obj.d,)
    else:
        tables = (obj.multiply, obj.bracket)
        maps = (obj.d, obj.delta, obj.unit_index, obj.bracket_given)
    return (kind, digest, obj.space, maps,
            [(t.den, t.numerator_rows()) for t in tables])


@st.composite
def corrupted_documents(draw):
    """A schema document with at most one row of one section corrupted."""
    doc = draw(well_formed_documents())
    names = [name for name in ROW_WIDTHS if doc.get(name)]
    if not names:
        return doc
    rows = doc[draw(st.sampled_from(names))]
    pos = draw(st.integers(0, len(rows) - 1))
    row = rows[pos]
    fault = draw(st.sampled_from(["none", "not a list", "width", "label",
                                  "bad rational", "number", "true after 1"]))
    if fault == "not a list":
        rows[pos] = draw(st.sampled_from(["abc", "ab", 3, None, {"a": 1}]))
    elif fault == "width":
        rows[pos] = row[:-1] if draw(st.booleans()) else row + ["1"]
    elif fault == "label":
        row[draw(st.integers(0, len(row) - 2))] = draw(st.sampled_from(
            [["a"], [], 1, 0, 2.5, True, False, None, "zz", "c"]))
    elif fault == "bad rational":
        row[-1] = draw(st.sampled_from(
            ["1/0", "x", "1e3", "", " 1", "1_0", True, False, None, [1],
             {"a": "1"}, 1e300, float("nan")]))
    elif fault == "number":
        row[-1] = draw(st.sampled_from([2, -1, 0, 1.5, -0.25, 10 ** 20]))
    elif fault == "true after 1":
        first = draw(st.sampled_from([1, "1"]))
        rows[pos:pos] = [row[:-1] + [first], row[:-1] + [True]]
    return doc


@settings(max_examples=300, deadline=None)
@given(corrupted_documents())
def test_loader_matches_the_oracle(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        try:
            want = loaded(cli_oracle.load_problem(path))
        except cli.InputError as exc:
            with pytest.raises(cli.InputError) as refused:
                cli.load_problem(path)
            assert str(refused.value) == str(exc)
            return
        assert loaded(cli.load_problem(path)) == want


def test_parse_error_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"basis": [\n  ["x", 0],,\n]}')
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit_two(tmp_path, capsys):
    code, _, err = run(["validate", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert "cannot read" in err


def test_transfer_check_passes(fixture_dir, capsys):
    code, out, _ = run(
        ["transfer", str(fixture_dir / "l3.json"), "--check"], capsys)
    assert code == 0
    doc = report_of(out)
    assert doc["checks"]["master_equation"]
    assert doc["checks"]["sh_lie"]
    # the ternary operation survives on homology
    assert "arity_3" in doc["result"]["coderivation"]
    assert "l3" in doc["result"]["brackets"]
    assert "l2" not in doc["result"]["brackets"]


def test_transfer_rejects_truncation_and_kind(fixture_dir, capsys):
    code, _, err = run(
        ["transfer", str(fixture_dir / "l3.json"),
         "--max-word-length", "1"], capsys)
    assert code == 2
    code, _, err = run(
        ["transfer", str(fixture_dir / "kahler_bv.json")], capsys)
    assert code == 2
    assert "dg Lie" in err


@pytest.mark.parametrize("length", ["1", "0"])
def test_bv_rejects_truncation_below_two(fixture_dir, capsys, length):
    code, out, err = run(
        ["bv", str(fixture_dir / "kahler_bv.json"),
         "--max-word-length", length], capsys)
    assert code == 2
    assert out == ""
    assert "error: --max-word-length must be at least 2" in err


def test_transfer_byte_determinism(fixture_dir, tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run(
            ["transfer", str(fixture_dir / "l3.json"), "--check",
             "--output", str(out)], capsys)
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


GOLDEN_SHA256 = [
    (["bv", "--pipeline", "full", "kahler_bv.json"],
     "1339c794f4e53840f981a11f00cd78128e586e1a0e01f01601fb6640e61aa7a9"),
    (["bv", "--pipeline", "flat-unit", "unit_bv.json"],
     "76016701bc62c68238f52164d0f6c0b3e086e976d29d3a1a1f39793b7e057f53"),
    (["transfer", "--check", "l3.json"],
     "5e73b62e913934ced95fff3f1ca7ab9170c65c71475a2f73d75b64d31526a508"),
    (["massey"],
     "1e6064aec102cea0835b7c91782101e7751d3e619eb7391aec1b7792b5a48530"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_SHA256,
                         ids=["bv-full", "bv-flat-unit", "transfer-check",
                              "massey"])
def test_report_bytes_golden(argv, digest, fixture_dir, capsys):
    # the reports carry the input digest, not the path, so the bytes
    # depend only on the program and the fixture contents
    argv = [str(fixture_dir / a) if a.endswith(".json") else a for a in argv]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_transfer_l3_cubed_golden_at_length_six(fixture_dir, capsys):
    # three copies of the nonzero-l3 algebra at N = 6 (5,376 words): the
    # word layer's cup brackets, coderivations and compatibility check on
    # a size the smaller golden reports do not reach
    code, out, _ = run(["transfer", "--check", "--max-word-length", "6",
                        str(fixture_dir / "l3_cubed.json")], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "0039891ce2e8d0f1e5b5d77dd376cbed5863abece91794725b328f10ac706513")


def test_cohomological_grading_flip(tmp_path, capsys):
    # same dg Lie algebra presented cohomologically must validate
    doc = {
        "grading": "cohomological",
        "basis": [["x", 0], ["u", -1], ["v", 0]],
        "differential": [["u", "v", "1"]],
        "bracket": [["x", "u", "u", "2"], ["x", "v", "v", "2"]],
    }
    path = tmp_path / "cohom.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["validate", str(path)], capsys)
    assert code == 0
    assert report_of(out)["verdict"]["passed"]


def test_bracket_antisymmetry_canonicalized(tmp_path, capsys):
    # the same bracket entered in both orders must cancel out of order,
    # not double; entering only the swapped order must negate
    doc = {
        "basis": [["x", 0], ["y", 0], ["z", 0]],
        "bracket": [["y", "x", "z", "-1"]],
    }
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(doc))
    kind, g, _ = cli.load_problem(str(path))
    assert kind == "dgla"
    assert g.bracket_table == {(0, 1): {2: F(1)}}


def test_bv_full_pipeline(fixture_dir, capsys):
    code, out, _ = run(["bv", str(fixture_dir / "kahler_bv.json"),
                        "--max-word-length", "3"], capsys)
    assert code == 0
    doc = report_of(out)
    assert doc["axioms"]["passed"]
    assert doc["formality_predicate"]["passed"]
    assert doc["pipeline_report"]["passed"]
    assert doc["pipeline_report"]["tau_k_in_im_delta"]


def test_bv_flat_unit_pipeline(fixture_dir, capsys):
    code, out, _ = run(["bv", str(fixture_dir / "unit_bv.json"),
                        "--pipeline", "flat-unit"], capsys)
    assert code == 0
    doc = report_of(out)
    assert doc["pipeline_report"]["tau_k_avoids_unit"]


def test_bv_broken_axioms_exit_one(fixture_dir, capsys):
    code, out, _ = run(["bv", str(fixture_dir / "bad_bv.json")], capsys)
    assert code == 1
    doc = report_of(out)
    assert not doc["axioms"]["d_delta_commute"]
    assert "pipeline_report" not in doc


def test_massey_default_numbers(capsys):
    code, out, _ = run(["massey"], capsys)
    assert code == 0
    doc = report_of(out)
    assert doc["report"]["parameter_dimension"] == 6
    assert doc["report"]["automorphism_dimension"] == 5
    assert doc["report"]["witness"] == 4
    assert not doc["report"]["formal"]
    mc = doc["mc_equations"]
    assert mc["coordinates"] == ["a", "b"]
    assert any("*" in mono and len(mono.split("*")) == 5
               for poly in mc["equations"].values() for mono in poly)


def test_massey_zero_theta_formal(capsys):
    code, out, _ = run(["massey", "--theta", "zero"], capsys)
    assert code == 0
    doc = report_of(out)
    assert doc["report"]["formal"]
    assert doc["theta"] == {}


def test_massey_seeded_theta_deterministic(capsys):
    code, out1, _ = run(["massey", "--seed", "7"], capsys)
    assert code == 0
    _, out2, _ = run(["massey", "--seed", "7"], capsys)
    assert out1 == out2
    doc = report_of(out1)
    assert not doc["report"]["formal"]


def test_massey_seeded_theta_independent_of_hash_seed():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "hptmaster.cli", "massey", "--seed", "0"],
            env=env, capture_output=True, check=False)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_massey_general_wedge(capsys):
    code, out, _ = run(["massey", "--spheres", "3,3", "--order", "5"], capsys)
    assert code == 0
    doc = report_of(out)
    assert doc["free_lie"]["dimensions_by_length"]["5"] == 6
    assert not doc["free_lie"]["experimental_odd_generators"]


def test_massey_theta_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "theta.json"
    path.write_text("[1, 2]")
    code, out, err = run(["massey", "--theta", str(path)], capsys)
    assert code == 2
    assert "theta: expected an object" in err


@pytest.mark.parametrize("order", ["0", "-2"])
def test_massey_wedge_rejects_order_below_one(capsys, order):
    code, out, err = run(["massey", "--spheres", "3,5", "--order", order],
                         capsys)
    assert code == 2
    assert out == ""
    assert "error: --order must be at least 1" in err
    code, out, _ = run(["massey", "--spheres", "3,5", "--order", "1"],
                       capsys)
    assert code == 0
    doc = report_of(out)
    assert doc["order"] == 1
    assert doc["free_lie"]["dimensions_by_length"] == {"1": 2}


def _massey_refused_at_once(spheres, order):
    """Run massey in a child capped at 800 MB of address space, and check
    that it exits 2 in under a second with the free Lie table's error."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    cap = 800 << 20
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "hptmaster.cli", "massey", "--spheres",
         spheres, "--order", order],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        timeout=60)
    seconds = time.monotonic() - started
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert b"error: --order too large for --spheres" in proc.stderr
    assert seconds < 1


def test_massey_wedge_refuses_a_table_beyond_its_budget():
    # spheres 3,5 at order 2,500 once ended in a MemoryError traceback
    # under an 800 MB address-space cap; the size of the free Lie table is
    # bounded before it is built, so the call exits 2 at once
    _massey_refused_at_once("3,5", "2500")


def test_massey_wedge_refuses_a_table_beyond_its_time_budget():
    # 199 spheres of distinct dimensions at order 80 fit the memory
    # estimate but once took 18 s to build; the build's dict updates are
    # bounded too
    _massey_refused_at_once(",".join(map(str, range(2, 201))), "80")


def test_bv_file_without_a_unit_exits_two(tmp_path, capsys):
    # an empty basis has no element for the unit to be
    path = tmp_path / "empty.json"
    path.write_text('{"basis": [], "product": []}')
    for argv in (["validate"], ["bv"], ["bv", "--pipeline", "flat-unit"]):
        code, out, err = run(argv + [str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: unit: ")


def test_massey_refuses_flags_it_would_ignore(capsys):
    # --seed draws a theta that --theta also gives, and the other wedges
    # take no theta at all
    with pytest.raises(SystemExit) as refused:
        cli.main(["massey", "--seed", "3", "--theta", "zero"])
    assert refused.value.code == 2
    assert "--theta: not allowed with argument --seed" in (
        capsys.readouterr().err)
    for flags in (["--seed", "3"], ["--theta", "zero"]):
        code, out, err = run(["massey", "--spheres", "3,5"] + flags, capsys)
        assert code == 2
        assert out == ""
        assert "error: --theta and --seed apply only to --spheres 3,3,12" in err


def test_massey_bad_input_exit_two(capsys):
    code, _, _ = run(["massey", "--spheres", "1,3"], capsys)
    assert code == 2
    code, _, _ = run(["massey", "--order", "4"], capsys)
    assert code == 2
    code, _, _ = run(["massey", "--spheres", "three"], capsys)
    assert code == 2
