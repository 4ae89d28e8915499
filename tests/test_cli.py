import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tracegeo import QuadraticSurd, cli, errors, parabolic_lattice, reproduce
from tracegeo.errors import DomainError, ParseError, TracegeoError

from make_cli_corpus import CORPUS, raw_float_check
from make_cli_corpus import run as run_corpus_call
from test_invariants_k import TYPING_SYSTEMS

CORPUS_ENTRIES = json.loads(CORPUS.read_text())


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture(autouse=True)
def _json_results_hold_no_raw_float():
    """Walk every handler result bound for --json in this file, as the
    corpus replay does."""
    with raw_float_check():
        yield


# -- group-spec parsing --------------------------------------------------------


def test_parse_simple():
    spec = cli.parse_group_spec("A2")
    rs, degree, rel_path = spec
    assert [str(t) for t in rs.factors] == ["A2"]
    assert rs.torus_rank == 0
    assert degree == 1
    assert rel_path is None
    assert cli._render_spec(*spec) == "A2"


def test_parse_product_and_torus():
    spec = cli.parse_group_spec("D3xA1+T2")
    rs = spec[0]
    assert [str(t) for t in rs.factors] == ["D3", "A1"]
    assert rs.torus_rank == 2
    assert cli._render_spec(*spec) == "D3xA1+T2"


def test_parse_suffixes_any_order():
    a = cli.parse_group_spec("A1@res=3@relative=x.json")
    b = cli.parse_group_spec("A1@relative=x.json@res=3")
    assert a == b
    _, degree, rel_path = a
    assert degree == 3
    assert rel_path == "x.json"
    assert cli._render_spec(*a) == "A1@res=3@relative=x.json"


def test_parse_round_trip():
    for text in ("A2", "B3xA1", "A1xA1+T1", "D3xA1+T2", "A1@res=3",
                 "C4+T1@res=2", "A2@relative=d.json"):
        spec = cli.parse_group_spec(text)
        assert cli.parse_group_spec(cli._render_spec(*spec)) == spec


def test_parse_drops_unit_degree():
    assert cli._render_spec(*cli.parse_group_spec("A2@res=1")) == "A2"


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as info:
        cli.parse_group_spec("A2xZ9")
    assert "byte offset 3" in str(info.value)
    with pytest.raises(ParseError) as info:
        cli.parse_group_spec("A2+U1")
    assert "byte offset 3" in str(info.value)
    with pytest.raises(ParseError) as info:
        cli.parse_group_spec("A2@res=x")
    assert "byte offset 7" in str(info.value)
    for bad in ("", "xA1", "A2@res=2@res=3", "A2@frob=1", "A2@relative="):
        with pytest.raises(ParseError):
            cli.parse_group_spec(bad)


# A copy of the group-spec grammar's simple-type reader as it stood when
# the CLI kept its own: each name must read to the same type, or fail with
# the same error class, message and offset.
def _reference_read_type(text, offset=0):
    from tracegeo.root_datum import SimpleType
    rank = cli._read_int(text[1:], "type rank", offset=offset + 1)
    try:
        return SimpleType(text[:1], rank)
    except DomainError as exc:
        raise ParseError(str(exc), offset=offset) from exc


def _reference_factors(text):
    factors, pos = [], 0
    for chunk in text.split("x"):
        factors.append(_reference_read_type(chunk, pos))
        pos += len(chunk) + 1
    return tuple(factors)


TYPE_NAMES = ([f"{s}{r}" for s in "ABC" for r in range(1, 9)]
              + [f"D{r}" for r in range(2, 9)]
              + ["E6", "E7", "E8", "F4", "G2"]
              + ["x".join(f) for f in TYPING_SYSTEMS if len(f) > 1]
              + ["3B", "Z3", "A0", "E9", "A\u00b2", "A\u0663",
                 "A" + "7" * 5000, "A" + "x" * 50])


def _read_outcome(read):
    try:
        return read()
    except TracegeoError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


@pytest.mark.parametrize("text", TYPE_NAMES,
                         ids=[repr(t)[:16] for t in TYPE_NAMES])
def test_group_specs_read_types_as_the_reference_does(text):
    assert _read_outcome(lambda: cli.parse_group_spec(text)[0].factors) == \
        _read_outcome(lambda: _reference_factors(text))


@pytest.mark.parametrize("text", TYPE_NAMES,
                         ids=[repr(t)[:16] for t in TYPE_NAMES])
def test_simple_type_parse_reads_as_the_reference_does(text):
    from tracegeo.root_datum import SimpleType
    for offset in (0, 7):
        assert _read_outcome(lambda: SimpleType.parse(text, offset)) == \
            _read_outcome(lambda: _reference_read_type(text, offset))


# -- subcommands through main() ------------------------------------------------


def test_k_json_envelope(capsys):
    code, data = run_json(capsys, ["k", "A2", "--json"])
    assert code == 0
    assert data["schema"] == "1"
    assert data["command"] == "k"
    assert data["result"] == {"spec": "A2", "minorbit": 2, "pairs": 2,
                              "richardson_absolute": 2,
                              "richardson_relative": None,
                              "agreement": True}


def test_k_single_method(capsys):
    code, data = run_json(capsys, ["k", "A3", "--method", "pairs", "--json"])
    assert code == 0
    assert data["result"] == {"spec": "A3", "method": "pairs", "value": 3}


def test_k_degree_flag_overrides_suffix(capsys):
    code, data = run_json(capsys, ["k", "A1@res=2", "--degree", "3",
                                   "--method", "minorbit", "--json"])
    assert code == 0
    assert data["result"]["value"] == 3


def test_k_spec_names_the_degree_and_relative_path_used(tmp_path, capsys):
    code, data = run_json(capsys, ["k", "A1@res=2", "--degree", "3",
                                   "--json"])
    assert code == 0
    assert data["result"]["spec"] == "A1@res=3"
    assert data["result"]["minorbit"] == 3
    code, data = run_json(capsys, ["k", "A1@res=2", "--degree", "1",
                                   "--method", "minorbit", "--json"])
    assert data["result"] == {"spec": "A1", "method": "minorbit",
                              "value": 1}
    path = tmp_path / "so31.json"
    path.write_text(json.dumps({"simple_roots": [[1]],
                                "nilradical_dims": [2]}))
    code, data = run_json(capsys, ["k", "D2", "--relative", str(path),
                                   "--json"])
    assert code == 0
    assert data["result"]["spec"] == f"D2@relative={path}"
    assert cli.main(["k", "D2@res=2", "--relative", str(path)]) == 0
    assert capsys.readouterr().out.startswith(
        f"k invariants for D2@res=2@relative={path}:\n")


def test_k_relative_file(tmp_path, capsys):
    path = tmp_path / "so31.json"
    path.write_text(json.dumps({"simple_roots": [[1]],
                                "nilradical_dims": [2]}))
    code, data = run_json(capsys, ["k", f"D2@relative={path}", "--json"])
    assert code == 0
    assert data["result"]["richardson_relative"] == 2
    assert data["result"]["agreement"] is False
    # the flag route reaches the same datum
    code, data = run_json(capsys, ["k", "D2", "--relative", str(path),
                                   "--json"])
    assert data["result"]["richardson_relative"] == 2


@pytest.mark.parametrize("datum", [
    {"simple_roots": [[1]], "nilradical_dims": [1.5]},
    {"simple_roots": [[1]], "nilradical_dims": [True]},
    {"simple_roots": [[True]], "nilradical_dims": [2]},
    {"simple_roots": [[1]], "nilradical_dims": ["2"]}],
    ids=["float-dim", "bool-dim", "bool-root", "string-dim"])
def test_k_relative_file_wants_json_integers(tmp_path, monkeypatch, capsys,
                                             datum):
    # A short relative path, which the message quotes whole.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps(datum))
    assert cli.main(["k", "D2", "--relative", "bad.json", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bad.json: roots must be integer vectors "
                            "and dims integers\n")


def test_k_relative_file_refuses_an_integer_past_the_digit_limit(
        tmp_path, monkeypatch, capsys):
    # Python reads at most 4300 digits of an int from text.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.json").write_text(
        '{"simple_roots": [[%s]], "nilradical_dims": [1]}' % ("9" * 4301))
    assert cli.main(["k", "D2", "--relative", "big.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: big.json: an integer has too many "
                            "digits to read\n")


def test_k_report_nulls_a_guarded_relative_route(tmp_path, capsys):
    # 13 entries exceed the relative guard of 12: the report shows the
    # route as null, the single method exits 3 (resource)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"simple_roots": [[1]] * 13,
                                "nilradical_dims": [1] * 13}))
    code, data = run_json(capsys, ["k", "A3", "--relative", str(path),
                                   "--json"])
    assert code == 0
    assert data["result"] == {"spec": f"A3@relative={path}", "minorbit": 3,
                              "pairs": 3, "richardson_absolute": 3,
                              "richardson_relative": None,
                              "agreement": True}
    code = cli.main(["k", "A3", "--relative", str(path), "--method",
                     "richardson", "--json"])
    assert code == 3
    assert "relative data are limited to 12 entries; got 13" in \
        capsys.readouterr().err


def test_orbits_json(capsys):
    code, data = run_json(capsys, ["orbits", "C2", "--json"])
    assert code == 0
    assert data["result"] == [
        {"label": "(1,1,1,1)", "dim": 0, "flags": []},
        {"label": "(2,1,1)", "dim": 4, "flags": []},
        {"label": "(2,2)", "dim": 6, "flags": []},
        {"label": "(4)", "dim": 8, "flags": []},
    ]


def test_orbits_very_even_flag(capsys):
    code, data = run_json(capsys, ["orbits", "D4", "--json"])
    flagged = [r["label"] for r in data["result"] if r["flags"]]
    assert flagged == ["(2,2,2,2)*", "(4,4)*"]


def test_orbits_gl(capsys):
    code, data = run_json(capsys, ["orbits", "gl3", "--json"])
    assert [r["dim"] for r in data["result"]] == [0, 4, 6]


def test_parabolics_json(capsys):
    code, data = run_json(capsys, ["parabolics", "A2", "--json"])
    assert code == 0
    rows = data["result"]
    assert len(rows) == 13
    full = [r for r in rows if r["dim_V"] == 0]
    assert len(full) == 1 and full[0]["a_M_dim"] == 0
    borels = [r for r in rows if len(r["levi"]) == 0]
    assert len(borels) == 6
    assert all(r["a_M_dim"] == 2 for r in borels)


def test_discriminant_json(capsys):
    code, data = run_json(capsys, [
        "discriminant", "--matrix", '[["2/1", "0"], ["0", "3"]]',
        "--primes", "5", "--json"])
    assert code == 0
    assert data["result"] == {
        "value": "-1/6", "abs_inf": "1/6",
        "p_valuations": {"2": -1, "3": -1, "5": 0},
        "centralizer_dim": 2,
    }


def test_discriminant_with_a_large_prime_factor(capsys):
    # the value is -(p-1)^2/p with p - 1 = 2 * 500000003; trial division up
    # to the largest factor took 40 s here
    start = time.perf_counter()
    code, data = run_json(capsys, [
        "discriminant", "--matrix", '[["1000000007", 0], [0, 1]]', "--json"])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert data["result"]["p_valuations"] == {
        "2": 2, "500000003": 2, "1000000007": -1}


def test_discriminant_accepts_a_large_requested_prime(capsys):
    code, data = run_json(capsys, [
        "discriminant", "--matrix", "[[2, 0], [0, 3]]",
        "--primes", str(2 ** 61 - 1), "--json"])
    assert code == 0
    assert data["result"]["p_valuations"][str(2 ** 61 - 1)] == 0


def test_parabolics_count_limit_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(parabolic_lattice, "PARABOLIC_COUNT_LIMIT", 100)
    code, data = run_json(capsys, ["parabolics", "A3", "--json"])
    assert code == 0 and len(data["result"]) == 75
    assert cli.main(["parabolics", "B3", "--json"]) == 3
    assert capsys.readouterr().err == (
        "error: parabolic enumeration is limited to 100 subsets; "
        "B3 has more\n")


def test_parabolics_guard_counts_subsets_not_rank(capsys):
    code, data = run_json(capsys, ["parabolics", "x".join(["A1"] * 7),
                                   "--json"])
    assert code == 0 and len(data["result"]) == 3 ** 7
    assert cli.main(["parabolics", "A7", "--json"]) == 3
    assert capsys.readouterr().err == (
        "error: parabolic enumeration is limited to 65536 subsets; "
        "A7 has more\n")


def test_parabolics_refuses_the_suffixes_only_k_reads(capsys):
    # Parabolic subsets live in the split root datum; @res=1 is plain A2.
    for spec, suffix in (("A2@res=3", "@res="),
                         ("A1@relative=/nonexistent.json", "@relative="),
                         ("A2@relative=r.json@res=2", "@res=")):
        assert cli.main(["parabolics", spec]) == 2
        assert capsys.readouterr().err == \
            f"error: {suffix} does not apply to parabolics\n"
    assert cli.main(["parabolics", "A2@res=1"]) == 0
    assert capsys.readouterr().out.startswith("13 parabolic subsets for A2:\n")


def test_discriminant_that_cannot_be_factored_is_resource_error(capsys):
    # q is a product of two 100-bit primes and q - 1 = 2^4 * prime, so
    # the numerator (q-1)^2 factors and the denominator q exhausts the rho
    # budget
    q = 1207217343286418673499236026251 * 1159725981523800116308335181427
    code = cli.main(["discriminant", "--matrix", f'[["{q}", 0], [0, 1]]'])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ("error: cannot factor a 61-digit cofactor within "
                            "1048576 Pollard-Brent steps\n")


def test_a_long_cofactor_gets_fewer_rho_steps(capsys):
    # A step multiplies modulo the cofactor, so the budget shrinks with the
    # square of its size past 100 digits, and a 988-digit cofactor is
    # refused within seconds, not after 1048576 steps.
    start = time.perf_counter()
    code = cli.main(["discriminant", "--matrix", '[["1e999","0"],["0","3"]]'])
    assert time.perf_counter() - start < 10
    assert code == 3
    assert capsys.readouterr().err == (
        "error: cannot factor a 988-digit cofactor within 10807 "
        "Pollard-Brent steps\n")


def test_discriminant_reads_a_json_decimal_as_its_ratio(capsys):
    # An entry is read as typed: the JSON number 0.5 is exactly 1/2, and
    # true is no number.
    want = _outcome(capsys, ["discriminant", "--matrix",
                             '[["1/2", "0"], ["0", "2"]]', "--json"])
    assert want[0] == 0
    assert _outcome(capsys, ["discriminant", "--matrix",
                             "[[0.5, 0], [0, 2]]", "--json"]) == want
    assert cli.main(["discriminant", "--matrix", "[[true, 0], [0, 2]]"]) == 2
    assert capsys.readouterr().err == \
        "error: --matrix: [0][0] expects a number, got 'true'\n"


def test_index_json(capsys):
    code, data = run_json(capsys, ["index", "--n", "3", "--level", "2",
                                   "--json"])
    assert code == 0
    assert data["result"]["index"] == 168
    assert data["result"]["group"] == "sl"
    # The special linear group is the only one, so index takes no --group.
    assert cli.main(["index", "--group", "sl", "--n", "3",
                     "--level", "2"]) == 2
    assert capsys.readouterr().err == \
        "error: unrecognized arguments: --group sl\n"


def test_index_past_the_digit_limit_exits_3(capsys):
    assert cli.main(["index", "--n", "60", "--level", "1000"]) == 3
    assert capsys.readouterr().err == (
        "error: the index for n = 60 at level 1000 has about 10797 digits; "
        "indices are limited to 4300 digits\n")


# Python refuses int/str conversions past 4300 digits; each of these once
# ended in a ValueError traceback.  The CLI stops the string itself, so the
# outcome does not depend on the interpreter's limit.
HUGE = "7" * 5000
LONG_DIGIT_CALLS = [
    (["k", f"A2@res={HUGE}"], 2, "@res="),
    (["parabolics", f"A2@res={HUGE}"], 2, "@res="),
    (["k", "E8", "--degree", "9" * 4300], 2, "--degree"),
    (["levels", "check-prime-fixed", f"2,{HUGE}"], 3, "levels"),
    (["levels", "check-prime-fixed", "6", "--allowed", f"2,{HUGE}"], 3,
     "--allowed"),
    (["discriminant", "--matrix", "[[1, 0], [0, 2]]", "--primes", HUGE], 2,
     "--primes"),
    (["discriminant", "--matrix", f"[[{HUGE}, 0], [0, 3]]"], 2,
     "--matrix: [0][0]: at most 1000 digits are read; got 5000"),
    (["discriminant", "--matrix", '[[1, 0], [0, "1e5000"]]'], 2,
     "--matrix: [1][1]: at most 1000 digits are read; got 5001"),
    (["mellin-fp", "--spec", f'{{"t0": {HUGE}}}'], 2, "--spec"),
    (["orbits", f"gl{HUGE}"], 2, "gl<n>"),
    (["k", f"A{HUGE}"], 2, "type rank"),
    (["k", f"A2+T{HUGE}"], 2, "+T"),
    (["parabolics", "A2+T" + "9" * 20], 3, "root systems are limited"),
    (["index", "--n", HUGE, "--level", "2"], 2, "--n"),
    (["index", "--n", "2", "--level", HUGE], 3, "--level"),
    (["budget", "--k", HUGE], 2, "--k: at most 1000 digits are read; "
                                 "got 5000"),
    (["budget", "--k", f"1/{HUGE}"], 2, "--k: at most 1000 digits"),
    (["budget", "--k", "1", "--b-conj", HUGE], 2, "--b-conj"),
]


@pytest.mark.parametrize("argv,code,flag", LONG_DIGIT_CALLS,
                         ids=[f"{a[0]}-{f}" for a, _, f in LONG_DIGIT_CALLS])
def test_long_digit_strings_exit_cleanly_naming_the_flag(capsys, argv, code,
                                                         flag):
    assert cli.main(argv) == code
    assert capsys.readouterr().err.startswith(f"error: {flag}")


def test_digit_strings_are_ascii_decimal(capsys):
    for argv in (["k", "A2@res=\u00b2"], ["k", "A2", "--degree", "-1"],
                 ["levels", "check-prime-fixed", "2,,4"],
                 ["discriminant", "--matrix", "[[1]]", "--primes", "\u0663"],
                 ["orbits", "gl\u00b2"], ["k", "A\u00b2"],
                 ["k", "A2+T\u00b2"],
                 ["index", "--n", "\u00b2", "--level", "4"],
                 ["budget", "--k", "1", "--m-nonarch", "\u00b2"],
                 ["levels", "check-prime-fixed", "4", "--allowed", ""],
                 ["discriminant", "--matrix", "[[2, 0], [0, 3]]",
                  "--primes", ""]):
        assert cli.main(argv) == 2, argv
        assert "wants a nonnegative integer" in capsys.readouterr().err
    code, data = run_json(capsys, ["k", "A2@res=003", "--json"])
    assert code == 0 and data["result"]["spec"] == "A2@res=3"
    # leading zeros do not count toward Python's int/str digit limit
    code, data = run_json(capsys, ["k", "A2@res=" + "0" * 5000 + "3",
                                   "--json"])
    assert code == 0 and data["result"]["spec"] == "A2@res=3"


def test_levels_json(capsys):
    code, data = run_json(capsys, ["levels", "check-prime-fixed", "2,4,6",
                                   "--json"])
    assert code == 0
    assert data["result"]["ok"] is False
    assert data["result"]["offenders"] == [{"level": 6, "extra": [3]}]
    code, data = run_json(capsys, ["levels", "check-prime-fixed", "6,12",
                                   "--allowed", "2,3", "--json"])
    assert data["result"]["ok"] is True


def test_mellin_preset_exp(capsys):
    code, data = run_json(capsys, ["mellin-fp", "--preset", "exp",
                                   "--lambda", "2", "--json"])
    assert code == 0
    import math
    assert abs(float(data["result"]["finite_part"]) + math.log(2)) < 1e-8


def test_mellin_preset_sqrt(capsys):
    code, data = run_json(capsys, ["mellin-fp", "--preset", "sqrt", "--json"])
    import math
    assert abs(float(data["result"]["finite_part"])
               + 2 * math.sqrt(math.pi)) < 1e-7


def test_mellin_spec_samples(capsys):
    import math
    ts = [round(0.05 * i, 10) for i in range(1, 601)]
    coeffs = ["1", "-2", "2", "-4/3", "2/3", "-4/15", "4/45", "-8/315",
              "2/315"]
    spec = {
        "t0": 1.0,
        "decay": {"C": 1.1, "lambda": 2.0},
        "terms": [[i, c] for i, c in enumerate(coeffs)],
        "samples": [[t, math.exp(-2.0 * t)] for t in ts],
    }
    # sampled data cannot support the default quadrature tolerance
    code, data = run_json(capsys, ["mellin-fp", "--spec", json.dumps(spec),
                                   "--tol", "1e-6", "--json"])
    assert code == 0
    assert abs(float(data["result"]["finite_part"]) + math.log(2)) < 1e-3


def test_mellin_spec_preset_route(capsys):
    code, data = run_json(capsys, [
        "mellin-fp", "--spec", '{"preset": "exp", "lambda": 3.0}', "--json"])
    import math
    assert abs(float(data["result"]["finite_part"]) + math.log(3)) < 1e-8


_SAMPLES = [[1, 1], [2, 0.5]]


@pytest.mark.parametrize("spec,key", [
    ({"decay": {"C": "x", "lambda": 1}, "samples": _SAMPLES}, "decay.C"),
    ({"t0": "x", "preset": "sqrt"}, "t0"),
    ({"preset": "exp", "lambda": "x"}, "lambda"),
    ({"decay": {"C": 1, "lambda": 1}, "terms": [[0, 1], ["x", 1]],
      "samples": _SAMPLES}, "terms[1][0]"),
    ({"decay": {"C": 1, "lambda": 1}, "samples": [[1, 1], [2, "x"]]},
     "samples[1][1]"),
    ({"decay": {"C": 1, "lambda": 1}, "remainder_order": "x",
      "samples": _SAMPLES}, "remainder_order"),
    ({"decay": {"C": 1, "lambda": 1}, "samples": [[1, None], [2, 1]]},
     "samples[0][1]")],
    ids=["decay-C", "t0", "preset-lambda", "term-exponent", "sample-value",
         "remainder-order", "null-sample"])
def test_mellin_spec_number_is_a_parse_error_naming_the_key(capsys, spec,
                                                             key):
    code = cli.main(["mellin-fp", "--spec", json.dumps(spec)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: --spec: {key} expects a number")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,message", [
    (["mellin-fp", "--spec",
      json.dumps({"preset": "sqrt", "t0": "1/" + "0" * 5000})],
     "--spec: t0 expects a number, got '1/" + "0" * 37),
    (["budget", "--k", "1/" + "0" * 5000],
     "--k expects a number, got '1/" + "0" * 37),
    (["discriminant", "--matrix",
      json.dumps([["1/" + "0" * 5000, "0"], ["0", "3"]])],
     "--matrix: [0][0] expects a number, got '1/" + "0" * 37),
], ids=["spec-t0", "budget-k", "discriminant-matrix"])
def test_a_refused_long_input_is_quoted_in_part(capsys, argv, message):
    # The first 40 characters of the 5004-character quote, and its length.
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == \
        f"error: {message}... (5004 characters)\n"


@pytest.mark.parametrize("spec,message", [
    ("A2@frob=" + "1" * 4997,
     "unknown suffix 'frob=" + "1" * 34 + "... (5004 characters); "
     "expected res= or relative= (at byte offset 3)"),
    ("A2+T" + "x" * 5002,
     "+T wants a nonnegative integer, got '" + "x" * 39
     + "... (5004 characters) (at byte offset 4)"),
    ("A2@res=" + "x" * 5002,
     "@res= wants a nonnegative integer, got '" + "x" * 39
     + "... (5004 characters) (at byte offset 7)"),
], ids=["suffix", "torus", "res"])
def test_a_refused_long_group_spec_is_quoted_in_part(capsys, spec, message):
    assert cli.main(["k", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_LONG_NAME = "r" * 60 + ".json"


@pytest.mark.parametrize("name,content,message", [
    ("/nonexist" + "x" * 3000, None,
     "cannot read relative datum '/nonexist" + "x" * 30
     + "... (3011 characters): File name too long"),
    ("nonexist.json", None,
     "cannot read relative datum 'nonexist.json': No such file or directory"),
    (_LONG_NAME, "[1",
     "r" * 40 + "... (65 characters): invalid JSON: Expecting ',' "
     "delimiter (at byte offset 2)"),
    (_LONG_NAME, "[]",
     "r" * 40 + "... (65 characters): relative datum must be an object "
     "with keys simple_roots and nilradical_dims"),
    (_LONG_NAME, '{"simple_roots": [[1]], "nilradical_dims": [1.5]}',
     "r" * 40 + "... (65 characters): roots must be integer vectors and "
     "dims integers"),
], ids=["unreadable-long", "missing", "bad-json", "not-object", "not-ints"])
def test_a_refused_relative_path_is_quoted_in_part(tmp_path, monkeypatch,
                                                   capsys, name, content,
                                                   message):
    # The OS error's own text would repeat the path in full.
    monkeypatch.chdir(tmp_path)
    if content is not None:
        (tmp_path / name).write_text(content)
    assert cli.main(["k", f"A2@relative={name}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["k", f"A2@relative={_LONG_NAME}"],
                                  ["k", "A2", "--relative", _LONG_NAME]],
                         ids=["suffix", "flag"])
def test_a_non_utf8_relative_file_exits_2(tmp_path, monkeypatch, capsys,
                                          argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / _LONG_NAME).write_bytes(b"\xff\xfe{}")
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: " + "r" * 40 + "... (65 characters): "
                            "relative datum is not UTF-8 text (at byte "
                            "offset 0)\n")


def test_exit_codes_follow_the_error_class():
    codes = {errors.TracegeoError: 1, errors.DomainError: 2,
             errors.ParseError: 2, errors.ResourceLimitError: 3,
             errors.NumericError: 4, errors.DiagnosticsError: 4}
    assert set(codes) == {cls for cls in vars(errors).values()
                          if isinstance(cls, type)
                          and issubclass(cls, errors.TracegeoError)}
    for cls, code in codes.items():
        assert cls.exit_code == code
        assert errors.exit_code_for(cls("x")) == code, cls
    assert errors.exit_code_for(ValueError("x")) == 1


_HUGE_RATIO = "1" + "0" * 400 + "/3"


@pytest.mark.parametrize("argv,message", [
    (["--spec", json.dumps({"decay": {"C": 1, "lambda": 1},
                            "terms": [[0, "1e400"]], "samples": _SAMPLES})],
     "--spec: terms[0][1]: '1e400' lies outside the float range"),
    (["--spec", json.dumps({"decay": {"C": 1, "lambda": 1},
                            "terms": [[0, _HUGE_RATIO]],
                            "samples": _SAMPLES})],
     "--spec: terms[0][1]: '1" + "0" * 38
     + "... (405 characters) lies outside the float range"),
    (["--spec", '{"decay": {"C": 1e400, "lambda": 1}, '
                '"samples": [[1, 1], [2, 0.5]]}'],
     "--spec: decay.C: '1e400' lies outside the float range"),
    (["--spec", '{"preset": "exp", "lambda": 1e400}'],
     "--spec: lambda: '1e400' lies outside the float range"),
    (["--spec", '{"preset": "sqrt", "t0": 1e400}'],
     "--spec: t0: '1e400' lies outside the float range"),
    (["--spec", '{"decay": {"C": 1, "lambda": 1}, '
                '"samples": [[1, 1], [1e400, 0.5]]}'],
     "--spec: samples[1][0]: '1e400' lies outside the float range"),
    (["--spec", '{"decay": {"C": 1, "lambda": 1}, '
                '"samples": [[1, 1], [2, NaN]]}'],
     "--spec: samples[1][1] expects a number, got 'NaN'"),
    (["--preset", "exp", "--lambda", "inf"],
     "--lambda expects a number, got 'inf'"),
    (["--preset", "exp", "--lambda", "1e400"],
     "--lambda: '1e400' lies outside the float range"),
    (["--preset", "sqrt", "--t0", "inf"], "--t0 expects a number, got 'inf'"),
    (["--preset", "exp", "--lambda", "2", "--t0", "1e400"],
     "--t0: '1e400' lies outside the float range"),
], ids=["term-coefficient", "term-ratio", "decay-C", "preset-lambda",
        "spec-t0", "sample-t", "sample-nan", "lambda-inf", "lambda-1e400",
        "t0-inf", "t0-1e400"])
def test_mellin_non_finite_number_exits_2_naming_it(capsys, argv, message):
    code = cli.main(["mellin-fp", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["--preset", "exp", "--lambda", "1e300"],
     "--lambda: decay rate is too large for a finite expansion coefficient, "
     "got 1e+300"),
    (["--spec", '{"preset": "exp", "lambda": 1e300}'],
     "--spec: lambda: decay rate is too large for a finite expansion "
     "coefficient, got 1e+300"),
], ids=["flag", "spec"])
def test_mellin_huge_lambda_exits_2_naming_it(capsys, argv, message):
    code = cli.main(["mellin-fp", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["--preset", "exp", "--lambda", "1e-305"],
     "--lambda: decay rate must be at least 1e-300, got 1e-305"),
    (["--spec", '{"preset": "exp", "lambda": "1e-305"}'],
     "--spec: lambda: decay rate must be at least 1e-300, got 1e-305"),
], ids=["flag", "spec"])
def test_mellin_tiny_lambda_exits_2_naming_it(capsys, argv, message):
    code = cli.main(["mellin-fp", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"
    # the smallest rate accepted is computed: -log 1e-300
    assert cli.main(["mellin-fp", "--preset", "exp", "--lambda", "1e-300"]) \
        == 0
    assert capsys.readouterr().out == "finite part = 690.775527898\n"


# -- the one number grammar ----------------------------------------------------
#
# budget --k, mellin-fp --lambda, the --spec key lambda and the entries of
# discriminant --matrix read numbers by one reader.  Each accepted spelling must act as its a/b form; each refused
# one must exit 2 naming the flag or key.
SPELLINGS = {
    "2/1": ["2", "+2", "02", "2.", "2.0", "2e0", "2E+0", "20e-1", ".2e1",
            "0.2E1", "200e-2", "4/2", "+4/2", "002/001"],
    "1/2": ["0.5", ".5", "5e-1", "50E-2", "0.50", "2/4"],
    "3/8": ["0.375", "375e-3", "3.75e-1", "6/16"],
    "1/10": ["0.1", "1e-1", ".1", "0.10000"],
}
ACCEPTED = [(s, ratio) for ratio, spellings in SPELLINGS.items()
            for s in spellings]
REFUSED = ["", " 2", "2 ", "1_0", "1.5_0", "0x10", "inf", "-inf", "nan",
           "Infinity", "1e", "e3", ".", "2..0", "1e2.5", "1/2/3", "1.5/2",
           "1/0", "1/-2", "--2", "\u0663", "\uff12", "1e-5000", "1e5000",
           "9" * 1001, "1e" + "9" * 1001]


def _outcome(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr()


@pytest.mark.parametrize("spelling,ratio", ACCEPTED,
                         ids=[s for s, _ in ACCEPTED])
def test_a_spelling_acts_as_its_ratio(capsys, spelling, ratio):
    assert _outcome(capsys, ["budget", f"--k={spelling}", "--json"]) == \
        _outcome(capsys, ["budget", f"--k={ratio}", "--json"])
    want = _outcome(capsys, ["mellin-fp", "--preset", "exp",
                             f"--lambda={ratio}", "--json"])
    assert want[0] == 0
    specs = [{"preset": "exp", "lambda": spelling}]
    matrices = [[[spelling, "0"], ["0", "3"]]]
    try:
        float(json.loads(spelling))
        # a JSON number too, which the spec reads from the text typed
        specs.append(f'{{"preset": "exp", "lambda": {spelling}}}')
        matrices.append(f'[[{spelling}, 0], [0, 3]]')
    except ValueError:
        pass
    for spec in specs:
        text = spec if isinstance(spec, str) else json.dumps(spec)
        assert _outcome(capsys, ["mellin-fp", "--spec", text, "--json"]) \
            == want, text
    det = _outcome(capsys, ["discriminant", "--matrix",
                            f'[["{ratio}", "0"], ["0", "3"]]', "--json"])
    assert det[0] == 0
    for matrix in matrices:
        text = matrix if isinstance(matrix, str) else json.dumps(matrix)
        assert _outcome(capsys, ["discriminant", "--matrix", text,
                                 "--json"]) == det, text
    assert _outcome(capsys, ["mellin-fp", "--preset", "exp",
                             f"--lambda={spelling}", "--json"]) == want


@pytest.mark.parametrize("spelling", REFUSED,
                         ids=[repr(s)[:20] for s in REFUSED])
def test_a_refused_spelling_exits_2_naming_its_flag(capsys, spelling):
    for argv, name in (
            (["budget", f"--k={spelling}"], "--k"),
            (["mellin-fp", "--preset", "exp", f"--lambda={spelling}"],
             "--lambda"),
            (["mellin-fp", "--spec",
              json.dumps({"preset": "exp", "lambda": spelling})],
             "--spec: lambda"),
            (["discriminant", "--matrix",
              json.dumps([[spelling, "0"], ["0", "3"]])],
             "--matrix: [0][0]")):
        code, captured = _outcome(capsys, argv)
        assert (code, captured.out) == (2, ""), argv
        assert captured.err.startswith(f"error: {name} expects a number, "
                                       "got ") or \
            captured.err.startswith(f"error: {name}: at most 1000 digits "
                                    "are read; got "), captured.err


@pytest.mark.parametrize("argv,message", [
    (["discriminant", "--matrix", "[[[1],0],[0,2]]"],
     "--matrix: [0][0] expects a number, got a JSON array"),
    (["discriminant", "--matrix", '[[1,0],[0,{"a":2}]]'],
     "--matrix: [1][1] expects a number, got a JSON object"),
    (["mellin-fp", "--spec", '{"preset":"exp","lambda":{"a":1.5}}'],
     "--spec: lambda expects a number, got a JSON object"),
    (["mellin-fp", "--spec", '{"preset":"exp","lambda":[1]}'],
     "--spec: lambda expects a number, got a JSON array"),
], ids=["matrix-array", "matrix-object", "spec-object", "spec-array"])
def test_a_nested_entry_is_named_by_its_kind(capsys, argv, message):
    code, captured = _outcome(capsys, argv)
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_the_digit_limit_counts_the_exponent(capsys):
    # 1e999 spells a 1000-digit numerator and 1e-999 a 1000-digit
    # denominator; one more power of ten is refused before it is built.
    # The budget then exits 4: beta or lambda lies outside the float range.
    for k in ("1e999", "1e-999", "0.5e1000", "100e-997"):
        assert cli.main(["budget", "--k", k]) == 4, k
        assert capsys.readouterr().err.endswith(" lies outside the float "
                                                "range\n"), k
    for k, n in (("1e1000", 1001), ("1e-1000", 1001), ("0.5e1001", 1001),
                 ("100e-1000", 1001), ("12.5e-1000", 1002),
                 ("1e" + "0" * 5000 + "1000", 1001), ("1e99999999", 100000000)):
        assert cli.main(["budget", "--k", k]) == 2, k
        assert capsys.readouterr().err == \
            f"error: --k: at most 1000 digits are read; got {n}\n"
    # zero is zero whatever its exponent
    assert cli.main(["budget", "--k", "0e99999"]) == 2
    assert capsys.readouterr().err == "error: k must be positive\n"


def test_mellin_requires_exactly_one_source(capsys):
    assert cli.main(["mellin-fp"]) == 2
    capsys.readouterr()
    assert cli.main(["mellin-fp", "--preset", "exp", "--lambda", "1",
                     "--spec", "{}"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,extra,message", [
    (["--preset", "sqrt"], ["--lambda", "3"],
     "--lambda does not apply to --preset sqrt"),
    (["--spec", '{"preset": "sqrt"}'], ["--lambda", "3"],
     "--lambda does not apply to --spec"),
    (["--spec", '{"preset": "sqrt"}'], ["--t0", "5"],
     "--t0 does not apply to --spec; give t0 in the spec"),
    (["--spec", '{"preset": "exp", "lambda": 2}'], ["--t0", "1"],
     "--t0 does not apply to --spec; give t0 in the spec"),
], ids=["sqrt-lambda", "spec-lambda", "spec-t0", "spec-t0-default"])
def test_mellin_refuses_a_flag_its_source_does_not_use(capsys, argv, extra,
                                                       message):
    assert cli.main(["mellin-fp", *argv]) == 0
    capsys.readouterr()
    assert cli.main(["mellin-fp", *argv, *extra]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_mellin_lying_decay_exits_4(capsys):
    import math
    ts = [round(0.05 * i, 10) for i in range(1, 601)]
    spec = {
        "decay": {"C": 0.0001, "lambda": 5.0},
        "terms": [[0, 1.0]],
        "samples": [[t, math.exp(-t)] for t in ts],
    }
    code = cli.main(["mellin-fp", "--spec", json.dumps(spec)])
    capsys.readouterr()
    assert code == 4


def test_mellin_zero_tolerance_is_domain_error(capsys):
    code = cli.main(["mellin-fp", "--preset", "exp", "--lambda", "2",
                     "--tol", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv,needle", [
    (["mellin-fp", "--preset", "exp", "--lambda", "2", "--tol", "-1e-3"],
     "tolerance"),
    (["mellin-fp", "--preset", "exp", "--lambda", "-2e0"], "decay rate"),
    (["mellin-fp", "--preset", "exp", "--lambda", "2", "--t0", "-1E-1"],
     "positive"),
    (["budget", "--k", "-1e-3"], "k must be"),
    (["budget", "--k", "1", "--C2", "-1/2"], "C2"),
    (["budget", "--k", "1", "--eps", "-.5"], "epsilon"),
], ids=["tol-exponent", "lambda-exponent", "t0-exponent", "k-exponent",
        "C2-fraction", "eps-decimal"])
def test_negative_values_reach_the_domain_check(capsys, argv, needle):
    # A negative number is a value, in exponent and fraction form too; the
    # domain check names what is wrong, not argparse's "expected one
    # argument".
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert needle in captured.err
    assert "expected one argument" not in captured.err


@pytest.mark.parametrize("argv,option", [
    (["mellin-fp", "--preset", "exp", "--lambda", "2", "--t0=-0.1"], "--t0"),
    (["mellin-fp", "--preset", "sqrt", "--t0", "0"], "--t0"),
    (["mellin-fp", "--preset", "exp", "--lambda", "-2"], "--lambda"),
    (["mellin-fp", "--spec", '{"preset": "sqrt", "t0": -1}'],
     "--spec: t0 must be positive, got -1.0"),
    (["mellin-fp", "--spec", '{"preset": "sqrt", "t0": 0}'],
     "--spec: t0 must be positive, got 0.0"),
], ids=["t0-exp", "t0-sqrt", "lambda", "spec-t0-negative", "spec-t0-zero"])
def test_mellin_domain_error_names_the_option(capsys, argv, option):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option}")


def test_budget_json(capsys):
    code, data = run_json(capsys, ["budget", "--k", "1", "--json"])
    assert code == 0
    result = data["result"]
    assert result["beta"] == "0.618033988749895"
    assert result["exponents"]["e_spec"] == "-1/1"
    assert result["exponents"]["e1"] == "-1/1"
    assert result["exponents"]["e2"] == "-10/9"
    assert result["all_ok"] is True
    assert result["a_exponent"] == 0


def test_budget_float_tiny_c2(capsys):
    code, data = run_json(capsys, ["budget", "--k", "2.5", "--C2", "1e-300",
                                   "--json"])
    assert code == 0
    assert data["result"]["beta"] == "0.4"


HUGE = "1" + "0" * 400  # 10^400, written out


@pytest.mark.parametrize("argv,code,message", [
    # 1e400 is the exact 10^400, so it fails as the written-out HUGE does
    (["--k", "1e400"], 4, "beta: 1e-400 lies outside the float range"),
    (["--k", "nan"], 2, "--k expects a number, got 'nan'"),
    (["--k", "1", "--cprime", "inf"], 2,
     "--cprime expects a number, got 'inf'"),
], ids=["k-overflow", "k-nan", "cprime-inf"])
def test_budget_non_finite_input_is_named(capsys, argv, code, message):
    assert cli.main(["budget", *argv, "--json"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_budget_zero_k_is_named(capsys):
    # beta_max accepts k = 0 and returns beta = 1 > 0, so the error must
    # blame k, not beta; a negative k is refused by the same domain, not
    # by beta_max's "nonnegative"
    for k in ("0", "-1"):
        code = cli.main(["budget", "--k", k, "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: k must be positive\n"


def test_budget_tiny_exact_c2_is_positive(capsys):
    code, data = run_json(capsys, ["budget", "--k", "1", "--C2", "1/" + HUGE,
                                   "--json"])
    assert code == 0
    assert data["result"]["beta"] == "1"
    assert data["result"]["all_ok"] is True


def test_budget_surd_prints_from_the_exact_value(capsys):
    # beta is about 0.4 although both of its terms are near 10^300
    code, data = run_json(capsys, ["budget", "--k", "5/2",
                                   "--C2", "1/1" + "0" * 300, "--json"])
    assert code == 0
    assert data["result"]["beta"] == "0.4"
    assert data["result"]["exponents"]["e1"] == "-5/2"


def test_budget_surd_with_a_large_discriminant(capsys):
    # d = 4*10^200 + 1 is far too large to factor, and the surd never needs
    # to; the run must not die
    code, data = run_json(capsys, ["budget", "--k", "1",
                                   "--Cn", "1" + "0" * 100, "--json"])
    assert code == 0
    assert data["result"]["beta"] == "1e+100"
    assert data["result"]["exponents"]["e1"] == "-1/1"


def test_budget_surd_outside_the_float_range_is_numeric_error(capsys):
    # beta is about 10^-400: it must not print as 0, nor raise OverflowError
    code = cli.main(["budget", "--k", HUGE, "--json"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == \
        "error: beta: 1e-400 lies outside the float range\n"


def test_budget_lambda_overflow_is_numeric_error(capsys):
    # The exact chain runs to the end; printing is the float edge.  For
    # k = 1e300, beta is about 1e-300 and lambda about 1.1e600; for
    # k = 1e308, beta is already below the normal float range.
    for k, value in (("1e300", "lambda: 1.11111111111111e+600"),
                     ("1e308", "beta: 1e-308")):
        assert cli.main(["budget", "--k", k, "--json"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {value} lies outside the float range\n"


def _budget_json(e1: str, beta: str, lam: str) -> str:
    return ('{\n  "schema": "1",\n  "command": "budget",\n  "result": {\n'
            f'    "beta": "{beta}",\n    "lambda": "{lam}",\n'
            '    "exponents": {\n      "e_spec": "-1/1",\n'
            f'      "e1": "{e1}",\n      "e2": "-10/9"\n    }},\n'
            '    "all_ok": true,\n    "a_exponent": 0\n  }\n}\n')


@pytest.mark.parametrize("argv,out", [
    # once all_ok False: the float 0.1 is not 1/10
    (["--eps", "0.1"],
     "beta = 0.618033988749895\nlambda = 1.79781554305544\n"
     "exponents: e_spec = -1/1, e1 = -1/1, e2 = -10/9\nall_ok: True\n"
     "a_exponent = 0\n"),
    # once "e1": "-inf" beside all_ok true: C4 Cn^2 overflowed as a float
    (["--Cn", "1e160", "--json"],
     _budget_json("-1/1", "1e+160", "1.11111111111111e-160")),
    # once exit 2, "beta must be positive": hypot gave inf and inf/inf NaN
    (["--C2", "1e200", "--C4", "1e200", "--Cn", "1e200", "--json"],
     _budget_json("-1/1", "1e+200", "1.11111111111111e-200")),
], ids=["eps-decimal", "Cn-1e160", "all-1e200"])
def test_budget_decimal_inputs_are_exact(capsys, argv, out):
    assert cli.main(["budget", "--k", "1", *argv]) == 0
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("decimal,ratio", [
    (["--k", "1", "--eps", "0.1"], ["--k", "1", "--eps", "1/10"]),
    (["--k", "2.5", "--json"], ["--k", "5/2", "--json"]),
    (["--k", "2.5", "--C2", "0.3", "--json"],
     ["--k", "5/2", "--C2", "3/10", "--json"]),
], ids=["eps", "k", "k-C2"])
def test_budget_decimal_prints_the_bytes_of_its_ratio(capsys, decimal, ratio):
    outcomes = []
    for argv in (decimal, ratio):
        code = cli.main(["budget", *argv])
        outcomes.append((code, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0


def test_budget_float_pin_prints_exact_exponents(capsys):
    # The corpus's "budget --k 2.5 --C2 0.3 --json" call, in full: once the
    # float path printed e_spec and e1 as "-2.5" and e2 as
    # "-2.77777777777778".
    assert cli.main(["budget", "--k", "2.5", "--C2", "0.3", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "schema": "1",\n  "command": "budget",\n  "result": {\n'
        '    "beta": "0.382448021318727",\n'
        '    "lambda": "7.26315112887672",\n'
        '    "exponents": {\n      "e_spec": "-5/2",\n      "e1": "-5/2",\n'
        '      "e2": "-25/9"\n    },\n    "all_ok": true,\n'
        '    "a_exponent": 0\n  }\n}\n')


def test_budget_rational_inputs(capsys):
    code, data = run_json(capsys, ["budget", "--k", "1", "--C2", "2",
                                   "--eps", "1/2", "--json"])
    assert code == 0
    assert data["result"]["beta"] == "1/2"
    assert data["result"]["lambda"] == "4/1"


# -- output bytes --------------------------------------------------------------

# Six corpus calls replayed under this file's name; their bytes are the
# corpus entry's.
RAW_FLOAT_CALLS = {
    "parabolics-B3": ["parabolics", "B3", "--json"],
    "parabolics-A4": ["parabolics", "A4", "--json"],
    "parabolics-A1xB2": ["parabolics", "A1xB2", "--json"],
    "k-product": ["k", "D4xA1+T1@res=2", "--json"],
    "orbits-gl4-human": ["orbits", "gl4"],
    "index": ["index", "--n", "4", "--level", "360", "--json"],
}


@pytest.mark.parametrize("name", RAW_FLOAT_CALLS)
def test_stdout_bytes_are_pinned(name):
    argv = RAW_FLOAT_CALLS[name]
    [entry] = [e for e in CORPUS_ENTRIES if e["argv"] == argv]
    assert run_corpus_call(argv) == entry


def _fmt_reference(x):
    """The walk main ran over every result before one json.dumps did it."""
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return f"{x:.15g}"
    if isinstance(x, dict):
        return {str(k): _fmt_reference(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_fmt_reference(v) for v in x]
    if isinstance(x, QuadraticSurd):
        return _fmt_reference(float(x))
    raise TypeError(f"cannot serialize {type(x).__name__}")


_LEAVES = [0, -7, 10 ** 400, -(10 ** 40), True, False, None, "",
           "h\u00e9llo \u2211 \u2028 \"q\" \\ \U0001d53d", "\u65e5\u672c",
           Fraction(-3, 4), Fraction(5), Fraction(0), Fraction(-10 ** 30, 7),
           QuadraticSurd(1, 1, 2), QuadraticSurd(Fraction(-1, 3), 2, 5)]


def _nesting(rng, depth=0):
    if depth == 3 or rng.random() < 0.3:
        return rng.choice(_LEAVES)
    items = [_nesting(rng, depth + 1) for _ in range(rng.randrange(4))]
    kind = rng.randrange(3)
    if kind == 0:
        return {f"k{i}\u00e9": v for i, v in enumerate(items)}
    return items if kind == 1 else tuple(items)


def test_one_json_walk_matches_the_fmt_rebuild():
    rng = random.Random(18)
    nestings = [[], {}, (), [[], {}, ()], *_LEAVES]
    nestings += [_nesting(rng) for _ in range(300)]
    for x in nestings:
        assert json.dumps(x, indent=2, default=cli._scalar) == \
            json.dumps(_fmt_reference(x), indent=2), x
    assert cli._scalar(0.1) == _fmt_reference(0.1) == "0.1"
    for unknown in (1j, {1, 2}, b"x"):
        name = type(unknown).__name__
        with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
            json.dumps({"x": [unknown]}, indent=2, default=cli._scalar)


_COMMANDS = ("{k,orbits,parabolics,discriminant,index,levels,mellin-fp,"
             "budget,reproduce}")
# Python 3.13 keeps the trailing "..." on the choices line.
_TOP_USAGE = f"usage: tracegeo [-h]\n                {_COMMANDS}" + (
    " ...\n" if sys.version_info >= (3, 13) else "\n                ...\n")

# argv -> (exit code, stdout, stderr) of one `python -m tracegeo` process
# in an 80-column terminal.  Help follows the terminal width, so no corpus
# entry holds it; usage errors are corpus entries (`nosuch`, `k`).
HELP_PINS = {
    "top-help": (["-h"], 0, _TOP_USAGE + f"""
Command-line front end.

positional arguments:
  {_COMMANDS}
    k                   decay invariant of a group spec
    orbits              nilpotent orbits of a classical type
    parabolics          all parabolic root subsets of a group spec
    discriminant        Weyl discriminant of a rational matrix
    index               index of a principal congruence subgroup
    levels              level-set predicates
    mellin-fp           finite part of a normalized Mellin transform
    budget              error-exponent budget feasibility
    reproduce           run every stated-value check end to end

options:
  -h, --help            show this help message and exit
""", ""),
    "k-help": (["k", "-h"], 0, """\
usage: tracegeo k [-h] [--json] [--relative FILE] [--degree N]
                  [--method {pairs,richardson,minorbit}]
                  spec

positional arguments:
  spec                  group spec, e.g. "A2" or "D3xA1+T2@res=2"

options:
  -h, --help            show this help message and exit
  --json                emit a versioned JSON envelope
  --relative FILE       JSON file {simple_roots, nilradical_dims}; overrides
                        @relative=
  --degree N            restriction-of-scalars degree; overrides @res=
  --method {pairs,richardson,minorbit}
                        single method instead of the full report
""", ""),
    "orbits-help": (["orbits", "-h"], 0, """\
usage: tracegeo orbits [-h] [--json] type

positional arguments:
  type        simple type "B3" or general linear "gl4"

options:
  -h, --help  show this help message and exit
  --json      emit a versioned JSON envelope
""", ""),
    "parabolics-help": (["parabolics", "-h"], 0, """\
usage: tracegeo parabolics [-h] [--json] spec

positional arguments:
  spec

options:
  -h, --help  show this help message and exit
  --json      emit a versioned JSON envelope
""", ""),
    "discriminant-help": (["discriminant", "-h"], 0, """\
usage: tracegeo discriminant [-h] [--json] --matrix MATRIX [--primes PRIMES]

options:
  -h, --help       show this help message and exit
  --json           emit a versioned JSON envelope
  --matrix MATRIX  JSON rows of numbers, each a JSON number or a string such
                   as "1/2" or "0.25"
  --primes PRIMES  extra primes for valuations, e.g. 2,3
""", ""),
    "index-help": (["index", "-h"], 0, """\
usage: tracegeo index [-h] [--json] --n N --level LEVEL

options:
  -h, --help     show this help message and exit
  --json         emit a versioned JSON envelope
  --n N
  --level LEVEL
""", ""),
    "levels-help": (["levels", "-h"], 0, """\
usage: tracegeo levels [-h] {check-prime-fixed} ...

positional arguments:
  {check-prime-fixed}

options:
  -h, --help           show this help message and exit
""", ""),
    "levels-check-help": (["levels", "check-prime-fixed", "-h"], 0, """\
usage: tracegeo levels check-prime-fixed [-h] [--json] [--allowed ALLOWED]
                                         levels

positional arguments:
  levels             comma list of levels, e.g. 2,4,8

options:
  -h, --help         show this help message and exit
  --json             emit a versioned JSON envelope
  --allowed ALLOWED  comma list of allowed primes
""", ""),
    "mellin-fp-help": (["mellin-fp", "-h"], 0, """\
usage: tracegeo mellin-fp [-h] [--json] [--preset {exp,sqrt}] [--lambda LAM]
                          [--t0 T0] [--tol TOL] [--spec SPEC]

options:
  -h, --help           show this help message and exit
  --json               emit a versioned JSON envelope
  --preset {exp,sqrt}
  --lambda LAM         decay rate for --preset exp
  --t0 T0              split point / expansion validity (default 1)
  --tol TOL
  --spec SPEC          JSON {terms, t0, decay:{C,lambda}, samples|preset}
""", ""),
    "budget-help": (["budget", "-h"], 0, """\
usage: tracegeo budget [-h] [--json] --k K [--C2 C2] [--C4 C4] [--Cn CN]
                       [--eps EPS] [--cprime CPRIME] [--b-conj B_CONJ]
                       [--m-nonarch M_NONARCH]

options:
  -h, --help            show this help message and exit
  --json                emit a versioned JSON envelope
  --k K
  --C2 C2
  --C4 C4
  --Cn CN
  --eps EPS
  --cprime CPRIME
  --b-conj B_CONJ
  --m-nonarch M_NONARCH
""", ""),
    "reproduce-help": (["reproduce", "-h"], 0, """\
usage: tracegeo reproduce [-h] [--json]

options:
  -h, --help  show this help message and exit
  --json      emit a versioned JSON envelope
""", ""),
}


@pytest.mark.parametrize("name", HELP_PINS)
def test_help_and_usage_errors_are_pinned(name):
    argv, code, out, err = HELP_PINS[name]
    proc = subprocess.run([sys.executable, "-m", "tracegeo", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, COLUMNS="80"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


# A call builds only its subcommand's parser; these argv must parse, print
# help or fail exactly as under the parser with every subcommand.
PARSER_CALLS = [[name, "-h"] for name in cli._SUBCOMMANDS] + [
    ["levels", "check-prime-fixed", "-h"], ["k"], ["k", "A2", "--json"],
    ["k", "A2", "--method", "x"], ["k", "A2", "--degree", "2",
                                   "--relative", "r.json"],
    ["orbits", "B3", "--bogus"], ["parabolics"], ["discriminant"],
    ["index", "--n", "3"], ["index", "--n", "3", "--level", "4",
                            "--group", "gl"],
    ["levels"], ["levels", "nosuch"], ["levels", "check-prime-fixed"],
    ["levels", "check-prime-fixed", "2,4", "--allowed", "2"],
    ["mellin-fp", "--lambda", "x"], ["mellin-fp", "--preset", "exp",
                                     "--lambda", "-1/2"],
    ["budget"], ["budget", "--k", "-1", "--b-conj", "2"],
    ["reproduce", "--inject-fault", "k_sl4"], ["reproduce", "extra"],
]


def _parse_outcome(parser, argv, capsys):
    try:
        outcome = vars(parser.parse_args(argv))
    except ParseError as exc:
        outcome = ("error", str(exc))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("argv", PARSER_CALLS, ids=" ".join)
def test_one_subcommand_parser_acts_as_the_full_parser(capsys, argv):
    single = _parse_outcome(cli._build_parser(argv[0]), argv, capsys)
    assert single == _parse_outcome(cli._build_parser(), argv, capsys)


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "tracegeo", "k", "A2",
                           "--json"], capture_output=True, text=True)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["result"]["pairs"] == 2


class _ClosedPipe:
    """A stdout whose reader has gone away, backed by a real descriptor."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv", [["parabolics", "A2", "--json"],
                                  ["parabolics", "A2"]])
def test_closed_pipe_exits_quietly(argv, tmp_path, monkeypatch, capsys):
    with open(tmp_path / "out", "w") as f:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(f.fileno()))
        assert cli.main(argv) == 0
        # stdout now points at devnull, so the flush at exit is harmless
        assert os.path.samestat(os.fstat(f.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def test_closed_pipe_subprocess():
    # About 2.6 MB of JSON; the reader keeps 10 bytes and closes the pipe.
    proc = subprocess.Popen([sys.executable, "-m", "tracegeo", "parabolics",
                             "B4", "--json"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(10) == b'{\n  "schem'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


@pytest.fixture(scope="module")
def console_script(tmp_path_factory):
    """Install this checkout into a temporary prefix, offline, and return
    the path of its ``tracegeo`` console script and the environment to run
    it in. Plain setuptools does the install, so neither ``wheel`` nor a
    network is needed, and nothing is written into the source tree."""
    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parents[1]
    prefix = tmp_path_factory.mktemp("install")
    lib, bin_dir = prefix / "lib", prefix / "bin"
    proc = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "egg_info", "--egg-base", str(prefix),
         "build", "--build-base", str(prefix / "build"),
         "install", "--single-version-externally-managed",
         "--record", str(prefix / "record.txt"),
         "--install-lib", str(lib), "--install-scripts", str(bin_dir)],
        cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(lib), env.get("PYTHONPATH")]))
    return bin_dir / "tracegeo", env


def test_console_script(console_script):
    script, env = console_script
    proc = subprocess.run([script, "index", "--n", "2", "--level", "4"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "48" in proc.stdout


def test_fault_injection_fails_and_names_the_check(monkeypatch, capsys):
    # One wrong decay invariant, on A3 only, fails exactly the check that
    # reads it.
    true_value = reproduce.k_min_orbit

    def wrong_on_a3(g):
        return true_value(g) + (str(g.absolute) == "A3")

    monkeypatch.setattr(reproduce, "k_min_orbit", wrong_on_a3)
    code = cli.main(["reproduce", "--json"])
    out = capsys.readouterr().out
    assert code == 1
    data = json.loads(out)
    assert data["result"]["all_ok"] is False
    failing = [c["name"] for c in data["result"]["checks"] if not c["ok"]]
    assert failing == ["k_special_linear"]


def test_budget_check_catches_a_slope_off_by_ten_to_the_minus_30(monkeypatch):
    # beta + 10^-30 still agrees with the golden ratio to 1e-12; only the
    # exact quadratic identity can tell the two apart
    exact = reproduce.beta_max
    monkeypatch.setattr(reproduce, "beta_max",
                        lambda *args: exact(*args) + Fraction(1, 10 ** 30))
    ok, _, _, actual = reproduce._check_budget()
    assert ok is False
    assert "exact-e1" in actual
