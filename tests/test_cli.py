import argparse
import hashlib
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

import dcubed
from dcubed.cli import main
from dcubed.freealg import MAX_TERMS
from dcubed.parsing import format_algebra

from conftest import DEGREE_ONE, NON_DIAGONAL_MAPS, PRESET_NAMES, quadratic_map


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_diff_first_order(capsys):
    code, out, _ = run(capsys, "diff", "-k", "1", "x1")
    assert code == 0
    assert out.strip() == "dx1"


@pytest.mark.parametrize("k, expr, flags, expected, lines", [
    ("3", "x1", (), 0, ["0", "status: member", "witness: (zero element)"]),
    ("1", "x1 x2", (), 1, ["dx1 * x2 + dx2 * x1",
                           "status: not_member_at_bound",
                           "residual: dx1 * x2 + dx2 * x1",
                           "detail: irreducible remainder at grade 1, word degree 1"]),
    ("2", "x1 x2", ("--size-cap", "1"), 3, [
        "dx1 (*) dx2 * q + dx2 (*) dx1 * q + d2x1 * x2 + d2x2 * x1",
        "status: bound_exceeded",
        "detail: spanning set for grade 2, word degree 0 exceeds the size cap 1"]),
    ("1", "y1", (), 2, ["error: unknown name 'y1' (at position 0)"]),
    ("1", "d(x1", (), 2, ["error: expected ')' (at position 4)"]),
], ids=["member", "not-member", "inconclusive", "unknown-name", "unclosed"])
def test_diff_mod_ideal_text(capsys, k, expr, flags, expected, lines):
    # the result, then the verdict as member prints it; an expression that
    # does not parse prints one error line instead
    code, out, err = run(capsys, "diff", "-k", k, expr, "--mod-ideal", *flags)
    assert code == expected
    assert (out + err).splitlines() == lines


D3_VERDICT = ["status: member", "witness:",
              "  (-1 - q) * [1] dx_d2x(1,2) [1]",
              "  (-1) * [1] d2x_dx(1,2) [1]"]


def test_diff_third_order_of_word(capsys):
    code, out, _ = run(capsys, "diff", "-k", "3", "x1 x2", "--mod-ideal",
                       "--preset", "commutative")
    assert code == 0
    assert out.splitlines()[1:] == D3_VERDICT


def test_diff_mod_ideal_prints_the_result_before_the_oracle(capsys, tmp_path):
    # the generator table of m(x^i) = (x1 + x2)^4 I passes MAX_TERMS when the
    # oracle first builds it, after the result is out
    entry = " ".join(["(x1 + x2)"] * 4)
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({"n": 2, "xi_entries": [
        [[entry, "0"], ["0", entry]], [[entry, "0"], ["0", entry]]]}))
    code, out, err = run(capsys, "diff", "--config", str(config), "--mod-ideal", "dx1")
    assert code == 3
    assert out == "d2x1\n"
    assert err == f"error: a product holds 8192 terms, more than MAX_TERMS = {MAX_TERMS}\n"


def test_diff_mod_ideal_latex(capsys):
    # member has no latex form: its text lines follow the latex result
    code, out, _ = run(capsys, "diff", "-k", "3", "x1 x2", "--mod-ideal",
                       "--format", "latex")
    assert code == 0
    assert out.splitlines() == [
        r"-dx^{1}\otimes d^{2}x^{2}\,\left(1 + q\right) "
        r"- dx^{2}\otimes d^{2}x^{1}\,\left(1 + q\right) "
        r"- d^{2}x^{1}\otimes dx^{2} - d^{2}x^{2}\otimes dx^{1}", *D3_VERDICT]


@pytest.mark.parametrize("k, expr, flags, expected", [
    ("3", "x1 x2", (), 0),
    ("1", "x1", (), 1),
    ("3", "x1 x2", ("--size-cap", "1"), 3),
])
def test_diff_mod_ideal_json_is_one_document(capsys, k, expr, flags, expected):
    # the result as diff prints it, and the verdict as member prints it
    code, out, _ = run(capsys, "diff", "-k", k, expr, "--mod-ideal", *flags,
                       "--format", "json")
    assert code == expected
    doc = json.loads(out)
    assert sorted(doc) == ["membership", "result"]
    _, result, _ = run(capsys, "diff", "-k", k, expr, "--format", "json")
    assert doc["result"] == json.loads(result)
    _, text, _ = run(capsys, "diff", "-k", k, expr)
    member_code, member, _ = run(capsys, "member", text.strip(), *flags,
                                 "--format", "json")
    assert member_code == expected
    assert doc["membership"] == json.loads(member)


def _joined(items, separators, size):
    """Text of 1 to `size` items, a separator drawn before each but the first."""
    rest = st.lists(st.tuples(st.sampled_from(separators), items), max_size=size - 1)
    return st.tuples(items, rest).map(lambda t: t[0] + "".join(s + i for s, i in t[1]))


def _sums(factors, size=3):
    """Expression text by the README grammar: a sum of up to `size` terms,
    each up to `size` factors, joined by juxtaposition, `*` or a tensor sign."""
    return _joined(_joined(factors, [" ", " * ", " (*) ", " ⊗ "], size), [" + ", " - "], size)


def _signed(factors):
    return st.tuples(st.sampled_from(["", "-"]), factors).map("".join)


_index = st.sampled_from("12")
_grade_zero = st.sampled_from(["2", "1/2", "q", "[3]_q"]) | _index.map("x{}".format)
_coefficients = _sums(_signed(_grade_zero), size=2)
# at most two letters, so that d^3 of an expression stays at grade <= 7
EXPRESSIONS = _sums(_signed(
    _grade_zero | _index.map("dx{}".format) | _index.map("d2x{}".format)
    | _coefficients.map("d({})".format) | _coefficients.map("({})".format))) \
    .filter(lambda e: e.count("d") <= 2)


@seed(11)
@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(PRESET_NAMES), st.sampled_from("123"), EXPRESSIONS)
def test_diff_mod_ideal_is_diff_then_member(capsys, preset, k, expr):
    # capsys is read after every call, so no output crosses examples
    flags = ("--preset", preset, "-n", "2")
    code, diff, err = run(capsys, "diff", "-k", k, *flags, "--", expr)
    mod_code, mod, mod_err = run(capsys, "diff", "-k", k, "--mod-ideal", *flags, "--", expr)
    if code != 0:  # no result: the same error, and no verdict
        assert (mod_code, mod, mod_err) == (code, diff, err)
        assert code in (2, 3)
        return
    member_code, member, _ = run(capsys, "member", *flags, "--", diff.strip())
    assert mod_code == member_code and mod_code in (0, 1, 3)
    assert mod.splitlines() == diff.splitlines() + member.splitlines()
    # reduce prints the residual member names, or one error: line for a
    # verdict it cannot reach
    reduce_code, reduced, reduce_err = run(capsys, "reduce", *flags, "--", diff.strip())
    if reduce_code == 0:
        residual = [line for line in member.splitlines() if line.startswith("residual: ")]
        assert reduced == (residual[0][len("residual: "):] if residual else "0") + "\n"
        assert member_code in (0, 1) and reduce_err == ""
    else:
        assert reduce_code == member_code == 3 and reduced == ""
        assert reduce_err.startswith("error: ") and len(reduce_err.splitlines()) == 1
    json_flags = (*flags, "--format", "json")
    doc_code, doc, _ = run(capsys, "diff", "-k", k, "--mod-ideal", *json_flags, "--", expr)
    assert doc_code == mod_code
    _, result, _ = run(capsys, "diff", "-k", k, *json_flags, "--", expr)
    _, verdict, _ = run(capsys, "member", *json_flags, "--", diff.strip())
    assert json.loads(doc) == {"result": json.loads(result),
                               "membership": json.loads(verdict)}


def test_expression_with_leading_minus_after_double_dash(capsys):
    # argparse reads "-x1" as an option unless "--" ends the options first
    code, out, _ = run(capsys, "diff", "--", "-x1")
    assert code == 0
    assert out.strip() == "-dx1"
    with pytest.raises(SystemExit) as exc:
        main(["diff", "-x1"])
    assert exc.value.code == 2
    assert "required: expr" in capsys.readouterr().err


def test_diff_latex_format(capsys):
    code, out, _ = run(capsys, "diff", "--format", "latex", "x1")
    assert code == 0
    assert out.strip() == r"dx^{1}"


def test_diff_json_format(capsys):
    code, out, _ = run(capsys, "diff", "--format", "json", "x1")
    assert code == 0
    assert json.loads(out) == [{"letters": [[1, 1]],
                                "coefficient": [{"word": [], "scalar":
                                                 {"a": "1", "b": "0"}}]}]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "diff", "x1 +")
    assert code == 2
    assert "error:" in err


def test_unknown_preset_exit_code(capsys):
    code, _, err = run(capsys, "diff", "--preset", "nonsense", "x1")
    assert code == 2


def test_member_generator_combination(capsys):
    code, out, _ = run(capsys, "member",
                       "dx1 (*) dx2 - q dx2 (*) dx1", "--preset", "commutative")
    assert code == 0
    assert "status: member" in out
    assert "dx_dx(1,2)" in out


def test_member_non_member(capsys):
    code, out, _ = run(capsys, "member", "dx1", "--preset", "commutative")
    assert code == 1
    assert "status: not_member_at_bound" in out
    assert "residual: dx1" in out


def test_member_json(capsys):
    code, out, _ = run(capsys, "member", "d2x1", "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "not_member_at_bound"


def test_member_inconclusive_with_tiny_cap(capsys):
    code, out, _ = run(capsys, "member", "x1 * (dx1 (*) dx2 - q dx2 (*) dx1)",
                       "--preset", "commutative", "--size-cap", "1")
    assert code == 3


@pytest.mark.parametrize("length", [6, 8])
def test_deep_right_word_is_a_member_at_once(capsys, length):
    # d2x1 * dx_dx(1,2) * u: on a right-only map the word u reduces against
    # the letter system (4, 0); the whole (4, |u|) system passes the size cap
    word = [1 + i % 3 for i in range(length)]
    u = " ".join(f"x{i}" for i in word)
    started = time.perf_counter()
    code, out, _ = run(capsys, "member", "--preset", "commutative", "-n", "3",
                       f"d2x1 dx1 dx2 {u} - q d2x1 dx2 dx1 {u}")
    assert time.perf_counter() - started < 1
    assert code == 0
    assert out.splitlines() == [
        "status: member", "witness:",
        "  (1) * [d2x1] dx_dx(1,2) [" + "*".join(f"x{i}" for i in word) + "]"]


def test_reduce_commutative(capsys):
    # a member at n = 2, witnessed by dx_dx(1,2) and dx_dx(2,1) together
    code, out, _ = run(capsys, "reduce", "dx1 (*) dx2", "--preset", "commutative")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "reduce", "dx1 (*) dx2 + d2x1",
                       "--preset", "commutative", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"letters": [[2, 1]],
                                "coefficient": [{"word": [], "scalar":
                                                 {"a": "1", "b": "0"}}]}]


QUADRATIC = {"n": 2, "xi_entries": [[["x1 x1", "0"], ["0", "x1 x1"]],
                                    [["x2 x2", "0"], ["0", "x2 x2"]]]}
REDUCE_EXPRS = ("dx1 (*) dx2", "dx1 dx2 dx1 dx2", "d2x1 dx2 x1 x2")


@pytest.mark.parametrize("expr", REDUCE_EXPRS
                         + ("dx1 dx1 - q dx1 dx1 (x1 + x1 x1)",))
@pytest.mark.parametrize("session", ["commutative", "scalar-twist", "constant",
                                     "quadratic"])
def test_reduce_is_zero_exactly_for_members(capsys, tmp_path, session, expr):
    if session == "quadratic":
        # the degree-2 map takes the bounded path; a word bound of 0 keeps
        # its systems small
        path = tmp_path / "quadratic.json"
        path.write_text(json.dumps(QUADRATIC))
        flags = ("--config", str(path), "--word-bound", "0")
    else:
        flags = ("--preset", session)
    member_code, _, _ = run(capsys, "member", expr, *flags)
    code, out, _ = run(capsys, "reduce", expr, *flags)
    assert code == 0
    assert (out.strip() == "0") == (member_code == 0)
    # the normal form is its own normal form
    code, again, _ = run(capsys, "reduce", out.strip(), *flags)
    assert code == 0 and again == out


def test_reduce_inconclusive_with_tiny_cap(capsys):
    code, out, err = run(capsys, "reduce", "dx1 dx2 dx1 dx2",
                         "--preset", "commutative", "--size-cap", "1")
    assert code == 3
    assert out == ""
    assert err == ("error: spanning set for grade 4, word degree 0 "
                   "exceeds the size cap 1\n")


def test_verify_all_suites(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--preset", "commutative",
                       "--suite", "all", "--max-word-len", "1",
                       "--report", str(report_path))
    assert code == 0
    assert "all checks passed" in out
    data = json.loads(report_path.read_text())
    assert data["summary"]["passed"] is True
    assert data["preset"] == "commutative"


def test_verify_reports_are_deterministic(capsys, tmp_path):
    paths, outs = [], []
    for run_idx in (1, 2):
        path = tmp_path / f"report{run_idx}.json"
        code, out, _ = run(capsys, "verify", "--preset", "scalar-twist",
                           "--suite", "d2-binomial", "--seed", "42",
                           "--max-word-len", "1", "--report", str(path))
        assert code == 0
        paths.append(path)
        outs.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert outs[0] == outs[1]


def test_seed_belongs_to_verify(capsys):
    # only verify samples, so only verify takes --seed
    with pytest.raises(SystemExit) as exc:
        main(["member", "dx1", "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    code, out, _ = run(capsys, "verify", "--suite", "d3", "--seed", "42",
                       "--max-word-len", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 42


# sha256 of `verify --format json` stdout; a change that alters witnesses on
# purpose measures and pins these again
VERIFY_JSON_SHA256 = {
    ("commutative", 2): "490bb587c4f158642732b69c16892f00c05430b81d4d67a952573b1dbb1c8f05",
    ("scalar-twist", 2): "354136f9e9554bb73eff5e666c78fb5ada192ea6c961ce2d13ce804852d5b150",
    ("constant", 2): "8df86851094be1ac4fbd709330ff68994c40497efbac1886fedb687a81097943",
    ("commutative", 3): "39a8a465244f9b96cfce749d679dc88f539b7b58f1755bd897f193a502354b0b",
}


@pytest.mark.parametrize("preset, n", VERIFY_JSON_SHA256)
def test_verify_json_is_pinned(capsys, preset, n):
    code, out, _ = run(capsys, "verify", "--preset", preset, "-n", str(n),
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_SHA256[(preset, n)]


# sha256 of `member --format json` stdout, with its exit code, for queries
# whose parts hold several blocks or whose grade meets several systems
MEMBER_JSON_SHA256 = {
    # commutative: two failing blocks in one part, residual d2x1 * (x1 + x2)
    ("d2x1 x1 + d2x1 x2", False):
        (1, "0d465e4bfe21d9dbcb8072bce337353e97aa4a6b747f15de4b1f4ece681353c0"),
    # a member block and a failing one in one part, residual d2x1 * (1 + x1)
    ("dx1 dx1 x2 + d2x1 x1 + d2x1", False):
        (1, "427c7976835a0f84c3634121bbf86b8bee28a7408bc1c01fa304bf83e0c2907d"),
    # the witness interleaves words by column index
    ("dx1 dx2 x2 - q dx2 dx1 x2 + dx2 dx1 x1 - q dx1 dx2 x1 + dx1 dx1 x1", False):
        (0, "908172ad335e723510d69a906f4b9f8301338b82eebf5bd19cc038b4f1c0fa20"),
    # DEGREE_ONE, not right-only: word degrees 0 and 1 of grade 2, both
    # members, then a failing word degree 1 whose residual keeps its word
    ("dx1 dx2 - q dx2 dx1 + dx2 dx2 x1", True):
        (0, "b4a63985b9fd6d1eee1bdba74ce1217f00f8692fa330f3caf92c0280edfd39bf"),
    ("dx1 dx2 - q dx2 dx1 + dx1 dx1 x2", True):
        (1, "6ee9db61f84c80942597fee5d1a5da3fab3383f69466790c9b822d0b68c9af88"),
}


@pytest.mark.parametrize("query, degree_one", MEMBER_JSON_SHA256)
def test_member_json_is_pinned(capsys, tmp_path, query, degree_one):
    flags = ()
    if degree_one:
        path = tmp_path / "degree-one.json"
        path.write_text(json.dumps({"n": 2, "xi_entries": DEGREE_ONE}))
        flags = ("--config", str(path))
    code, out, _ = run(capsys, "member", query, "--format", "json", *flags)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        MEMBER_JSON_SHA256[query, degree_one]


def test_config_file_roundtrip(capsys, tmp_path):
    commutative_entries = [
        [[f"x{i}" if j == k else "0" for k in (1, 2)] for j in (1, 2)]
        for i in (1, 2)]
    cfg = {"n": 2, "xi_entries": commutative_entries}
    path = tmp_path / "session.json"
    path.write_text(json.dumps(cfg))
    code, out_custom, _ = run(capsys, "diff", "--config", str(path), "-k", "2",
                              "x1 x2")
    assert code == 0
    code, out_preset, _ = run(capsys, "diff", "--preset", "commutative",
                              "-k", "2", "x1 x2")
    assert code == 0
    assert out_custom == out_preset


def test_config_rejects_bad_entries(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "xi_entries": [[["dx1", "0"]]]}))
    code, _, err = run(capsys, "diff", "--config", str(path), "x1")
    assert code == 2


def test_config_unknown_key(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "preset": "commutative", "bogus": 1}))
    code, _, err = run(capsys, "diff", "--config", str(path), "x1")
    assert code == 2
    assert "bogus" in err


MEMBER = ("member", "dx1 dx2 x1 - q dx2 dx1 x1")
REDUCE = ("reduce", "dx1 dx2 dx1 dx2")


@pytest.mark.parametrize("argv, bounds, expected", [
    (MEMBER, {"word_bound": None, "size_cap": None}, 0),
    (MEMBER, {"word_bound": 0}, 0),  # a graded map never reads the word bound
    (MEMBER, {"size_cap": 1}, 3),
    (REDUCE, {"word_bound": 0}, 0),
    (REDUCE, {"size_cap": 1}, 3),
])
def test_config_bounds_reach_the_oracle(capsys, tmp_path, argv, bounds, expected):
    # a null bound keeps its default; a set one is the one the oracle uses
    path = tmp_path / "session.json"
    path.write_text(json.dumps({"preset": "commutative", "bounds": bounds}))
    code, _, _ = run(capsys, *argv, "--config", str(path))
    assert code == expected


@pytest.mark.parametrize("word_bound, expected", [(1, 0), (0, 1)])
def test_config_word_bound_reaches_the_bounded_path(capsys, tmp_path, word_bound,
                                                    expected):
    # dx_dx(1,1) times x2: its one column has a right word of length 1
    path = tmp_path / "quadratic.json"
    path.write_text(json.dumps({**QUADRATIC, "bounds": {"word_bound": word_bound}}))
    code, _, _ = run(capsys, "member", "dx1 dx1 x2 - q dx1 dx1 (x1 x2 + x1 x1 x2)",
                     "--config", str(path))
    assert code == expected


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_word_bound_leaves_graded_verify_unchanged(capsys, preset):
    argv = ("verify", "--preset", preset, "-n", "2", "--format", "json")
    code, plain, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--word-bound", "0") == (code, plain, "")
    assert code == 0


@pytest.mark.parametrize("session", [(preset,) for preset in PRESET_NAMES]
                         + [("scalar-twist", "--twist", "0")],
                         ids=[*PRESET_NAMES, "scalar-twist-0"])
def test_word_bound_leaves_graded_member_unchanged(capsys, session):
    # the zero map of twist 0 is graded too: a member with a right word is
    # one whether or not a word bound would cut that word off
    argv = ("member", "--preset", *session, "dx1 dx2 x1")
    code, out, err = run(capsys, *argv)
    assert run(capsys, *argv, "--word-bound", "0") == (code, out, err)
    assert code == 0 and out.endswith("[x1]\n")


def test_scalar_twist_flag(capsys):
    code, out, _ = run(capsys, "diff", "--preset", "scalar-twist",
                       "--twist", "2", "-k", "1", "x1 x1")
    assert code == 0
    # with twist 2: D_1(x1 x1) = x1 + 2 x1 = 3 x1
    assert out.strip() == "dx1 * 3*x1"


def test_deep_nesting_exit_code(capsys):
    code, _, err = run(capsys, "diff", "(" * 400 + "x1" + ")" * 400)
    assert code == 2
    assert "nested deeper" in err


def test_diff_long_word(capsys):
    code, out, _ = run(capsys, "diff", " ".join(["x1"] * 1500))
    assert code == 0
    assert out.startswith("dx1 * 1500*x1*x1")


def test_verify_json_text_and_exit_code_agree(capsys):
    argv = ("verify", "--suite", "d3", "--size-cap", "5", "--preset", "commutative")
    code_text, text, _ = run(capsys, *argv)
    code_json, out, _ = run(capsys, *argv, "--format", "json")
    assert code_text == code_json == 3
    assert "d3: INCONCLUSIVE" in text
    data = json.loads(out)
    (suite,) = data["suites"]
    assert suite["counts"]["inconclusive"] > 0
    assert suite["passed"] is False
    assert data["summary"]["passed"] is False


def refuses_latex(err, command):
    """argparse's last line for `command --format latex`.  How the choices
    are quoted differs between Python versions."""
    prefix = f"dcubed {command}: error: argument --format: invalid choice: 'latex' "
    last = err.splitlines()[-1]
    assert last.startswith(prefix)
    assert re.fullmatch(r"\(choose from '?text'?, '?json'?\)", last[len(prefix):])


@pytest.mark.parametrize("flags", [
    ("member", "dx1 (*) dx2", "--grade-bound", "1"),
    ("member", "dx1 (*) dx2", "--word-bound", "x"),
    ("verify", "--suite", "bogus"),
    ("verify", "--max-word-len", "-1"),
    ("verify", "--max-word-len", "7"),
    ("reduce", "dx1 (*) dx2", "--order", "asc"),
    ("reduce", "dx1 (*) dx2", "--max-steps", "5"),
    ("member", "dx1", "--format", "latex"),
    ("verify", "--format", "latex"),
])
def test_bad_flags_exit_code(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(list(flags))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if "--max-word-len" in flags:  # out of its argparse choices
        assert "argument --max-word-len: invalid choice" in err
    if "latex" in flags:  # member and verify print text or json
        refuses_latex(err, flags[0])


@pytest.mark.parametrize("argv", [
    ("diff", "x1 + 1/0"),
    ("member", "1/0 dx1"),
    ("diff", "--preset", "scalar-twist", "--twist", "1/0", "x1"),
    ("diff", "x1", "--twist", "1/0"),
])
def test_zero_denominator_exit_code(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "zero denominator" in err


@pytest.mark.parametrize("doc", [
    {"n": True},
    {"seed": True},
    {"n": 2.0},
    {"twist": 5, "preset": "scalar-twist"},
    {"bounds": {"size_cap": "big"}},
    {"bounds": {"size_cap": True}},
    {"bounds": {"size_cap": 0}},
    {"bounds": {"word_bound": "x"}},
    {"bounds": {"word_bound": -1}},
    {"bounds": {"word_bound": False}},
    {"bounds": {"grade_bound": 3}},
    {"preset": None, "n": 1, "xi_entries": [[["1/0"]]]},
    {"n": 65},
    {"reduce_order": "desc"},
    {"bounds": {"max_steps": 10}},
    {"preset": []},
    {"preset": {}},
])
def test_config_validation_exit_code(capsys, tmp_path, doc):
    path = tmp_path / "session.json"
    path.write_text(json.dumps({"preset": "commutative", **doc}))
    # a member for every n, so a silently accepted value would exit 0
    code, _, err = run(capsys, "member", "dx1 (*) dx1", "--config", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text, message", [
    ("[1]", "config document must be a JSON object"),
    ('{"preset": "commutative", "bounds": 3}', "bounds must be a JSON object"),
    ('{"n": 2}', "either a preset or xi_entries must be given"),
    ('{"n": 1, "preset": "commutative", "xi_entries": [[["x1"]]]}',
     "either a preset or xi_entries must be given, not both"),
    ('{"n": 1, "xi_entries": [[[1]]]}', "xi_entries[0][0][0] must be an expression string"),
    ('{"preset": "commutative", "format": "xml"}', "unknown config keys: ['format']"),
    ('{"preset": "commutative",', "config is not valid JSON: "),
    (None, "cannot read config file: "),
], ids=["not-an-object", "bounds-not-an-object", "no-map", "both-maps",
        "entry-not-a-string", "unknown-format", "invalid-json", "missing-file"])
def test_config_rejection_exit_code(capsys, tmp_path, text, message):
    path = tmp_path / "session.json"
    if text is not None:  # None: no file at all
        path.write_text(text)
    code, out, err = run(capsys, "diff", "x1", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1


# m(x^i) swaps the letters: x^i * d^a x^1 = d^a x^2 * x^i and back
SWAP_ENTRIES = [[["0", "x1"], ["x1", "0"]], [["0", "x2"], ["x2", "0"]]]


@pytest.mark.parametrize("doc, flags, expected", [
    ({"xi_entries": SWAP_ENTRIES}, (), (0, "dx1 * (x1 + x2)\n")),  # x1 dx2 = dx1 x1
    ({"xi_entries": SWAP_ENTRIES}, ("--preset", "commutative"), (0, "dx1 * x2 + dx2 * x1\n")),
    # a file with both maps is refused (see both-maps above), unless the flag
    # replaces them
    ({"preset": "commutative", "xi_entries": SWAP_ENTRIES}, ("--preset", "commutative"),
     (0, "dx1 * x2 + dx2 * x1\n")),
], ids=["entries", "entries-and-flag", "both-and-flag"])
def test_preset_flag_replaces_the_files_map(capsys, tmp_path, doc, flags, expected):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "diff", "-k", "1", "x1 x2", "--config", str(path), *flags)
    assert (code, out) == expected


@pytest.mark.parametrize("preset", [(), ("--preset", "commutative")],
                         ids=["no-preset", "preset"])
def test_empty_config_path_is_unreadable(capsys, preset):
    # "" names no file, like any other bad path; no default session stands in
    code, out, err = run(capsys, "member", "dx1", "--config", "", *preset)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read config file")


def test_negative_word_bound_flag_exit_code(capsys):
    code, _, err = run(capsys, "member", "dx1 (*) dx2", "--word-bound", "-1")
    assert code == 2
    assert "word_bound" in err


def test_n_above_cap_flag_exit_code(capsys):
    code, _, err = run(capsys, "diff", "x1", "-n", "65")
    assert code == 2
    assert "n must be" in err


@pytest.mark.parametrize("argv, exit_code", [
    (["diff", "-k", "3", "x1 x2 x1 x2 x1 x2", "--preset", "scalar-twist"], 0),
    (["member", "dx1 (*) dx1"], 0),
    (["member", "dx1"], 1),
])
def test_closed_stdout_keeps_exit_code_without_traceback(argv, exit_code):
    src = str(Path(dcubed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "dcubed.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader goes away before anything is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == exit_code
    assert "Traceback" not in err and "BrokenPipe" not in err


@pytest.mark.parametrize("expr, exit_code", [
    ("dx1", 1),                    # the grade-1 system has no columns at all
    ("dx1 dx2 + dx2 dx1 x1", 3),   # grade 2 passes the size cap
])
def test_huge_word_bound_answers_at_once(capsys, tmp_path, expr, exit_code):
    # the quadratic map takes the bounded path, which sweeps every word degree
    path = tmp_path / "quadratic.json"
    path.write_text(json.dumps(QUADRATIC))
    started = time.perf_counter()
    code, _, _ = run(capsys, "member", expr, "--config", str(path),
                     "--word-bound", "100000")
    assert code == exit_code
    assert time.perf_counter() - started < 2


@pytest.mark.parametrize("target", ["missing/dir/report.json", ""])
def test_verify_unwritable_report_path(capsys, tmp_path, target):
    # a missing directory, then the directory itself
    path = tmp_path / target if target else tmp_path
    code, out, err = run(capsys, "verify", "--suite", "d3", "--report", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write report: ")
    assert len(err.splitlines()) == 1


# one digit past Python's int/str conversion limit (0 when it is switched off)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (DIGIT_LIMIT + 1)
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="no int/str digit limit")


@needs_digit_limit
@pytest.mark.parametrize("expr", [LONG, f"1/{LONG}", f"[{LONG}]_q", f"x{LONG}",
                                  f"dx{LONG}", f"d{LONG}x1"],
                         ids=["number", "denominator", "q-integer", "generator",
                              "letter index", "letter grade"])
def test_overlong_integer_in_expression(capsys, expr):
    code, out, err = run(capsys, "diff", expr)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "too long" in err
    assert len(err.splitlines()) == 1


@needs_digit_limit
@pytest.mark.parametrize("doc", [
    f'{{"n": {LONG}, "preset": "commutative"}}',
    f'{{"seed": {LONG}, "preset": "commutative"}}',
    f'{{"bounds": {{"size_cap": {LONG}}}, "preset": "commutative"}}',
    f'{{"n": 1, "xi_entries": [[["{LONG}"]]]}}',
], ids=["n", "seed", "size_cap", "xi_entries"])
def test_overlong_integer_in_config(capsys, tmp_path, doc):
    path = tmp_path / "session.json"
    path.write_text(doc)
    code, out, err = run(capsys, "diff", "x1", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


# under the limit as input, over it once squared
HALF = "7" * (DIGIT_LIMIT // 2 + 1)


@needs_digit_limit
@pytest.mark.parametrize("argv", [
    ["diff", f"{HALF} {HALF} x1"],
    ["diff", f"1/{HALF} 1/{HALF} q x1", "--format", "latex"],
    ["member", f"{HALF} {HALF} dx1", "--format", "json"],
    ["member", f"{HALF} {HALF} (dx1 (*) dx2 - q dx2 (*) dx1)"],
], ids=["diff", "diff-latex", "member-json", "member-witness"])
def test_overlong_integer_in_output(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "too long to print" in err
    assert len(err.splitlines()) == 1


def map_config(tmp_path, bmap):
    """An n=2 map as a config file (xi_entries[i][j][k])."""
    entries = [[[format_algebra(bmap.entry(i, j, k)) for k in (1, 2)] for j in (1, 2)]
               for i in (1, 2)]
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"n": 2, "xi_entries": entries}))
    return ["--config", str(path)]


@pytest.mark.parametrize("bounded", [False, True], ids=["preset", "quadratic"])
def test_member_of_grade_zero(capsys, tmp_path, bounded):
    # a grade-0 component reduces against its system, which is empty
    flags = map_config(tmp_path, quadratic_map()) if bounded else ["--preset", "constant"]
    code, out, _ = run(capsys, "member", "x1", *flags)
    assert code == 1
    where = "word bound 3" if bounded else "word degree 1"
    assert out.splitlines() == ["status: not_member_at_bound", "residual: x1",
                                f"detail: irreducible remainder at grade 0, {where}"]


def test_member_details_name_the_bidegree(capsys):
    code, out, _ = run(capsys, "member", "d2x1 + d2x1 x1 + dx1 + dx1 x2")
    assert code == 1
    assert out.splitlines()[-1] == "detail: " + "; ".join(
        f"irreducible remainder at grade {g}, word degree {w}"
        for g in (1, 2) for w in (0, 1))


@pytest.mark.parametrize("command", [("member", "dx1"), ("verify", "--suite", "d3")],
                         ids=["member", "verify"])
@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
def test_latex_refused_where_nothing_prints_it(capsys, tmp_path, command, from_config):
    # argparse states each subcommand's formats; a config holds no format
    if from_config:
        path = tmp_path / "session.json"
        path.write_text(json.dumps({"preset": "commutative", "format": "latex"}))
        code, out, err = run(capsys, *command, "--config", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: unknown config keys: ['format']\n"
        return
    with pytest.raises(SystemExit) as exc:
        main([*command, "--format", "latex"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    refuses_latex(captured.err, command[0])


def test_latex_refusal_with_a_bad_value(capsys):
    # argparse refuses the format before -n 0 is read
    with pytest.raises(SystemExit) as exc:
        main(["member", "--format", "latex", "-n", "0", "dx1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    refuses_latex(captured.err, "member")


def _suite_lines(text):
    return [line for line in text.splitlines()
            if line.startswith("  ") and not line.startswith("   ")]


@pytest.mark.parametrize("timings, fmt", [(False, "json"), (True, "json"),
                                          (False, "text"), (True, "text")],
                         ids=["plain", "timings", "plain-text", "timings-text"])
def test_verify_timings(capsys, monkeypatch, tmp_path, timings, fmt):
    # a clock that advances 1 s a reading: every suite takes 1 s
    clock = itertools.count(0.0)
    monkeypatch.setattr("dcubed.verify.time.perf_counter", lambda: next(clock))
    path = tmp_path / "report.json"
    flags = ["--timings"] if timings else []
    code, out, _ = run(capsys, "verify", "--suite", "d3", "--suite", "d2-binomial",
                       "--max-word-len", "1", "--format", fmt,
                       "--report", str(path), *flags)
    assert code == 0
    docs = [json.loads(path.read_text())]
    if fmt == "json":
        docs.append(json.loads(out))
    else:
        lines = _suite_lines(out)
        assert len(lines) == 2
        for line in lines:
            assert bool(re.search(r"\[[^]]*s\]$", line)) == timings
            assert line.endswith("  [1.00s]") == timings
    for doc in docs:
        assert len(doc["suites"]) == 2
        for suite in doc["suites"]:
            assert suite.get("duration_s") == (1.0 if timings else None)


# (x1 + x2)^18 has 2^18 terms.  Under the twisted map the prefix matrices
# of an alternating word grow about threefold a letter, and so does x1
# pushed through a dword.  Each passes MAX_TERMS early and stops with one
# error line instead of running for seconds.
@pytest.mark.parametrize("expr, twisted", [(" ".join(["(x1 + x2)"] * 18), False),
                                           (" ".join(["x1 x2"] * 20), True),
                                           ("x1 (" + " ".join(["dx1"] * 16) + ")", True)],
                         ids=["power-of-sum", "twisted-word", "twisted-push"])
def test_term_cap(capsys, tmp_path, expr, twisted):
    started = time.perf_counter()
    flags = map_config(tmp_path, NON_DIAGONAL_MAPS["twisted"]()) if twisted else ()
    code, out, err = run(capsys, "diff", expr, *flags)
    assert time.perf_counter() - started < 2
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and f"MAX_TERMS = {MAX_TERMS}" in err
    assert len(err.splitlines()) == 1


def test_term_cap_in_a_system_is_inconclusive(capsys, tmp_path):
    # columns of the non-diagonal quadratic map's grade-3 and grade-4
    # systems pass MAX_TERMS: those verdicts are inconclusive, not errors
    flags = map_config(tmp_path, NON_DIAGONAL_MAPS["quadratic"]())
    code, out, err = run(capsys, "member", *flags, "d2x1 d2x2")
    assert code == 3 and err == ""
    assert out.startswith("status: bound_exceeded\n")
    path = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", *flags, "--max-word-len", "0",
                       "--suite", "generator-diffs", "--report", str(path))
    assert code == 3 and err == ""
    assert json.loads(path.read_text())["summary"]["inconclusive"] > 0


def test_config_not_utf8(capsys, tmp_path):
    path = tmp_path / "session.json"
    path.write_bytes(b'{"n": 2, "preset": "\xff"}')
    code, out, err = run(capsys, "diff", "x1", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read config file: ")
    assert len(err.splitlines()) == 1


def test_console_script_resolves_to_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, name = scripts["dcubed"].partition(":")
    assert getattr(importlib.import_module(module), name) is main


def _fresh_process(*args):
    """Run ``python *args`` with this checkout's ``dcubed`` importable;
    return its exit code, stdout and stderr."""
    src = str(Path(dcubed.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def _count_parsers(monkeypatch):
    """A list that grows by one for each ArgumentParser constructed from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    main(["diff", "x1"])  # the first call of a process may build it
    built = _count_parsers(monkeypatch)
    for _ in range(4):
        for argv in (["diff", "-k", "2", "x1 x2", "--format", "json"],
                     ["reduce", "dx1 (*) dx2"],
                     ["member", "dx1", "--preset", "constant"],
                     ["verify", "-n", "2", "--max-word-len", "0", "--suite", "d3"]):
            main(argv)
        with pytest.raises(SystemExit):
            main(["diff", "-k", "4", "x1"])
    capsys.readouterr()
    assert built == []


def test_import_builds_no_parser():
    # a one-shot process builds the root, the common parent and 4 subparsers
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import dcubed.cli\n"
            "print(len(built))\n"
            "dcubed.cli.main(['diff', 'x1'])\n"
            "print(len(built))\n")
    assert _fresh_process("-c", code) == (0, "0\ndx1\n6\n", "")


def _untimed(result):
    code, out, err = result
    return code, re.sub(r"  \[\d+\.\d\ds\]$", "  [t s]", out, flags=re.M), err


def test_no_parsed_state_carries_between_calls(capsys, tmp_path):
    config = tmp_path / "twist.json"
    config.write_text('{"n": 3, "preset": "scalar-twist", "twist": "2"}')
    sequence = [
        ("verify", "-n", "2", "--max-word-len", "0", "--suite", "d3", "--format", "json"),
        ("verify", "-n", "2", "--max-word-len", "0", "--format", "json"),
        ("verify", "-n", "2", "--max-word-len", "0", "--suite", "d3", "--timings"),
        ("verify", "-n", "2", "--max-word-len", "0", "--suite", "d3"),
        ("diff", "--mod-ideal", "-k", "3", "x1"),
        ("diff", "x1"),
        ("diff", "-k", "0", "x1"),  # argparse exits 2
        ("diff", "-k", "2", "x1 x2"),
        ("diff", "x1 x3", "--config", str(config)),
        ("diff", "x1 x2"),          # commutative, n = 2
        ("diff", "x1 x3"),          # x3 is no name at n = 2
    ]
    results = []
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
        # wall-clock suite timings differ from run to run, and only they
        fresh = _fresh_process("-m", "dcubed.cli", *argv)
        assert _untimed(results[-1]) == _untimed(fresh), argv
    # --suite appends to a default that no earlier call has filled
    assert len(json.loads(results[1][1])["suites"]) == 5
    # --timings times the one call that passes it
    assert [line.endswith("s]") for line in _suite_lines(results[2][1])] == [True]
    assert [line.endswith("s]") for line in _suite_lines(results[3][1])] == [False]
    assert results[5] == (0, "dx1\n", "")
    assert results[6][0] == 2
    assert results[10][0] == 2 and "unknown generator 'x3' (n = 2)" in results[10][2]
