import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dcubed
from dcubed.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_diff_first_order(capsys):
    code, out, _ = run(capsys, "diff", "-k", "1", "x1")
    assert code == 0
    assert out.strip() == "dx1"


def test_diff_third_order_of_generator_mod_ideal(capsys):
    code, out, _ = run(capsys, "diff", "-k", "3", "x1", "--mod-ideal")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0"
    assert lines[1] == "member of I_q"


def test_diff_third_order_of_word(capsys):
    code, out, _ = run(capsys, "diff", "-k", "3", "x1 x2", "--mod-ideal",
                       "--preset", "commutative")
    assert code == 0
    assert out.strip().splitlines()[-1] == "member of I_q"


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
    assert "size cap 1" in err


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
    paths = []
    for run_idx in (1, 2):
        path = tmp_path / f"report{run_idx}.json"
        code, _, _ = run(capsys, "verify", "--preset", "scalar-twist",
                         "--suite", "d2-binomial", "--seed", "42",
                         "--max-word-len", "1", "--report", str(path))
        assert code == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_config_file_roundtrip(capsys, tmp_path):
    commutative_entries = [
        [[f"x{i}" if j == k else "0" for k in (1, 2)] for j in (1, 2)]
        for i in (1, 2)]
    cfg = {"n": 2, "xi_entries": commutative_entries, "seed": 3}
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
    (MEMBER, {"word_bound": 0}, 1),
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


@pytest.mark.parametrize("flags", [
    ("member", "dx1 (*) dx2", "--grade-bound", "1"),
    ("member", "dx1 (*) dx2", "--word-bound", "x"),
    ("verify", "--suite", "bogus"),
    ("verify", "--max-word-len", "-1"),
    ("verify", "--max-word-len", "7"),
    ("reduce", "dx1 (*) dx2", "--order", "asc"),
    ("reduce", "dx1 (*) dx2", "--max-steps", "5"),
])
def test_bad_flags_exit_code(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(list(flags))
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("diff", "x1 + 1/0"),
    ("member", "1/0 dx1"),
    ("diff", "--preset", "scalar-twist", "--twist", "1/0", "x1"),
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
])
def test_config_validation_exit_code(capsys, tmp_path, doc):
    path = tmp_path / "session.json"
    path.write_text(json.dumps({"preset": "commutative", **doc}))
    # a member for every n, so a silently accepted value would exit 0
    code, _, err = run(capsys, "member", "dx1 (*) dx1", "--config", str(path))
    assert code == 2
    assert "error:" in err


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
def test_huge_word_bound_answers_at_once(capsys, expr, exit_code):
    started = time.perf_counter()
    code, _, _ = run(capsys, "member", expr, "--preset", "constant",
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
