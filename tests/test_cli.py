import argparse
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gproj import InputError, ParseError, free_resolution, parse_model_file, pd_bounded, run_command
from gproj import cli
from gproj.cli import _split_top_level, main
from gproj.rings import FreeModuleGB

from helpers import split_top_level_reference

FLAGSHIP = """\
# the chain ring and its square-zero ideal
ring R2 = GF(2)[x] order grevlex mod [x^2]
module I over R2 gens 1 relations [[x]]
module FreeMod over R2 gens 2 relations []
task pd --depth 8 I
task gclass --depth 5 I
"""


def test_parse_flagship_counts():
    model = parse_model_file(FLAGSHIP)
    assert len(model.rings) == 1
    assert len(model.modules) == 2
    assert len(model.tasks) == 2


def test_parse_rejects_nonprime_field():
    with pytest.raises(ParseError) as exc:
        parse_model_file("ring S = GF(4)[x]\n")
    assert "not prime" in str(exc.value)


def test_parse_reports_unknown_reference():
    with pytest.raises(ParseError) as exc:
        parse_model_file("module M over S gens 1 relations [[]]\n")
    assert "'S'" in str(exc.value)


EVERY_KIND = """\
ring P = GF(7)[x, y] order lex mod [x^2 - 3/2*y, y^3]
ring Q = QQ[]
ring S = QQ[x]
ring T = QQ[x] mod []
module N over P gens 2 relations []
module M over P gens 2 relations [[x, y], [0, x - 1]]
module K over S gens 1 relations [[x]]
map f : K -> K = [[x]]
map g : N -> M = [[1, 0], [0, 1]]
submodule W over S ambient 2 gens [[x, 1], [0, x]]
task pd --depth 3 K
task nf P x^3
"""
# two rings of identical text: each module names the ring it was built on
TWINS = """\
ring A = GF(2)[x] mod [x^2]
ring B = GF(2)[x] mod [x^2]
module I over B gens 1 relations [[x]]
module J over A gens 1 relations [[x]]
map h : J -> J = [[1]]
"""
TESTS = Path(__file__).resolve().parent
FLAGSHIP_MODEL = (TESTS.parent / "demos" / "flagship.model").read_text()
GOLDEN_MODELS = [(TESTS / "golden" / name).read_text()
                 for name in ("gclass_fail.model", "k0_qq.model")]


def test_serialize_roundtrip():
    text = FLAGSHIP + "map f : I -> I = [[x]]\n" \
        + "submodule W over R2 ambient 2 gens [[x, 1]]\n"
    model = parse_model_file(text)
    again = parse_model_file(model.serialize())
    assert model == again
    assert again.serialize() == model.serialize()


@pytest.mark.parametrize("text", [EVERY_KIND, TWINS, FLAGSHIP_MODEL, *GOLDEN_MODELS],
                         ids=["every-kind", "twins", "flagship", "gclass_fail", "k0_qq"])
def test_serialize_roundtrips_to_the_same_model_and_text(text):
    model = parse_model_file(text)
    once = model.serialize()
    again = parse_model_file(once)
    assert model == again
    assert again.serialize() == once


def test_serialize_derives_each_line_from_its_object():
    assert parse_model_file(EVERY_KIND).serialize() == """\
ring P = GF(7)[x, y] order lex mod [x^2+2*y, y^3]
ring Q = QQ[] order grevlex
ring S = QQ[x] order grevlex
ring T = QQ[x] order grevlex
module N over P gens 2 relations [[], []]
module M over P gens 2 relations [[x, y], [0, x+6]]
module K over S gens 1 relations [[x]]
submodule W over S ambient 2 gens [[x, 1], [0, x]]
map f : K -> K = [[x]]
map g : N -> M = [[1, 0], [0, 1]]
task pd --depth 3 K
task nf P x^3
"""
    model = parse_model_file(TWINS)
    assert model.rings["A"] == model.rings["B"] and model.rings["A"] is not model.rings["B"]
    assert model.modules["I"].ring is model.rings["B"]
    assert model.serialize() == """\
ring A = GF(2)[x] order grevlex mod [x^2]
ring B = GF(2)[x] order grevlex mod [x^2]
module I over B gens 1 relations [[x]]
module J over A gens 1 relations [[x]]
map h : J -> J = [[1]]
"""


def test_run_pd_flagship():
    model = parse_model_file(FLAGSHIP)
    report, code = run_command("pd", ["--depth", "8", "I"], model)
    assert code == 0
    text = report.render("machine")
    assert "verdict = InfinitePeriodic(0,1)" in text


def test_run_resolve_depth_zero():
    model = parse_model_file(FLAGSHIP)
    report, code = run_command("resolve", ["--depth", "0", "FreeMod"], model)
    assert code == 0
    assert "module gens" in report.render("machine")


def test_machine_format_deterministic():
    model = parse_model_file(FLAGSHIP)
    r1, _ = run_command("report", [], model)
    r2, _ = run_command("report", [], parse_model_file(FLAGSHIP))
    assert r1.render("machine") == r2.render("machine")


def test_gclass_report_content():
    model = parse_model_file(FLAGSHIP)
    report, code = run_command("gclass", ["--depth", "5", "I"], model)
    assert code == 0
    text = report.render("machine")
    assert "verdict = Certified(complete_resolution)" in text
    assert "m5 = True" in text


def test_lemma45_accept_and_reject_exit_codes():
    model = parse_model_file(FLAGSHIP)
    _, code = run_command("lemma45", ["R2", "x"], model)
    assert code == 0
    _, code2 = run_command("lemma45", ["R2", "x+1"], model)
    assert code2 == 1


def test_snf_command_inline():
    model = parse_model_file("")
    report, code = run_command("snf", ["[[2,0],[0,3]]"], model)
    assert code == 0
    assert "diagonal = [1, 6]" in report.render("machine")


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.model"
    good.write_text(FLAGSHIP)
    assert main(["pd", str(good), "I", "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert "InfinitePeriodic(0,1)" in out

    bad = tmp_path / "bad.model"
    bad.write_text("ring S = GF(4)[x]\n")
    assert main(["gb", str(bad), "S"]) == 2

    assert main(["lemma45", str(good), "R2", "x+1"]) == 1


def test_model_path_that_cannot_be_opened_is_an_input_error(tmp_path, capsys):
    # a directory raises IsADirectoryError, an OSError like a missing file
    for path in (tmp_path, tmp_path / "missing.model"):
        assert main(["gb", str(path), "R"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "gproj", "snf", "-", "[[2]]"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "diagonal: [2]" in done.stdout


def test_main_byte_identical_runs(tmp_path, capsys):
    path = tmp_path / "m.model"
    path.write_text(FLAGSHIP)
    assert main(["report", str(path), "--format", "machine"]) == 0
    first = capsys.readouterr().out
    assert main(["report", str(path), "--format", "machine"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_k0_and_ext_and_dual_commands():
    model = parse_model_file(FLAGSHIP)
    rep, code = run_command("k0", ["I"], model)
    assert code == 0
    text = rep.render("machine")
    assert "class = 1*[R/(x)]" in text
    assert "unresolved" in text  # the euler class cannot resolve here

    rep2, code2 = run_command("ext", ["I", "2"], model)
    assert code2 == 0
    assert "is_zero = True" in rep2.render("machine")

    rep3, code3 = run_command("dual", ["I"], model)
    assert code3 == 0
    assert "dual_gens = 1" in rep3.render("machine")


def test_lemma312_command():
    text = ("ring S = QQ[x]\n"
            "submodule W over S ambient 2 gens [[x, 1]]\n")
    model = parse_model_file(text)
    rep, code = run_command("lemma312", ["W"], model)
    assert code == 0
    out = rep.render("machine")
    assert "k = 2" in out
    assert "A_is_zero = True" in out
    assert "exact = True" in out


def test_nf_ann_gb_commands():
    model = parse_model_file(FLAGSHIP)
    rep, _ = run_command("nf", ["R2", "x^2+x+1"], model)
    assert "normal_form = x+1" in rep.render("machine")
    rep2, _ = run_command("ann", ["R2", "x"], model)
    assert "a0 = x" in rep2.render("machine")
    rep3, _ = run_command("gb", ["R2"], model)
    assert "g0 = x^2" in rep3.render("machine")


def test_degree_guard_env_override(tmp_path, capsys, monkeypatch):
    # a lex reduction that runs away under a tight guard
    path = tmp_path / "guard.model"
    path.write_text("ring S = QQ[x, y] order lex mod [x-y^3]\n")
    monkeypatch.setenv("GPROJ_DEGREE_GUARD", "4")
    assert main(["nf", str(path), "S", "x^4"]) == 1
    err = capsys.readouterr().err
    assert "DegreeGuardExceeded" in err
    monkeypatch.delenv("GPROJ_DEGREE_GUARD")
    assert main(["nf", str(path), "S", "x^4"]) == 0


def test_nested_report_task_is_a_parse_error(tmp_path, capsys):
    text = FLAGSHIP + "task report\n"
    with pytest.raises(ParseError) as exc:
        parse_model_file(text)
    assert exc.value.line == 7
    path = tmp_path / "m.model"
    path.write_text(text)
    assert main(["report", str(path)]) == 2
    assert "input error: a task cannot run report at line 7" in capsys.readouterr().err


def test_task_format_flag_is_ignored_but_needs_a_value(tmp_path, capsys):
    model = parse_model_file(FLAGSHIP)
    plain, _ = run_command("pd", ["I"], model)
    flagged, _ = run_command("pd", ["I", "--format", "text"], model)
    assert flagged.render("machine") == plain.render("machine")
    with pytest.raises(InputError, match="--format needs a value"):
        run_command("pd", ["I", "--format"], model)
    path = tmp_path / "m.model"
    path.write_text(FLAGSHIP + "task pd I --format\n")
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err == "input error: --format needs a value\n"


@pytest.mark.parametrize("line, message", [
    ("task frob I", "unknown task command at line 7"),
    ("widget W = 3", "unknown declaration 'widget' at line 7"),
    ("ring R = GF(2)[x] mod", "malformed ring declaration at line 7"),
    ("ring R2 = GF(3)[x]", "duplicate name 'R2' at line 7"),
    ("task pd I --depth", "--depth needs a value"),
])
def test_a_malformed_model_line_exits_2_with_its_message(tmp_path, capsys, line, message):
    path = tmp_path / "m.model"
    path.write_text(FLAGSHIP + line + "\n")
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_non_integer_degree_guard_env_is_an_input_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "m.model"
    path.write_text(FLAGSHIP)
    monkeypatch.setenv("GPROJ_DEGREE_GUARD", "abc")
    assert main(["pd", str(path), "I"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: GPROJ_DEGREE_GUARD must be an integer")


def test_missing_command_argument_is_named(tmp_path, capsys):
    path = tmp_path / "m.model"
    path.write_text(FLAGSHIP)
    assert main(["pd", str(path)]) == 2
    assert capsys.readouterr().err == "input error: pd needs a module argument\n"
    assert main(["ext", str(path), "I", "--depth", "3"]) == 2
    assert capsys.readouterr().err == "input error: ext needs a degree argument\n"
    # the article follows the argument's name
    for cmd in ("ann", "lemma45"):
        assert main([cmd, str(path), "R2"]) == 2
        assert capsys.readouterr().err == f"input error: {cmd} needs an element argument\n"


def test_degree_guard_trip_while_parsing_is_a_rejection(tmp_path, capsys, monkeypatch):
    path = tmp_path / "m.model"
    path.write_text("# runs away under a tight guard\n"
                    "ring S = QQ[x, y] order lex mod [x-y^3, x^2+y]\n")
    monkeypatch.setenv("GPROJ_DEGREE_GUARD", "4")
    assert main(["gb", str(path), "S"]) == 1
    assert capsys.readouterr().err == ("rejected: DegreeGuardExceeded: Groebner basis: "
                                       "term degree 6 exceeds guard 4 at line 2\n")
    monkeypatch.delenv("GPROJ_DEGREE_GUARD")
    assert main(["gb", str(path), "S", "--format", "machine"]) == 0
    assert "g1 = y^6+y" in capsys.readouterr().out


def test_a_malformed_polynomial_argument_is_an_input_error_at_its_column(tmp_path, capsys):
    path = tmp_path / "m.model"
    path.write_text(FLAGSHIP)
    for poly, err in (("x*", "dangling '*' at col 2"), ("1 + 2*x*", "dangling '*' at col 8"),
                      ("x $ 1", "unexpected character '$' at col 3")):
        assert main(["nf", str(path), "R2", poly]) == 2
        assert capsys.readouterr().err == f"input error: {err}\n"


@pytest.mark.parametrize("line, err", [
    ("module M over Q gens 1 relations [[x *]]", "dangling '*' at line 3, col 38"),
    ("  module M over Q gens 2 relations [[x, 1], [x + * y, 2]]",
     "unexpected '*' at line 3, col 50"),
    ("submodule W over Q ambient 2 gens [[x, 1 1]]", "expected operator before '1' at line 3, col 42"),
    ("map f : k -> k = [[x -]]  # a comment", "dangling sign at line 3, col 22"),
    ("ring P = QQ[x] mod [x^2, x y]", "expected operator before 'y' at line 3, col 28"),
])
def test_a_malformed_polynomial_in_a_declaration_names_its_line_and_column(
        line, err, tmp_path, capsys):
    path = tmp_path / "m.model"
    path.write_text(f"ring Q = QQ[x]\nmodule k over Q gens 1 relations [[x]]\n{line}\n")
    assert main(["gb", str(path), "Q"]) == 2
    assert capsys.readouterr().err == f"input error: {err}\n"


def test_k0_builds_no_module_basis_its_model_declarations_built(tmp_path, capsys, count_calls):
    # the model is parsed in the command's span scope, so the command reuses
    # the basis that the declaration of M built; det U = x^2/2 - x is not a
    # unit, so its pd scan rejects U by its Fitting ideal with no basis
    text = "ring Q = QQ[x]\nmodule M over Q gens 2 relations [[x, 1/2], [x^2, x - 1]]\n"
    path = tmp_path / "m.model"
    path.write_text(text)
    model, parsing = count_calls(FreeModuleGB, "__init__", parse_model_file, text)
    _, command = count_calls(FreeModuleGB, "__init__", run_command, "k0", ["M"], model)
    code, both = count_calls(FreeModuleGB, "__init__", main,
                             ["k0", str(path), "M", "--format", "machine"])
    assert code == 0 and "class = 1*[R/(x^2-2*x)]\n" in capsys.readouterr().out
    assert (parsing, command, both) == (2, 1, 2)


def test_coefficient_with_a_denominator_divisible_by_p_is_an_input_error(tmp_path, capsys):
    # reported at the column of its numerator, in a declaration and in an argument
    path = tmp_path / "m.model"
    path.write_text("ring R = GF(5)[x] mod [x^2 - 1/5]\n")
    assert main(["gb", str(path), "R"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: coefficient 1/5 has denominator 0 in GF(5) "
                            "at line 1, col 30\n")
    path.write_text(FLAGSHIP)
    assert main(["ann", str(path), "R2", "1/2"]) == 2
    assert capsys.readouterr().err == \
        "input error: coefficient 1/2 has denominator 0 in GF(2) at col 1\n"
    path.write_text("ring Q = QQ[x]\nmodule M over Q gens 1 relations [[x + 3/0]]\n")
    assert main(["gb", str(path), "Q"]) == 2
    assert capsys.readouterr().err == \
        "input error: zero denominator in rational coefficient at line 2, col 40\n"


def test_a_malformed_snf_matrix_names_no_line(capsys):
    for literal, err in (("[1,2]", "expected a bracketed row"),
                         ("1,2", "expected a bracketed matrix")):
        assert main(["snf", "-", literal]) == 2
        assert capsys.readouterr().err == f"input error: {err}\n"


def test_snf_past_the_integer_digit_limit_is_a_rejection(capsys):
    # small entries, but a transform entry grows past 4,300 digits
    literal = ("[[-31,-34,-37,6,-14],[-9,33,-25,30,-11],[-3,32,26,-37,36],"
               "[-15,-5,35,6,-8],[-27,-46,-34,-33,-21]]")
    assert main(["snf", "-", literal]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rejected: MathRejection: Smith form entries exceed "
                                   "the limit of ")
    assert "digits for integer string conversion" in captured.err


XY_SQUARES = """\
ring T = GF(2)[x,y] order grevlex mod [x^2, y^2]
module kT over T gens 1 relations [[x, y]]
"""


@pytest.mark.parametrize("text, name", [
    (XY_SQUARES, "kT"), (FLAGSHIP_MODEL, "I"),
    (FLAGSHIP_MODEL, "FreeMod"), (FLAGSHIP_MODEL, "k"),
])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_resolve_prints_the_standalone_resolution_and_pd_verdict(text, name, depth):
    # resolve reads its printout off the resolution pd_bounded makes; the
    # lines must be those of a resolution computed to exactly this depth
    model = parse_model_file(text)
    module = model.modules[name]
    report, code = run_command("resolve", ["--depth", str(depth), name], model)
    assert code == 0
    want = ["command = resolve", f"module = {name}"]
    want += [line if " = " in line else f"info = {line}"
             for line in free_resolution(module, depth).report_lines()]
    want.append(f"verdict = {pd_bounded(module, depth)}")
    assert report.render("machine").splitlines() == want


def test_degree_guard_in_a_task_line_is_an_input_error(tmp_path, capsys):
    # the guard is set for the whole model when it is parsed, so a task's
    # own would be silently ignored
    model = parse_model_file(FLAGSHIP)
    message = "--degree-guard is set on the command line, for the whole model, not in a task"
    for args in (["R2", "x^40", "--degree-guard", "100"], ["R2", "x", "--degree-guard"]):
        with pytest.raises(InputError, match=message):
            run_command("nf", args, model)
    for task in ("task nf R2 x^40 --degree-guard 100\n", "task nf R2 x --degree-guard\n"):
        path = tmp_path / "m.model"
        path.write_text(FLAGSHIP + task)
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


def test_negative_degree_guard_is_an_input_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "m.model"
    path.write_text(FLAGSHIP)
    monkeypatch.delenv("GPROJ_DEGREE_GUARD", raising=False)
    assert main(["pd", str(path), "I", "--degree-guard", "-1"]) == 2
    assert capsys.readouterr().err == (
        "input error: --degree-guard must be a non-negative integer, got -1\n")
    assert main(["snf", "-", "[[2]]", "--degree-guard", "-1"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("GPROJ_DEGREE_GUARD", "-3")
    for argv in (["pd", str(path), "I"], ["snf", "-", "[[2]]"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "input error: GPROJ_DEGREE_GUARD must be a non-negative integer, got -3\n")
    # guard 0 is valid: it only trips on a term of positive degree
    monkeypatch.setenv("GPROJ_DEGREE_GUARD", "0")
    assert main(["snf", "-", "[[2]]"]) == 0
    assert main(["gb", str(path), "R2"]) == 1
    assert "DegreeGuardExceeded" in capsys.readouterr().err


def test_lemma45_depth_one_names_its_own_bound(tmp_path, capsys):
    model = parse_model_file(FLAGSHIP)
    with pytest.raises(InputError, match="^depth must be at least 2$"):
        run_command("lemma45", ["R2", "x", "--depth", "1"], model)
    path = tmp_path / "m.model"
    path.write_text(FLAGSHIP)
    assert main(["lemma45", str(path), "R2", "x", "--depth", "1"]) == 2
    assert capsys.readouterr().err == "input error: depth must be at least 2\n"
    assert main(["lemma45", str(path), "R2", "x", "--depth", "2"]) == 0


def test_a_depth_above_the_limit_is_an_input_error(tmp_path, capsys):
    # a resolution holds one reference per step: --depth 10**20 ran until
    # memory ran out, on the command line and in a task alike
    path = tmp_path / "m.model"
    path.write_text(FLAGSHIP)
    huge = str(10**20)
    for cmd, args in (("pd", ["I"]), ("gclass", ["I"]), ("resolve", ["I"]), ("report", [])):
        assert main([cmd, str(path), *args, "--depth", huge]) == 2
        assert capsys.readouterr().err == f"input error: --depth {huge} exceeds the limit 1000000\n"
    path.write_text(FLAGSHIP.replace("task pd --depth 8 I", f"task pd --depth {cli.MAX_DEPTH + 1} I"))
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err == "input error: --depth 1000001 exceeds the limit 1000000\n"
    model = parse_model_file(FLAGSHIP)
    with pytest.raises(InputError, match="^--depth 1000001 exceeds the limit 1000000$"):
        run_command("pd", ["I", "--depth", "1000001"], model)
    assert main(["pd", str(path), "I", "--depth", str(cli.MAX_DEPTH), "--format", "machine"]) == 0
    assert capsys.readouterr().out.endswith("depth = 1000000\nverdict = InfinitePeriodic(0,1)\n")


def test_an_ext_degree_or_gpd_index_above_the_limit_is_an_input_error(tmp_path, capsys):
    # each is the length of a resolution, as --depth is: ext at degree 10**20
    # ran until memory ran out, and gpd at 10**7 printed AtMost(10000000)
    path = tmp_path / "m.model"
    path.write_text(FLAGSHIP)
    huge = str(10**20)
    for cmd, args, name in (("ext", ["I", huge], "ext degree"),
                            ("gpd", ["I", huge, "--depth", "4"], "gpd syzygy index")):
        assert main([cmd, str(path), *args]) == 2
        assert capsys.readouterr().err == f"input error: {name} {huge} exceeds the limit 1000000\n"
    path.write_text(FLAGSHIP + "task ext I 1000001\n")
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err == "input error: ext degree 1000001 exceeds the limit 1000000\n"
    model = parse_model_file(FLAGSHIP)
    with pytest.raises(InputError, match="^gpd syzygy index 1000001 exceeds the limit 1000000$"):
        run_command("gpd", ["I", "1000001"], model)
    limit = str(cli.MAX_DEPTH)
    assert main(["ext", str(path), "I", limit, "--format", "machine"]) == 0
    assert "degree = 1000000\nis_zero = True\n" in capsys.readouterr().out
    assert main(["gpd", str(path), "I", limit, "--depth", "4", "--format", "machine"]) == 0
    assert capsys.readouterr().out.endswith("n = 1000000\ndepth = 4\nverdict = AtMost(1000000)\n")


@pytest.mark.parametrize("task, message", [
    ("pd --depth two I", "--depth must be an integer, got 'two'"),
    ("ext I x", "ext degree must be an integer, got 'x'"),
    ("gpd I 1.5", "gpd syzygy index must be an integer, got '1.5'"),
])
def test_a_non_integer_depth_degree_or_index_is_named(tmp_path, capsys, task, message):
    # each printed int()'s own message, "invalid literal for int() with base 10"
    path = tmp_path / "m.model"
    path.write_text(FLAGSHIP + f"task {task}\n")
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    cmd, *args = task.split()
    if cmd != "pd":  # on the command line argparse reads --depth itself
        assert main([cmd, str(path), *args]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


def test_an_integer_past_the_digit_limit_keeps_the_interpreters_message(tmp_path, capsys):
    # it is an integer literal, so it is not reported as a non-integer
    path = tmp_path / "m.model"
    path.write_text(FLAGSHIP)
    assert main(["ext", str(path), "I", "1" * 5000]) == 2
    assert capsys.readouterr().err.startswith("input error: Exceeds the limit (4300 digits)")


def test_a_non_integer_snf_entry_is_named(capsys):
    # as smith_normal_form names it; signs and digit separators still parse
    assert main(["snf", "-", "[[a]]"]) == 2
    assert capsys.readouterr().err == "input error: matrix entry 'a' is not an integer\n"
    assert main(["snf", "-", "[[+2, 1_0]]", "--format", "machine"]) == 0
    assert capsys.readouterr().out.startswith("command = snf\ndiagonal = [2]\n")


def test_surplus_arguments_are_an_input_error(tmp_path, capsys):
    # each surplus argument used to be dropped: pd ran on I, snf reduced the
    # first matrix, nf read x^2 + 1 as x^2, a misspelt flag ran at depth 8
    text = FLAGSHIP.replace("task pd --depth 8 I\ntask gclass --depth 5 I\n", "")
    model = parse_model_file(text)
    with pytest.raises(InputError, match=r"^pd takes 1 argument\(s\) \(module\), got 2: I J$"):
        run_command("pd", ["I", "J"], model)
    with pytest.raises(InputError, match="nf takes 2 argument"):
        run_command("nf", ["R2", "x^2", "+", "1"], model)
    with pytest.raises(InputError, match="report takes 0 argument"):
        run_command("report", ["I"], model)
    with pytest.raises(InputError, match="unknown command 'frob'"):
        run_command("frob", ["I"], model)
    path = tmp_path / "m.model"
    path.write_text(text)
    assert main(["pd", str(path), "I", "J"]) == 2
    assert capsys.readouterr().err == \
        "input error: pd takes 1 argument(s) (module), got 2: I J\n"
    assert main(["snf", "-", "[[2]]", "[[3]]"]) == 2
    assert "snf takes 1 argument(s) (matrix)" in capsys.readouterr().err
    for task, err in (("nf R2 x^2 + 1", "nf takes 2 argument(s) (ring, polynomial), "
                                        "got 4: R2 x^2 + 1"),
                      ("pd I --dpeth 3", "pd takes 1 argument(s) (module), got 3: I --dpeth 3")):
        path.write_text(f"{text}task {task}\n")
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err == f"input error: {err}\n"
    path.write_text(text + "task pd --depth 3 I --format machine\n")
    assert main(["report", str(path)]) == 0


def test_split_top_level_matches_the_reference_on_random_bracket_strings():
    rng = random.Random(3)
    for _ in range(3000):
        text = "".join(rng.choice("[[]],, ab1") for _ in range(rng.randrange(25)))
        assert _split_top_level(text) == split_top_level_reference(text), text


def test_the_argument_parser_is_built_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    snf = ["snf", "-", "[[2, 4], [6, 8]]", "--format", "machine"]
    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        assert main(snf) == 0
        first = capsys.readouterr()
        assert main(snf) == 0
        assert capsys.readouterr() == first and len(built) == 1
        # a usage error leaves the parser as a first call finds it
        cli._parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["snf", "-", "[[2]]", "--format", "bogus"])
        assert exc.value.code == 2
        usage = capsys.readouterr()
        assert "invalid choice: 'bogus'" in usage.err and usage.out == ""
        with pytest.raises(SystemExit):
            main(["snf", "-", "[[2]]", "--format", "bogus"])
        assert capsys.readouterr() == usage
        assert main(snf) == 0
        assert capsys.readouterr() == first and len(built) == 2
    finally:
        cli._parser.cache_clear()
