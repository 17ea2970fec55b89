"""Command line round trips: text reports, JSON documents, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from qsa import cli
from qsa.cli import run_cli
from qsa.presentation import is_tree

from conftest import (
    all_fixture_names, each_once, fixture_path, load_fixture, record_automaton_work,
)
from oracles import loose_loop_text, wild_tail_text

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = run_cli(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# --- exit codes -----------------------------------------------------------------


def test_missing_subcommand_exits_two(capsys):
    code, out, err = run(capsys)
    assert code == 2
    assert "usage" in err


def test_unreadable_file_exits_one(capsys):
    code, out, err = run(capsys, "check", "/no/such/file.qsa")
    assert code == 1
    assert err.startswith("error: cannot read")


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.qsa"
    bad.write_text("vertices: 1\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1 and err.startswith("error:")


def test_reduce_refuses_non_string_input(capsys):
    code, out, err = run(capsys, "reduce",
                         fixture_path("three-vertex-wild"))
    assert code == 1
    assert err == ("error: not a quadratic string algebra: arrow gamma has "
                   "2 relation-free continuations: alpha, delta\n")


# --- check ------------------------------------------------------------------------


def test_check_reports_flags(capsys):
    code, out, _ = run(capsys, "check", fixture_path("a5-chain"))
    assert code == 0
    assert "connected: true" in out
    assert "quadratic string: true" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--json",
                       fixture_path("three-vertex-wild"))
    assert code == 0
    doc = json.loads(out)
    assert doc["quadratic_string"] is False
    assert doc["string_violations"]


def _chain_text(n, square=False):
    """A_(n+1) with arrows a0..a(n-1); with `square`, arrows p and r and the
    relation ( a0 a1 ) - ( p r ) at its start."""
    lines = ["quiver deep", "vertices: " + " ".join(map(str, range(n + 1)))
             + (" x" if square else "")]
    lines += [f"arrow a{i}: {i} -> {i + 1}" for i in range(n)]
    if square:
        lines += ["arrow p: 0 -> x", "arrow r: x -> 2", "relations:",
                  "( a0 a1 ) - ( p r )"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("square", [False, True], ids=["monomial", "square"])
def test_check_on_a_path_longer_than_the_recursion_limit(tmp_path, capsys, square):
    # the admissibility automaton, the cycle test and the longest path walk
    # a 1,500-arrow path without recursing along it
    deep = tmp_path / "deep.qsa"
    deep.write_text(_chain_text(1500, square))
    code, out, _ = run(capsys, "check", str(deep))
    assert code == 0
    assert "admissible: true (rad^1501 = 0)" in out


# a vertex name with a digit run beyond Python's 4,300-digit limit on
# int() of a string: sorting it by natural_key must build no int
_LONG_NAME = "1" + "0" * 4999
_LONG_NAME_TEXT = f"quiver long\nvertices: {_LONG_NAME} 2\narrow a: {_LONG_NAME} -> 2\n"


@pytest.mark.parametrize("argv", [["check"], ["classify"], ["decide"], ["euler"],
                                  ["cover", "--base", "2", "--radius", "2"]],
                         ids=lambda argv: argv[0])
def test_a_5000_digit_vertex_name_runs_every_subcommand(tmp_path, capsys, argv):
    path = tmp_path / "long.qsa"
    path.write_text(_LONG_NAME_TEXT)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, err) == (0, "")
    if argv[0] == "euler":
        assert f"vertices: 2 {_LONG_NAME}" in out


# the loop keeps every degree of this binomial ideal alive, so the graded
# scan cannot certify it finite-dimensional
_UNCERTIFIED = ("quiver g\nvertices: 1 2 3 4\narrow l: 1 -> 1\narrow a: 1 -> 2\n"
                "arrow b: 2 -> 3\narrow c: 1 -> 4\narrow d: 4 -> 3\n"
                "relations:\n( a b ) - ( c d )\n")


def test_check_text_on_an_uncertified_input(tmp_path, capsys):
    path = tmp_path / "g.qsa"
    path.write_text(_UNCERTIFIED)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    lines = out.splitlines()
    assert "admissible: not certified" in lines
    assert lines[-1] == ("problem: admissibility not certified for this cyclic "
                         "non-monomial ideal")


# --- classify ------------------------------------------------------------------------


def test_classify_text_on_gqs_fixture(capsys):
    code, out, _ = run(capsys, "classify",
                       fixture_path("twelve-vertex-gqs"))
    assert code == 0
    lines = out.splitlines()
    assert "E1 = {4}  O1 = {5, 6}" in lines
    assert "E2 = {10}  O2 = {11, 12}" in lines
    assert "E3 = {3}  O3 = {1, 2}" in lines
    assert "is_quadratic_string: true" in lines
    assert "is_gqs: true" in lines


def test_classify_text_lists_violations(capsys):
    code, out, _ = run(capsys, "classify", fixture_path("three-vertex-wild"))
    assert code == 0
    assert out.splitlines()[-3:] == [
        "is_quadratic_string: false", "is_gqs: false",
        "  - arrow gamma has 2 relation-free continuations: alpha, delta"]


def test_classify_json_has_all_classes(capsys):
    code, out, _ = run(capsys, "classify", "--json",
                       fixture_path("twelve-vertex-gqs"))
    doc = json.loads(out)
    assert sorted(doc["E"]) == ["1", "2", "3", "4", "5", "6"]
    assert doc["E"]["1"] == ["4"]
    assert doc["O"]["3"] == ["1", "2"]
    assert doc["flags"]["is_gqs"] is True


# --- decide ------------------------------------------------------------------------


@pytest.mark.parametrize("name, expected", [
    ("twelve-vertex-gqs", "TAME (gqs; 3 exceptional vertices reduced)"),
    ("gentle-cycle", "TAME (gqs; 0 exceptional vertices reduced)"),
    ("a5-chain", "TAME (tree; Euler form non-negative)"),
    ("two-cycle", "WILD (cycles; vertex 2 is neither gentle nor exceptional)"),
])
def test_decide_text(capsys, name, expected):
    code, out, _ = run(capsys, "decide", fixture_path(name))
    assert code == 0
    assert out.splitlines()[0] == expected


def test_decide_text_on_a_wild_tree_deeper_than_the_recursion_limit(tmp_path, capsys):
    # A_1,200 with three leaves on its end: the negative vector is rebuilt
    # from 1,202 pivots, one after the other
    path = tmp_path / "tail.qsa"
    path.write_text(wild_tail_text(1200))
    code, out, err = run(capsys, "decide", str(path))
    assert code == 0 and err == ""
    assert out.startswith("WILD (tree; Euler form negative at (1, 2, 3, ")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e4bc270845540128508adffbdcc2f07b77b64de91f0def95a548fbb12dcf7712")


def test_decide_with_bounds(capsys):
    code, out, _ = run(capsys, "decide", "--radius", "6", "--max-size", "8",
                       fixture_path("three-vertex-wild"))
    assert code == 0
    assert out.splitlines()[0] == (
        "WILD (cycles; not quadratic string, but a wildness certificate "
        "exists: 8-vertex cover witness)")


def test_decide_json(capsys):
    code, out, _ = run(capsys, "decide", "--json",
                       fixture_path("fork-tail-10"))
    doc = json.loads(out)
    assert doc["tag"] == "Wild"
    assert doc["branch"] == "TreeEuler"
    assert doc["nonnegative"] is False
    assert doc["negative_at"]


# --- transforms -----------------------------------------------------------------------


def test_blowup_text_lists_lifted_arrows(capsys):
    code, out, _ = run(capsys, "blowup", "--vertices", "1,3",
                       fixture_path("a5-chain"))
    assert code == 0
    assert "alpha+" in out and "alpha-" in out and "delta" in out


def test_blowup_json_maps(capsys):
    code, out, _ = run(capsys, "blowup", "--vertices", "1,3", "--json",
                       fixture_path("a5-chain"))
    doc = json.loads(out)
    assert doc["vertex_map"]["1"] == ["1+", "1-"]
    assert doc["arrow_map"]["delta"] == ["delta"]


@pytest.mark.parametrize("vertices", [",", " , "])
def test_blowup_refuses_an_empty_vertex_list(capsys, vertices):
    code, out, err = run(capsys, "blowup", "--vertices", vertices, fixture_path("a5-chain"))
    assert (code, out, err) == (1, "", "error: no vertices to blow up\n")


def test_mutate_text(capsys):
    code, out, _ = run(capsys, "mutate", "--vertex", "5", "--sign", "minus",
                       fixture_path("a5-chain"))
    assert code == 0
    assert "-> 4" in out  # the reversed arrow now ends at 4


def test_mutate_json_carries_the_text_output(capsys):
    argv = ("mutate", "--vertex", "5", "--sign", "minus", fixture_path("a5-chain"))
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv[:-1], "--json", argv[-1])
    assert code == 0
    assert json.loads(out) == {"presentation": text}


@pytest.mark.parametrize("text, sink, message", [
    (_UNCERTIFIED, "3", "algebra could not be certified finite-dimensional: "
                        "admissibility not certified for this cyclic non-monomial ideal"),
    ("quiver loop\nvertices: 1 2\narrow l: 1 -> 1\narrow a: 1 -> 2\n", "2",
     "relation ideal is not admissible"),
])
def test_mutate_refuses_a_non_admissible_input(tmp_path, capsys, text, sink, message):
    path = tmp_path / "in.qsa"
    path.write_text(text)
    code, out, err = run(capsys, "mutate", "--vertex", sink, "--sign", "minus", str(path))
    assert code == 1
    assert out == "" and err == f"error: {message}\n"


def test_reduce_refuses_a_non_admissible_input(tmp_path, capsys):
    path = tmp_path / "in.qsa"
    path.write_text(loose_loop_text())
    code, out, err = run(capsys, "reduce", str(path))
    assert code == 1
    assert out == "" and err == "error: the reduction needs a certified admissible ideal\n"


def test_reduce_text_and_certificate(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "reduce", "--certificate", str(cert),
                       fixture_path("twelve-vertex-gqs"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 steps to a gentle presentation"
    assert lines[1].startswith("step 1: class 3 at vertex 3;")
    assert "special vertices: 1, 4, 10" in out
    doc = json.loads(cert.read_text())
    assert len(doc["steps"]) == 3
    assert doc["special"] == ["1", "4", "10"]


def test_reduce_refuses_an_unwritable_certificate_path(tmp_path, capsys):
    cert = tmp_path / "nonexistent" / "x.json"
    code, out, err = run(capsys, "reduce", "--certificate", str(cert),
                         fixture_path("twelve-vertex-gqs"))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {cert}: No such file or directory\n"


def test_reduce_json_equals_the_certificate_file(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "reduce", "--json", "--certificate", str(cert),
                       fixture_path("twelve-vertex-gqs"))
    assert code == 0
    assert out == cert.read_text()
    assert json.loads(out)["special"] == ["1", "4", "10"]


# --- euler ------------------------------------------------------------------------


def test_euler_text(capsys):
    code, out, _ = run(capsys, "euler", fixture_path("a5-chain"))
    assert code == 0
    assert "cartan C" in out and "euler E" in out
    assert "nonnegative: true (positive definite)" in out


def test_euler_walks_the_bare_quiver_once(capsys, monkeypatch):
    # validate walks the presentation's automaton, and the Cartan and Euler
    # matrices share one walk of the quiver with no relations, kept on it
    walked, _ = record_automaton_work(monkeypatch)
    code, _, _ = run(capsys, "euler", fixture_path("kronecker"))
    assert code == 0
    assert len(walked) == 2 and each_once(walked)


def test_euler_eval(capsys):
    code, out, _ = run(capsys, "euler", "--eval", "1,1,1,1,1",
                       fixture_path("a5-chain"))
    assert code == 0
    assert out.splitlines()[-1].startswith("value at (1, 1, 1, 1, 1):")


def test_euler_json_eval(capsys):
    code, out, _ = run(capsys, "euler", "--json", "--eval", "1,1,1,1,1",
                       fixture_path("a5-chain"))
    assert code == 0
    assert json.loads(out)["eval"] == {"vector": ["1"] * 5, "value": "2"}


def test_euler_text_on_a_wild_tree(capsys):
    code, out, _ = run(capsys, "euler", fixture_path("fork-tail-10"))
    assert code == 0
    assert out.splitlines()[-1] == (
        "nonnegative: false; value -2 at (-2, -3, -1, 3, 2, 2, 0, 0, 0, 0)")


def test_euler_eval_refuses_a_zero_denominator(capsys):
    code, out, err = run(capsys, "euler", "--eval", "1/0,1,1,1,1",
                         fixture_path("a5-chain"))
    assert code == 1
    assert err == "error: zero denominator in vector '1/0,1,1,1,1'\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("vector, message", [
    ("1,,0,0,0,1", "cannot parse vector '1,,0,0,0,1'"),
    ("1,0,0,0,1,", "cannot parse vector '1,0,0,0,1,'"),
    (",1,0,0,0,1", "cannot parse vector ',1,0,0,0,1'"),
    ("1, ,0,0,1", "cannot parse vector '1, ,0,0,1'"),
    ("", "cannot parse vector ''"),
    ("x,y", "cannot parse vector 'x,y'"),
    ("1,2", "vector has 2 entries, expected 5"),
])
def test_euler_eval_refuses_malformed_vectors(capsys, vector, message):
    for json_flag in ((), ("--json",)):
        code, out, err = run(capsys, "euler", *json_flag, "--eval", vector,
                             fixture_path("a5-chain"))
        assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("vector, message", [
    ("1e99999,1,1,1,1", "vector entry '1e99999' is too large to print"),
    ("1e-9999999999,1,1,1,1", "vector entry '1e-9999999999' is too large to print"),
    ("1" * 3000 + ",1,1,1,1", "the form value at that vector is too large to print"),
])
def test_euler_eval_refuses_numbers_too_large_to_print(capsys, vector, message):
    for json_flag in ((), ("--json",)):
        code, out, err = run(capsys, "euler", *json_flag, "--eval", vector,
                             fixture_path("a5-chain"))
        assert code == 1
        assert err == f"error: {message}\n"


def test_euler_json(capsys):
    code, out, _ = run(capsys, "euler", "--json",
                       fixture_path("fork-tail-10"))
    doc = json.loads(out)
    assert doc["nonnegative"] is False
    assert doc["negative_value"] is not None


# --- covers and witnesses -----------------------------------------------------------


def test_cover_text_and_dot(tmp_path, capsys):
    dot = tmp_path / "ball.dot"
    code, out, _ = run(capsys, "cover", "--base", "a", "--radius", "3",
                       "--dot", str(dot), fixture_path("three-vertex-wild"))
    assert code == 0
    assert out.startswith("quiver ")
    text = dot.read_text()
    assert text.startswith("digraph") and "->" in text


def test_cover_and_witness_over_the_ball_cap(monkeypatch, capsys):
    # the radius-30 ball of three-vertex-wild is counted, not built
    monkeypatch.delenv("QSA_WITNESS_BUDGET", raising=False)
    code, out, err = run(capsys, "cover", "--base", "a", "--radius", "30",
                         fixture_path("three-vertex-wild"))
    assert code == 1 and out == ""
    assert err == ("error: the cover ball of radius 30 at 'a' has more than 400001 "
                   "vertices, the witness budget plus one (QSA_WITNESS_BUDGET raises it)\n")
    code, out, _ = run(capsys, "witness", "--radius", "30", fixture_path("three-vertex-wild"))
    assert code == 0
    assert out == ("none found: the search budget ran out before the bounds were "
                   "covered (QSA_WITNESS_BUDGET raises it)\n")


# SHA-256 of the `qsa cover --json` documents of every cyclic monomial
# fixture, concatenated over its basepoints in vertex order and radius 0..4
# for each basepoint: presentation, vertex_map, arrow_map and levels
COVER_DIGESTS = {
    "gentle-cycle": "9880009dbebbce8bdb68c49aa6f8f1de45e0287f69b4f1aefa3dcf1bc46bbda8",
    "kronecker": "5e3f186583bfb593d549bdba98858ac633fa2781092328725c4cb38f509b9fd9",
    "three-vertex-wild": "55d4ce1031b7c0bd6d4c5739599446ce6532157b39bdcc1c175bbe38c9bfe96e",
    "twelve-vertex-gqs": "ae1f871244d8abbaedf4facd962c98af950469d9a5d8c470d3b96895c8253fee",
    "two-cycle": "ca3c90978963715f16a2a0c64cbe72aa891fe74cea667f2b6c666eac54847573",
}


def test_cyclic_fixture_covers_are_frozen(capsys):
    cyclic = [name for name in all_fixture_names()
              if load_fixture(name).is_monomial and not is_tree(load_fixture(name))]
    assert cyclic == sorted(COVER_DIGESTS)
    for name in cyclic:
        digest = hashlib.sha256()
        for base in load_fixture(name).quiver.vertices:
            for radius in range(5):
                code, out, _ = run(capsys, "cover", "--base", base, "--radius",
                                   str(radius), "--json", fixture_path(name))
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == COVER_DIGESTS[name], name


def test_witness_text(capsys):
    code, out, _ = run(capsys, "witness", "--radius", "6", "--max-size", "8",
                       fixture_path("three-vertex-wild"))
    assert code == 0
    assert out.splitlines()[0] == (
        "witness at basepoint a, radius 6: 8 vertices, shape Other")


def test_witness_dot(tmp_path, capsys):
    dot = tmp_path / "witness.dot"
    code, out, _ = run(capsys, "witness", "--radius", "6", "--max-size", "8",
                       "--dot", str(dot), fixture_path("three-vertex-wild"))
    assert code == 0
    lines = dot.read_text().splitlines()
    assert lines[0] == 'digraph "three_vertex_wild.witness@a" {'
    assert lines[-1] == "}"
    # one line per vertex and one per arrow of the 8-vertex witness
    assert sum(" -> " in line for line in lines) == 7
    assert len(lines) == 2 + 8 + 7


@pytest.mark.parametrize("bounds, message", [
    (("--radius", "3", "--max-size", "-1"), "witness size must be >= 0"),
    (("--radius", "-2", "--max-size", "1"), "cover radius must be >= 0"),
])
def test_witness_refuses_negative_bounds(capsys, bounds, message):
    code, out, err = run(capsys, "witness", *bounds, fixture_path("three-vertex-wild"))
    assert code == 1
    assert out == "" and err == f"error: {message}\n"


def test_witness_none_within_bounds(capsys):
    code, out, _ = run(capsys, "witness", fixture_path("kronecker"))
    assert code == 0
    assert out.strip() == "none within bounds"


@pytest.mark.parametrize("budget,first_line", [
    ("50", "none found: the search budget ran out before the bounds were "
           "covered (QSA_WITNESS_BUDGET raises it)"),
    ("400000", "witness at basepoint a, radius 6: 8 vertices, shape Other"),
])
def test_witness_reports_budget_hit(monkeypatch, capsys, budget, first_line):
    monkeypatch.setenv("QSA_WITNESS_BUDGET", budget)
    argv = ("witness", "--radius", "6", "--max-size", "8",
            fixture_path("three-vertex-wild"))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == first_line
    # the JSON document keeps its shape: no witness is just null
    code, out, _ = run(capsys, *argv[:-1], "--json", argv[-1])
    assert code == 0
    assert (json.loads(out)["witness"] is None) == (budget == "50")


@pytest.mark.parametrize("radius, size", [("1", "3"), ("eight", "x")])
def test_witness_bounds_ignore_the_environment(monkeypatch, capsys, radius, size):
    # the verdict is a property of the presentation: no search bound but
    # the budget is read from the environment
    argv = ("decide", "--json", fixture_path("three-vertex-wild"))
    before = run(capsys, *argv)
    monkeypatch.setenv("QSA_WITNESS_RADIUS", radius)
    monkeypatch.setenv("QSA_WITNESS_SIZE", size)
    assert run(capsys, *argv) == before
    assert before[0] == 0
    assert "10-vertex cover witness" in json.loads(before[1])["summary"]


def test_witness_json_keys(capsys):
    code, out, _ = run(capsys, "witness", "--radius", "6", "--max-size", "8",
                       "--json", fixture_path("three-vertex-wild"))
    doc = json.loads(out)
    assert sorted(doc["witness"]) == [
        "basepoint", "note", "paths", "presentation", "radius", "shape",
        "vertices"]


# --- python -m qsa --------------------------------------------------------------------


def run_module(*argv, module="qsa"):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_m_qsa_runs_the_cli():
    done = run_module("check", fixture_path("one-point"))
    assert done.returncode == 0
    assert done.stdout.splitlines()[0] == "one_point: 1 vertices, 0 arrows, 0 relations"


def test_python_m_qsa_without_arguments_exits_two():
    done = run_module()
    assert done.returncode == 2
    assert "usage" in done.stderr


def test_closed_output_pipe_ends_without_a_traceback(tmp_path):
    # `qsa euler chain.qsa | head -1`: the output (about 180 kB) outgrows
    # the pipe buffer, so the CLI is still printing when the reader leaves
    n = 300
    chain = tmp_path / "chain.qsa"
    chain.write_text(f"quiver chain\nvertices: {' '.join(map(str, range(1, n + 1)))}\n"
                     + "".join(f"arrow a{i}: {i} -> {i + 1}\n" for i in range(1, n)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.Popen([sys.executable, "-m", "qsa", "euler", str(chain)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == f"vertices: {' '.join(map(str, range(1, n + 1)))}\n".encode()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_python_m_qsa_cli_runs_the_cli():
    done = run_module("check", fixture_path("a5-chain"), module="qsa.cli")
    assert done.returncode == 0
    assert done.stdout.splitlines()[0] == "a5_chain: 5 vertices, 4 arrows, 1 relations"


def test_python_m_qsa_cli_without_arguments_exits_two():
    done = run_module(module="qsa.cli")
    assert done.returncode == 2
    assert "usage" in done.stderr


# --- one parser for every call ------------------------------------------------------------


def test_cached_parser_keeps_no_options_between_calls(capsys):
    wild = fixture_path("three-vertex-wild")
    code, bounded, _ = run(capsys, "decide", wild, "--radius", "2", "--max-size", "3")
    assert code == 0
    assert bounded.splitlines()[0].startswith("NOT QUADRATIC STRING")
    code, out, _ = run(capsys, "decide", wild)
    assert code == 0
    assert out.splitlines()[0] == (
        "WILD (cycles; not quadratic string, but a wildness certificate "
        "exists: 10-vertex cover witness)")


def test_usage_error_after_a_successful_call_exits_two(capsys):
    assert run(capsys, "check", fixture_path("a5-chain"))[0] == 0
    code, out, err = run(capsys, "mutate", fixture_path("a5-chain"), "--vertex", "5")
    assert code == 2
    assert "--sign" in err


def test_parser_is_built_once(capsys):
    cli._build_parser.cache_clear()
    for argv in (["check", fixture_path("a5-chain")],
                 ["classify", fixture_path("a5-chain")],
                 ["mutate", fixture_path("a5-chain"), "--vertex", "5", "--sign", "minus"]):
        assert run(capsys, *argv)[0] == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
