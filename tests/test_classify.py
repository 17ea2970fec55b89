"""Vertex classification: gentle, exceptional classes, special vertices."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qsa.presentation import QsaError, parse_presentation
from qsa.classify import (
    GENTLE, EXCEPTIONAL, OTHER,
    classify_vertices, is_quadratic_string, is_gqs, special_vertices,
)

from conftest import load_fixture
from oracles import relabel, tree_presentations


# --- quadratic string test ---------------------------------------------------


def test_quadratic_string_holds_on_gqs_fixtures():
    for name in ("twelve-vertex-gqs", "a5-chain", "gentle-cycle", "kronecker"):
        rep = is_quadratic_string(load_fixture(name))
        assert bool(rep) and rep.violations == ()


def test_quadratic_string_fails_with_named_arrow():
    # gamma continues relation-free into both alpha and delta
    rep = is_quadratic_string(load_fixture("three-vertex-wild"))
    assert not bool(rep)
    assert any("gamma" in v and "continuation" in v for v in rep.violations)


def test_quadratic_string_rejects_binomial_ideal():
    text = (
        "quiver b\nvertices: 1 2 3 4\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 4\narrow c: 1 -> 3\narrow d: 3 -> 4\n"
        "relations:\n( a b ) - ( c d )\n"
    )
    rep = is_quadratic_string(parse_presentation(text))
    assert not bool(rep)
    assert any("path" in v for v in rep.violations)


# --- exceptional classes on the twelve-vertex fixture ------------------------


def test_twelve_vertex_exceptional_classes():
    c = classify_vertices(load_fixture("twelve-vertex-gqs"))
    assert c.exceptional[1] == ("4",)
    assert c.exceptional[2] == ("10",)
    assert c.exceptional[3] == ("3",)
    assert c.exceptional[4] == () and c.exceptional[5] == () and c.exceptional[6] == ()
    assert c.ordinary[1] == ("5", "6")
    assert c.ordinary[2] == ("11", "12")
    assert c.ordinary[3] == ("1", "2")


def test_twelve_vertex_witnesses_and_kinds():
    c = classify_vertices(load_fixture("twelve-vertex-gqs"))
    by_v = c.classes
    assert by_v["4"].witness == {"in1": "delta", "in2": "gamma",
                                 "out1": "lambda", "out2": "rho"}
    assert by_v["10"].witness == {"in1": "sigma", "in2": "eta",
                                  "out1": "tau", "out2": "epsilon"}
    assert by_v["3"].witness == {"in1": "alpha", "in2": "beta", "out1": "gamma"}
    for v in "1 2 5 6 7 8 9 11 12".split():
        assert by_v[v].kind == GENTLE
    assert c.gqs and not c.is_gentle_presentation
    assert c.exceptional_vertices == ("3", "4", "10")
    assert is_gqs(load_fixture("twelve-vertex-gqs"))


# --- gentle fixtures ----------------------------------------------------------


def test_gentle_fixtures_classify_gentle():
    for name in ("a5-chain", "kronecker", "gentle-cycle"):
        c = classify_vertices(load_fixture(name))
        assert c.is_gentle_presentation and c.gqs, name


def test_special_vertices_on_chain():
    sp = special_vertices(load_fixture("a5-chain"))
    assert sp.special == ("1", "3", "4", "5")
    assert sp.special_not_ordinary == ("1", "3", "4", "5")


def test_special_vertices_on_cycle_empty():
    assert special_vertices(load_fixture("gentle-cycle")).special == ()


def test_special_vertices_rejects_non_quadratic_before_connectivity():
    # disconnected, with a relation of length three: the shape error wins
    text = ("quiver c\nvertices: 1 2 3 4 5\n"
            "arrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 4\n"
            "relations:\na b c\n")
    with pytest.raises(QsaError, match="quadratic relations"):
        special_vertices(parse_presentation(text))


def test_special_not_ordinary_excludes_marked_vertices():
    sp = special_vertices(load_fixture("twelve-vertex-gqs"))
    assert set(sp.special_not_ordinary) <= set(sp.special)
    assert not set(sp.special_not_ordinary) & set(sp.ordinary)


# --- local fixtures for single classes ---------------------------------------


def test_e3_local_is_class_three():
    c = classify_vertices(load_fixture("e3-local"))
    assert c.exceptional[3] == ("3",)
    assert c.ordinary[3] == ("1", "2")
    assert any("4" in d for d in c.diagnostics)


def test_case4_local_is_class_four():
    c = classify_vertices(load_fixture("case4-local"))
    assert c.exceptional[4] == ("3",)
    assert c.ordinary[4] == ("1", "4")
    assert c.classes["3"].witness == {"in1": "alpha", "in2": "beta",
                                      "out1": "gamma"}


# --- vertices that are neither -------------------------------------------------


def test_fork_tail_vertex_is_other():
    c = classify_vertices(load_fixture("fork-tail-10"))
    assert c.classes["3"].kind == OTHER
    assert c.is_quadratic_string and not c.gqs


def test_two_cycle_vertex_is_other():
    c = classify_vertices(load_fixture("two-cycle"))
    assert c.classes["2"].kind == OTHER
    assert c.is_quadratic_string and not c.gqs


def test_three_vertex_wild_not_quadratic_string():
    c = classify_vertices(load_fixture("three-vertex-wild"))
    assert not c.is_quadratic_string and not c.gqs
    assert c.classes["b"].kind == OTHER


# --- error handling -----------------------------------------------------------


def test_classify_rejects_binomial_ideal():
    text = (
        "quiver b\nvertices: 1 2 3 4\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 4\narrow c: 1 -> 3\narrow d: 3 -> 4\n"
        "relations:\n( a b ) - ( c d )\n"
    )
    with pytest.raises(QsaError):
        classify_vertices(parse_presentation(text))


def test_classify_rejects_a_disconnected_quiver():
    two = parse_presentation("quiver two\nvertices: 1 2 3\narrow a: 1 -> 2\n")
    with pytest.raises(QsaError) as err:
        classify_vertices(two)
    assert str(err.value) == "classification needs a connected quiver"


def test_classify_refuses_a_quiver():
    with pytest.raises(QsaError) as err:
        classify_vertices(load_fixture("three-vertex-wild").quiver)
    assert str(err.value) == "classification needs an AlgebraPresentation"


_FOUR_ARROW_FAULTS = ("quiver x\nvertices: 1 2 3 4 5\narrow a: 1 -> 2\n"
                      "arrow d: 5 -> 2\narrow b: 2 -> 3\narrow c: 2 -> 4\n")


def test_classification_does_not_depend_on_the_hash_seed():
    # every arrow at vertex 2 has two continuations or two predecessors
    code = ("import sys; from qsa.presentation import parse_presentation; "
            "from qsa.classify import classify_vertices; "
            "print(repr(classify_vertices(parse_presentation(sys.argv[1]))))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", code, _FOUR_ARROW_FAULTS],
                             env=env, capture_output=True, text=True, check=True)
        out.append(run.stdout)
    assert "'a'" in out[0] and "'d'" in out[0]
    assert out[0] == out[1]


# --- relabeling invariance ----------------------------------------------------

_TREES = list(tree_presentations())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_classification_is_relabel_invariant(data):
    a = _TREES[data.draw(st.integers(0, len(_TREES) - 1))]
    verts = list(a.quiver.vertices)
    perm = data.draw(st.permutations(verts))
    vmap = dict(zip(verts, ["w" + p for p in perm]))
    b = relabel(a, vmap)
    ca, cb = classify_vertices(a), classify_vertices(b)
    assert ca.is_quadratic_string == cb.is_quadratic_string
    assert ca.gqs == cb.gqs
    for v in verts:
        assert ca.classes[v].kind == cb.classes[vmap[v]].kind
        assert (ca.classes[v].exceptional_class
                == cb.classes[vmap[v]].exceptional_class)
