"""Underlying graph types, truncated covers, wild witnesses, local patterns."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from qsa.presentation import (
    AlgebraPresentation, QsaError, Quiver, RelationTerm, natural_key,
    parse_presentation, presentations_isomorphic, underlying_graph,
)
from qsa.decide import decide_derived_type
from qsa import covering
from qsa.covering import (
    detect_local_wild_pattern, find_wild_witness, graph_type, truncated_cover,
)

from conftest import load_fixture
from oracles import random_multigraph, sympy_graph_kind


def _arms(*lengths):
    verts, edges = ["c"], []
    for k, ln in enumerate(lengths):
        prev = "c"
        for i in range(ln):
            v = f"a{k}_{i}"
            verts.append(v)
            edges.append((prev, v))
            prev = v
    return verts, edges


# --- graph type ----------------------------------------------------------------


GRAPH_LABELS = [
    (list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")], "A5"),
    (["x"], [], "A1"),
    (["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1")], "~A2"),
    (["u", "v"], [("u", "v"), ("v", "u")], "~A1"),
    (["z"], [("z", "z")], "~A0"),
    (["c", "1", "2", "3", "4"],
     [("c", str(i)) for i in range(1, 5)], "~D4"),
    (["c", "1", "2", "3", "4", "5"],
     [("c", str(i)) for i in range(1, 6)], "Other"),
    _arms(1, 1, 1) + ("D4",),
    _arms(1, 1, 3) + ("D6",),
    _arms(1, 2, 2) + ("E6",),
    _arms(2, 2, 2) + ("~E6",),
    _arms(1, 2, 3) + ("E7",),
    _arms(1, 3, 3) + ("~E7",),
    _arms(1, 2, 4) + ("E8",),
    _arms(1, 2, 5) + ("~E8",),
    _arms(1, 2, 6) + ("Other",),
    _arms(2, 2, 3) + ("Other",),
    (["u", "w", "l1", "l2", "l3", "l4"],
     [("u", "w"), ("u", "l1"), ("u", "l2"), ("w", "l3"), ("w", "l4")], "~D5"),
]


@pytest.fixture
def cold_graph_cache():
    covering._indexed_graph_type.cache_clear()
    yield
    covering._indexed_graph_type.cache_clear()


@pytest.mark.parametrize("verts, edges, label", GRAPH_LABELS)
def test_graph_type_labels(verts, edges, label):
    assert graph_type(verts, edges).label == label


def test_graph_type_label_ignores_vertex_and_edge_order(cold_graph_cache):
    # each order is a different memo key for the same graph
    rng = random.Random(0)
    for verts, edges, label in GRAPH_LABELS:
        for _ in range(4):
            vs = rng.sample(verts, len(verts))
            es = [e[::-1] if rng.random() < 0.5 else e
                  for e in rng.sample(edges, len(edges))]
            assert graph_type(vs, es).label == label


def test_graph_type_memo_tells_apart_equal_degree_sequences(cold_graph_cache):
    verts = list("cpqrst")
    d6 = [("c", "p"), ("c", "q"), ("c", "r"), ("r", "s"), ("s", "t")]
    e6 = [("c", "p"), ("c", "q"), ("q", "r"), ("c", "s"), ("s", "t")]
    for first, second, labels in ((d6, e6, ["D6", "E6"]), (e6, d6, ["E6", "D6"])):
        covering._indexed_graph_type.cache_clear()
        assert [graph_type(verts, first).label, graph_type(verts, second).label] == labels


def test_graph_type_disagreement_is_never_cached(cold_graph_cache, monkeypatch):
    verts, edges = list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]
    monkeypatch.setattr(covering, "psd_flags", lambda gram: (False, False))
    for _ in range(2):
        with pytest.raises(QsaError, match="disagrees with the form sign test"):
            graph_type(verts, edges)
    monkeypatch.undo()
    assert graph_type(verts, edges).label == "A5"


def test_graph_type_is_read_only():
    shape = graph_type(["x"], [])
    with pytest.raises(AttributeError):
        shape.kind = "Other"
    assert graph_type(["x"], []).label == "A1"


@pytest.mark.parametrize("verts, edges", [
    (["a", "b"], [("a",)]),
    (["a", "b", "c"], [("a", "b", "c")]),
    (["a", "b"], ["ab"]),
    ([["a"], "b"], [("b", "b")]),
    (["a", "b"], [(["a"], "b")]),
    (["a", "b"], [("a", "z")]),
])
def test_graph_type_rejects_malformed_input(verts, edges):
    with pytest.raises(QsaError):
        graph_type(verts, edges)


def test_graph_type_pendant_chain_is_other():
    verts = [f"z{i}" for i in range(1, 7)] + ["w3", "w5"]
    edges = ([(f"z{i}", f"z{i+1}") for i in range(1, 6)]
             + [("w3", "z3"), ("w5", "z5")])
    assert graph_type(verts, edges).label == "Other"


def test_graph_type_requires_connected():
    with pytest.raises(QsaError):
        graph_type(["a", "b"], [])


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_graph_type_kind_matches_gram_signature(seed):
    verts, edges = random_multigraph(random.Random(seed))
    assert graph_type(verts, edges).kind == sympy_graph_kind(verts, edges)


# --- truncated covers ------------------------------------------------------------


def test_tree_base_is_its_own_cover():
    a5 = load_fixture("a5-chain")
    ball = truncated_cover(a5, "1", 6)
    assert len(ball.level) == 5
    assert presentations_isomorphic(ball.cover, a5)


def test_loop_cover_unrolls_to_a_line():
    loop = parse_presentation(
        "quiver loop1\nvertices: v\narrow d: v -> v\nrelations:\nd d\n")
    lb = truncated_cover(loop, "v", 2)
    cq = lb.cover.quiver
    assert set(cq.vertices) == {"v", "v.d", "v.d.d", "v.d'", "v.d'.d'"}
    assert len(cq.arrows) == 4
    assert graph_type(*underlying_graph(lb.cover)).label == "A5"
    assert len(lb.cover.monomials) == 3
    assert all(len(m) == 2 for m in lb.cover.monomials)


@pytest.mark.parametrize("base", ["a", "b", "c"])
def test_cover_invariants_on_cyclic_fixture(base):
    wild = load_fixture("three-vertex-wild")
    ball = truncated_cover(wild, base, 4)
    q4 = ball.cover.quiver
    # a ball in the universal cover is a tree
    assert len(q4.arrows) == len(q4.vertices) - 1
    # arrows project onto base arrows with matching endpoints
    for ar in q4.arrows:
        base_ar = wild.quiver.arrow(ball.arrow_map[ar.name])
        assert ball.vertex_map[ar.source] == base_ar.source
        assert ball.vertex_map[ar.target] == base_ar.target
    # interior vertices look locally like the base
    for v in ball.interior_vertices():
        bv = ball.vertex_map[v]
        assert sorted(ball.arrow_map[x.name] for x in q4.out_arrows(v)) == \
            sorted(x.name for x in wild.quiver.out_arrows(bv))
        assert sorted(ball.arrow_map[x.name] for x in q4.in_arrows(v)) == \
            sorted(x.name for x in wild.quiver.in_arrows(bv))
    # relations project onto base relations
    for mono in ball.cover.monomials:
        assert tuple(ball.arrow_map[x] for x in mono) in wild.monomials


# --- wild witnesses ---------------------------------------------------------------


def test_witness_found_in_cover_of_wild_fixture():
    wild = load_fixture("three-vertex-wild")
    w = find_wild_witness(wild, radius=6, max_size=8)
    assert w is not None
    assert w.shape.label == "Other"
    assert w.vertices == (
        "a", "a.alpha", "a.alpha.beta", "a.alpha.beta.delta'",
        "a.alpha.beta.delta'.alpha", "a.alpha.beta.delta'.alpha.beta",
        "a.alpha.beta.gamma.alpha", "a.alpha.beta.gamma.alpha.beta")
    # the induced presentation has vanishing radical square
    warr = w.presentation.quiver.arrows
    for p in warr:
        for r in warr:
            if p.target == r.source:
                assert (p.name, r.name) in w.presentation.monomials


def test_witness_search_can_target_a_shape():
    wild = load_fixture("three-vertex-wild")
    target = load_fixture("expected-delta")
    wd = find_wild_witness(wild, radius=6, max_size=8, like=target)
    assert wd is not None
    assert presentations_isomorphic(wd.presentation, target)
    assert wd.shape.label == "Other"
    assert wd.vertices == (
        "a", "a.alpha", "a.alpha.beta", "a.alpha.beta.delta'",
        "a.alpha.beta.gamma.alpha", "a.alpha.beta.gamma.alpha.beta",
        "a.alpha.beta.gamma.alpha.beta.delta'",
        "a.alpha.beta.gamma.alpha.beta.gamma")


def test_targeted_witness_payload_is_frozen():
    wd = find_wild_witness(load_fixture("three-vertex-wild"), radius=6, max_size=8,
                           like=load_fixture("expected-delta"))
    payload = json.dumps(wd.to_payload(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "2b978bc9bd13f711cac3fb23aede7bba8daade9351527f79c0e6556bf85c5a81")


def _cubic_cycle(n=6):
    return parse_presentation(
        f"quiver cycle{n}\nvertices: " + " ".join(map(str, range(1, n + 1))) + "\n"
        + "".join(f"arrow a{i}: {i} -> {i % n + 1}\n" for i in range(1, n + 1))
        + "relations:\na1 a2 a3\n")


def test_exhaustive_search_classifies_every_valid_subset(monkeypatch):
    # one graph_type call per valid subset of size 2..10 in every ball: a
    # subset that the enumeration drops or adds changes the count
    monkeypatch.delenv("QSA_WITNESS_BUDGET", raising=False)
    cycle = _cubic_cycle()
    calls = 0
    classify = covering.graph_type

    def counting(*args):
        nonlocal calls
        calls += 1
        return classify(*args)

    monkeypatch.setattr(covering, "graph_type", counting)
    assert covering._witness_search(cycle, 8, 10) == (None, False)
    assert calls == 1504


def _count_builds(monkeypatch):
    built = {}
    for cls in (Quiver, RelationTerm, AlgebraPresentation):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] = built.get(_name, 0) + 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_search_builds_no_presentation_per_ball(monkeypatch):
    monkeypatch.delenv("QSA_WITNESS_BUDGET", raising=False)
    cycle = _cubic_cycle()
    wild = load_fixture("three-vertex-wild")
    built = _count_builds(monkeypatch)
    assert find_wild_witness(cycle, 8, 10) is None
    assert built == {}
    w = find_wild_witness(wild, radius=6, max_size=8)
    # the witness's quiver and presentation, and one relation per
    # composable pair of its arrows
    assert built == {"Quiver": 1, "AlgebraPresentation": 1,
                     "RelationTerm": len(w.presentation.relations)}
    # the ball keeps its arrays; its presentation is built on first read
    assert w.ball.basepoint == w.basepoint == "a" and w.radius == 6
    assert w.ball.cover == truncated_cover(wild, "a", 6).cover


def test_search_leaves_the_natural_key_cache_alone():
    natural_key.cache_clear()
    cycle = _cubic_cycle()
    before = natural_key.cache_info().currsize
    assert find_wild_witness(cycle, 8, 10) is None
    assert natural_key.cache_info().currsize == before


@pytest.mark.parametrize("radius, max_size, message", [
    (3, -1, "witness size must be >= 0"),
    (-2, 1, "cover radius must be >= 0"),
    (-1, 10, "cover radius must be >= 0"),
])
def test_search_refuses_negative_bounds(radius, max_size, message):
    wild = load_fixture("three-vertex-wild")
    with pytest.raises(QsaError, match=message):
        find_wild_witness(wild, radius, max_size)
    with pytest.raises(QsaError, match=message):
        decide_derived_type(wild, radius, max_size)


@pytest.mark.parametrize("max_size", [0, 1])
def test_search_below_two_vertices_finds_nothing(max_size):
    assert covering._witness_search(load_fixture("three-vertex-wild"), 3, max_size) == (
        None, False)


def test_witness_bound_matters_for_triple_arrow():
    triple = parse_presentation(
        "quiver triple\nvertices: 1 2\n"
        "arrow a: 1 -> 2\narrow b: 1 -> 2\narrow c: 1 -> 2\n")
    # no shape on 6 or fewer vertices with degree 3 is indefinite
    assert find_wild_witness(triple, radius=4, max_size=6) is None
    w = find_wild_witness(triple, radius=4, max_size=8)
    assert w is not None and w.shape.label == "Other"
    assert w.vertices == (
        "1", "1.a", "1.a.b'", "1.a.b'.a", "1.a.b'.a.b'", "1.a.b'.a.c'",
        "1.a.b'.c")


def test_no_witness_in_tame_presentations():
    a3 = parse_presentation(
        "quiver a3\nvertices: 1 2 3\narrow f: 1 -> 2\narrow g: 2 -> 3\n")
    assert find_wild_witness(a3, radius=4, max_size=6) is None
    assert find_wild_witness(load_fixture("kronecker"),
                             radius=6, max_size=8) is None


# --- local wildness patterns ---------------------------------------------------------


def test_fork_tail_pattern_detected():
    p = detect_local_wild_pattern(load_fixture("fork-tail-10"))
    assert p is not None and p.kind == "fork-tail"


def test_two_cycle_pattern_detected():
    p = detect_local_wild_pattern(load_fixture("two-cycle"))
    assert p is not None and p.kind == "two-cycle"
    assert p.arrows == {"forward": "alpha", "backward": "gamma",
                        "extra": "beta", "side": "in"}


def test_patterns_absent_on_tame_and_reducible_fixtures():
    for name in ("gentle-cycle", "twelve-vertex-gqs", "three-vertex-wild"):
        assert detect_local_wild_pattern(load_fixture(name)) is None
