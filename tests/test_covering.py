"""Underlying graph types, truncated covers, wild witnesses, local patterns."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from qsa.presentation import (
    AlgebraPresentation, QsaError, Quiver, RelationTerm, natural_key,
    parse_presentation, presentations_isomorphic, serialize_presentation,
    underlying_graph, validate,
)
from qsa.cli import run_cli
from qsa.decide import decide_derived_type
from qsa import covering
from qsa.covering import (
    CoverBall, detect_local_wild_pattern, find_wild_witness, graph_type, truncated_cover,
)

from conftest import all_fixture_names, load_fixture
from oracles import (
    interior_vertices, random_multigraph, random_witness_texts, relation_free_paths,
    sympy_graph_kind, valid_subset_counts,
)


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
    for v in interior_vertices(ball):
        bv = ball.vertex_map[v]
        assert sorted(ball.arrow_map[x.name] for x in q4.out_arrows(v)) == \
            sorted(x.name for x in wild.quiver.out_arrows(bv))
        assert sorted(ball.arrow_map[x.name] for x in q4.in_arrows(v)) == \
            sorted(x.name for x in wild.quiver.in_arrows(bv))
    # relations project onto base relations
    for mono in ball.cover.monomials:
        assert tuple(ball.arrow_map[x] for x in mono) in wild.monomials


# inputs that no cover, witness search or local pattern test takes
_REFUSED = {
    "square": ("quiver sq\nvertices: 1 2 3 4\narrow p: 1 -> 2\narrow q: 2 -> 4\n"
               "arrow r: 1 -> 3\narrow s: 3 -> 4\nrelations:\n( p q ) - ( r s )\n"),
    "free-loop": "quiver loop0\nvertices: v\narrow d: v -> v\n",
    "two-points": "quiver two\nvertices: v w\n",
}


@pytest.mark.parametrize("build", [CoverBall, truncated_cover])
@pytest.mark.parametrize("name, basepoint, radius, message", [
    ("quiver", "a", 2, "truncated_cover needs an AlgebraPresentation"),
    ("square", "1", -1, "covers are only built for monomial presentations"),
    ("three-vertex-wild", "zz", -1, "cover radius must be >= 0"),
    ("three-vertex-wild", "a", "2", "cover radius must be an integer, got '2'"),
    ("three-vertex-wild", "a", True, "cover radius must be an integer, got True"),
    ("three-vertex-wild", "zz", 2, "unknown basepoint 'zz'"),
    ("two-points", "v", 2, "cover construction needs a connected quiver"),
    ("free-loop", "v", 2, "cover construction needs a certified admissible ideal"),
])
def test_cover_ball_checks_its_arguments(build, name, basepoint, radius, message):
    # the checks run in this order, whether the ball is built on its own
    # or through truncated_cover
    if name == "quiver":
        a = load_fixture("three-vertex-wild").quiver
    else:
        a = parse_presentation(_REFUSED[name]) if name in _REFUSED else load_fixture(name)
    with pytest.raises(QsaError) as err:
        build(a, basepoint, radius)
    assert str(err.value) == message


_LOOP_BALL = ("quiver loopb\nvertices: 1 2\narrow a1: 1 -> 1\narrow b: 1 -> 2\n"
              "relations:\na1 a1\n")

# names that a derived sort key could get wrong: dots, primes and @ inside
# arrow names, leading zeros and digit-ending arrows; in "collide" the walk
# a, b and the arrow a.b both give the name 1.a.b, and in "clash" the cover
# arrows x@(p.a@p.c) and x@p.a@(p.c) collide, so _claim renames one of each;
# the source p.c is reached first but p.a@p.c sorts first
_NAMED_BALLS = {
    "loop": _LOOP_BALL,
    "collide": ("quiver collide\nvertices: 1 2 3 4\narrow a: 1 -> 2\n"
                "arrow a.b: 1 -> 3\narrow b: 2 -> 4\n"),
    "clash": ("quiver clash\nvertices: p s t\narrow c: p -> p\narrow a@p: p -> p\n"
              "arrow x: p -> s\narrow x@p.a: p -> t\n"
              "relations:\nc c\nc a@p\na@p c\na@p a@p\n"),
    "zeros": ("quiver zeros\nvertices: 01 1 007 v10\narrow a1: 01 -> 1\n"
              "arrow a01: 01 -> 1\narrow b10: 1 -> 007\narrow b': 007 -> v10\n"
              "arrow c2: v10 -> 01\nrelations:\na1 b10\nb10 b'\nb' c2\nc2 a01\n"),
}


def test_ball_vertices_are_in_name_order_not_depth_first():
    # ' sorts before ., so the subtree of 1.a1' comes between 1.a1 and its
    # own child 1.a1.a1
    ball = CoverBall(parse_presentation(_LOOP_BALL), "1", 3)
    assert ball._names == (
        "1", "1.a1", "1.a1'", "1.a1'.a1'", "1.a1'.a1'.a1'", "1.a1'.a1'.b",
        "1.a1'.b", "1.a1.a1", "1.a1.a1.a1", "1.a1.a1.b", "1.a1.b", "1.b")


def test_claimed_names_are_keyed_in_full():
    ball = CoverBall(parse_presentation(_NAMED_BALLS["collide"]), "1", 2)
    assert ball._names == ("1", "1.a", "1.a.b", "1.a.b~")
    assert ball.vertex_map == {"1": "1", "1.a": "2", "1.a.b": "3", "1.a.b~": "4"}
    # arrows are claimed in walk order, not in the order of their sources
    clash = CoverBall(parse_presentation(_NAMED_BALLS["clash"]), "p", 3)
    assert (clash.arrow_map["x@p.a@p.c"], clash.arrow_map["x@p.a@p.c~"]) == ("x@p.a", "x")


def test_ball_keys_and_covers_match_the_oracle():
    # every connected monomial fixture and named example, at every
    # basepoint and radius 0..5: vertices in natural_key order, and the
    # cover and its maps frozen
    cases = [load_fixture(n) for n in all_fixture_names()]
    cases += [parse_presentation(text) for text in _NAMED_BALLS.values()]
    digest = hashlib.sha256()
    for a in cases:
        if not (a.is_monomial and validate(a).connected):
            continue
        for base in a.quiver.vertices:
            for radius in range(6):
                ball = CoverBall(a, base, radius)
                assert ball._names == tuple(sorted(ball._names, key=natural_key))
                digest.update(serialize_presentation(ball.cover).encode())
                digest.update(json.dumps([sorted(ball.arrow_map.items()),
                                          sorted(ball.vertex_map.items())]).encode())
    assert digest.hexdigest() == (
        "62a211937cf1f2b789445273c3ee946650ab1c9afec42e1fc203dc39de753c5f")


# names whose digit runs exceed 4,300 digits, at their ends and inside: a
# walk name extends a digit run, a text run, or a name with leading zeros
_LONG_A, _LONG_B = "v" + "1" * 4301, "9" * 4400 + "a"
_LONG_X, _LONG_Y = "0005" + "5" * 4300, "b" + "2" * 4302 + "c"
_LONG_RUNS_BASE = (f"quiver long\nvertices: {_LONG_A} {_LONG_B} 007\n"
                   f"arrow {_LONG_X}: {_LONG_A} -> {_LONG_B}\n"
                   f"arrow {_LONG_Y}: {_LONG_B} -> {_LONG_A}\narrow z1: {_LONG_B} -> 007\n"
                   f"relations:\n{_LONG_X} {_LONG_Y}\n{_LONG_Y} {_LONG_X}\n{_LONG_X} z1\n")


def test_ball_keys_are_the_natural_keys_of_its_names(monkeypatch):
    # _ball_arrays derives a child's key from its parent's; catch the keys
    # it sorts the ball by, and compare them with natural_key of the names,
    # on every basepoint of the witness corpus, its renamed walks included,
    # and of a base with long digit runs
    caught = []

    def catching(items, key=None):
        if isinstance(getattr(key, "__self__", None), list):
            caught.append(key.__self__)
        return sorted(items, key=key)

    monkeypatch.setattr(covering, "sorted", catching, raising=False)
    texts = random_witness_texts(WITNESS_CORPUS_SEED, WITNESS_CORPUS_SIZE)
    balls = 0
    for a in map(parse_presentation, texts + [_LONG_RUNS_BASE]):
        for base in a.quiver.vertices:
            ball = CoverBall(a, base, 4)
            (keys,) = caught
            assert sorted(keys) == sorted(map(natural_key, ball._names))
            caught.clear()
            balls += 1
    assert balls == 162



# --- the survival tables --------------------------------------------------------


# the cover arrows p@r.q@(r) and p@(r.q@r) share a name: the second, made
# later in the walk, is renamed p@r.q@r~
_AT_BASE = ("quiver at\nvertices: r t u\narrow p@r.q: r -> u\narrow q@r: r -> t\n"
            "arrow p: t -> u\n")


def _check_survival_tables(ball):
    # the search's tables against the oracle's relation-free tree paths:
    # the pairs and their interiors, the base arrows and sources rebuilt
    # from the predecessors, and the cover arrow names along each path
    paths = relation_free_paths(ball)
    adj, link, steps = covering._survival(ball, 10 ** 9)
    name = covering._arrow_namer(ball)
    found = {}
    for i, row in enumerate(link):
        assert adj[i] == sum(1 << j for j in row)
        for j, (arc, imask, _, _) in row.items():
            assert arc in ((i, j), (j, i)) and link[j][i] is row[j]
            found[arc] = {k for k in range(imask.bit_length()) if imask >> k & 1}
    assert found == {pair: inner for pair, (inner, _, _) in paths.items()}
    assert steps == len(paths)
    for (i, j), (_, sources, arrows) in paths.items():
        walk, path = covering._path(link, i, j)
        assert (tuple(walk), tuple(path)) == (sources, arrows)
        for s, b in zip(walk, path):
            assert name((s, b)) == ball._arrow_names[s, b]


def test_survival_tables_match_the_oracle_on_the_fixtures():
    # radius 0..6 on the fixtures, and 0..4 on the named balls, whose cover
    # arrows in "clash" are renamed
    cases = [(load_fixture(n), 7) for n in all_fixture_names()]
    cases += [(parse_presentation(text), 5) for text in _NAMED_BALLS.values()]
    for a, radii in cases:
        report = validate(a)
        if not (a.is_monomial and report.connected and report.admissible):
            continue
        for base in a.quiver.vertices:
            for radius in range(radii):
                _check_survival_tables(CoverBall(a, base, radius))


def test_survival_tables_match_the_oracle_on_the_witness_corpus():
    for text in random_witness_texts(WITNESS_CORPUS_SEED, WITNESS_CORPUS_SIZE):
        a = parse_presentation(text)
        for base in a.quiver.vertices:
            _check_survival_tables(CoverBall(a, base, 4))


def test_survival_tables_keep_a_renamed_cover_arrow():
    ball = CoverBall(parse_presentation(_AT_BASE), "r", 3)
    at = ball._arrow_names
    first, second = ball._names.index("r"), ball._names.index("r.q@r")
    assert (at[first, "p@r.q"], at[second, "p"]) == ("p@r.q@r", "p@r.q@r~")
    _check_survival_tables(ball)
    adj, link, _ = covering._survival(ball, 10 ** 6)
    name = covering._arrow_namer(ball)
    walk, path = covering._path(link, second, ball._names.index("r.q@r.p"))
    assert [name(sb) for sb in zip(walk, path)] == ["p@r.q@r~"]

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
    # one graph_type call per valid subset of size 4..10 in every ball: a
    # subset that the enumeration drops or adds changes the count.  Subsets
    # of 2 and 3 vertices are never Other, so they are not classified; the
    # brute-force oracle counts every size
    monkeypatch.delenv("QSA_WITNESS_BUDGET", raising=False)
    cycle = _cubic_cycle()
    calls = {}
    classify = covering.graph_type

    def counting(vertices, edges):
        calls[len(vertices)] = calls.get(len(vertices), 0) + 1
        return classify(vertices, edges)

    monkeypatch.setattr(covering, "graph_type", counting)
    assert covering._witness_search(cycle, 8, 10) == (None, False)
    assert calls == {4: 448, 5: 32}
    valid = {}
    for base in cycle.quiver.vertices:
        for size, count in valid_subset_counts(CoverBall(cycle, base, 8), 10).items():
            valid[size] = valid.get(size, 0) + count
    assert valid == {2: 376, 3: 648, 4: 448, 5: 32}


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


@pytest.mark.parametrize("name, like, message", [
    ("square", None, "the wildness witness search needs a monomial presentation"),
    ("three-vertex-wild", "Other", "the witness target must be an AlgebraPresentation"),
    ("two-points", None, "cover construction needs a connected quiver"),
    ("free-loop", None, "cover construction needs a certified admissible ideal"),
])
def test_search_refuses_bad_input(name, like, message):
    a = parse_presentation(_REFUSED[name]) if name in _REFUSED else load_fixture(name)
    with pytest.raises(QsaError) as err:
        find_wild_witness(a, 3, 4, like)
    assert str(err.value) == message


@pytest.mark.parametrize("radius, max_size, message", [
    (2.5, 4, "cover radius must be an integer, got 2.5"),
    (3, "4", "witness size must be an integer, got '4'"),
    (None, 4.0, "witness size must be an integer, got 4.0"),
    (True, 4, "cover radius must be an integer, got True"),
    (3, True, "witness size must be an integer, got True"),
])
def test_search_refuses_non_integer_bounds(radius, max_size, message):
    with pytest.raises(QsaError) as err:
        find_wild_witness(load_fixture("three-vertex-wild"), radius, max_size)
    assert str(err.value) == message


def test_search_refuses_a_quiver():
    with pytest.raises(QsaError) as err:
        find_wild_witness(load_fixture("three-vertex-wild").quiver)
    assert str(err.value) == "the wildness witness search needs an AlgebraPresentation"


def test_search_refuses_a_non_integer_budget_in_the_environment(monkeypatch):
    monkeypatch.setenv("QSA_WITNESS_BUDGET", "many")
    with pytest.raises(QsaError) as err:
        find_wild_witness(load_fixture("three-vertex-wild"))
    assert str(err.value) == (
        "environment variable QSA_WITNESS_BUDGET must be an integer, got 'many'")


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



# the frozen outputs of the seeded witness corpus: 40 cyclic monomial
# presentations whose names mix dots, primes, @, ~ and leading zeros
WITNESS_CORPUS_SEED, WITNESS_CORPUS_SIZE = 5, 40
WITNESS_CORPUS_SHA256 = "80f53ccb5e5db030fb1017d9b7cc31998779ca8c27609adc8c6ebcfc8502e5b9"


def _search_record(a, radius, max_size, like=None):
    w, budget_hit = covering._witness_search(a, radius, max_size, like)
    return json.dumps([w and w.to_payload(), budget_hit]).encode(), w


def test_witness_corpus_digest_is_frozen(monkeypatch):
    # every basepoint's ball arrays at radius 4, the searches at (radius,
    # size) (4, 6) and (6, 8), and a targeted search at (6, 8): for the
    # (4, 6) witness where there is one, else for expected-delta
    monkeypatch.delenv("QSA_WITNESS_BUDGET", raising=False)
    digest = hashlib.sha256()
    for text in random_witness_texts(WITNESS_CORPUS_SEED, WITNESS_CORPUS_SIZE):
        a = parse_presentation(text)
        for base in a.quiver.vertices:
            ball = CoverBall(a, base, 4)
            digest.update(json.dumps([ball._names, ball._levels, ball._proj, ball._edges,
                                      ball._out, ball._reached]).encode())
        record, small = _search_record(a, 4, 6)
        digest.update(record)
        digest.update(_search_record(a, 6, 8)[0])
        like = small.presentation if small is not None else load_fixture("expected-delta")
        digest.update(_search_record(a, 6, 8, like)[0])
    assert digest.hexdigest() == WITNESS_CORPUS_SHA256

# --- local wildness patterns ---------------------------------------------------------


def test_fork_tail_pattern_detected():
    p = detect_local_wild_pattern(load_fixture("fork-tail-10"))
    assert p is not None and p.kind == "fork-tail"


def test_fork_tail_pattern_with_a_tail_along_out_arrows():
    # the tail leaves the fork at the target of gamma along t1..t5
    a = parse_presentation(
        "quiver ft\nvertices: 1 2 3 4 5 6 7 8 9 10\n"
        "arrow alpha: 1 -> 3\narrow beta: 2 -> 3\n"
        "arrow gamma: 3 -> 4\narrow delta: 3 -> 5\n"
        "arrow t1: 4 -> 6\narrow t2: 6 -> 7\narrow t3: 7 -> 8\n"
        "arrow t4: 8 -> 9\narrow t5: 9 -> 10\n"
        "relations:\nalpha gamma\nalpha delta\nbeta gamma\nbeta delta\n"
        "gamma t1\nt1 t2\nt2 t3\nt3 t4\nt4 t5\n")
    p = detect_local_wild_pattern(a)
    assert p is not None and p.kind == "fork-tail"
    assert p.arrows["attach"] == "4"
    assert p.arrows["tail"] == tuple((f"t{i}", 1) for i in range(1, 6))
    assert p.vertices[-5:] == ("6", "7", "8", "9", "10")


def test_two_cycle_pattern_detected():
    p = detect_local_wild_pattern(load_fixture("two-cycle"))
    assert p is not None and p.kind == "two-cycle"
    assert p.arrows == {"forward": "alpha", "backward": "gamma",
                        "extra": "beta", "side": "in"}


def test_patterns_absent_on_tame_and_reducible_fixtures():
    for name in ("gentle-cycle", "twelve-vertex-gqs", "three-vertex-wild"):
        assert detect_local_wild_pattern(load_fixture(name)) is None


@pytest.mark.parametrize("name, message", [
    ("square", "local wildness patterns are defined for monomial presentations"),
    ("free-loop", "local wildness patterns need a certified admissible ideal"),
])
def test_pattern_search_refuses_bad_input(name, message):
    with pytest.raises(QsaError) as err:
        detect_local_wild_pattern(parse_presentation(_REFUSED[name]))
    assert str(err.value) == message


def test_pattern_search_refuses_a_quiver():
    with pytest.raises(QsaError) as err:
        detect_local_wild_pattern(load_fixture("three-vertex-wild").quiver)
    assert str(err.value) == "local wildness patterns need an AlgebraPresentation"


# --- the ball bound ---------------------------------------------------------------


_LOOP_TAIL = parse_presentation(
    "quiver lt\nvertices: 1 2 3\narrow a: 1 -> 1\narrow b: 1 -> 2\narrow c: 3 -> 1\n"
    "relations:\na a\nc b\n")


@pytest.mark.parametrize("name", ["three-vertex-wild", "kronecker", "gentle-cycle",
                                  "twelve-vertex-gqs", "loop-tail"])
def test_ball_count_is_exact(monkeypatch, name):
    # the count the bound reads equals the size of the ball it stands for,
    # through the exact per-level count (cap n - 1, below the crude bound)
    # and through the crude bound alone (cap n)
    monkeypatch.delenv("QSA_WITNESS_BUDGET", raising=False)
    a = _LOOP_TAIL if name == "loop-tail" else load_fixture(name)
    q = a.quiver
    for base in q.vertices:
        for radius in range(7):
            n = len(CoverBall(a, base, radius)._names)
            assert covering._ball_exceeds(q, base, radius, n - 1)
            assert not covering._ball_exceeds(q, base, radius, n)


def test_ball_over_the_cap_is_refused_before_it_is_built(monkeypatch):
    # radius 30 would build on the order of 10^7 vertices: the count refuses
    # it at once, and a search records a budget hit for each basepoint
    monkeypatch.delenv("QSA_WITNESS_BUDGET", raising=False)
    a = load_fixture("three-vertex-wild")
    monkeypatch.setattr(covering, "_ball_arrays", None)   # never reached
    with pytest.raises(QsaError) as err:
        truncated_cover(a, "a", 30)
    assert str(err.value) == (
        "the cover ball of radius 30 at 'a' has more than 400001 vertices, the "
        "witness budget plus one (QSA_WITNESS_BUDGET raises it)")
    assert covering._witness_search(a, 30, 10) == (None, True)


def test_ball_cap_changes_no_search_outcome(monkeypatch):
    # a ball of n vertices has n - 1 arrows, each a step of the survival
    # pass, so a budget below n - 1 runs out on the ball anyway: the cap
    # (budget plus one) refuses exactly the balls the pass could not finish
    monkeypatch.delenv("QSA_WITNESS_BUDGET", raising=False)
    a = load_fixture("three-vertex-wild")
    ball = CoverBall(a, "a", 6)
    n = len(ball._names)
    with pytest.raises(covering._Budget):
        covering._survival(ball, n - 2)
    monkeypatch.setenv("QSA_WITNESS_BUDGET", str(n - 2))
    with pytest.raises(QsaError, match=f"more than {n - 1} vertices"):
        CoverBall(a, "a", 6)
    monkeypatch.setenv("QSA_WITNESS_BUDGET", str(n - 1))
    assert len(CoverBall(a, "a", 6)._names) == n


_CUBIC_CYCLE6 = parse_presentation(
    "quiver cycle6\nvertices: 1 2 3 4 5 6\n"
    + "".join(f"arrow a{i}: {i} -> {i % 6 + 1}\n" for i in range(1, 7))
    + "relations:\na1 a2 a3\n")


def test_subset_enumeration_runs_out_of_budget(monkeypatch, tmp_path, capsys):
    # on the 6-cycle with one cubic relation, each radius-8 ball's survival
    # pass takes at most 64 steps and its enumeration of subsets up to 10
    # vertices hundreds more, so a budget of 100 runs out in the enumeration
    a = _CUBIC_CYCLE6
    monkeypatch.delenv("QSA_WITNESS_BUDGET", raising=False)
    assert covering._witness_search(a, 8, 10) == (None, False)
    for base in a.quiver.vertices:
        ball = CoverBall(a, base, 8)
        assert covering._survival(ball, 100)[2] <= 64
        with pytest.raises(covering._Budget):
            covering._search_ball(ball, 10, 100)
    monkeypatch.setenv("QSA_WITNESS_BUDGET", "100")
    assert covering._witness_search(a, 8, 10) == (None, True)
    path = tmp_path / "cycle6.qsa"
    path.write_text(serialize_presentation(a))
    assert run_cli(["witness", "--radius", "8", "--max-size", "10", str(path)]) == 0
    assert capsys.readouterr().out == (
        "none found: the search budget ran out before the bounds were covered "
        "(QSA_WITNESS_BUDGET raises it)\n")
