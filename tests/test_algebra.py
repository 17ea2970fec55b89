"""Finite-dimensional path algebra arithmetic behind the main routines."""

from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from qsa.presentation import (
    AlgebraPresentation, Arrow, Quiver, parse_presentation, validate, _normal_word_counts,
    _relation_free_levels,
)
from qsa._algebra import TruncatedAlgebra, _normal_words
from qsa._linalg import identity

from conftest import (
    load_fixture, glued_twelve_gqs, all_fixture_names, each_once, record_automaton_work,
)
from oracles import RrefAlgebra, graded_admissibility

SQUARE = (
    "quiver square\nvertices: 1 2 3 4\n"
    "arrow a: 1 -> 2\narrow b: 2 -> 4\narrow c: 1 -> 3\narrow d: 3 -> 4\n"
    "relations:\n( a b ) - ( c d )\n")

NON_HOMOGENEOUS = (
    "quiver n\nvertices: 1 2 3 4 5\n"
    "arrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 4\n"
    "arrow d: 1 -> 5\narrow e: 5 -> 4\n"
    "relations:\n( d e ) - ( a b c )\n")

THREE_DIAMOND = (
    "quiver three-diamond\nvertices: 1 2 3 4 5 7\n"
    "arrow a1: 1 -> 2\narrow a2: 1 -> 3\narrow a3: 1 -> 4\n"
    "arrow b1: 2 -> 5\narrow b2: 3 -> 5\narrow b3: 4 -> 5\n"
    "arrow c: 1 -> 7\n"
    "relations:\n( a1 b1 ) - ( a2 b2 )\n( a1 b1 ) - ( a3 b3 )\n")

# rad^3 = 0 on two loops, certified from the leading words a a, a b, b a, b b b
LOOPS = ("quiver g\nvertices: 1\narrow a: 1 -> 1\narrow b: 1 -> 1\n"
         "relations:\n( a a ) - ( b b )\na b\nb a\n")

EXAMPLES = {"square": SQUARE, "non-homogeneous": NON_HOMOGENEOUS,
            "three-diamond": THREE_DIAMOND, "loops": LOOPS}


def _example(name):
    return parse_presentation(EXAMPLES[name]) if name in EXAMPLES else load_fixture(name)


def test_chain_dimension_and_blocks():
    t5 = TruncatedAlgebra(load_fixture("a5-chain"))
    assert t5.dimension() == 12
    # e1 A e3 vanishes (the composite is a relation), e2 A e5 is one path
    assert t5.dim_block("1", "3") == 0
    assert t5.dim_block("2", "5") == 1


def test_chain_products():
    t5 = TruncatedAlgebra(load_fixture("a5-chain"))
    v = t5.mult("2", "3", "4", t5.path_vec("2", "3", ("beta",)),
                t5.path_vec("3", "4", ("gamma",)))
    assert v == [Fraction(1)]
    z = t5.mult("1", "2", "3", t5.path_vec("1", "2", ("alpha",)),
                t5.path_vec("2", "3", ("beta",)))
    assert not any(z)


def test_commuting_square_identifies_diagonals():
    ts = TruncatedAlgebra(parse_presentation(SQUARE))
    # 4 units + 4 arrows + 1 shared diagonal
    assert ts.dimension() == 9
    ab = ts.mult("1", "2", "4", ts.path_vec("1", "2", ("a",)),
                 ts.path_vec("2", "4", ("b",)))
    cd = ts.mult("1", "3", "4", ts.path_vec("1", "3", ("c",)),
                 ts.path_vec("3", "4", ("d",)))
    assert ab == cd
    assert ts.dim_block("1", "4") == 1
    # a b is the pivot of the relation, so the product comes out as the
    # coordinates of c d, the block's one basis path
    assert ts.free_paths("1", "4") == (("c", "d"),)
    assert ab == ts.path_vec("1", "4", ("a", "b")) == [Fraction(1)]


def test_non_homogeneous_acyclic_relation_is_accepted():
    t = TruncatedAlgebra(parse_presentation(NON_HOMOGENEOUS))
    assert t.bound == 4
    # 5 units + 5 arrows + a b, b c, d e + a b c, less the one relation
    assert t.dimension() == 13
    assert t.dim_block("1", "4") == 1


def test_cycle_dimension_and_nilpotency_bound():
    tg = TruncatedAlgebra(load_fixture("gentle-cycle"))
    assert tg.dimension() == 6
    assert tg.bound == 2


def test_dimension_matches_brute_force_path_count():
    tv = load_fixture("twelve-vertex-gqs")
    tt = TruncatedAlgebra(tv)
    q = tv.quiver
    dead = {tuple(r.terms[0][1]) for r in tv.relations}
    count = len(q.vertices)
    level = [(v, ()) for v in q.vertices]
    while level:
        nxt = []
        for tgt, path in level:
            for ar in q.out_arrows(tgt):
                if path and (path[-1], ar.name) in dead:
                    continue
                nxt.append((ar.target, path + (ar.name,)))
        count += len(nxt)
        level = nxt
        assert all(len(p) <= 20 for _, p in level)
    assert tt.dimension() == count


def test_blocks_are_stored_only_for_pairs_joined_by_a_path():
    a = glued_twelve_gqs(2)
    t = TruncatedAlgebra(a)
    q = a.quiver
    dead = [r.terms[0][1] for r in a.relations]
    joined = set()

    def walk(src, at, arrows):
        if any(arrows[k:k + len(m)] == m
               for m in dead for k in range(len(arrows) - len(m) + 1)):
            return
        assert len(arrows) < t.bound
        joined.add((src, at))
        for ar in q.out_arrows(at):
            walk(src, ar.target, arrows + (ar.name,))

    for v in q.vertices:
        walk(v, v, ())
    assert len(q.vertices) == 24 and len(joined) < 24 * 24 // 4
    # blocks are built when their paths are read: none before, and after
    # every pair is read only the joined ones are kept
    assert not t._basis and not t._index
    dims = {(u, v): len(t.free_paths(u, v)) for u in q.vertices for v in q.vertices}
    assert set(t._index) == set(t._basis) == joined
    nonzero = {pair for pair, d in dims.items() if d}
    assert {(u, v) for u in q.vertices for v in t.ends(u, True)} == nonzero
    assert {(u, v) for v in q.vertices for u in t.ends(v, False)} == nonzero
    assert all(t.dim_block(u, v) == d for (u, v), d in dims.items())


def test_unreached_pair_is_the_zero_block():
    t5 = TruncatedAlgebra(load_fixture("a5-chain"))
    assert t5.dim_block("5", "1") == 0
    assert t5.free_paths("5", "1") == ()
    assert t5.path_vec("5", "1", ()) == []
    assert t5.mult("5", "1", "2", [], t5.path_vec("1", "2", ("alpha",))) == []
    assert "1" not in t5.ends("5", True) and "5" not in t5.ends("1", False)


def _paths(q, bound):
    """(source, target, arrows) for every path of q shorter than bound."""
    level = [(v, v, ()) for v in q.vertices]
    out = []
    while level:
        out += level
        level = [(s, ar.target, p + (ar.name,)) for s, t, p in level
                 for ar in q.out_arrows(t) if len(p) + 1 < bound]
    return out


@pytest.mark.parametrize("name", all_fixture_names() + list(EXAMPLES))
def test_product_of_path_coordinates_is_the_joined_path(name):
    a = _example(name)
    t = TruncatedAlgebra(a)
    paths = _paths(a.quiver, t.bound)
    starting = {}
    for u, v, p in paths:
        starting.setdefault(u, []).append((v, p))
    for u, v, p in paths:
        for w, q in starting[v]:
            got = t.mult(u, v, w, t.path_vec(u, v, p), t.path_vec(v, w, q))
            assert got == t.path_vec(u, w, p + q), (u, v, w, p, q)


@pytest.mark.parametrize("name", all_fixture_names() + list(EXAMPLES))
def test_product_is_associative_on_basis_vectors(name):
    t = TruncatedAlgebra(_example(name))
    succ = {u: t.ends(u, True) for u in t.quiver.vertices}
    for u, v in [(u, v) for u in succ for v in succ[u]]:
        for w in succ[v]:
            for z in succ[w]:
                for x in identity(t.dim_block(u, v)):
                    for y in identity(t.dim_block(v, w)):
                        xy = t.mult(u, v, w, x, y)
                        for e in identity(t.dim_block(w, z)):
                            assert t.mult(u, w, z, xy, e) == t.mult(
                                u, v, z, x, t.mult(v, w, z, y, e)), (u, v, w, z)


@pytest.mark.parametrize("name", all_fixture_names() + list(EXAMPLES))
def test_each_automaton_is_walked_and_each_ideal_completed_once(monkeypatch, name):
    # validate, two algebras and the normal word count share one walk of
    # each prefix automaton and one completion of a non-monomial ideal
    a = _example(name)
    walked, completed = record_automaton_work(monkeypatch)
    rep = validate(a)
    if rep.certified and rep.admissible:
        TruncatedAlgebra(a)
        TruncatedAlgebra(a)
        _normal_word_counts(_normal_words(a)[1])
    assert walked and each_once(walked)
    assert len(completed) == (not a.is_monomial)


# --- the normal form against the rank and echelon route ---------------------------


_ORACLE_PATHS = 300   # relation-free paths up to the cutoff the oracle may rank


def _is_acyclic(q):
    """No path of length |Q0|, so no path visits a vertex twice."""
    n = len(q.vertices)
    return all(len(p) < n for _, _, p in _paths(q, n + 1))


@st.composite
def _binomial_presentations(draw):
    """A quiver, on one to three vertices with two to four arrows or acyclic
    on three to five with up to six, with one to three binomial relations
    between parallel paths of length 2 or 3 (of equal length, or of any
    lengths on an acyclic quiver) and up to six monomial relations; the
    oracle's scan must meet few paths."""
    acyclic = draw(st.integers(0, 2)) == 0
    n = draw(st.integers(3, 5) if acyclic else st.integers(1, 3))
    verts = [str(i + 1) for i in range(n)]
    pairs = [(s, t) for s in verts for t in verts if s < t or not acyclic]
    ends = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=4 + 2 * acyclic))
    q = Quiver("gen", verts, [Arrow(f"a{k}", s, t) for k, (s, t) in enumerate(ends)])
    parallel = {}
    level = [(v, v, ()) for v in verts]
    for d in range(1, 4):
        level = [(s, ar.target, p + (ar.name,)) for s, t, p in level for ar in q.out_arrows(t)]
        for s, t, p in level if d > 1 else ():
            parallel.setdefault((s, t), []).append(p)
    groups = sorted(ps for ps in parallel.values() if len(ps) > 1)
    assume(groups)
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        ps = draw(st.sampled_from(groups))
        p = draw(st.sampled_from(ps))
        others = [x for x in ps if x != p and (acyclic or len(x) == len(p))]
        if others:
            c = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
            rels.append([(1, p), (c, draw(st.sampled_from(others)))])
    assume(rels)
    paths = sorted(p for ps in parallel.values() for p in ps)
    rels += [[(1, p)] for p in draw(st.lists(st.sampled_from(paths), max_size=6))]
    a = AlgebraPresentation(q, rels)
    cutoff = max(16, 2 * len(q.arrows) + 2)
    seen = 0
    for level in islice(_relation_free_levels(a), cutoff + 1):
        seen += len(level)
        assume(seen <= _ORACLE_PATHS)
    return a


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_binomial_presentations())
def test_normal_form_matches_rank_and_echelon_route(a):
    rep = validate(a)
    cyclic = not _is_acyclic(a.quiver)
    event(f"{'cyclic' if cyclic else 'acyclic'}, certified {rep.certified}")
    if not a.is_monomial and cyclic:
        admissibility = (rep.certified, rep.admissible, rep.nilpotency_bound,
                         tuple(p for p in rep.problems if p != "quiver is not connected"))
        assert admissibility == graded_admissibility(a)
    if rep.certified and rep.admissible:
        _assert_matches_rank_and_echelon_route(a)


def _assert_matches_rank_and_echelon_route(a):
    t = TruncatedAlgebra(a)
    oracle = RrefAlgebra(a, t.bound)
    verts = a.quiver.vertices
    for u, v in product(verts, repeat=2):
        assert t.free_paths(u, v) == oracle.free_paths(u, v), (u, v)
    for u, v, w in product(verts, repeat=3):
        for x in identity(t.dim_block(u, v)):
            for y in identity(t.dim_block(v, w)):
                assert t.mult(u, v, w, x, y) == oracle.mult(u, v, w, x, y), (u, v, w)


def test_rule_is_reduced_again_when_a_new_leading_word_is_its_factor():
    # a b dies, so the second relation's leading word is c d e f; the third
    # then makes d e a leading word, and c d e f = c x y f must become the
    # rule, or c x y f would stay a basis path of e_1 A e_6 beside g h i j
    a = parse_presentation(
        "quiver incl\nvertices: 1 2 3 4 5 6 7 8 9 10\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 6\narrow c: 1 -> 3\narrow d: 3 -> 4\n"
        "arrow e: 4 -> 5\narrow f: 5 -> 6\narrow g: 1 -> 7\narrow h: 7 -> 8\n"
        "arrow i: 8 -> 9\narrow j: 9 -> 6\narrow x: 3 -> 10\narrow y: 10 -> 5\n"
        "relations:\na b\n( a b ) + ( c d e f ) + ( g h i j )\n( d e ) - ( x y )\n")
    assert TruncatedAlgebra(a).free_paths("1", "6") == (("g", "h", "i", "j"),)
    _assert_matches_rank_and_echelon_route(a)
