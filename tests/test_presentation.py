"""Parsing, serialization, validation, and isomorphism checks."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from qsa.presentation import (
    QsaError, Arrow, Quiver, AlgebraPresentation, RelationTerm, parse_presentation,
    serialize_presentation, validate, natural_key, underlying_graph, is_tree,
    path_basis, presentations_isomorphic, opposite, _GroebnerBasis,
    _relation_free_levels,
)
from qsa._algebra import TruncatedAlgebra
from qsa.classify import is_quadratic_string, special_vertices
from qsa.decide import decide_derived_type
from qsa.euler import euler_eval
from qsa.transform import blow_up, mutate_at

from conftest import load_fixture, all_fixture_names
from oracles import (
    RrefAlgebra, graded_admissibility, graded_dimensions, presentation_text,
    random_presentation_lists, relabel,
)


# --- file format ---------------------------------------------------------------


def test_parse_basic_fields():
    a = load_fixture("a5-chain")
    q = a.quiver
    assert len(q.vertices) == 5
    assert {(ar.name, ar.source, ar.target) for ar in q.arrows} == {
        ("alpha", "1", "2"), ("beta", "2", "3"),
        ("gamma", "3", "4"), ("delta", "4", "5")}
    assert len(a.relations) == 1
    assert a.relations[0].terms[0][1] == ("alpha", "beta")


def test_parse_comments_and_blank_lines():
    a = parse_presentation(
        "# leading comment\n"
        "quiver c  # trailing\n\n"
        "vertices: 1 2\n"
        "arrow a: 1 -> 2   # arrow comment\n"
        "relations:\n")
    assert a.quiver.name == "c"
    assert len(a.quiver.arrows) == 1


def test_parse_binomial_with_coefficients():
    a = parse_presentation(
        "quiver b\nvertices: 1 2 3 4\n"
        "arrow p: 1 -> 2\narrow q: 2 -> 4\n"
        "arrow r: 1 -> 3\narrow s: 3 -> 4\n"
        "relations:\n"
        "2 ( p q ) - 1/3 ( r s )\n")
    (r,) = a.relations
    assert not r.is_monomial
    # canonical form scales the leading coefficient to 1
    coefs = [c for c, _ in r.terms]
    assert str(coefs[0]) == "1" and str(coefs[1]) == "-1/6"


def test_parse_relation_with_a_leading_minus():
    arrows = ("quiver b\nvertices: 1 2 3 4\n"
              "arrow p: 1 -> 2\narrow q: 2 -> 4\n"
              "arrow r: 1 -> 3\narrow s: 3 -> 4\nrelations:\n")
    a = parse_presentation(arrows + "- ( p q ) + ( r s )\n")
    # the leading coefficient is scaled to 1, so the sign flips throughout
    assert a.relations[0].terms == ((1, ("p", "q")), (-1, ("r", "s")))
    assert a == parse_presentation(arrows + "( p q ) - ( r s )\n")


def test_parse_arrow_with_a_space_before_the_colon():
    a = parse_presentation("quiver c\nvertices: 1 2\narrow a : 1 -> 2\n")
    assert a.quiver.arrows == (Arrow("a", "1", "2"),)


# a square quiver up to its relations header: a relation comes on line 8
_SQUARE_HEAD = ("quiver x\nvertices: 1 2 3 4\narrow p: 1 -> 2\narrow q: 2 -> 4\n"
                "arrow r: 1 -> 3\narrow s: 3 -> 4\nrelations:\n")


@pytest.mark.parametrize("text, fragment", [
    ("vertices: 1\n", "quiver"),
    ("quiver x\nvertices: 1 1\n", "duplicate"),
    ("quiver x\nvertices: 1\narrow a: 1 -> 2\n", "endpoint outside"),
    ("quiver x\nvertices: 1 2\narrow a: 1 -> 2\narrow a: 2 -> 1\n", "duplicate"),
    ("quiver x\nvertices: 1 2\narrow a: 1 -> 2\nrelations:\nb a\n",
     "line 5: unknown arrow 'b'"),
    ("quiver x\nvertices: 1 2 3\narrow a: 1 -> 2\narrow b: 1 -> 3\n"
     "relations:\na b\n", "line 6: arrows 'a' and 'b' do not compose"),
    ("quiver x\nvertices: 1 2 3 4\narrow p: 1 -> 2\narrow q: 2 -> 4\n"
     "arrow r: 1 -> 3\narrow s: 3 -> 4\nrelations:\n1/0 ( p q ) - ( r s )\n",
     "line 8: zero denominator"),
    ("# nothing but a comment\n", "empty presentation"),
    ("quiver x\n", "line 1: missing 'vertices:' line"),
    ("quiver x\narrow a: 1 -> 2\n", "line 2: expected 'vertices:' line"),
    ("quiver x\nvertices:\n", "line 2: at least one vertex is required"),
    ("quiver x\nvertices: 1\nrelations:\nrelations:\n",
     "line 4: duplicate 'relations:' header"),
    ("quiver x\nvertices: 1 2\nedge a: 1 -> 2\n",
     "line 3: expected an 'arrow' line or 'relations:'"),
    ("quiver x\nvertices: 1 2\narrow a 1 -> 2\n", "line 3: expected 'arrow <name>:'"),
    ("quiver x\nvertices: 1 2\narrow a: 1 2\n", "line 3: expected '<source> -> <target>'"),
    ("quiver x\nvertices: 1 2\narrow a: 1 -> 2\nrelations:\na\n",
     "line 5: relation paths must have length >= 2"),
    (_SQUARE_HEAD + "( p q ) * ( r s )\n", "line 8: expected '+' or '-', got '*'"),
    (_SQUARE_HEAD + "2 p q - ( r s )\n", "line 8: expected '(' before a path"),
    (_SQUARE_HEAD + "( p q ) - ( r s\n", "line 8: unclosed '(' in relation"),
    (_SQUARE_HEAD + "( ) - ( r s )\n", "line 8: empty path in relation"),
    (_SQUARE_HEAD + "( p q ) - ( p q )\n", "line 8: relation cancels to zero"),
    # beyond Python's limit on the digits of an int read from a string
    (_SQUARE_HEAD + "1" + "0" * 5000 + " ( p q ) - ( r s )\n",
     "line 8: coefficient 1000000000... is too large"),
])
def test_parse_rejects_bad_input(text, fragment):
    with pytest.raises(QsaError) as err:
        parse_presentation(text)
    assert fragment in str(err.value)


def test_serialize_round_trip_is_canonical():
    for name in all_fixture_names():
        a = load_fixture(name)
        text = serialize_presentation(a)
        again = serialize_presentation(parse_presentation(text))
        assert text == again, name


@st.composite
def _small_presentations(draw):
    n = draw(st.integers(1, 4))
    verts = [str(i + 1) for i in range(n)]
    m = draw(st.integers(0, 4))
    arrows = []
    for k in range(m):
        s = draw(st.sampled_from(verts))
        t = draw(st.sampled_from(verts))
        arrows.append(Arrow(f"a{k}", s, t))
    q = Quiver("gen", verts, arrows)
    pairs = [(x.name, y.name) for x in arrows for y in arrows
             if x.target == y.source]
    ideal = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3)) \
        if pairs else []
    return AlgebraPresentation(q, [[(1, list(p))] for p in ideal])


@given(_small_presentations())
def test_serialize_parse_round_trip(a):
    text = serialize_presentation(a)
    assert serialize_presentation(parse_presentation(text)) == text


@st.composite
def _generated_lists(draw):
    """Lists of a seeded `oracles` presentation with relations repeated
    (verbatim or as scalar multiples) and relations and arrows shuffled."""
    seed = draw(st.integers(0, 2 ** 32))
    name, verts, arrows, rels = random_presentation_lists(2, seed)[draw(st.integers(0, 1))]
    scalars = st.sampled_from([1, 1, -1, 2, "-3/4"])
    extra = [[(Fraction(c) * Fraction(k), p) for c, p in combo]
             for combo, k in draw(st.lists(st.tuples(st.sampled_from(rels), scalars),
                                           max_size=5))]
    relations = draw(st.permutations(rels + extra))
    return name, verts, draw(st.permutations(arrows)), relations, len(rels)


@settings(max_examples=150, deadline=None)
@given(_generated_lists())
def test_parse_equals_the_generic_constructor(case):
    name, verts, arrows, relations, distinct = case
    parsed = parse_presentation(presentation_text(name, verts, arrows, relations))
    built = AlgebraPresentation(
        Quiver(name, [str(v) for v in verts], [Arrow(a, str(s), str(t)) for a, s, t in arrows]),
        relations)
    assert parsed == built and len(parsed.relations) == distinct
    assert all(r.terms[0][0] == 1 for r in parsed.relations)
    assert [(r.terms, r.sort_key, r.source, r.target) for r in parsed.relations] == \
        [(r.terms, r.sort_key, r.source, r.target) for r in built.relations]
    assert (parsed.monomials, parsed.is_monomial, parsed.is_quadratic) == \
        (built.monomials, built.is_monomial, built.is_quadratic)
    assert serialize_presentation(parsed) == serialize_presentation(built)


# --- relations carried to another quiver ------------------------------------


_SQUARE = ("arrow p: 1 -> 2\narrow q: 2 -> 4\narrow r: 1 -> 3\narrow s: 3 -> 4\n")


def _square_relation():
    """( p q ) - 2 ( r s ), built on the commutative square."""
    square = parse_presentation("quiver sq\nvertices: 1 2 3 4\n" + _SQUARE)
    return RelationTerm(square.quiver, [(1, ("p", "q")), (-2, ("r", "s"))])


@pytest.mark.parametrize("arrows, fragment", [
    # q no longer starts where p ends
    ("arrow p: 1 -> 2\narrow q: 3 -> 4\narrow r: 1 -> 3\narrow s: 3 -> 4\n",
     "compose"),
    # both paths compose, but p q ends at 2 and r s at 4
    ("arrow p: 1 -> 3\narrow q: 3 -> 2\narrow r: 1 -> 3\narrow s: 3 -> 4\n",
     "non-parallel"),
    ("arrow p: 1 -> 2\narrow q: 2 -> 4\narrow r: 1 -> 3\n", "unknown"),
])
def test_relation_term_from_another_quiver_is_rechecked(arrows, fragment):
    other = parse_presentation("quiver sq\nvertices: 1 2 3 4\n" + arrows).quiver
    with pytest.raises(QsaError) as err:
        AlgebraPresentation(other, [_square_relation()])
    assert fragment in str(err.value)


@pytest.mark.parametrize("arrows", [
    _SQUARE,
    # the same names on a square turned around: new endpoints 4 -> 1
    "arrow p: 4 -> 2\narrow q: 2 -> 1\narrow r: 4 -> 3\narrow s: 3 -> 1\n",
])
def test_relation_term_from_another_quiver_is_kept_or_rebuilt(arrows):
    text = "quiver sq\nvertices: 1 2 3 4\n" + arrows
    other = parse_presentation(text).quiver
    carried = AlgebraPresentation(other, [_square_relation()])
    parsed = parse_presentation(text + "relations:\n( p q ) - 2 ( r s )\n")
    assert carried == parsed
    assert serialize_presentation(carried) == serialize_presentation(parsed)
    (r,) = carried.relations
    assert (r.source, r.target) == (parsed.relations[0].source,
                                    parsed.relations[0].target)


def test_relation_with_an_empty_path_is_refused():
    q = load_fixture("a5-chain").quiver
    with pytest.raises(QsaError, match="a path needs at least one arrow"):
        AlgebraPresentation(q, [[(1, ())]])


# --- ordering -------------------------------------------------------------------


def test_natural_key_orders_numbers_numerically():
    names = ["10", "2", "1", "a10", "a2"]
    assert sorted(names, key=natural_key) == ["1", "2", "10", "a2", "a10"]


# a1 and a01 tie on their digit runs; the raw string breaks the tie
TIED_NAMES = (
    "quiver tie\nvertices: 1 2 3\n"
    "arrow a1: 1 -> 2\narrow a01: 1 -> 2\narrow b: 2 -> 3\n"
    "relations:\na1 b\na01 b\n")


def test_natural_key_breaks_ties_on_the_raw_string():
    assert sorted(["a1", "a01", "a001"], key=natural_key) == ["a001", "a01", "a1"]
    # the numeric order of the digit runs comes first, and a name whose runs
    # are a prefix of another's still sorts before it
    rng = random.Random(3)
    runs = re.compile(r"(\d+)")

    def runs_then_name(s):
        return [(0, int(p)) if p.isdigit() else (1, p) for p in runs.split(s) if p], s

    for _ in range(2000):
        names = list({"".join(rng.choice("a0b1.9") for _ in range(rng.randint(1, 5)))
                      for _ in range(6)})
        assert sorted(names, key=natural_key) == sorted(names, key=runs_then_name)
        assert len(set(map(natural_key, names))) == len(names)
    assert serialize_presentation(parse_presentation(TIED_NAMES)) == (
        "quiver tie\nvertices: 1 2 3\n"
        "arrow a01: 1 -> 2\narrow a1: 1 -> 2\narrow b: 2 -> 3\n"
        "relations:\na01 b\na1 b\n")


def test_canonical_order_does_not_depend_on_the_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; from qsa.presentation import parse_presentation, "
            "serialize_presentation as s; "
            "sys.stdout.write(s(parse_presentation(sys.stdin.read())))")
    outs = set()
    for seed in "1234":
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], input=TIED_NAMES, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        outs.add(done.stdout)
    assert outs == {serialize_presentation(parse_presentation(TIED_NAMES))}


# --- validation -----------------------------------------------------------------


def test_validate_flags_on_fixtures():
    rep = validate(load_fixture("twelve-vertex-gqs"))
    assert rep.connected and rep.monomial and rep.quadratic_monomial
    assert rep.certified and rep.admissible
    assert rep.nilpotency_bound == 5
    assert rep.ok

    rep = validate(load_fixture("gentle-cycle"))
    assert rep.admissible and rep.nilpotency_bound == 2


def test_validate_rejects_free_loop():
    a = parse_presentation("quiver l\nvertices: 1\narrow d: 1 -> 1\n")
    rep = validate(a)
    assert rep.certified and not rep.admissible
    assert not rep.ok


def test_validate_reports_disconnected():
    a = parse_presentation("quiver two\nvertices: 1 2\n")
    rep = validate(a)
    assert not rep.connected


# Cyclic non-monomial ideals are certified from the leading words of a
# truncated Gröbner basis: the first degree with no normal word is the
# first whose graded component vanishes, as the oracle's rank scan finds.


def _normal_word_counts(a, cutoff):
    """{degree: number of normal words} for 1 <= degree <= cutoff, up to
    the first degree with none."""
    words = _GroebnerBasis(a.quiver, [r.terms for r in a.relations], cutoff + 1)
    levels = islice(_relation_free_levels(words), cutoff + 1)
    return {d: len(level) for d, level in enumerate(levels) if d}


def test_graded_scan_certifies_cyclic_binomial_ideal():
    a = parse_presentation(
        "quiver g\nvertices: 1 2\narrow a: 1 -> 2\narrow c: 1 -> 2\n"
        "arrow b: 2 -> 1\nrelations:\n( a b ) - ( c b )\nb a\nb c\n")
    rep = validate(a)
    assert rep.certified and rep.admissible and rep.ok
    assert rep.nilpotency_bound == 3
    assert graded_dimensions(a, 16) == ({1: 3, 2: 1, 3: 0}, 3)
    assert _normal_word_counts(a, 16) == {1: 3, 2: 1, 3: 0}
    # 2 units + 3 arrows + the one class of a b = c b
    assert TruncatedAlgebra(a).dimension() == 6


def test_graded_scan_gives_up_on_infinite_ideal():
    # the loop keeps every degree alive; each degree has 5 relation-free
    # paths, and l^k a b = l^k c d leaves 4
    a = parse_presentation(
        "quiver g\nvertices: 1 2 3 4\narrow l: 1 -> 1\narrow a: 1 -> 2\n"
        "arrow b: 2 -> 3\narrow c: 1 -> 4\narrow d: 4 -> 3\n"
        "relations:\n( a b ) - ( c d )\n")
    rep = validate(a)
    assert not rep.certified and not rep.admissible
    assert rep.problems == (
        "admissibility not certified for this cyclic non-monomial ideal",)
    assert graded_dimensions(a, 16) == (
        {1: 5, **{d: 4 for d in range(2, 17)}}, None)
    assert _normal_word_counts(a, 16) == {1: 5, **{d: 4 for d in range(2, 17)}}


_NOT_CERTIFIED = "admissibility not certified for this cyclic non-monomial ideal"

# a seeded three-vertex input whose plus mutation at 2 is cyclic and
# non-monomial; the final dimension check validates it
_MUTATION_INPUT = (
    "quiver m\nvertices: 1 2 3\narrow a9: 2 -> 1\narrow a39: 2 -> 1\n"
    "arrow b5: 2 -> 3\narrow a21: 2 -> 3\narrow a38: 2 -> 3\narrow a27: 3 -> 1\n"
    "arrow a13: 1 -> 1\nrelations:\na13 a13 a13\na21 a27\na27 a13 a13\na38 a27\n"
    "a39 a13\na9 a13\n")


@pytest.mark.parametrize("text", [
    "quiver l\nvertices: 1\narrow a: 1 -> 1\narrow b: 1 -> 1\n"
    "relations:\n( a b ) - ( b a )\n",
    "quiver m\nvertices: 1 2\narrow a: 1 -> 2\narrow b: 2 -> 1\narrow c: 2 -> 1\n"
    "relations:\n( a b ) - ( a c )\n",
])
def test_branching_cyclic_ideal_is_not_certified_within_a_second(text):
    # the relation-free paths double with every degree or two, which a
    # degree-by-degree scan up to the cutoff pays for; the one leading
    # word, a b, leaves a cycle of normal words that the automaton finds
    # at once
    a = parse_presentation(text)
    start = time.perf_counter()
    rep = validate(a)
    assert time.perf_counter() - start < 1
    assert not rep.certified and not rep.admissible
    assert rep.problems == (_NOT_CERTIFIED,)


def test_mutation_to_an_uncertified_ideal_is_refused_within_a_second():
    a = parse_presentation(_MUTATION_INPUT)
    start = time.perf_counter()
    with pytest.raises(QsaError) as err:
        mutate_at(a, "2", "plus")
    assert time.perf_counter() - start < 1
    assert str(err.value) == "algebra could not be certified finite-dimensional: " + _NOT_CERTIFIED


def test_graded_scan_refuses_non_homogeneous_relation():
    a = parse_presentation(
        "quiver g\nvertices: 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 1\n"
        "arrow d: 1 -> 3\narrow e: 3 -> 2\n"
        "relations:\n( a b a ) - ( d e b a )\nb a b\n")
    rep = validate(a)
    assert not rep.certified
    assert "graded scan needs length-homogeneous relations" in rep.problems


# --- graphs ----------------------------------------------------------------------


def test_is_tree_on_fixtures():
    assert is_tree(load_fixture("a5-chain"))
    assert is_tree(load_fixture("one-point"))
    assert is_tree(load_fixture("fork-tail-10"))
    assert not is_tree(load_fixture("kronecker"))
    assert not is_tree(load_fixture("gentle-cycle"))
    assert not is_tree(load_fixture("three-vertex-wild"))


def test_underlying_graph_counts():
    verts, edges = underlying_graph(load_fixture("three-vertex-wild"))
    assert len(verts) == 3 and len(edges) == 4


# --- path bases -------------------------------------------------------------------


# a commuting square, and one vertex with a loop and no relation (no
# power of the loop dies)
_BUILT = {
    "square": parse_presentation(_SQUARE_HEAD + "( p q ) - ( r s )\n"),
    "loop": AlgebraPresentation(Quiver("loop", ["v"], [Arrow("l", "v", "v")]), []),
}


def test_path_basis_skips_dead_paths():
    a5 = load_fixture("a5-chain")
    assert path_basis(a5, "1", "3") == ()
    (p,) = path_basis(a5, "3", "5")
    assert p.arrows == ("gamma", "delta")
    (trivial,) = path_basis(a5, "2", "2")
    assert trivial.arrows == ()


@pytest.mark.parametrize("name, i, j, max_len, message", [
    ("square", "1", "4", 3, "path_basis needs a monomial presentation"),
    ("a5-chain", "1", "9", None, "path_basis: unknown vertex"),
    ("a5-chain", "9", "1", None, "path_basis: unknown vertex"),
    ("loop", "v", "v", None, "path_basis needs an admissible ideal (or an explicit max_len)"),
    ("a5-chain", "1", "2", -1, "path_basis: max_len must be >= 0"),
    ("a5-chain", "1", "2", "x", "path_basis: max_len must be an integer, not 'x'"),
    ("a5-chain", "1", "2", 1.5, "path_basis: max_len must be an integer, not 1.5"),
    ("a5-chain", ["1"], "2", None, "path_basis: unknown vertex"),
    ("a5-chain", "1", ["2"], 3, "path_basis: unknown vertex"),
])
def test_path_basis_refusals(name, i, j, max_len, message):
    a = _BUILT[name] if name in _BUILT else load_fixture(name)
    with pytest.raises(QsaError) as err:
        path_basis(a, i, j, max_len)
    assert str(err.value) == message


# --- independent oracle: relation-free paths by a factor scan ------------------

# Random quivers with loops and 2-cycles (or acyclic ones), with monomial
# relations of lengths 2 to 4.  Every raw path up to length 6 is kept when no
# relation occurs in it as a contiguous factor at any offset.

MAX_DEGREE = 6


def _raw_paths_upto(q, length):
    out = [[(v, v, ()) for v in q.vertices]]
    for _ in range(length):
        out.append([(src, ar.target, p + (ar.name,))
                    for src, at, p in out[-1] for ar in q.out_arrows(at)])
    return out


def _factor_free(p, rels):
    return not any(p[k:k + len(m)] == m
                   for m in rels for k in range(len(p) - len(m) + 1))


@st.composite
def _monomial_presentations(draw):
    acyclic = draw(st.booleans())
    n = draw(st.integers(1, 4))
    verts = [str(i + 1) for i in range(n)]
    pairs = [(s, t) for i, s in enumerate(verts) for j, t in enumerate(verts)
             if i < j or not acyclic]
    ends = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    q = Quiver("gen", verts, [Arrow(f"a{k}", s, t) for k, (s, t) in enumerate(ends)])
    candidates = sorted({p for level in _raw_paths_upto(q, 4)[2:] for _, _, p in level})
    rels = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=4)) \
        if candidates else []
    return AlgebraPresentation(q, [[(1, list(p))] for p in rels])


@settings(max_examples=80, deadline=None)
@given(_monomial_presentations())
def test_relation_free_levels_match_factor_scan(a):
    rels = [r.terms[0][1] for r in a.relations]
    want = [sorted(t for t in level if _factor_free(t[2], rels))
            for level in _raw_paths_upto(a.quiver, MAX_DEGREE)]
    got = list(islice(_relation_free_levels(a), MAX_DEGREE + 1))
    got += [[]] * (MAX_DEGREE + 1 - len(got))
    assert [sorted(level) for level in got] == want
    # the longest factor-free path up to MAX_DEGREE is bound - 1 when the
    # ideal is admissible with a smaller bound, and reaches MAX_DEGREE otherwise
    longest = max(d for d, level in enumerate(want) if level)
    rep = validate(a)
    if rep.admissible and rep.nilpotency_bound - 1 < MAX_DEGREE:
        assert longest == rep.nilpotency_bound - 1
    else:
        assert longest == MAX_DEGREE


# --- isomorphism -------------------------------------------------------------------


def test_isomorphic_after_relabeling():
    a = load_fixture("twelve-vertex-gqs")
    vmap = {v: f"w{v}" for v in a.quiver.vertices}
    b = relabel(a, vmap, name="renamed")
    iso = presentations_isomorphic(a, b)
    assert iso is not None
    assert iso["vertices"]["3"] == "w3"


def test_isomorphism_distinguishes_relations():
    plain = parse_presentation(
        "quiver p\nvertices: 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n")
    bound = parse_presentation(
        "quiver q\nvertices: 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n"
        "relations:\na b\n")
    assert presentations_isomorphic(plain, bound) is None


def test_isomorphism_size_bound():
    big = Quiver("big", [str(i) for i in range(15)], [])
    a = AlgebraPresentation(big, [])
    with pytest.raises(QsaError):
        presentations_isomorphic(a, a)


_BINOMIAL_SQUARE = ("quiver sq\nvertices: 1 2 3 4\narrow a: 1 -> 2\narrow b: 2 -> 4\n"
                    "arrow c: 1 -> 3\narrow d: 3 -> 4\nrelations:\n")


def test_isomorphism_on_binomial_relations():
    minus = parse_presentation(_BINOMIAL_SQUARE + "( a b ) - ( c d )\n")
    plus = parse_presentation(_BINOMIAL_SQUARE + "( a b ) + ( c d )\n")
    ab = parse_presentation(_BINOMIAL_SQUARE + "a b\n")
    cd = parse_presentation(_BINOMIAL_SQUARE + "c d\n")
    assert presentations_isomorphic(minus, minus) == {
        "vertices": {v: v for v in "1234"}, "arrows": {x: x for x in "abcd"}}
    assert presentations_isomorphic(minus, plus) is None
    assert presentations_isomorphic(minus, ab) is None
    assert presentations_isomorphic(ab, cd) == {
        "vertices": {"1": "1", "2": "3", "3": "2", "4": "4"},
        "arrows": {"a": "c", "b": "d", "c": "a", "d": "b"}}


@pytest.mark.parametrize("args, message", [
    (("x", "a5-chain"), "isomorphism check needs two AlgebraPresentations"),
    (("a5-chain", "x"), "isomorphism check needs two AlgebraPresentations"),
    (("a5-chain", "a5-chain", "x"), "isomorphism check: max_vertices must be an integer, not 'x'"),
])
def test_isomorphism_refuses_malformed_arguments(args, message):
    args = [load_fixture(x) if x == "a5-chain" else x for x in args]
    with pytest.raises(QsaError) as err:
        presentations_isomorphic(*args)
    assert str(err.value) == message


def test_isomorphism_refuses_non_homogeneous_relation():
    a = parse_presentation(
        "quiver nh\nvertices: 1 2 3 4 5\narrow a: 1 -> 2\narrow b: 2 -> 5\n"
        "arrow e: 5 -> 4\narrow c: 1 -> 3\narrow d: 3 -> 4\nrelations:\n"
        "( a b e ) - ( c d )\n")
    with pytest.raises(QsaError, match="^isomorphism check needs length-homogeneous "
                                       "relations$"):
        presentations_isomorphic(a, a)


def _blow_ups(a):
    # special vertices with arrows in and out first: their blow-ups are binomial
    q = a.quiver
    special = sorted(special_vertices(a).special,
                     key=lambda v: not (q.in_arrows(v) and q.out_arrows(v)))[:2]
    picks = [(v,) for v in special] + ([special] if len(special) == 2 else [])
    return [blow_up(a, p).presentation for p in picks]


def _isomorphism_corpus():
    """Seeded pairs: each fixture and blow-up against itself, three random
    relabelings, one relation dropped, one binomial sign flipped, and its
    single and double opposite."""
    rng = random.Random(11)
    fixtures = [load_fixture(n) for n in all_fixture_names()]
    for a in fixtures + [b for f in fixtures for b in _blow_ups(f)]:
        q = a.quiver
        yield a, a
        for _ in range(3):
            vnames = [f"v{k}" for k in range(len(q.vertices))]
            anames = [f"x{k}" for k in range(len(q.arrows))]
            rng.shuffle(vnames)
            rng.shuffle(anames)
            yield a, relabel(a, dict(zip(q.vertices, vnames)),
                             dict(zip((ar.name for ar in q.arrows), anames)))
        if a.relations:
            k = rng.randrange(len(a.relations))
            yield a, AlgebraPresentation(q, a.relations[:k] + a.relations[k + 1:])
        binomials = [r for r in a.relations if not r.is_monomial]
        if binomials:
            r = rng.choice(binomials)
            flipped = [(c if j == 0 else -c, p) for j, (c, p) in enumerate(r.terms)]
            yield a, AlgebraPresentation(q, [x for x in a.relations if x != r] + [flipped])
        yield a, opposite(a)
        yield a, opposite(opposite(a))


def _isomorphism_outcome(a, b):
    try:
        iso = presentations_isomorphic(a, b)
    except QsaError as e:
        return str(e)
    return iso and [sorted(iso["vertices"].items()), sorted(iso["arrows"].items())]


def test_isomorphism_results_are_frozen():
    outcomes = [_isomorphism_outcome(a, b) for a, b in _isomorphism_corpus()]
    assert len(outcomes) == 275
    assert sum(o is None for o in outcomes) == 76
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "61515bffa9bc4fa87fdb758e1065068fa6bc1d3c6fbad29b21a24aa846a5bb5c"


# --- opposite ---------------------------------------------------------------------


def test_opposite_is_an_involution():
    for name in ("a5-chain", "twelve-vertex-gqs", "three-vertex-wild",
                 "gentle-cycle", "two-cycle"):
        a = load_fixture(name)
        back = opposite(opposite(a))
        assert presentations_isomorphic(a, back) is not None, name


def test_opposite_reverses_arrows():
    a = load_fixture("a5-chain")
    op = opposite(a)
    assert {(ar.source, ar.target) for ar in op.quiver.arrows} == {
        ("2", "1"), ("3", "2"), ("4", "3"), ("5", "4")}


@st.composite
def _opposites(draw):
    """A presentation with names that tie on their digit runs, and a new
    name for its opposite: none, the same, another, or malformed."""
    verts = [f"v{i + 1}" for i in range(draw(st.integers(1, 5)))]
    names = ["a1", "a01", "a2", "a10", "b", "c"]
    arrows = [Arrow(nm, draw(st.sampled_from(verts)), draw(st.sampled_from(verts)))
              for nm in draw(st.lists(st.sampled_from(names), unique=True, max_size=6))]
    a = AlgebraPresentation(Quiver("gen", verts, arrows), _relations_on(draw, arrows))
    return a, draw(st.sampled_from([None, "", "gen", "op", "b c", 5]))


@settings(max_examples=200, deadline=None)
@given(_opposites())
def test_opposite_equals_fresh_construction(case):
    a, name = case
    q = a.quiver
    try:
        fresh = AlgebraPresentation(
            Quiver(name or q.name, q.vertices,
                   [Arrow(x.name, x.target, x.source) for x in q.arrows]),
            [[(c, p[::-1]) for c, p in r.terms] for r in a.relations])
    except QsaError as e:
        with pytest.raises(QsaError) as err:
            opposite(a, name)
        assert str(err.value) == str(e)
        return
    b = opposite(a, name)
    assert b == fresh and serialize_presentation(b) == serialize_presentation(fresh)
    assert [r.sort_key for r in b.relations] == [r.sort_key for r in fresh.relations]
    assert (b.monomials, b.is_monomial, b.is_quadratic, b._monomial_lengths) == \
        (fresh.monomials, fresh.is_monomial, fresh.is_quadratic,
         fresh._monomial_lengths)
    qb, f = b.quiver, fresh.quiver
    assert [(qb.out_arrows(v), qb.in_arrows(v)) for v in f.vertices] == \
        [(f.out_arrows(v), f.in_arrows(v)) for v in f.vertices]


# --- derived presentations -----------------------------------------------------------


def _relations_on(draw, arrows):
    """Up to three monomials of length two or three and one binomial."""
    twos = [(x, y) for x in arrows for y in arrows if x.target == y.source]
    threes = [(x, y, z) for x, y in twos for z in arrows if y.target == z.source]
    paths = [tuple(ar.name for ar in p) for p in twos + threes]
    rels = [[(1, p)] for p in draw(st.lists(st.sampled_from(paths), unique=True,
                                            max_size=3))] if paths else []
    by_ends = {}
    for x, y in twos:
        by_ends.setdefault((x.source, y.target), []).append((x.name, y.name))
    parallel = [ps for ps in by_ends.values() if len(ps) > 1]
    if parallel and draw(st.booleans()):
        p, w = draw(st.sampled_from(parallel))[:2]
        rels.append([(draw(st.sampled_from([2, -1])), p),
                     (draw(st.sampled_from([1, -3, "1/2"])), w)])
    return rels


@st.composite
def _derivations(draw):
    """A presentation, then a vertex and arrows to drop and arrows and
    relations to add, with at most one faulty new arrow."""
    verts = [f"v{i + 1}" for i in range(draw(st.integers(2, 5)))]
    arrows = [Arrow(f"a{k}", draw(st.sampled_from(verts)), draw(st.sampled_from(verts)))
              for k in range(draw(st.integers(0, 6)))]
    a = AlgebraPresentation(Quiver("gen", verts, arrows), _relations_on(draw, arrows))

    vertex = draw(st.sampled_from(verts))
    at_vertex = {x.name for x in arrows if vertex in (x.source, x.target)}
    removed = at_vertex | set(draw(st.lists(st.sampled_from(
        [x.name for x in arrows]), max_size=3))) if arrows else at_vertex
    left = [v for v in verts if v != vertex]
    kept = [x for x in arrows if x.name not in removed]
    names = ["b0", "b1", "b10", "c"] + sorted(removed)
    new = [Arrow(nm, draw(st.sampled_from(left)), draw(st.sampled_from(left)))
           for nm in draw(st.lists(st.sampled_from(names), unique=True, max_size=3))]
    fault = draw(st.sampled_from([None, None, "kept", "new", "malformed", "end"]))
    if fault == "kept" and kept:
        new.append(Arrow(kept[0].name, left[0], left[-1]))
    elif fault == "new" and new:
        new.append(Arrow(new[0].name, left[-1], left[0]))
    elif fault == "malformed":
        new.append(Arrow(draw(st.sampled_from(["", "-x", "b c", "x(y)"])),
                         left[0], left[0]))
    elif fault == "end":
        new.append(Arrow("z", left[0], vertex))
    # new relations may repeat kept ones, which must then appear once
    relations = _relations_on(draw, kept + new)
    return a, vertex, removed, left, kept, new, relations


def _fresh_derivation(a, removed, left, kept, new, relations):
    kept_relations = [[(c, p) for c, p in r.terms] for r in a.relations
                      if not any(x in removed for p in r.paths() for x in p)]
    return AlgebraPresentation(Quiver(a.name, left, kept + new),
                               kept_relations + relations)


@settings(max_examples=300, deadline=None)
@given(_derivations())
def test_derived_presentation_equals_fresh_construction(case):
    a, vertex, removed, left, kept, new, relations = case
    try:
        fresh = _fresh_derivation(a, removed, left, kept, new, relations)
    except QsaError as e:
        with pytest.raises(QsaError) as err:
            a._derive(vertex, removed, new, relations)
        assert str(err.value) == str(e)
        return
    b = a._derive(vertex, removed, new, relations)
    assert b == fresh and hash(b) == hash(fresh)
    assert serialize_presentation(b) == serialize_presentation(fresh)
    assert (b.monomials, b.is_monomial, b.is_quadratic, b._monomial_lengths) == \
        (fresh.monomials, fresh.is_monomial, fresh.is_quadratic,
         fresh._monomial_lengths)
    q, f = b.quiver, fresh.quiver
    assert [(q.out_arrows(v), q.in_arrows(v)) for v in f.vertices] == \
        [(f.out_arrows(v), f.in_arrows(v)) for v in f.vertices]
    assert all(q.arrow(x.name) == x for x in f.arrows)
    assert not q.has_vertex(vertex) and not any(q.has_arrow(n) for n in
                                                removed - {x.name for x in new})
    if b.is_monomial:
        assert validate(b) == validate(fresh)
    # what a derivation edits instead of recomputing: the text lines, the
    # relations at each arrow, and the vertex order
    assert q._arrow_lines == f._arrow_lines
    assert b._relation_lines == fresh._relation_lines
    assert {n: set(map(id, rs)) for n, rs in b._relations_at.items()} == {
        n: set(map(id, rs)) for n, rs in
        AlgebraPresentation._relations_at.func(b).items()}
    assert sorted(q.vertices, key=q._order.__getitem__) == list(q.vertices)


def test_derivation_drops_a_bare_vertex_and_keeps_relations_once():
    a = load_fixture("a5-chain")
    with pytest.raises(QsaError, match="keeps an arrow"):
        a._derive("5", (), (), ())
    with pytest.raises(QsaError, match="unknown arrow"):
        a._derive("5", ("delta", "omega"), (), ())
    # a new relation equal to a kept one is kept once
    assert serialize_presentation(a._derive(
        "5", ("delta",), (), [[(1, ("alpha", "beta"))]])) == (
        "quiver a5_chain\nvertices: 1 2 3 4\narrow alpha: 1 -> 2\n"
        "arrow beta: 2 -> 3\narrow gamma: 3 -> 4\nrelations:\nalpha beta\n")


# --- refusals ------------------------------------------------------------------------


_QUIVER_REFUSALS = [
    (is_quadratic_string, (), "the quadratic string test needs an AlgebraPresentation"),
    (special_vertices, (), "special vertices need an AlgebraPresentation"),
    (validate, (), "validation needs an AlgebraPresentation"),
    (decide_derived_type, (), "the decision needs an AlgebraPresentation"),
    (serialize_presentation, (), "serialization needs an AlgebraPresentation"),
    (path_basis, ("a", "b"), "path_basis needs an AlgebraPresentation"),
    (euler_eval, ((1, 1, 1),), "the form value needs an EulerData form"),
]


@pytest.mark.parametrize("call,args,message", _QUIVER_REFUSALS,
                         ids=[call.__name__ for call, *_ in _QUIVER_REFUSALS])
def test_library_entry_points_refuse_a_quiver(call, args, message):
    with pytest.raises(QsaError) as err:
        call(load_fixture("three-vertex-wild").quiver, *args)
    assert str(err.value) == message


_CHAIN = Quiver("chain", ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])

_CONSTRUCTOR_REFUSALS = [
    (lambda: Quiver("x", ["1"], [("a", "1")]),
     "an arrow is a (name, source, target) triple of strings, not ('a', '1')"),
    (lambda: Quiver("x", ["1"], [5]),
     "an arrow is a (name, source, target) triple of strings, not 5"),
    (lambda: Quiver("x", ["1"], [("a", ["1"], "1")]),
     "an arrow is a (name, source, target) triple of strings, not ('a', ['1'], '1')"),
    (lambda: Quiver("x", ["1"], [Arrow("a", ["1"], "1")]),
     "an arrow is a (name, source, target) triple of strings, "
     "not Arrow(name='a', source=['1'], target='1')"),
    (lambda: _CHAIN._derive("3", ["b"], [Arrow("c", "2", 3)]),
     "an arrow is a (name, source, target) triple of strings, "
     "not Arrow(name='c', source='2', target=3)"),
    (lambda: Quiver("x", 5, []), "a quiver needs lists of vertices and arrows"),
    (lambda: AlgebraPresentation(_CHAIN, [[("abc", ["a", "b"])]]),
     "a relation term is a (rational coefficient, arrow names) pair, not ('abc', ['a', 'b'])"),
    (lambda: AlgebraPresentation(_CHAIN, [[(None, ["a", "b"])]]),
     "a relation term is a (rational coefficient, arrow names) pair, not (None, ['a', 'b'])"),
    (lambda: AlgebraPresentation(_CHAIN, ["a b"]),
     "a relation is a list of (coefficient, path) pairs, not 'a b'"),
    (lambda: AlgebraPresentation(_CHAIN, [[(1, 5)]]),
     "a relation term is a (rational coefficient, arrow names) pair, not (1, 5)"),
    (lambda: AlgebraPresentation(_CHAIN, [[(1, "ab")]]),
     "a relation term is a (rational coefficient, arrow names) pair, not (1, 'ab')"),
    (lambda: AlgebraPresentation(_CHAIN, [[(1, [["a"], "b"])]]), "unknown arrow ['a']"),
    (lambda: AlgebraPresentation(_CHAIN, [[]]), "a relation needs at least one path"),
    (lambda: AlgebraPresentation(_CHAIN, [5]),
     "a relation is a list of (coefficient, path) pairs, not 5"),
    (lambda: AlgebraPresentation(_CHAIN, 5), "a presentation needs a list of relations"),
    (lambda: AlgebraPresentation(load_fixture("a5-chain"), []),
     "a presentation needs a Quiver"),
    (lambda: parse_presentation(5), "a presentation is parsed from a string"),
]


@pytest.mark.parametrize("build,message", _CONSTRUCTOR_REFUSALS,
                         ids=[m for _, m in _CONSTRUCTOR_REFUSALS])
def test_constructors_refuse_malformed_arguments(build, message):
    with pytest.raises(QsaError) as err:
        build()
    assert str(err.value) == message
