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
from hypothesis import assume, given, settings, strategies as st

from qsa.presentation import (
    QsaError, Arrow, Quiver, AlgebraPresentation, RelationTerm, parse_presentation,
    serialize_presentation, validate, natural_key, underlying_graph, is_tree,
    path_basis, presentations_isomorphic, opposite, _GroebnerBasis,
    _normal_word_counts, _path_sort_key, _relation_free_levels,
)
from qsa._algebra import TruncatedAlgebra, _normal_words
from qsa import transform
from qsa.classify import VertexClassification, is_quadratic_string, special_vertices
from qsa.decide import decide_derived_type
from qsa.covering import truncated_cover
from qsa.euler import euler_eval, euler_matrix
from qsa.transform import blow_up, certificate_payload, mutate_at, reduce_step
from qsa.cli import run_cli

from conftest import load_fixture, all_fixture_names
from oracles import (
    RrefAlgebra, bound_basis_products, graded_admissibility, graded_dimensions,
    presentation_text, random_canonical_texts, random_presentation_lists, relabel,
    tuple_natural_key,
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


_ID_TEXT = "AZaz09_+-~*.'@"


def _drawn_names(rng, count):
    """`count` distinct identifiers of one to four runs over the whole
    identifier alphabet: digit runs of 1 to 3 digits or of more than
    4,300, some with leading zeros; three in ten extend a cut of a name
    drawn before, so many are prefixes of one another, or tie with one on
    their digit runs."""
    names = []
    while len(names) < count:
        if names and rng.random() < 0.3:
            base = rng.choice(names)
            name = base[:rng.randrange(1, len(base) + 1)] + rng.choice(
                ("", "0", "00", "7", "a", "'", "@0", ".1"))
        else:
            runs = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    runs.append("0" * rng.choice((0, 0, 1, 2)) + "".join(
                        rng.choices("0123456789", k=rng.choice((1, 2, 3, 4301, 4400)))))
                else:
                    runs.append("".join(rng.choices(_ID_TEXT, k=rng.randint(1, 3))))
            name = "".join(runs)
        if not (name[0].isalnum() or name[0] == "_"):
            name = "_" + name
        if name not in names:
            names.append(name)
    return names


def test_natural_key_orders_as_the_tuple_oracle():
    # the string key against the tuple key of tests/oracles.py: the same
    # order, one key per name, and path keys ordered by length, then names
    rng = random.Random(30)
    for _ in range(150):
        names = _drawn_names(rng, 12)
        assert all(re.fullmatch(r"[A-Za-z0-9_][A-Za-z0-9_+\-~*.'@]*", n) for n in names)
        assert sorted(names, key=natural_key) == sorted(names, key=tuple_natural_key)
        assert len(set(map(natural_key, names))) == len(names)
        paths = list(dict.fromkeys(tuple(rng.choices(names, k=rng.randint(1, 4)))
                                   for _ in range(30)))
        assert sorted(paths, key=_path_sort_key) == sorted(
            paths, key=lambda p: (len(p), *map(tuple_natural_key, p)))


def test_path_keys_have_no_length_bound():
    # 1,114,111 is the largest code point: a length prefix made by chr()
    # would fail above it
    lengths = [1_114_112, 2, 1_114_111, 10, 9, 1]
    keys = [_path_sort_key(("a",) * n) for n in lengths]
    assert [lengths[i] for i in sorted(range(6), key=keys.__getitem__)] == sorted(lengths)
    assert _path_sort_key(("b", "b")) < keys[0]


# The canonical-order corpus, frozen as one SHA-256 over, for each text of
# `random_canonical_texts(seed, size)` in order: the serialized parse, the
# serialized opposite, the exit code and output of `qsa classify --json`,
# and on trees those of `qsa decide --json`.  Names mix every identifier
# character, leading zeros, digit runs of up to 25 digits and prefixes of
# one another; relations are monomial and binomial, shuffled and repeated.
CANONICAL_CORPUS_SEED, CANONICAL_CORPUS_SIZE = 3, 150
CANONICAL_CORPUS_SHA256 = "5aefda2edc3fbc9cea7441c379a699a4425ef0b612b958177d3cb30db27cf93b"


def test_canonical_corpus_digest_is_frozen(tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "input.qsa"
    for text in random_canonical_texts(CANONICAL_CORPUS_SEED, CANONICAL_CORPUS_SIZE):
        a = parse_presentation(text)
        digest.update(serialize_presentation(a).encode())
        digest.update(serialize_presentation(opposite(a)).encode())
        path.write_text(text, encoding="utf-8")
        for command in ("classify", "decide")[:1 + is_tree(a)]:
            capsys.readouterr()
            code = run_cli([command, str(path), "--json"])
            out, err = capsys.readouterr()
            digest.update(f"{code}\n{out}{err.replace(str(path), 'input')}".encode())
    assert digest.hexdigest() == CANONICAL_CORPUS_SHA256


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


_TWO_LOOPS = "quiver f\nvertices: 1\narrow a: 1 -> 1\narrow b: 1 -> 1\nrelations:\n"


# (presentation, admissible, nilpotency bound): answers of the prefix
# automaton, whose states are the longest suffixes read that are proper
# prefixes of a relation
@pytest.mark.parametrize("text, admissible, bound", [
    # a a a is no prefix of a a b: the state falls back to a a, so the path
    # a a a b dies (b^n keeps the ideal from being admissible)
    (_TWO_LOOPS + "a a b\n", False, 0),
    # a b falls back to b, a prefix of b a and b b, and dies with either
    # arrow; an automaton that dropped to the empty state would loop on (a b)^n
    (_TWO_LOOPS + "a a a\na a b\nb a\nb b\n", True, 3),
    # a 1 -> 2 -> 1 cycle killed by a relation that starts on the far side
    ("quiver c\nvertices: 1 2\narrow x: 1 -> 2\narrow y: 2 -> 1\nrelations:\ny x y\n",
     True, 4),
])
def test_admissibility_falls_back_to_the_longest_prefix(text, admissible, bound):
    a = parse_presentation(text)
    rep = validate(a)
    assert (rep.certified, rep.admissible, rep.nilpotency_bound) == (True, admissible, bound)
    rels = [r.terms[0][1] for r in a.relations]
    free = [p for level in _raw_paths_upto(a.quiver, MAX_DEGREE) for _, _, p in level
            if _factor_free(p, rels)]
    longest = max(map(len, free))
    assert longest == (bound - 1 if admissible else MAX_DEGREE)
    assert ("a", "a", "a", "b") not in free


def test_long_relation_on_three_loops_is_not_admissible_within_a_second():
    # 16 automaton states, one per proper prefix of a^16, although there
    # are 3^15 relation-free paths of length 15
    a = parse_presentation("quiver l\nvertices: 1\narrow a: 1 -> 1\narrow b: 1 -> 1\n"
                           "arrow c: 1 -> 1\nrelations:\n" + " ".join(["a"] * 16) + "\n")
    start = time.perf_counter()
    rep = validate(a)
    assert time.perf_counter() - start < 1
    assert rep.certified and not rep.admissible and rep.nilpotency_bound == 0
    assert rep.problems == ("ideal is not admissible: arbitrarily long relation-free paths",)


# Cyclic non-monomial ideals are certified from the leading words of a
# truncated Gröbner basis: the first degree with no normal word is the
# first whose graded component vanishes, as the oracle's rank scan finds.


def _graded_normal_words(a, cutoff):
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
    assert _graded_normal_words(a, 16) == {1: 3, 2: 1, 3: 0}
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
    assert _graded_normal_words(a, 16) == {1: 5, **{d: 4 for d in range(2, 17)}}


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
    # 23 leading words up to the cutoff, normal words on 5 loops in between
    "quiver f\nvertices: 1\n" + "".join(f"arrow a{i}: 1 -> 1\n" for i in range(5))
    + "relations:\na0 a1 a4\n( a0 a3 a0 ) + 2 ( a1 a0 a1 )\na1 a0 a4\n"
    "( a2 a1 a3 ) + 1/2 ( a3 a0 a4 )\na2 a2 a1\na3 a1 a4\n",
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


@pytest.mark.parametrize("name, i, j, message", [
    ("square", "1", "4", "path_basis needs a monomial presentation"),
    ("a5-chain", "1", "9", "path_basis: unknown vertex"),
    ("a5-chain", "9", "1", "path_basis: unknown vertex"),
    ("loop", "v", "v", "path_basis needs an admissible ideal"),
    ("a5-chain", ["1"], "2", "path_basis: unknown vertex"),
    ("a5-chain", "1", ["2"], "path_basis: unknown vertex"),
])
def test_path_basis_refusals(name, i, j, message):
    a = _BUILT[name] if name in _BUILT else load_fixture(name)
    with pytest.raises(QsaError) as err:
        path_basis(a, i, j)
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


# --- normal words counted on the prefix automaton --------------------------------

# The count must agree with the listed relation-free paths, in total and per
# (source, target), at the nilpotency bound, on the automaton `validate` walked.


def _listed_counts(words, bound):
    """{(source, target): number} of the relation-free paths of `words`
    shorter than `bound`, listed level by level."""
    out = {}
    for level in islice(_relation_free_levels(words), bound):
        for src, tgt, _ in level:
            out[(src, tgt)] = out.get((src, tgt), 0) + 1
    return out


def _assert_counts_match(words, bound):
    """Compare the counts with the listed paths; return their total."""
    counts = _normal_word_counts(words)
    assert set(counts) == set(words.quiver.vertices)
    got = {(src, tgt): n for src, ends in counts.items() for tgt, n in ends.items()}
    assert got == _listed_counts(words, bound)
    return sum(got.values())


def _assert_products_match(a):
    """Every basis path and basis product of `TruncatedAlgebra(a)` is the
    one read off a basis completed afresh at the bound."""
    t = TruncatedAlgebra(a)
    want = bound_basis_products(a)
    assert {(u, v, p) for u in t.quiver.vertices for v in t.ends(u, True)
            for p in t.free_paths(u, v)} \
        == {(v, w, q) for _, v, w, _, q in want}
    for (u, v, w, p, q), form in want.items():
        got = t.mult(u, v, w, t.path_vec(u, v, p), t.path_vec(v, w, q))
        assert got == [form.get(word, 0) for word in t.free_paths(u, w)], (p, q)


@st.composite
def _long_monomial_presentations(draw):
    """Quivers on 1-4 vertices, with loops and cycles unless drawn acyclic,
    and monomial relations of length 2 to 5; when those leave the ideal
    not admissible, every relation-free path of one drawn length joins
    them."""
    acyclic = draw(st.booleans())
    n = draw(st.integers(1, 4))
    verts = [str(i + 1) for i in range(n)]
    pairs = [(s, t) for i, s in enumerate(verts) for j, t in enumerate(verts)
             if i < j or not acyclic]
    ends = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    q = Quiver("gen", verts, [Arrow(f"a{k}", s, t) for k, (s, t) in enumerate(ends)])
    candidates = sorted({p for level in _raw_paths_upto(q, 5)[2:] for _, _, p in level})
    rels = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=5)) \
        if candidates else []
    a = AlgebraPresentation(q, [[(1, list(p))] for p in rels])
    if not validate(a).admissible:
        length = draw(st.integers(2, 4))
        level = list(islice(_relation_free_levels(a), length + 1))[length]
        a = AlgebraPresentation(q, [[(1, list(p))] for p in rels]
                                + [[(1, list(p))] for _, _, p in level])
    return a


@settings(max_examples=120, deadline=None)
@given(_long_monomial_presentations())
def test_normal_word_counts_match_listed_paths(a):
    rep = validate(a)
    assert rep.admissible
    _assert_counts_match(a, rep.nilpotency_bound)
    _assert_products_match(a)


@st.composite
def _binomial_presentations(draw):
    """Quivers on 1-3 vertices with loops and cycles, one or two
    length-homogeneous binomial relations of length 2 or 3 and up to three
    monomial ones; often every path of one drawn length is a relation too,
    which makes the ideal admissible."""
    n = draw(st.integers(1, 3))
    verts = [str(i + 1) for i in range(n)]
    pairs = [(s, t) for s in verts for t in verts]
    ends = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=4))
    q = Quiver("gen", verts, [Arrow(f"a{k}", s, t) for k, (s, t) in enumerate(ends)])
    levels = _raw_paths_upto(q, 4)
    parallel = {}
    for level in levels[2:4]:
        for src, tgt, p in level:
            parallel.setdefault((src, tgt, len(p)), []).append(p)
    groups = [g for g in parallel.values() if len(g) > 1]
    assume(groups)
    rels = []
    for _ in range(draw(st.integers(1, 2))):
        p, r = draw(st.lists(st.sampled_from(draw(st.sampled_from(groups))),
                             min_size=2, max_size=2, unique=True))
        rels.append([(1, list(p)), (-draw(st.sampled_from([1, 2, Fraction(1, 2)])), list(r))])
    paths = sorted(p for level in levels[2:4] for _, _, p in level)
    rels += [[(1, list(p))] for p in draw(st.lists(st.sampled_from(paths), max_size=3))]
    if draw(st.booleans()):
        rels += [[(1, list(p))] for _, _, p in levels[draw(st.sampled_from([3, 4]))]]
    return AlgebraPresentation(q, rels)


@settings(max_examples=120, deadline=None)
@given(_binomial_presentations())
def test_normal_word_counts_match_on_leading_words(a):
    # the leading words of the basis `TruncatedAlgebra` reads: the one
    # `validate` completed above its cutoff on a cyclic quiver, else one
    # truncated at the bound
    rep = validate(a)
    if rep.certified and rep.admissible and not a.is_monomial:
        bound, words = _normal_words(a)
        assert _assert_counts_match(words, bound) == TruncatedAlgebra(a).dimension()
        _assert_products_match(a)


def test_normal_word_counts_refuse_a_cyclic_automaton():
    # a a = b b, a b = b a = 0 on two loops: rad^3 = 0, but a basis
    # truncated at 3 lacks the cubic leading word b b b, so b b b ... is a
    # cycle of its automaton; the count refuses it rather than cut it, and
    # the algebra reads the basis `validate` completed above its cutoff
    a = parse_presentation("quiver g\nvertices: 1\narrow a: 1 -> 1\narrow b: 1 -> 1\n"
                           "relations:\n( a a ) - ( b b )\na b\nb a\n")
    words = _GroebnerBasis(a.quiver, [r.terms for r in a.relations], 3)
    with pytest.raises(QsaError) as err:
        _normal_word_counts(words)
    assert str(err.value).startswith("internal error: ")
    assert validate(a).nilpotency_bound == 3
    assert TruncatedAlgebra(a).dimension() == 4


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
])
def test_isomorphism_refuses_malformed_arguments(args, message):
    args = [load_fixture(x) if x == "a5-chain" else x for x in args]
    with pytest.raises(QsaError) as err:
        presentations_isomorphic(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("n", [14, 15])
def test_isomorphism_search_is_bounded_at_14_vertices(n):
    chain = parse_presentation(
        f"quiver a{n}\nvertices: {' '.join(map(str, range(1, n + 1)))}\n"
        + "".join(f"arrow a{i}: {i} -> {i + 1}\n" for i in range(1, n)))
    if n == 14:
        assert presentations_isomorphic(chain, chain) is not None
        return
    with pytest.raises(QsaError) as err:
        presentations_isomorphic(chain, chain)
    assert str(err.value) == "isomorphism search bound exceeded: more than 14 vertices"


def test_isomorphism_refuses_five_parallel_arrows():
    a = parse_presentation("quiver k5\nvertices: 1 2\n"
                           + "".join(f"arrow a{i}: 1 -> 2\n" for i in range(5)))
    with pytest.raises(QsaError) as err:
        presentations_isomorphic(a, a)
    assert str(err.value) == "too many parallel arrows for isomorphism search"


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
    """A presentation with names that tie on their digit runs."""
    verts = [f"v{i + 1}" for i in range(draw(st.integers(1, 5)))]
    names = ["a1", "a01", "a2", "a10", "b", "c"]
    arrows = [Arrow(nm, draw(st.sampled_from(verts)), draw(st.sampled_from(verts)))
              for nm in draw(st.lists(st.sampled_from(names), unique=True, max_size=6))]
    return AlgebraPresentation(Quiver("gen", verts, arrows), _relations_on(draw, arrows))


@settings(max_examples=200, deadline=None)
@given(_opposites())
def test_opposite_equals_fresh_construction(a):
    q = a.quiver
    fresh = AlgebraPresentation(
        Quiver(q.name, q.vertices, [Arrow(x.name, x.target, x.source) for x in q.arrows]),
        [[(c, p[::-1]) for c, p in r.terms] for r in a.relations])
    b = opposite(a)
    assert b == fresh and serialize_presentation(b) == serialize_presentation(fresh)
    assert [r.sort_key for r in b.relations] == [r.sort_key for r in fresh.relations]
    assert (b.monomials, b.is_monomial, b.is_quadratic, b._monomial_lengths) == \
        (fresh.monomials, fresh.is_monomial, fresh.is_quadratic,
         fresh._monomial_lengths)
    qb, f = b.quiver, fresh.quiver
    assert [(qb.out_arrows(v), qb.in_arrows(v)) for v in f.vertices] == \
        [(f.out_arrows(v), f.in_arrows(v)) for v in f.vertices]


# --- the working state of a reduction -------------------------------------------


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


def _pairs_on(draw, arrows):
    """Up to three composable pairs of `arrows`."""
    twos = [(x.name, y.name) for x in arrows for y in arrows if x.target == y.source]
    return draw(st.lists(st.sampled_from(twos), unique=True, max_size=3)) if twos else []


_NO_CLASSIFICATION = VertexClassification({}, {}, {}, {}, 0, ())


@st.composite
def _edits(draw):
    """A quadratic monomial presentation, then a vertex and arrows to drop
    and arrows and arrow pairs to add, with at most one faulty new arrow
    or relation."""
    verts = [f"v{i + 1}" for i in range(draw(st.integers(2, 5)))]
    arrows = [Arrow(f"a{k}", draw(st.sampled_from(verts)), draw(st.sampled_from(verts)))
              for k in range(draw(st.integers(0, 6)))]
    a = AlgebraPresentation(Quiver("gen", verts, arrows),
                            [[(1, p)] for p in _pairs_on(draw, arrows)])
    vertex = draw(st.sampled_from(verts))
    at_vertex = {x.name for x in arrows if vertex in (x.source, x.target)}
    removed = at_vertex | set(draw(st.lists(st.sampled_from(
        [x.name for x in arrows]), max_size=3))) if arrows else at_vertex
    left = [v for v in verts if v != vertex]
    kept = [x for x in arrows if x.name not in removed]
    names = ["b0", "b1", "b10", "c"] + sorted(removed)
    new = [Arrow(nm, draw(st.sampled_from(left)), draw(st.sampled_from(left)))
           for nm in draw(st.lists(st.sampled_from(names), unique=True, max_size=3))]
    fault = draw(st.sampled_from([None, None, "kept", "new", "malformed", "end",
                                  "gone", "apart"]))
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
    relations = _pairs_on(draw, kept + new)
    if fault == "gone" and removed - {x.name for x in new}:
        relations.append((min(removed - {x.name for x in new}), (kept + new + arrows)[0].name))
    elif fault == "apart":
        apart = [(x.name, y.name) for x in kept + new for y in kept + new
                 if x.target != y.source]
        if apart:
            relations.append(draw(st.sampled_from(apart)))
    return a, vertex, removed, left, kept, new, relations


def _fresh_edit(a, removed, left, kept, new, relations):
    kept_relations = [[(c, p) for c, p in r.terms] for r in a.relations
                      if not any(x in removed for p in r.paths() for x in p)]
    return AlgebraPresentation(Quiver(a.name, left, kept + new),
                               kept_relations + [[(1, p)] for p in relations])


@settings(max_examples=300, deadline=None)
@given(_edits())
def test_edited_state_equals_fresh_construction(case):
    # one edit of the working state: its text parses to the presentation
    # it builds, and both equal the presentation built from scratch on the
    # kept and new lists; a refused edit raises what that build raises and
    # changes nothing
    a, vertex, removed, left, kept, new, relations = case
    state = transform._WorkingState(a, _NO_CLASSIFICATION)
    before = state.text()
    assert before == serialize_presentation(a)
    try:
        fresh = _fresh_edit(a, removed, left, kept, new, relations)
    except QsaError as e:
        with pytest.raises(QsaError) as err:
            state.edit(vertex, removed, new, relations)
        assert str(err.value) == str(e)
        assert state.text() == before
        return
    dirty = state.edit(vertex, removed, new, relations)
    assert vertex in dirty
    text = state.text()
    b = state.presentation()
    assert parse_presentation(text) == b == fresh and hash(b) == hash(fresh)
    assert text == serialize_presentation(b) == serialize_presentation(fresh)
    assert (b.monomials, b.is_monomial, b.is_quadratic, b._monomial_lengths) == \
        (fresh.monomials, fresh.is_monomial, fresh.is_quadratic,
         fresh._monomial_lengths)
    q, f = b.quiver, fresh.quiver
    assert [(q.out_arrows(v), q.in_arrows(v)) for v in f.vertices] == \
        [(f.out_arrows(v), f.in_arrows(v)) for v in f.vertices]
    assert all(q.arrow(x.name) == x for x in f.arrows)
    assert not q.has_vertex(vertex) and not any(q.has_arrow(n) for n in
                                                removed - {x.name for x in new})
    assert validate(b) == validate(fresh)
    # what the state hands over instead of recomputing: the text lines and
    # the vertex order
    assert q._arrow_lines == f._arrow_lines
    assert b._relation_lines == fresh._relation_lines
    assert sorted(q.vertices, key=q._order.__getitem__) == list(q.vertices)


def _a5_state():
    return transform._WorkingState(load_fixture("a5-chain"), _NO_CLASSIFICATION)


_EDIT_REFUSALS = [
    (("5", ("delta", "omega"), (), ()), "unknown arrow 'omega'"),
    (("9", (), (), ()), "unknown vertex '9'"),
    (("5", (), (), ()), "vertex '5' keeps an arrow"),
    (("5", ("delta",), [("b c", "1", "2")], ()), "invalid arrow identifier 'b c'"),
    (("5", ("delta",), [("alpha", "1", "2")], ()), "duplicate arrow identifier 'alpha'"),
    (("5", ("delta",), [("x", "1", "2"), ("x", "2", "3")], ()),
     "duplicate arrow identifier 'x'"),
    (("5", ("delta",), [("x", "1", "9")], ()),
     "arrow 'x' has an endpoint outside the vertex list"),
    (("5", ("delta",), [("x", "5", "1")], ()),
     "arrow 'x' has an endpoint outside the vertex list"),
    (("5", ("delta",), [("x", "1")], ()),
     "an arrow is a (name, source, target) triple of strings, not ('x', '1')"),
    (("5", ("delta",), (), [("gamma", "delta")]), "unknown arrow 'delta'"),
    (("5", ("delta",), (), [("alpha", "gamma")]), "arrows 'alpha' and 'gamma' do not compose"),
    (("5", ("delta",), [("x", "4", "1")], [("gamma", "x"), ("x", "beta")]),
     "arrows 'x' and 'beta' do not compose"),
    (("5", ("delta",), (), [("alpha", "beta", "gamma")]),
     "a move adds pairs of arrows as relations, not ('alpha', 'beta', 'gamma')"),
]


@pytest.mark.parametrize("args,message", _EDIT_REFUSALS, ids=[m for _, m in _EDIT_REFUSALS])
def test_edit_refuses_and_changes_nothing(args, message):
    # every check an edit makes raises before any table changes
    state = _a5_state()
    before = state.text()
    with pytest.raises(QsaError) as err:
        state.edit(*args)
    assert str(err.value) == message
    assert state.text() == before
    assert state.presentation() == load_fixture("a5-chain")


def test_edit_refuses_to_drop_the_last_vertex():
    a = parse_presentation("quiver one\nvertices: 1\n")
    with pytest.raises(QsaError) as err:
        transform._WorkingState(a, _NO_CLASSIFICATION).edit("1", (), (), ())
    assert str(err.value) == "quiver needs at least one vertex"


def test_edit_drops_a_bare_vertex_and_keeps_relations_once():
    # a new relation equal to a kept one is kept once
    state = _a5_state()
    assert state.edit("5", ("delta",), (), [("alpha", "beta")]) == {"3", "4", "5"}
    assert state.text() == (
        "quiver a5_chain\nvertices: 1 2 3 4\narrow alpha: 1 -> 2\n"
        "arrow beta: 2 -> 3\narrow gamma: 3 -> 4\nrelations:\nalpha beta\n")


def test_edited_state_keeps_long_tables_in_blocks():
    # past twice the block size, lines are split into blocks and each block
    # caches its text; edits across block boundaries, which empty some
    # blocks and split others, keep the text equal to the serialization of
    # the presentation the state builds
    n = 300
    a = parse_presentation(
        "quiver long\nvertices: " + " ".join(map(str, range(1, n + 1))) + "\n"
        + "".join(f"arrow a{i}: {i} -> {i + 1}\n" for i in range(1, n)))
    state = transform._WorkingState(a, _NO_CLASSIFICATION)
    for i in range(1, 281, 2):
        state.edit(str(i + 1), (f"a{i}", f"a{i + 1}"), [(f"a{i}x", str(i), str(i + 2))],
                   [(f"a{i - 2}x", f"a{i}x")] if i > 1 else ())
    text = state.text()
    b = state.presentation()
    assert len(b.quiver.vertices) == n - 140 and len(b.relations) == 139
    assert parse_presentation(text) == b
    assert serialize_presentation(b) == text


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
    (lambda: Quiver("q", [], []), "quiver needs at least one vertex"),
    (lambda: RelationTerm(_CHAIN, [(1, ["a"])]), "relation paths must have length >= 2"),
    # the one check `Quiver._trusted` keeps, which guards every mutation result
    (lambda: Quiver._trusted("q", ["1", "2"], [Arrow("a", "1", "2")] * 2,
                             {"1": [], "2": []}, {"1": [], "2": []}),
     "duplicate arrow identifier 'a'"),
    (lambda: Quiver("x", ["1"], [("a", "1")]),
     "an arrow is a (name, source, target) triple of strings, not ('a', '1')"),
    (lambda: Quiver("x", ["1"], [5]),
     "an arrow is a (name, source, target) triple of strings, not 5"),
    (lambda: Quiver("x", ["1"], [("a", ["1"], "1")]),
     "an arrow is a (name, source, target) triple of strings, not ('a', ['1'], '1')"),
    (lambda: Quiver("x", ["1"], [Arrow("a", ["1"], "1")]),
     "an arrow is a (name, source, target) triple of strings, "
     "not Arrow(name='a', source=['1'], target='1')"),
    (lambda: transform._WorkingState(AlgebraPresentation(_CHAIN, []), _NO_CLASSIFICATION)
     .edit("3", ["b"], [Arrow("c", "2", 3)], ()),
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


# arguments of the wrong type, which would otherwise end in a TypeError or an
# AttributeError, or (a bare string of vertex names) be read character by character
_ARGUMENT_REFUSALS = [
    (lambda: opposite(5), "the opposite needs an AlgebraPresentation"),
    (lambda: is_tree(5), "the tree test needs a Quiver or an AlgebraPresentation"),
    (lambda: underlying_graph(5),
     "the underlying graph needs a Quiver or an AlgebraPresentation"),
    (lambda: certificate_payload(5), "the certificate payload needs a ReductionCertificate"),
    (lambda: blow_up(5, ["1"]), "blow-up needs an AlgebraPresentation"),
    (lambda: blow_up(load_fixture("a5-chain"), [["1"]]),
     "the blown vertices must be a list of vertex names, not [['1']]"),
    (lambda: blow_up(load_fixture("a5-chain"), "13"),
     "the blown vertices must be a list of vertex names, not '13'"),
    (lambda: blow_up(load_fixture("a5-chain"), 1),
     "the blown vertices must be a list of vertex names, not 1"),
    (lambda: mutate_at(5, "1", "minus"), "mutation needs an AlgebraPresentation"),
    (lambda: mutate_at(load_fixture("a5-chain"), ["5"], "minus"), "unknown vertex ['5']"),
    (lambda: mutate_at(load_fixture("a5-chain"), ["1"], "plus"), "unknown vertex ['1']"),
    (lambda: truncated_cover(load_fixture("three-vertex-wild"), ["a"], 2),
     "unknown basepoint ['a']"),
    (lambda: euler_eval(euler_matrix(load_fixture("a5-chain")), 5),
     "the form is evaluated at a list of numbers, not 5"),
    (lambda: euler_eval(euler_matrix(load_fixture("a5-chain")), "11111"),
     "the form is evaluated at a list of numbers, not '11111'"),
    (lambda: reduce_step(load_fixture("twelve-vertex-gqs"), special=5),
     "the special vertices must be a list of vertex names, not 5"),
    (lambda: reduce_step(load_fixture("twelve-vertex-gqs"), special=[["1"]]),
     "the special vertices must be a list of vertex names, not [['1']]"),
]


@pytest.mark.parametrize("call,message", _ARGUMENT_REFUSALS,
                         ids=[m for _, m in _ARGUMENT_REFUSALS])
def test_entry_points_refuse_arguments_of_the_wrong_type(call, message):
    with pytest.raises(QsaError) as err:
        call()
    assert str(err.value) == message


def test_has_vertex_answers_false_for_an_unhashable_name():
    q = load_fixture("a5-chain").quiver
    assert q.has_vertex("1")
    assert not q.has_vertex(["1"])
    assert not q.has_vertex({"1": 1})
    assert not q.has_vertex(1)
