"""Cartan and Euler matrices, form evaluation, non-negativity decisions."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsa.presentation import (
    Arrow, AlgebraPresentation, QsaError, Quiver, parse_presentation, path_basis,
)
from qsa.euler import (
    EulerData, cartan_matrix, euler_matrix, euler_eval, is_nonnegative_form,
)
from qsa._linalg import inverse, transpose

from conftest import load_fixture
from oracles import (
    chain_chi, chain_text, chi_form_value, substitution_euler, tree_presentations,
)


# --- small frozen cases --------------------------------------------------------


def test_single_arrow_matrices():
    a2 = parse_presentation("quiver a2\nvertices: 1 2\narrow a: 1 -> 2\n")
    assert cartan_matrix(a2).entries == ((1, 0), (1, 1))
    e = euler_matrix(a2)
    assert e.entries == ((Fraction(1), Fraction(-1)),
                         (Fraction(0), Fraction(1)))
    assert euler_eval(e, (1, 0)) == 1
    assert euler_eval(e, (0, 1)) == 1
    assert euler_eval(e, (1, 1)) == 1
    assert euler_eval(e, (2, 1)) == 3
    rep = is_nonnegative_form(e)
    assert rep.nonnegative and rep.positive_definite


def test_negative_form_reports_witness():
    bad = EulerData(("1", "2"), ((Fraction(0), Fraction(1)),
                                 (Fraction(0), Fraction(0))))
    rb = is_nonnegative_form(bad)
    assert not rb.nonnegative
    assert rb.witness == (1, -1)
    assert rb.value == -1


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.one_of(st.integers(-4, 4), _RATIONALS), min_size=n, max_size=n))))
def test_euler_eval_matches_fraction_sum(case):
    rows, x = case
    e = EulerData(tuple(map(str, range(len(x)))), tuple(map(tuple, rows)))
    want = sum((Fraction(x[i]) * rows[i][j] * x[j]
                for i in range(len(x)) for j in range(len(x))), Fraction(0))
    got = euler_eval(e, x)
    assert isinstance(got, Fraction) and got == want


@pytest.mark.parametrize("x, message", [
    ([1, 1, 1, 1], "vector has 4 entries, form has 5"),
    (["x", 1, 1, 1, 1], "vector entry 'x' is not a rational number"),
    (["1/0", 1, 1, 1, 1], "vector entry '1/0' is not a rational number"),
    ([None, 1, 1, 1, 1], "vector entry None is not a rational number"),
    ([float("inf"), 1, 1, 1, 1], "vector entry inf is not a rational number"),
])
def test_euler_eval_refuses_a_bad_vector(x, message):
    e = euler_matrix(load_fixture("a5-chain"))
    with pytest.raises(QsaError) as err:
        euler_eval(e, x)
    assert str(err.value) == message


def test_double_arrow_form_degenerate():
    ek = euler_matrix(load_fixture("kronecker"))
    assert euler_eval(ek, (1, 1)) == 0
    rk = is_nonnegative_form(ek)
    assert rk.nonnegative and not rk.positive_definite


def test_five_subspace_star_is_negative_somewhere():
    star5 = parse_presentation(
        "quiver star5\nvertices: 0 1 2 3 4 5\n" +
        "".join(f"arrow a{i}: {i} -> 0\n" for i in range(1, 6)))
    rs = is_nonnegative_form(euler_matrix(star5))
    assert not rs.nonnegative
    assert euler_eval(euler_matrix(star5), rs.witness) == rs.value < 0


def test_cyclic_input_refused():
    cyc = parse_presentation(
        "quiver c2\nvertices: 1 2\narrow a: 1 -> 2\narrow b: 2 -> 1\n"
        "relations:\na b\nb a\n")
    with pytest.raises(QsaError):
        cartan_matrix(cyc)


def test_non_monomial_input_refused():
    square = parse_presentation(
        "quiver sq\nvertices: 1 2 3 4\narrow a: 1 -> 2\narrow b: 2 -> 4\n"
        "arrow c: 1 -> 3\narrow d: 3 -> 4\nrelations:\n( a b ) - ( c d )\n")
    with pytest.raises(QsaError) as err:
        cartan_matrix(square)
    assert str(err.value) == "Cartan matrix requires a monomial presentation"


@pytest.mark.parametrize("build", [cartan_matrix, euler_matrix])
def test_matrices_refuse_a_quiver(build):
    with pytest.raises(QsaError) as err:
        build(load_fixture("a5-chain").quiver)
    assert str(err.value) == "Cartan and Euler matrices need an AlgebraPresentation"


def test_sign_test_refuses_a_bare_matrix():
    with pytest.raises(QsaError) as err:
        is_nonnegative_form(((1, 0), (0, 1)))
    assert str(err.value) == "the sign test needs an EulerData form"


@pytest.mark.parametrize("vertices, entries, message", [
    (("1", "2"), ((1,), (1, 2)), "row 1 of the form has 1 entries for 2 vertices"),
    (("1", "2"), ((1, 2),), "the form has 1 rows for 2 vertices"),
    (("1",), (("x",),), "form entry 'x' is not an int or Fraction"),
    (("1",), ((1.5,),), "form entry 1.5 is not an int or Fraction"),
    (("1",), ((True,),), "form entry True is not an int or Fraction"),
    (("1",), None, "a form is a matrix of int or Fraction entries, not None"),
    (("1",), (1,), "a form is a matrix of int or Fraction entries, not (1,)"),
    (None, ((1,),), "the form's vertices are a list of names, not None"),
])
def test_a_malformed_form_is_refused_where_it_is_built(vertices, entries, message):
    with pytest.raises(QsaError) as err:
        EulerData(vertices, entries)
    assert str(err.value) == message


def test_a_form_built_from_entries_keeps_them():
    e = EulerData(["1", "2"], [[1, Fraction(-1, 2)], [0, 1]])
    assert e.vertices == ("1", "2")
    assert e.entries == ((1, Fraction(-1, 2)), (0, 1))
    assert euler_eval(e, (1, 1)) == Fraction(3, 2)
    assert is_nonnegative_form(e).positive_definite
    a2 = parse_presentation("quiver a2\nvertices: 1 2\narrow a: 1 -> 2\n")
    assert EulerData(("1", "2"), ((1, -1), (0, 1))) == euler_matrix(a2) != e


def test_a_deep_witness_is_rebuilt_without_recursion():
    # E + E^T is the tridiagonal 2/-1 matrix of order 1,500 with a 0 last:
    # every pivot is positive until the last diagonal entry turns negative,
    # so the witness depends on all 1,499 pivots in a chain
    n = 1500
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i], rows[i][i + 1] = 1, -1
    e = EulerData(tuple(map(str, range(n))), rows)
    rep = is_nonnegative_form(e)
    assert not rep.nonnegative
    assert rep.witness == tuple(range(1, n + 1))
    assert euler_eval(e, rep.witness) == rep.value < 0


# --- E without an inverse ------------------------------------------------------


def _random_tree(rng, n, max_relations):
    """A seeded tree on n vertices, arrows oriented at random, named by a
    shuffled range so the natural order is rarely a topological one, with
    up to max_relations monomial relations of length 2 or 3 (none inside
    another)."""
    names = [f"v{k}" for k in rng.sample(range(1, 10 * n), n)]
    arrows = []
    for k in range(1, n):
        u, v = names[rng.randrange(k)], names[k]
        arrows.append(Arrow(f"a{k}", *((u, v) if rng.random() < 0.5 else (v, u))))
    q = Quiver("t", names, arrows)
    paths = [(x.name, y.name) for x in q.arrows for y in q.out_arrows(x.target)]
    paths += [p + (z.name,) for p in paths for z in q.out_arrows(q.arrow(p[-1]).target)]
    rng.shuffle(paths)
    rels = []
    for p in paths[:max_relations]:
        if not any(set(r) <= set(p) or set(p) <= set(r) for r in rels):
            rels.append(p)
    return AlgebraPresentation(q, [[(1, list(p))] for p in rels])


def _chain(n, rng=None):
    """A_n, arrows 1 -> 2 -> ... -> n, or oriented at random given rng."""
    verts = [str(i) for i in range(1, n + 1)]
    arrows = [Arrow(f"a{i}", *((str(i), str(i + 1))
                               if rng is None or rng.random() < 0.5
                               else (str(i + 1), str(i)))) for i in range(1, n)]
    return AlgebraPresentation(Quiver(f"a{n}", verts, arrows), [])


def _hereditary_cases():
    rng = random.Random(18)
    yield from (_chain(n) for n in (1, 2, 3, 20, 160))
    yield from (_chain(n, rng) for n in (7, 40, 160))
    yield from (_random_tree(rng, n, 0) for n in (2, 5, 12, 30, 60) for _ in range(4))


@pytest.mark.parametrize("a", list(_hereditary_cases()), ids=lambda a: a.name)
def test_hereditary_euler_matrix_is_identity_minus_arrows(a):
    # with no relations Ext^1(S_i, S_j) counts the arrows i -> j
    e = euler_matrix(a)
    idx = {v: k for k, v in enumerate(e.vertices)}
    want = [[int(i == j) for j in range(len(idx))] for i in range(len(idx))]
    for ar in a.quiver.arrows:
        want[idx[ar.source]][idx[ar.target]] -= 1
    assert [list(row) for row in e.entries] == want
    assert all(type(x) is int for row in e.entries for x in row)


def test_euler_matrix_on_a_sink_orientation():
    e = euler_matrix(parse_presentation(
        "quiver a3\nvertices: 1 2 3\narrow a: 1 -> 2\narrow b: 3 -> 2\n"))
    assert e.entries == ((1, -1, 0), (0, 1, 0), (0, -1, 1))


@pytest.mark.parametrize("seed", range(6))
def test_euler_matrix_is_the_inverse_transpose_on_random_trees(seed):
    rng = random.Random(seed)
    for _ in range(15):
        a = _random_tree(rng, rng.randint(2, 24), rng.randint(0, 6))
        want = transpose(inverse(cartan_matrix(a).entries))
        assert [list(row) for row in euler_matrix(a).entries] == want


_A5 = ("quiver a5\nvertices: 1 2 3 4 5\narrow a: 1 -> 2\narrow b: 2 -> 3\n"
       "arrow c: 3 -> 4\narrow d: 4 -> 5\n")
_A6 = ("quiver a6\nvertices: 1 2 3 4 5 6\narrow a: 1 -> 2\narrow b: 2 -> 3\n"
       "arrow c: 3 -> 4\narrow x: 4 -> 5\narrow y: 5 -> 6\n")


@pytest.mark.parametrize("quiver, relations, first_row", [
    # a b c and b c d overlap in b c: the 3-chain a b c d gives Ext^3(S1, S5) = 1
    (_A5, ["a b c", "b c d"], (1, -1, 0, 1, -1)),
    # a b and c d do not overlap: there is no 3-chain from 1, so E[1][5] = 0
    (_A5, ["a b", "c d"], (1, -1, 1, 0, 0)),
    # b c is a relation that does not start in a, so a b c is no 2-chain;
    # the longer relation c x y makes the walk look two arrows past a
    (_A6, ["b c", "c x y"], (1, -1, 0, 0, 0, 0)),
], ids=["overlap", "disjoint", "inner"])
def test_euler_matrix_on_frozen_chains(quiver, relations, first_row):
    a = parse_presentation(quiver + "relations:\n" + "\n".join(relations) + "\n")
    e = euler_matrix(a)
    assert e.entries[0] == first_row
    assert [list(row) for row in e.entries] == substitution_euler(a)[1]


# --- independent oracle: extension chains --------------------------------------

# For an acyclic quadratic monomial presentation the alternating sum of
# extension spaces between simples is computable straight from chains of
# overlapping relations.  Entrywise agreement pins the matrix convention.

_ACYCLIC = ("a5-chain", "fork-tail-10", "e3-local", "case4-local",
            "expected-delta", "one-point")


@pytest.mark.parametrize("name", _ACYCLIC)
def test_euler_matrix_matches_chain_count(name):
    a = load_fixture(name)
    verts, chi = chain_chi(a)
    e = euler_matrix(a)
    assert tuple(e.vertices) == tuple(verts)
    for i in range(len(verts)):
        for j in range(len(verts)):
            assert e.entries[i][j] == chi[i][j], (name, verts[i], verts[j])


_TREES = list(tree_presentations())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_form_value_matches_chain_form_on_trees(data):
    a = _TREES[data.draw(st.integers(0, len(_TREES) - 1))]
    e = euler_matrix(a)
    n = len(e.vertices)
    x = tuple(data.draw(st.integers(-4, 4)) for _ in range(n))
    assert euler_eval(e, x) == chi_form_value(a, e.vertices, x)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_negative_witness_is_exact_on_trees(data):
    a = _TREES[data.draw(st.integers(0, len(_TREES) - 1))]
    e = euler_matrix(a)
    rep = is_nonnegative_form(e)
    if rep.nonnegative:
        x = tuple(data.draw(st.integers(-3, 3)) for _ in e.vertices)
        assert euler_eval(e, x) >= 0
    else:
        assert euler_eval(e, rep.witness) == rep.value < 0


# --- independent oracle: brute-force path counts ------------------------------

# Every raw path of a random acyclic quiver, minus those containing a relation
# of length 2 or 3 as a contiguous factor, counted per (source, target).


def _raw_paths(q):
    out = []

    def walk(src, at, arrows):
        out.append((src, at, arrows))
        for ar in q.out_arrows(at):
            walk(src, ar.target, arrows + (ar.name,))

    for v in q.vertices:
        walk(v, v, ())
    return out


@st.composite
def _acyclic_monomial(draw):
    n = draw(st.integers(1, 6))
    verts = [str(i + 1) for i in range(n)]
    pairs = [(s, t) for i, s in enumerate(verts) for t in verts[i + 1:]]
    ends = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    q = Quiver("gen", verts, [Arrow(f"a{k}", s, t) for k, (s, t) in enumerate(ends)])
    long_paths = sorted(p for _, _, p in _raw_paths(q) if len(p) in (2, 3))
    rels = draw(st.lists(st.sampled_from(long_paths), unique=True, max_size=4)) \
        if long_paths else []
    return AlgebraPresentation(q, [[(1, list(p))] for p in rels])


@st.composite
def _spined_monomial(draw):
    """An acyclic quiver with a spine 1 -> 2 -> ... -> n, so that long paths
    exist, and up to four more forward arrows (parallel arrows and cycles
    of the underlying graph allowed), with up to six zero relations whose
    lengths, 2 to 4, are drawn first (one may contain another)."""
    n = draw(st.integers(2, 7))
    verts = [str(i + 1) for i in range(n)]
    pairs = [(s, t) for i, s in enumerate(verts) for t in verts[i + 1:]]
    ends = list(zip(verts, verts[1:])) + draw(st.lists(st.sampled_from(pairs), max_size=4))
    q = Quiver("gen", verts, [Arrow(f"a{k}", s, t) for k, (s, t) in enumerate(ends)])
    by_length = {}
    for _, _, p in _raw_paths(q):
        by_length.setdefault(len(p), []).append(p)
    rels = set()
    for k in draw(st.lists(st.sampled_from((2, 3, 4)), max_size=6)):
        if k in by_length:
            rels.add(draw(st.sampled_from(sorted(by_length[k]))))
    return AlgebraPresentation(q, [[(1, list(p))] for p in sorted(rels)])


@settings(max_examples=60, deadline=None)
@given(st.one_of(_acyclic_monomial(), _spined_monomial()))
def test_path_counts_match_brute_force(a):
    rels = [r.terms[0][1] for r in a.relations]
    counts = {}
    for src, tgt, p in _raw_paths(a.quiver):
        if not any(p[k:k + len(m)] == m
                   for m in rels for k in range(len(p) - len(m) + 1)):
            counts[(src, tgt)] = counts.get((src, tgt), 0) + 1
    c = cartan_matrix(a)
    for i, vi in enumerate(c.vertices):
        for j, vj in enumerate(c.vertices):
            assert c.entries[i][j] == counts.get((vj, vi), 0)
            assert len(path_basis(a, vj, vi)) == counts.get((vj, vi), 0)


def test_cartan_matrix_of_a_long_chain_counts_without_listing_paths():
    # A_1,280 has 819,840 paths; they are counted on the prefix automaton,
    # one state per vertex, in well under a second (listing them took 3.6 s)
    a = parse_presentation(chain_text(1280))
    start = time.perf_counter()
    c = cartan_matrix(a)
    assert time.perf_counter() - start < 1
    assert c.entries[-1] == (1,) * 1280
    assert c.entries[0] == (1,) + (0,) * 1279
    assert sum(map(sum, c.entries)) == 1280 * 1281 // 2


@settings(max_examples=200, deadline=None)
@given(_spined_monomial())
def test_chain_euler_matrix_matches_substitution(a):
    # E from relation chains equals C^-T by substitution, and C·E^T = I with
    # C from the relation-free path counts
    e = euler_matrix(a)
    vs, want = substitution_euler(a)
    assert e.vertices == vs
    assert [list(row) for row in e.entries] == want
    c = cartan_matrix(a).entries
    n = len(vs)
    assert all(sum(c[i][k] * e.entries[j][k] for k in range(n)) == (i == j)
               for i in range(n) for j in range(n))
