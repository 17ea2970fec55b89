"""Kernels, inverses, and the sign test and negative vector of symmetric
forms, against sympy and against the Fraction congruence elimination."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sympy

from qsa._linalg import (
    _congruence, identity, inverse, negative_vector, nullspace, psd_flags, rref,
)

from oracles import fraction_congruence, sympy_matrix, sympy_psd


ENTRY = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _gram(b, n):
    """B^T B for a list of rows of length n."""
    return [[sum((row[i] * row[j] for row in b), Fraction(0)) for j in range(n)]
            for i in range(n)]


def _symmetric(draw, n, diagonal):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(diagonal)
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(ENTRY)
    return m


@st.composite
def symmetric_matrices(draw):
    """Small symmetric rational matrices, one family per elimination branch."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(
        ["definite", "singular", "zero_diagonal", "negative", "any"]))
    if kind == "definite":
        # unitriangular B: B^T B is positive definite
        b = [[Fraction(1) if i == j else (draw(ENTRY) if j < i else Fraction(0))
              for j in range(n)] for i in range(n)]
        return _gram(b, n)
    if kind == "singular":
        k = draw(st.integers(0, n - 1))
        b = [[draw(ENTRY) for _ in range(n)] for _ in range(k)]
        return _gram(b, n)
    if kind == "zero_diagonal":
        m = _symmetric(draw, n, st.just(Fraction(0)))
        if n > 1:
            i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                        max_size=2, unique=True)))
            m[i][j] = m[j][i] = draw(ENTRY.filter(bool))
        return m
    m = _symmetric(draw, n, ENTRY)
    if kind == "negative":
        k = draw(st.integers(0, n - 1))
        m[k][k] = -abs(draw(ENTRY.filter(bool)))
    return m


def _value(m, x):
    n = len(m)
    return sum((m[i][j] * x[i] * x[j] for i in range(n) for j in range(n)),
               Fraction(0))


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_sign_test_and_witness_match_sympy(m):
    psd, pd = sympy_psd(m)
    assert psd_flags(m) == (psd, pd)
    x = negative_vector(m)
    if psd:
        assert x is None
    else:
        assert all(type(t) is int for t in x)
        assert math.gcd(*x) == 1
        assert _value(m, x) < 0


def test_each_branch_on_frozen_cases():
    f = Fraction
    assert psd_flags([]) == (True, True)
    assert negative_vector([]) is None
    # pivots on both rows: definite
    assert psd_flags([[f(2), f(1)], [f(1), f(2)]]) == (True, True)
    # one pivot leaves a zero block: semidefinite, singular
    assert psd_flags([[f(1), f(1)], [f(1), f(1)]]) == (True, False)
    # negative diagonal entry: that basis vector
    assert negative_vector([[f(1), f(0)], [f(0), f(-1, 2)]]) == [0, 1]
    # zero diagonal, nonzero off-diagonal pair
    assert negative_vector([[f(0), f(1, 3)], [f(1, 3), f(0)]]) == [1, -1]
    # negative Schur complement, scaled to a primitive integer vector
    assert negative_vector([[f(2), f(3)], [f(3), f(2)]]) == [-3, 2]


@st.composite
def integer_forms(draw):
    """Integer symmetric matrices up to n = 8, shaped like the 2M the library
    passes: twice a graph's Tits form, 2·B^T B, or any even-diagonal matrix."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["graph", "gram", "any"]))
    small = st.integers(-3, 3)
    if kind == "graph":
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = 2 - 2 * draw(st.integers(0, 1))
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = -draw(st.sampled_from([0, 0, 1, 1, 2]))
        return m
    if kind == "gram":
        b = [[draw(small) for _ in range(n)] for _ in range(draw(st.integers(0, n)))]
        return [[2 * sum(row[i] * row[j] for row in b) for j in range(n)]
                for i in range(n)]
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2 * draw(small)
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(small)
    return m


@settings(max_examples=300, deadline=None)
@given(st.one_of(symmetric_matrices(), integer_forms()))
def test_congruence_matches_fraction_elimination(m):
    assert _congruence(m) == fraction_congruence(m)


@st.composite
def sparse_forms(draw):
    """Sparse integer symmetric matrices up to 40 x 40, with a block of
    zero diagonal entries: twice the Tits form of a random multigraph, or
    random entries off a diagonal mostly 2."""
    n = draw(st.integers(1, 40))
    zeros = set(draw(st.lists(st.integers(0, n - 1), max_size=n // 3 + 1)))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 0 if i in zeros else draw(st.sampled_from([2, 2, 2, 4, 1, -2]))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    graph = draw(st.booleans())
    for i, j in draw(st.lists(pair, max_size=2 * n)):
        if i != j:
            x = -1 if graph else draw(st.sampled_from([-2, -1, 1, 2]))
            m[i][j] += x
            m[j][i] += x
    return m


@settings(max_examples=150, deadline=None)
@given(sparse_forms())
def test_sparse_congruence_matches_fraction_elimination(m):
    want = fraction_congruence(m)
    assert _congruence(m) == want
    assert _congruence([{j: x for j, x in enumerate(row) if x} for row in m]) == want


@pytest.mark.parametrize("m,expected", [
    # zero leading diagonal entry: pivots on row 1, then row 0 turns negative
    ([[0, 1, 0], [1, 2, 1], [0, 1, 2]], (False, False, [2, -1, 0])),
    # row 1 turns zero after pivoting on row 0, so row 2 is pivoted next
    ([[1, 1, 0], [1, 1, 0], [0, 0, 1]], (True, False, None)),
    # pivots on row 1 and leaves a zero block with a positive entry
    ([[0, 0, 1], [0, 2, 0], [1, 0, 0]], (False, False, [1, 0, -1])),
    # row 0 has no entry in the first pivot's column, but its basis row must
    # take the new scale before the zero block mixes it with row 2's
    ([[0, 0, -1], [0, 2, -1], [-1, -1, 1]], (False, False, [1, 1, 2])),
])
def test_congruence_out_of_order_pivots(m, expected):
    assert fraction_congruence(m) == expected
    assert _congruence(m) == expected
    assert _congruence([[Fraction(x, 3) for x in row] for row in m]) == expected


# --- inverse ---------------------------------------------------------------------


@st.composite
def square_matrices(draw):
    """1..6 square rational matrices; some have a repeated or zero row."""
    n = draw(st.integers(1, 6))
    a = [[draw(ENTRY) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2))
        a[i] = list(a[j]) if i != j else [Fraction(0)] * n
    return a


@settings(max_examples=120, deadline=None)
@given(square_matrices())
def test_inverse_matches_sympy(a):
    m = sympy_matrix(a)
    if m.det() == 0:
        with pytest.raises(ValueError):
            inverse(a)
        return
    inv = inverse(a)
    assert all(type(x) is Fraction for row in inv for x in row)
    assert sympy_matrix(inv) == m.inv()


def test_inverse_of_integer_matrix_needs_a_row_swap():
    assert inverse([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]
    assert inverse([[0, 2], [4, 0]]) == [[0, Fraction(1, 4)], [Fraction(1, 2), 0]]
    assert inverse([]) == []
    with pytest.raises(ValueError):
        inverse([[1, 2], [2, 4]])


# --- kernels -------------------------------------------------------------------


@st.composite
def rectangular_matrices(draw):
    """(rows, ncols): 0..4 rows, 1..5 columns, some with a zero column or a
    repeated row."""
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(0, 4))
    a = [[draw(ENTRY) for _ in range(ncols)] for _ in range(nrows)]
    if a and draw(st.booleans()):
        c = draw(st.integers(0, ncols - 1))
        for row in a:
            row[c] = Fraction(0)
    if a and draw(st.booleans()):
        a.append(list(draw(st.sampled_from(a))))
    return a, ncols


@settings(max_examples=150, deadline=None)
@given(rectangular_matrices())
def test_nullspace_is_a_kernel_basis(case):
    a, ncols = case
    kernel = nullspace(a, ncols)
    pivots = rref(a)[1]
    free = [c for c in range(ncols) if c not in pivots]
    rank_sympy = sympy.Matrix(len(a), ncols,
                              [sympy.Rational(x.numerator, x.denominator)
                               for row in a for x in row]).rank()
    assert len(kernel) == len(free) == ncols - rank_sympy
    for x, c in zip(kernel, free):
        assert all(sum((r[j] * x[j] for j in range(ncols)), Fraction(0)) == 0
                   for r in a)
        assert [x[f] for f in free] == [1 if f == c else 0 for f in free]


def test_empty_input_has_every_column_free():
    assert nullspace([], 3) == identity(3)
    assert nullspace([], 0) == []
    assert rref([]) == ([], [])
