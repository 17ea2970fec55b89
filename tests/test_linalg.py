"""Kernels, and the sign test and negative vector of symmetric forms, against sympy."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import sympy

from qsa._linalg import (
    identity, negative_vector, nullspace, psd_flags, rank, rref,
)

from oracles import sympy_psd


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
    assert rank([]) == 0
