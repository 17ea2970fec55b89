"""Homological bilinear form of an acyclic monomial presentation.

The Cartan matrix counts relation-free paths between vertices, as walks
on the prefix automaton of the relations, with no path built.  Its
inverse transpose E is the bilinear form on dimension vectors whose value
at (x, x) is the alternating sum of Hom and Ext dimensions.  E is not found by inverting C: for a
monomial algebra the minimal projective resolution of the simple at i has
a basis of chains of overlapping relations (Green, Happel and Zacharia,
Illinois J. Math. 29, 1985; Bardzell, J. Algebra 188, 1997), so
E[i][j] = sum_k (-1)^k #(k-chains from i to j).  The chains are walked with
their multiplicities, and E is kept as sparse int rows: it has as many
nonzero entries as there are chain ends, where C is dense.  The sign test
runs a sparse congruence elimination on the integer matrix E + E^T, and the
form is evaluated with integer products; the dense matrix is built only
when something reads `EulerData.entries`.
"""

import math
from collections.abc import Sized
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from ._linalg import fr, _congruence, _integer_rows
from .presentation import (
    AlgebraPresentation, QsaError, is_tree, _normal_word_counts,
)


# --- matrices ----------------------------------------------------------------


class CartanMatrix(NamedTuple):
    vertices: tuple           # row/column labels, in canonical order
    entries: tuple            # entries[i][j] = number of paths j -> i


class EulerData:
    """The form x^T E x on dimension vectors ordered as `vertices`.

    `EulerData(vertices, entries)` takes E as an n x n matrix of int or
    Fraction entries, n the number of vertices, and checks it here, once.
    The form is held as sparse rows, {column: nonzero entry}; `entries`,
    the rows as a tuple of tuples, is built from them on first read.
    """

    def __init__(self, vertices, entries):
        self.vertices, self.entries = _checked_form(vertices, entries)
        self._rows = tuple({j: x for j, x in enumerate(row) if x} for row in self.entries)

    @classmethod
    def _sparse(cls, vertices, rows):
        e = cls.__new__(cls)
        e.vertices, e._rows = vertices, rows
        return e

    @cached_property
    def entries(self):
        n = len(self.vertices)
        dense = []
        for row in self._rows:
            line = [0] * n
            for j, x in row.items():
                line[j] = x
            dense.append(tuple(line))
        return tuple(dense)

    def __eq__(self, other):
        return (isinstance(other, EulerData)
                and self.vertices == other.vertices and self._rows == other._rows)

    def __repr__(self):
        return f"EulerData({self.vertices!r}, {self.entries!r})"


def _checked_form(vertices, entries):
    """(vertices, entries) as tuples, or a QsaError naming the first fault:
    the form must be an n x n matrix of int or Fraction entries."""
    try:
        vertices = tuple(vertices)
    except TypeError:
        raise QsaError(f"the form's vertices are a list of names, not {vertices!r}") from None
    n = len(vertices)
    try:
        rows = tuple(tuple(row) for row in entries)
    except TypeError:
        raise QsaError(f"a form is a matrix of int or Fraction entries, "
                       f"not {entries!r}") from None
    if len(rows) != n:
        raise QsaError(f"the form has {len(rows)} rows for {n} vertices")
    for i, row in enumerate(rows, 1):
        if len(row) != n:
            raise QsaError(f"row {i} of the form has {len(row)} entries for {n} vertices")
        for x in row:
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise QsaError(f"form entry {x!r} is not an int or Fraction")
    return vertices, rows


class NonnegativityReport(NamedTuple):
    nonnegative: bool
    positive_definite: bool
    witness: tuple            # integer vector with negative value, or ()
    value: object             # Fraction value at the witness, or None

    def __bool__(self):
        return self.nonnegative


# --- construction ------------------------------------------------------------


def _check_acyclic_monomial(a):
    """Refuse what has no integer Euler form: a presentation that is not
    monomial, or whose quiver has an oriented cycle."""
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("Cartan and Euler matrices need an AlgebraPresentation")
    if not a.is_monomial:
        raise QsaError("Cartan matrix requires a monomial presentation")
    if not (is_tree(a) or a.quiver._acyclicity[0]):
        raise QsaError("Cartan matrix requires an acyclic quiver")


def cartan_matrix(a):
    """Count relation-free paths between all vertex pairs.

    Requires a monomial presentation on an acyclic quiver; those are the
    presentations whose path counts are finite and whose bilinear form
    is an invariant of the derived category.
    """
    _check_acyclic_monomial(a)
    vs = a.quiver.vertices
    idx = {v: k for k, v in enumerate(vs)}
    entries = [[0] * len(vs) for _ in vs]
    for src, ends in _normal_word_counts(a).items():
        j = idx[src]
        for tgt, n in ends.items():
            entries[idx[tgt]][j] = n
    return CartanMatrix(vs, tuple(tuple(row) for row in entries))


def _chain_extensions(a):
    """The function from a chain's tail to the tails of the chains that
    extend it, memoised.

    The 0-chains are the vertices, the 1-chains the arrows and the
    2-chains the minimal relations.  An n-chain q·u extends an (n-1)-chain
    q = q'·v, q' the (n-2)-chain inside q, by a shortest nontrivial path u
    such that some relation is a suffix of v·u and starts inside v; u is
    then the new chain's tail.  A chain is keyed by its tail alone, since
    that is all its extensions read.  With quadratic relations a tail is
    one arrow and its extensions are the arrows it makes a relation with.
    A path u that holds a whole relation is never extended further: a
    relation starting in v and covering u would contain that one, so it is
    not a minimal relation.  The walk meets the shortest relation suffix
    first and stops there, so a relation that contains another is never
    reached, and the relations need not be minimal.
    """
    rels = a.monomials
    lengths = sorted(set(map(len, rels)))
    q = a.quiver
    memo = {}

    def extensions(v):
        found = memo.get(v)
        if found is not None:
            return found
        found = []
        stack = [(ar.name,) for ar in q.out_arrows(q.arrow(v[-1]).target)]
        while stack:
            u = stack.pop()
            w = v + u
            k = next((k for k in lengths if k <= len(w) and w[-k:] in rels), None)
            if k is None:
                if len(u) + 1 < lengths[-1]:
                    stack += [u + (ar.name,) for ar in q.out_arrows(q.arrow(u[-1]).target)]
            elif k > len(u):
                found.append(u)
        memo[v] = found = tuple(found)
        return found

    return extensions if rels else (lambda v: ())


def euler_matrix(a):
    """E[i][j] = sum_k (-1)^k #(k-chains from i to j), as sparse int rows.

    Row i walks the chains from vertex i one length at a time, the chains
    of one length merged by tail with their counts, so the walk costs the
    number of distinct tails, not of chains.  The quiver is acyclic and
    every extension adds an arrow, so the walk ends.
    """
    _check_acyclic_monomial(a)
    q = a.quiver
    vs = q.vertices
    idx = {v: k for k, v in enumerate(vs)}
    end = {ar.name: idx[ar.target] for ar in q.arrows}
    extensions = _chain_extensions(a)
    rows = []
    for v in vs:
        row = {idx[v]: 1}
        level = {(ar.name,): 1 for ar in q.out_arrows(v)}
        sign = -1
        while level:
            nxt = {}
            for tail, c in level.items():
                j = end[tail[-1]]
                row[j] = row.get(j, 0) + sign * c
                for t in extensions(tail):
                    nxt[t] = nxt.get(t, 0) + c
            level, sign = nxt, -sign
        rows.append({j: x for j, x in row.items() if x})
    return EulerData._sparse(vs, tuple(rows))


def euler_eval(e, x):
    """Value of the form at an integer (or rational) vector x, as a Fraction.

    E and x are scaled to integers by the lcm of their denominators, which
    is 1 for an integer vector on an acyclic quiver, so every product is
    an int product.  A vector of the wrong length, or with an entry that
    is not a rational number, is refused.
    """
    if not isinstance(e, EulerData):
        raise QsaError("the form value needs an EulerData form")
    if isinstance(x, str) or not isinstance(x, Sized):
        raise QsaError(f"the form is evaluated at a list of numbers, not {x!r}")
    if len(x) != len(e.vertices):
        raise QsaError(
            f"vector has {len(x)} entries, form has {len(e.vertices)}")
    entries = []
    for t in x:
        try:
            entries.append(t if type(t) is int else fr(t))
        except (ValueError, TypeError, ZeroDivisionError, OverflowError):
            raise QsaError(f"vector entry {t!r} is not a rational number") from None
    dx, (vec,) = _integer_rows([entries])
    de = math.lcm(*(y.denominator for row in e._rows for y in row.values()))
    total = sum(xi * sum(y.numerator * (de // y.denominator) * vec[j] for j, y in row.items())
                for xi, row in zip(vec, e._rows) if xi)
    return Fraction(total, de * dx * dx)


# --- nonnegativity -----------------------------------------------------------


def is_nonnegative_form(e):
    """Decide whether x^T E x >= 0 for all real x, exactly.

    The answer depends only on the symmetric part M of E.  A congruence
    elimination on 2M = E + E^T, which has M's signs and primitive witness,
    either pivots through (M is positive semidefinite, and definite when
    every pivot is positive) or stops at an explicit integer vector with
    negative value, which is re-evaluated on E here.  E + E^T is built as
    sparse rows from E's sparse rows.
    """
    if not isinstance(e, EulerData):
        raise QsaError("the sign test needs an EulerData form")
    sym = [dict(row) for row in e._rows]
    for i, row in enumerate(e._rows):
        for j, x in row.items():
            sym[j][i] = sym[j].get(i, 0) + x
    psd, pd, w = _congruence(sym)
    if psd:
        return NonnegativityReport(True, pd, (), None)
    if w is None:
        raise QsaError("form is not semidefinite but no witness was found")
    val = euler_eval(e, w)
    if val >= 0:
        raise QsaError("internal error: witness value is not negative")
    return NonnegativityReport(False, False, tuple(w), val)
