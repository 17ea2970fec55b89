"""Homological bilinear form of an acyclic monomial presentation.

The Cartan matrix counts relation-free paths between vertices, read off
the presentation's path table in one pass.  Its inverse transpose gives
the bilinear form on dimension vectors whose value at (x, x) is the
alternating sum of Hom and Ext dimensions.  The quiver is acyclic, so
the Cartan matrix is unitriangular in a topological order of the
vertices and the Euler matrix E has integer entries.  No inverse is
formed: row i of E is the solution x of C x = e_i, found by substitution
in topological order from vertex i with int arithmetic; each x_s that is
not zero is carried along the path counts from s.  The sign test runs a
sparse congruence elimination on the integer matrix E + E^T, and the
form is evaluated with integer products.
"""

from fractions import Fraction
from typing import NamedTuple

from ._linalg import fr, _congruence, _integer_rows
from .presentation import (
    AlgebraPresentation, QsaError, _arrow_targets, _longest_walks, _relation_free_levels,
)


# --- matrices ----------------------------------------------------------------


class CartanMatrix(NamedTuple):
    vertices: tuple           # row/column labels, in canonical order
    entries: tuple            # entries[i][j] = number of paths j -> i


class EulerData(NamedTuple):
    vertices: tuple
    entries: tuple            # rows of ints (or Fractions); the form is x^T E x


class NonnegativityReport(NamedTuple):
    nonnegative: bool
    positive_definite: bool
    witness: tuple            # integer vector with negative value, or ()
    value: object             # Fraction value at the witness, or None

    def __bool__(self):
        return self.nonnegative


# --- construction ------------------------------------------------------------


def _path_counts(a):
    """(topological order, {source: {target: relation-free paths}}).

    Requires a monomial presentation on an acyclic quiver; those are the
    presentations whose path counts are finite and whose bilinear form
    is an invariant of the derived category.  The order sorts the vertices
    by decreasing length of the longest walk from them, so every arrow
    points forward in it.
    """
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("Cartan and Euler matrices need an AlgebraPresentation")
    if not a.is_monomial:
        raise QsaError("Cartan matrix requires a monomial presentation")
    q = a.quiver
    height = _longest_walks(q.vertices, _arrow_targets(q))
    if height is None:
        raise QsaError("Cartan matrix requires an acyclic quiver")
    order = sorted(q.vertices, key=height.__getitem__, reverse=True)
    counts = {v: {} for v in q.vertices}
    for level in _relation_free_levels(a):  # ends: the quiver is acyclic
        for src, tgt, _ in level:
            row = counts[src]
            row[tgt] = row.get(tgt, 0) + 1
    return order, counts


def cartan_matrix(a):
    """Count relation-free paths between all vertex pairs (see `_path_counts`)."""
    counts = _path_counts(a)[1]
    vs = a.quiver.vertices
    idx = {v: k for k, v in enumerate(vs)}
    entries = [[0] * len(vs) for _ in vs]
    for src, row in counts.items():
        j = idx[src]
        for tgt, c in row.items():
            entries[idx[tgt]][j] = c
    return CartanMatrix(vs, tuple(tuple(row) for row in entries))


def euler_matrix(a):
    """Inverse transpose of the Cartan matrix, with int entries.

    C[t][s] counts the paths s -> t, so C is lower unitriangular in the
    topological order.  Row i of E = C^-T is column i of C^-1, the x with
    C x = e_i: in topological order from vertex i, x_t is what is left at
    t once every earlier x_s has been subtracted along the paths s -> t.
    """
    order, counts = _path_counts(a)
    vs = a.quiver.vertices
    idx = {v: k for k, v in enumerate(vs)}
    at = {v: k for k, v in enumerate(order)}
    rows = []
    for u in vs:
        row = [0] * len(vs)
        rest = {u: 1}
        for s in order[at[u]:]:
            x = rest.pop(s, 0)
            if x:
                row[idx[s]] = x
                for t, c in counts[s].items():
                    if t != s:
                        rest[t] = rest.get(t, 0) - c * x
            if not rest:
                break
        rows.append(tuple(row))
    return EulerData(vs, tuple(rows))


def euler_eval(e, x):
    """Value of the form at an integer (or rational) vector x, as a Fraction.

    E and x are scaled to integers by the lcm of their denominators, which
    is 1 for an integer vector on an acyclic quiver, so every product is
    an int product.  A vector of the wrong length, or with an entry that
    is not a rational number, is refused.
    """
    if len(x) != len(e.vertices):
        raise QsaError(
            f"vector has {len(x)} entries, form has {len(e.vertices)}")
    entries = []
    for t in x:
        try:
            entries.append(fr(t))
        except (ValueError, TypeError, ZeroDivisionError, OverflowError):
            raise QsaError(f"vector entry {t!r} is not a rational number") from None
    dx, (vec,) = _integer_rows([entries])
    de, rows = _integer_rows(e.entries)
    total = sum(xi * sum(eij * xj for eij, xj in zip(row, vec))
                for xi, row in zip(vec, rows))
    return Fraction(total, de * dx * dx)


# --- nonnegativity -----------------------------------------------------------


def is_nonnegative_form(e):
    """Decide whether x^T E x >= 0 for all real x, exactly.

    The answer depends only on the symmetric part M of E.  A congruence
    elimination on 2M = E + E^T, which has M's signs and primitive witness,
    either pivots through (M is positive semidefinite, and definite when
    every pivot is positive) or stops at an explicit integer vector with
    negative value, which is re-evaluated on E here.  E + E^T is built as
    sparse rows from E's nonzero entries.
    """
    if not isinstance(e, EulerData):
        raise QsaError("the sign test needs an EulerData form")
    sym = [{} for _ in e.entries]
    for i, row in enumerate(e.entries):
        for j, x in enumerate(row):
            if x:
                sym[i][j] = sym[i].get(j, 0) + x
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
