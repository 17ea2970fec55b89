"""Homological bilinear form of an acyclic monomial presentation.

The Cartan matrix counts relation-free paths between vertices, read off
the presentation's path table in one pass.  Its inverse transpose gives
the bilinear form on dimension vectors whose value at (x, x) is the
alternating sum of Hom and Ext dimensions.  The quiver is acyclic, so
the Cartan matrix is unitriangular in a topological order of the
vertices and the Euler matrix E has integer entries.  The integer Cartan
matrix is inverted by a fraction-free elimination and E is kept as exact
fractions; the sign test runs on the integer matrix E + E^T, and the
form is evaluated with integer products.
"""

from fractions import Fraction
from typing import NamedTuple

from ._linalg import fr, inverse, transpose, _congruence, _integer_rows
from .presentation import QsaError, _has_directed_cycle, _relation_free_levels


# --- matrices ----------------------------------------------------------------


class CartanMatrix(NamedTuple):
    vertices: tuple           # row/column labels, in canonical order
    entries: tuple            # entries[i][j] = number of paths j -> i


class EulerData(NamedTuple):
    vertices: tuple
    entries: tuple            # rows of Fractions; the form is x^T E x


class NonnegativityReport(NamedTuple):
    nonnegative: bool
    positive_definite: bool
    witness: tuple            # integer vector with negative value, or ()
    value: object             # Fraction value at the witness, or None

    def __bool__(self):
        return self.nonnegative


# --- construction ------------------------------------------------------------


def cartan_matrix(a):
    """Count relation-free paths between all vertex pairs.

    Requires a monomial presentation on an acyclic quiver; those are the
    presentations whose path counts are finite and whose bilinear form
    is an invariant of the derived category.
    """
    if not a.is_monomial:
        raise QsaError("Cartan matrix requires a monomial presentation")
    if _has_directed_cycle(a.quiver):
        raise QsaError("Cartan matrix requires an acyclic quiver")
    vs = a.quiver.vertices
    idx = {v: k for k, v in enumerate(vs)}
    entries = [[0] * len(vs) for _ in vs]
    for level in _relation_free_levels(a):  # ends: the quiver is acyclic
        for src, tgt, _ in level:
            entries[idx[tgt]][idx[src]] += 1
    return CartanMatrix(vs, tuple(tuple(row) for row in entries))


def euler_matrix(a):
    """Inverse transpose of the Cartan matrix, as exact fractions."""
    c = cartan_matrix(a)
    inv = inverse(c.entries)
    rows = tuple(tuple(row) for row in transpose(inv))
    return EulerData(c.vertices, rows)


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
    negative value, which is re-evaluated on E here.
    """
    rows = _integer_rows(e.entries)[1]     # d·E, d = 1 on an integral form
    psd, pd, w = _congruence(
        [[x + y for x, y in zip(row, col)] for row, col in zip(rows, zip(*rows))])
    if psd:
        return NonnegativityReport(True, pd, (), None)
    if w is None:
        raise QsaError("form is not semidefinite but no witness was found")
    val = euler_eval(e, w)
    if val >= 0:
        raise QsaError("internal error: witness value is not negative")
    return NonnegativityReport(False, False, tuple(w), val)
