"""Exact linear algebra for small dense systems and sparse symmetric forms.

Two kinds of elimination live here.  Row reduction over the rationals
(`rref`, `nullspace`, `reduce_vec`) works on lists of lists of Fraction,
because the tilting engine feeds it rational coefficients.  The sign of a
symmetric form, with a negative vector when there is one, and the inverse
of a square matrix come from fraction-free eliminations on integers
(Bareiss, Math. Comp. 22, 1968): rational input is first scaled by the lcm
of its denominators, and no Fraction is built until `inverse` returns its
entries.  The symmetric kernel `_congruence` stores rows sparsely, as
dicts of their nonzero entries, each over its own positive denominator,
so a pivot costs only the rows that meet its column: on the form of a
tree that is a few rows.  Everything that decides something downstream
(ranks, kernels, positivity) runs on exact arithmetic.
"""

import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def fr(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def _integer_rows(rows):
    """(d, d·rows) for d the lcm of the denominators of int or Fraction entries."""
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


# --- echelon forms ---------------------------------------------------------


def rref(rows):
    """Reduced row echelon form. Returns (nonzero rows, pivot column indices)."""
    if not rows:
        return [], []
    mat = [list(map(fr, row)) for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        if mat[r][c] != ONE:
            inv = ONE / mat[r][c]
            mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y if y else x for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows):
    return len(rref(rows)[0])


def reduce_vec(v, basis, pivots):
    """Residue of v after elimination against an rref basis."""
    v = list(map(fr, v))
    for row, c in zip(basis, pivots):
        if v[c]:
            f = v[c]
            v = [x - f * y if y else x for x, y in zip(v, row)]
    return v


def nullspace(a, ncols):
    """Basis of {x : a·x = 0} for a with ncols columns.

    One vector per free column c of the echelon form, with a 1 at c and
    zeros at the other free columns; with no rows every column is free and
    the basis is identity(ncols).
    """
    basis, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for c in free:
        v = [ZERO] * ncols
        v[c] = ONE
        for row, p in zip(basis, pivots):
            v[p] = -row[c]
        out.append(v)
    return out


def inverse(a):
    """Inverse of a square int or Fraction matrix, as rows of Fraction.

    Fraction-free Gauss-Jordan on [d·A | I], d the lcm of A's denominators:
    each step scales every row by the new pivot and divides exactly by the
    previous one, so it ends at [c·I | adj] with c = ±det(d·A) and
    adj = c·(d·A)^-1, and A^-1 = d·adj / c.  Raises ValueError when A is
    singular.
    """
    n = len(a)
    d, rows = _integer_rows(a)
    m = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[k], m[piv] = m[piv], m[k]
        top = m[k]
        p = top[k]
        for i in range(n):
            f = m[i][k]
            if i != k and (f or p != prev):
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
    return [[Fraction(d * x, prev) for x in row[n:]] for row in m]


# --- symmetric forms -------------------------------------------------------


def _congruence(sym):
    """(semidefinite, definite, witness) for a symmetric int or Fraction matrix M.

    Each row of M is a sequence of entries or a dict {column: entry} of
    its nonzero entries.  Symmetric congruence elimination: pivot on the
    first positive diagonal entry and clear its row and column, tracking
    the basis change.  A negative diagonal entry, or a zero diagonal block
    with a nonzero off-diagonal entry, gives a vector x with x^T M x < 0,
    returned as a primitive integer vector.  M is semidefinite exactly when
    no such vector turns up, and definite when every row was pivoted on a
    positive diagonal entry.

    The elimination is fraction-free on d·M, d the lcm of M's denominators,
    and sparse: row j keeps its nonzero entries R_j and basis coordinates
    B_j as dicts of ints over a positive denominator D_j, so the rational
    row is R_j / D_j.  A pivot at p with diagonal P touches only the rows
    j with a nonzero entry F in column p, which by symmetry are the columns
    of R_p: R_j <- P·R_j - F·R_p, B_j likewise and D_j <- D_j·P, all three
    then divided by their gcd.  Signs, zero tests and primitive witnesses
    are those of the rational elimination.
    """
    rows = [row if isinstance(row, dict) else dict(enumerate(row)) for row in sym]
    d = math.lcm(*(x.denominator for row in rows for x in row.values()))
    a = [{j: x.numerator * (d // x.denominator) for j, x in row.items() if x}
         for row in rows]
    n = len(a)
    basis = [{j: 1} for j in range(n)]
    den = [1] * n
    remaining = list(range(n))
    # only the rows a pivot touches change, so only they can turn negative
    neg = next((k for k in remaining if a[k].get(k, 0) < 0), None)
    while remaining:
        if neg is not None:
            return False, False, _primitive(basis[neg], n)
        p = next((k for k in remaining if a[k].get(k, 0) > 0), None)
        if p is None:
            for j in remaining:
                l = min((l for l in a[j] if l > j), default=None)
                if l is not None:
                    s = 1 if a[j][l] > 0 else -1
                    v = {t: den[l] * x for t, x in basis[j].items()}
                    for t, y in basis[l].items():
                        v[t] = v.get(t, 0) - s * den[j] * y
                    return False, False, _primitive(v, n)
            return True, False, None
        remaining.remove(p)
        top, btop = a[p], basis[p]
        piv = top[p]
        for j in top:
            if j == p:
                continue
            f = a[j][p]
            row = {l: piv * x for l, x in a[j].items()}
            for l, y in top.items():
                row[l] = row.get(l, 0) - f * y
            brow = {l: piv * x for l, x in basis[j].items()}
            for l, y in btop.items():
                brow[l] = brow.get(l, 0) - f * y
            g = math.gcd(den[j] * piv, *row.values(), *brow.values())
            a[j] = {l: x // g for l, x in row.items() if x}
            basis[j] = {l: x // g for l, x in brow.items() if x}
            den[j] = den[j] * piv // g
            if a[j].get(j, 0) < 0 and (neg is None or j < neg):
                neg = j
    return True, True, None


def _primitive(v, n):
    """The integer vector of length n with the nonzero coordinates v, a dict
    {index: int}, divided by their gcd.

    v is a positive multiple of a basis row (or of a combination of two
    with their own indices nonzero), whose coordinate at its own unpivoted
    index is nonzero, so the gcd is positive and the sign stays.
    """
    g = math.gcd(*v.values())
    out = [0] * n
    for t, x in v.items():
        out[t] = x // g
    return out


def psd_flags(sym):
    """(semidefinite, definite) for a symmetric rational matrix."""
    return _congruence(sym)[:2]


def negative_vector(sym):
    """A primitive integer x with x^T M x < 0 for symmetric M, or None if M is PSD."""
    return _congruence(sym)[2]
