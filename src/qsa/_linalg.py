"""Exact linear algebra for small dense systems and sparse symmetric forms.

Two kinds of elimination live here.  Row reduction over the rationals
(`rref`, `nullspace`, `reduce_vec`, and `inverse` as the echelon form of
[A | I]) works on lists of lists of Fraction, because the tilting engine
feeds it rational coefficients.  The sign of a symmetric form, with a
negative vector when there is one, comes from a fraction-free
elimination on integers (Bareiss, Math. Comp. 22, 1968): rational input
is first scaled by the lcm of its denominators.  The symmetric kernel
`_eliminate` stores rows sparsely, as dicts of their nonzero entries,
each a positive multiple of its rational row, so a pivot costs only the
rows that meet its column: on the form of a tree that is a few rows.  It
carries no basis change: a row is never changed after its pivot, so the
pivot rows hold every multiplier, and `_witness` rebuilds a negative
vector from them only when one is asked for.  Everything that decides
something downstream (kernels, inverses, positivity) runs on exact
arithmetic.
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
    """Inverse of a square int or Fraction matrix, as rows of Fraction: the
    right half of the reduced echelon form of [A | I].  Raises ValueError
    when A is singular, that is when some column of A has no pivot."""
    n = len(a)
    rows, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                         for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


# --- symmetric forms -------------------------------------------------------


def _eliminate(sym):
    """(semidefinite, definite, rows, pivots, start) for a symmetric int or
    Fraction matrix M.

    Each row of M is a sequence of entries or a dict {column: entry} of
    its nonzero entries.  Symmetric congruence elimination: pivot on the
    first positive diagonal entry and clear its row and column.  A negative
    diagonal entry, or a zero diagonal block with a nonzero off-diagonal
    entry, shows that M is not semidefinite; `start` is then the
    combination {row: coefficient} of the basis change rows whose vector x
    has x^T M x < 0, and `_witness` builds that vector.  M is semidefinite
    exactly when no such combination turns up (`start` is None), and
    definite when every row was pivoted on a positive diagonal entry.

    The elimination is fraction-free and sparse: each row is a dict of its
    nonzero ints, a positive multiple of the rational row.  A pivot at p
    with diagonal P touches only the rows j with a nonzero entry F in
    column p, which by symmetry are the columns of row p:
    R_j <- (P·R_j - F·R_p) / gcd(P, F), then divided by the gcd of its
    entries.  Signs and zero tests are those of the rational elimination.
    A row is never changed once it is pivoted on, so `rows` with the pivot
    order `pivots` records every multiplier of the basis change.
    """
    rows = [row if isinstance(row, dict) else dict(enumerate(row)) for row in sym]
    d = math.lcm(*(x.denominator for row in rows for x in row.values()))
    a = [{j: x.numerator * (d // x.denominator) for j, x in row.items() if x}
         for row in rows]
    pivots = []
    remaining = list(range(len(a)))
    # only the rows a pivot touches change, so only they can turn negative
    neg = next((k for k in remaining if a[k].get(k, 0) < 0), None)
    while remaining:
        if neg is not None:
            return False, False, a, pivots, {neg: 1}
        p = next((k for k in remaining if a[k].get(k, 0) > 0), None)
        if p is None:
            for j in remaining:
                l = min((l for l in a[j] if l > j), default=None)
                if l is not None:
                    return False, False, a, pivots, {j: 1, l: -1 if a[j][l] > 0 else 1}
            return True, False, a, pivots, None
        remaining.remove(p)
        pivots.append(p)
        top = a[p]
        piv = top[p]
        for j in top:
            if j == p:
                continue
            row = a[j]
            f = row[p]
            g = math.gcd(piv, f)
            if piv != g:
                row = {l: piv // g * x for l, x in row.items()}
            f //= g
            for l, y in top.items():
                row[l] = row.get(l, 0) - f * y
            del row[p]  # P·F - F·P
            g = math.gcd(*row.values())
            if g != 1 or 0 in row.values():
                row = {l: x // g for l, x in row.items() if x}
            a[j] = row
            if row.get(j, 0) < 0 and (neg is None or j < neg):
                neg = j
    return True, True, a, pivots, None


def _witness(a, pivots, start):
    """The primitive integer vector x = sum of c·B_k over {k: c} in `start`,
    B_k the basis change row of the unpivoted row k, from `_eliminate`'s
    rows `a` and pivot order.

    B_j = e_j - sum over the pivots p that touched row j of m_jp·B_p, with
    m_jp = M_jp / M_pp = a[p][j] / a[p][p] read off row p by symmetry.  So
    x_p = -sum_j x_j·a[p][j] / a[p][p] over the rows j that p touched, and
    one pass in reverse pivot order, with no recursion, finds every x_p
    from coordinates already final; a pivot that no row of the witness
    depends on gets none.  x is kept as ints, a positive multiple of the
    rational vector, scaled up when a division is not exact, and divided
    by the gcd of its coordinates at the end.
    """
    x = dict(start)
    for p in reversed(pivots):
        top = a[p]
        s = sum(x[j] * f for j, f in top.items() if j in x)
        if s:
            g = math.gcd(s, top[p])
            if g != top[p]:
                m = top[p] // g
                for t in x:
                    x[t] *= m
            x[p] = -s // g
    g = math.gcd(*x.values())
    out = [0] * len(a)
    for t, c in x.items():
        out[t] = c // g
    return out


def _congruence(sym):
    """(semidefinite, definite, witness) for a symmetric int or Fraction
    matrix M: `_eliminate`, and the primitive integer vector with negative
    value from `_witness` when M is not semidefinite, else None."""
    psd, pd, a, pivots, start = _eliminate(sym)
    return psd, pd, None if start is None else _witness(a, pivots, start)


def psd_flags(sym):
    """(semidefinite, definite) for a symmetric rational matrix; no witness
    is built."""
    return _eliminate(sym)[:2]


def negative_vector(sym):
    """A primitive integer x with x^T M x < 0 for symmetric M, or None if M is PSD."""
    return _congruence(sym)[2]
