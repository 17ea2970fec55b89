"""Exact linear algebra over the rationals for small dense systems.

Matrices are lists of lists of Fraction, vectors are lists of Fraction.
Everything that decides something downstream (ranks, kernels, positivity)
runs on exact arithmetic; sizes stay small (a few dozen rows), so the cubic
algorithms here are fine.  Row reduction gives ranks, kernels and inverses;
the sign of a symmetric form, and a negative vector when there is one, come
from a single congruence elimination.
"""

import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def fr(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def frac_matrix(rows):
    return [[fr(x) for x in row] for row in rows]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_vec(a, x):
    return [sum((row[j] * x[j] for j in range(len(x))), ZERO) for row in a]


def vec_dot(x, y):
    return sum((x[i] * y[i] for i in range(len(x))), ZERO)


# --- echelon forms ---------------------------------------------------------


def rref(rows):
    """Reduced row echelon form. Returns (nonzero rows, pivot column indices)."""
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
        inv = ONE / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
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
            v = [x - f * y for x, y in zip(v, row)]
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
    n = len(a)
    aug = [list(map(fr, row)) + ident_row for row, ident_row in zip(a, identity(n))]
    basis, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in basis]


# --- symmetric forms -------------------------------------------------------


def _congruence(sym):
    """(semidefinite, definite, witness) for a symmetric rational matrix M.

    Symmetric congruence elimination: pivot on the first positive diagonal
    entry and clear its row and column, tracking the basis change.  A
    negative diagonal entry, or a zero diagonal block with a nonzero
    off-diagonal entry, gives a vector x with x^T M x < 0, returned as a
    primitive integer vector.  M is semidefinite exactly when no such
    vector turns up, and definite when every row was pivoted on a positive
    diagonal entry.
    """
    n = len(sym)
    a = frac_matrix(sym)
    basis = identity(n)
    remaining = list(range(n))
    while remaining:
        neg = next((k for k in remaining if a[k][k] < 0), None)
        if neg is not None:
            return False, False, _primitive(basis[neg])
        pos = next((k for k in remaining if a[k][k] > 0), None)
        if pos is None:
            for j in remaining:
                for l in remaining:
                    if l > j and a[j][l]:
                        s = ONE if a[j][l] > 0 else -ONE
                        v = [basis[j][t] - s * basis[l][t] for t in range(n)]
                        return False, False, _primitive(v)
            return True, False, None
        remaining.remove(pos)
        piv = a[pos][pos]
        for j in remaining:
            if a[j][pos]:
                f = a[j][pos] / piv
                basis[j] = [basis[j][t] - f * basis[pos][t] for t in range(n)]
                for l in range(n):
                    a[j][l] -= f * a[pos][l]
                for l in range(n):
                    a[l][j] -= f * a[l][pos]
    return True, True, None


def _primitive(v):
    """v times the lcm of its denominators: a primitive integer vector.

    Primitive because v has a coordinate 1 (at its own, unpivoted index) and,
    for each prime p of the lcm, the entry with the most factors p in its
    denominator scales to an integer prime to p.
    """
    scale = math.lcm(*(x.denominator for x in v))
    return [int(x * scale) for x in v]


def psd_flags(sym):
    """(semidefinite, definite) for a symmetric rational matrix."""
    return _congruence(sym)[:2]


def negative_vector(sym):
    """A primitive integer x with x^T M x < 0 for symmetric M, or None if M is PSD."""
    return _congruence(sym)[2]
