"""Exact arithmetic in a finite-dimensional quotient of a path algebra.

Elements live in blocks e_u A e_v, coordinatized by the relation-free
paths from u to v shorter than the nilpotency bound.  Blocks are stored
only for the pairs joined by such a path; every other block is the zero
space, and the accessors treat a missing pair as the empty block.
Non-monomial relations are handled linearly: the ideal inside a block is
spanned by the products (left path) * (relation) * (right path), and
vectors are kept reduced against an echelon basis of those spans.  The
paths and the spans come from the path table in `presentation`, which
the graded admissibility scan uses too.  The constructor accepts what
`validate` certifies finite-dimensional and admissible: monomial ideals,
length-homogeneous ideals with a vanishing graded component, and any
relations on an acyclic quiver, non-homogeneous ones such as
( d e ) - ( a b c ) included.
"""

from itertools import islice

from ._linalg import ZERO, ONE, rref, reduce_vec
from .presentation import QsaError, validate, _ideal_rows, _relation_free_levels


class TruncatedAlgebra:
    """Basis, normal forms and products for a certified quotient algebra."""

    def __init__(self, a):
        rep = validate(a)
        if not rep.certified:
            raise QsaError(
                "algebra could not be certified finite-dimensional: "
                + "; ".join(rep.problems))
        if not rep.admissible:
            raise QsaError("relation ideal is not admissible")
        self.presentation = a
        self.quiver = a.quiver
        self.bound = rep.nilpotency_bound
        self._build()

    # --- construction ---------------------------------------------------

    def _build(self):
        a = self.presentation
        per_block = {}
        for level in islice(_relation_free_levels(a), self.bound):
            for src, tgt, path in level:
                per_block.setdefault((src, tgt), []).append(path)

        self._paths = {}
        self._index = {}
        for key, paths in per_block.items():
            paths.sort(key=lambda p: (len(p), p))
            self._paths[key] = tuple(paths)
            self._index[key] = {p: i for i, p in enumerate(paths)}

        # echelon bases of the ideal inside each block, kept for the blocks
        # it meets; the other positions are the free coordinates
        combos = [r for r in a.relations if not r.is_monomial]
        self._rows = {}
        self._pivots = {}
        self._free = {}
        for (u, v), index in self._index.items():
            free = range(len(index))
            if combos:
                basis, pivots = rref(_ideal_rows(combos, self._paths, u, v, index, self.bound))
                if basis:
                    self._rows[(u, v)], self._pivots[(u, v)] = basis, pivots
                    free = sorted(set(free).difference(pivots))
            self._free[(u, v)] = tuple(free)

    # --- inspection -------------------------------------------------------

    def dim_block(self, u, v):
        return len(self.free_positions(u, v))

    def dimension(self):
        return sum(len(f) for f in self._free.values())

    def nonzero_blocks(self):
        """The pairs (u, v) with dim_block(u, v) > 0."""
        return [key for key, free in self._free.items() if free]

    def free_positions(self, u, v):
        return self._free.get((u, v), ())

    def free_paths(self, u, v):
        """The paths at the free positions, in coordinate order."""
        paths = self._paths.get((u, v), ())
        return [paths[i] for i in self.free_positions(u, v)]

    # --- elements ---------------------------------------------------------

    def zero(self, u, v):
        return [ZERO] * len(self._paths.get((u, v), ()))

    def normal(self, u, v, vec):
        rows = self._rows.get((u, v))
        if not rows:
            return vec
        return reduce_vec(vec, rows, self._pivots[(u, v)])

    def path_vec(self, u, v, arrows):
        """Normal form of a single path given as a tuple of arrow names."""
        arrows = tuple(arrows)
        vec = self.zero(u, v)
        i = self._index.get((u, v), {}).get(arrows)
        if i is not None:
            vec[i] = ONE
        return self.normal(u, v, vec)

    def mult(self, u, v, w, p, q):
        """Product of p in e_u A e_v with q in e_v A e_w, reduced."""
        pu = self._paths.get((u, v), ())
        pw = self._paths.get((v, w), ())
        idx = self._index.get((u, w), {})
        out = self.zero(u, w)
        for i, ci in enumerate(p):
            if not ci:
                continue
            left = pu[i]
            for j, cj in enumerate(q):
                if not cj:
                    continue
                full = left + pw[j]
                k = idx.get(full)
                if k is not None:
                    out[k] += ci * cj
        return self.normal(u, w, out)

    def basis_vectors(self, u, v):
        """Normal-form unit vectors at the free positions."""
        out = []
        n = len(self._paths.get((u, v), ()))
        for i in self.free_positions(u, v):
            vec = [ZERO] * n
            vec[i] = ONE
            out.append(vec)
        return out

    def embed(self, u, v, coords):
        """The normal-form vector with these coordinates at the free positions."""
        vec = self.zero(u, v)
        for i, c in zip(self.free_positions(u, v), coords):
            vec[i] = c
        return vec

    def coords(self, u, v, vec):
        """Coordinates of a normal-form vector at the free positions."""
        return [vec[i] for i in self.free_positions(u, v)]
