"""Exact arithmetic in a finite-dimensional quotient of a path algebra.

An element of a block e_u A e_v is a list of coordinates, one for each
basis path of the block, and no other representation leaves this module.
The basis paths are the relation-free paths from u to v shorter than the
nilpotency bound, in (length, path) order, less the pivots of the ideal
inside the block.  Blocks are stored only for the pairs joined by such a
path; every other block is the zero space, and the accessors treat a
missing pair as the empty block.  Non-monomial relations are handled
linearly: the ideal inside a block is spanned by the products
(left path) * (relation) * (right path), and a product of basis paths
that lands on a pivot is reduced against an echelon basis of those
spans.  The paths and the spans come from the path table in
`presentation`, which the graded admissibility scan uses too.  The
constructor accepts what `validate` certifies finite-dimensional and
admissible: monomial ideals, length-homogeneous ideals with a vanishing
graded component, and any relations on an acyclic quiver,
non-homogeneous ones such as ( d e ) - ( a b c ) included.
"""

from itertools import islice

from ._linalg import ZERO, ONE, rref, reduce_vec
from .presentation import QsaError, validate, _ideal_rows, _relation_free_levels


class TruncatedAlgebra:
    """Basis paths and products in coordinates for a certified quotient algebra."""

    def __init__(self, a):
        rep = validate(a)
        if not rep.certified:
            raise QsaError(
                "algebra could not be certified finite-dimensional: "
                + "; ".join(rep.problems))
        if not rep.admissible:
            raise QsaError("relation ideal is not admissible")
        self.bound = rep.nilpotency_bound
        self._build(a)

    # --- construction ---------------------------------------------------

    def _build(self, a):
        paths = {}
        for level in islice(_relation_free_levels(a), self.bound):
            for src, tgt, path in level:
                paths.setdefault((src, tgt), []).append(path)
        for block in paths.values():
            block.sort(key=lambda p: (len(p), p))

        # each block indexes the products landing in it by all its paths;
        # where the ideal meets the block, an echelon basis of it reduces
        # them and the paths off its pivots are the basis
        combos = [r for r in a.relations if not r.is_monomial]
        self._index, self._basis, self._ideal = {}, {}, {}
        for (u, v), block in paths.items():
            index = self._index[(u, v)] = {p: i for i, p in enumerate(block)}
            if combos:
                rows, pivots = rref(_ideal_rows(combos, paths, u, v, index, self.bound))
                if rows:
                    free = sorted(set(range(len(block))).difference(pivots))
                    self._ideal[(u, v)] = rows, pivots, free
                    block = [block[i] for i in free]
            self._basis[(u, v)] = tuple(block)

    def _reduce(self, key, vec):
        """Coordinates of a vector indexed by all the paths of a block."""
        if key not in self._ideal:
            return vec
        rows, pivots, free = self._ideal[key]
        vec = reduce_vec(vec, rows, pivots)
        return [vec[i] for i in free]

    # --- inspection -------------------------------------------------------

    def dim_block(self, u, v):
        return len(self._basis.get((u, v), ()))

    def dimension(self):
        return sum(len(b) for b in self._basis.values())

    def nonzero_blocks(self):
        """The pairs (u, v) with dim_block(u, v) > 0."""
        return [key for key, basis in self._basis.items() if basis]

    def free_paths(self, u, v):
        """The basis paths of e_u A e_v, in coordinate order."""
        return self._basis.get((u, v), ())

    # --- elements ---------------------------------------------------------

    def path_vec(self, u, v, arrows):
        """Coordinates of a single path given as a tuple of arrow names."""
        index = self._index.get((u, v), {})
        vec = [ZERO] * len(index)
        i = index.get(tuple(arrows))
        if i is not None:
            vec[i] = ONE
        return self._reduce((u, v), vec)

    def mult(self, u, v, w, p, q):
        """Coordinates of the product of p in e_u A e_v with q in e_v A e_w."""
        pu = self.free_paths(u, v)
        pw = self.free_paths(v, w)
        idx = self._index.get((u, w), {})
        out = [ZERO] * len(idx)
        for i, ci in enumerate(p):
            if not ci:
                continue
            left = pu[i]
            for j, cj in enumerate(q):
                if not cj:
                    continue
                k = idx.get(left + pw[j])
                if k is not None:
                    out[k] += ci * cj
        return self._reduce((u, w), out)
