"""Exact arithmetic in a finite-dimensional quotient of a path algebra.

An element of a block e_u A e_v is a list of coordinates, one for each
basis path of the block, and no other representation leaves this module.
Coordinates are ints; a Fraction enters only through the coefficients of
a Gröbner normal form.
The basis paths are the normal words from u to v shorter than the
nilpotency bound, in (length, path) order.  For a monomial ideal these
are the relation-free paths, and a product of basis paths is the joined
path or zero; for any other ideal a path that is not a normal word is
rewritten by the normal form of a Gröbner basis truncated at or above
the bound (`presentation._GroebnerBasis`).  Blocks are stored only for
the pairs joined by a normal word; every other block is the zero space,
and the accessors treat a missing pair as the empty block.  The constructor
accepts what `validate` certifies finite-dimensional and admissible:
monomial ideals, length-homogeneous ideals with a vanishing graded
component, and any relations on an acyclic quiver, non-homogeneous ones
such as ( d e ) - ( a b c ) included.
"""

from itertools import islice

from .presentation import QsaError, validate, _GroebnerBasis, _relation_free_levels


def _normal_words(a):
    """(bound, words) for a presentation `validate` certifies admissible:
    its nilpotency bound, and the monomial relations whose relation-free
    paths below the bound are its normal words.  A monomial presentation
    is the basis of its own ideal; any other gives the leading words of
    its Gröbner basis, completed once and kept on `a`: by `validate`
    above its cutoff on a cyclic quiver, else here at the bound.  A
    presentation that is not certified admissible is refused with the
    QsaError that `TruncatedAlgebra` raises."""
    rep = validate(a)
    if not rep.certified:
        raise QsaError(
            "algebra could not be certified finite-dimensional: "
            + "; ".join(rep.problems))
    if not rep.admissible:
        raise QsaError("relation ideal is not admissible")
    bound = rep.nilpotency_bound
    if a.is_monomial:
        return bound, a
    if a._basis is None:
        a._basis = _GroebnerBasis(a.quiver, [r.terms for r in a.relations], bound)
    return bound, a._basis


class TruncatedAlgebra:
    """Basis paths and products in coordinates for a certified quotient algebra."""

    def __init__(self, a):
        self.bound, words = _normal_words(a)
        self._normal = None if words is a else words
        # (length, path) order: the levels come by length, each sorted
        blocks = {}
        for level in islice(_relation_free_levels(words), self.bound):
            for src, tgt, path in sorted(level):
                blocks.setdefault((src, tgt), []).append(path)
        self._index, self._basis = {}, {}
        for key, block in blocks.items():
            self._basis[key] = tuple(block)
            self._index[key] = {p: i for i, p in enumerate(block)}

    # --- inspection -------------------------------------------------------

    def dim_block(self, u, v):
        return len(self._basis.get((u, v), ()))

    def dimension(self):
        return sum(len(b) for b in self._basis.values())

    def nonzero_blocks(self):
        """The pairs (u, v) with dim_block(u, v) > 0."""
        return list(self._basis)

    def free_paths(self, u, v):
        """The basis paths of e_u A e_v, in coordinate order."""
        return self._basis.get((u, v), ())

    # --- elements ---------------------------------------------------------

    def path_vec(self, u, v, arrows):
        """Coordinates of a single path given as a tuple of arrow names."""
        index = self._index.get((u, v), {})
        vec = [0] * len(index)
        arrows = tuple(arrows)
        if arrows in index:
            vec[index[arrows]] = 1
        elif self._normal is not None:
            for word, c in self._normal.word(arrows).items():
                if word in index:
                    vec[index[word]] = c
        return vec

    def mult(self, u, v, w, p, q):
        """Coordinates of the product of p in e_u A e_v with q in e_v A e_w."""
        pu = self.free_paths(u, v)
        pw = self.free_paths(v, w)
        idx = self._index.get((u, w), {})
        out = [0] * len(idx)
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
                elif self._normal is not None:
                    for word, c in self._normal.word(left + pw[j]).items():
                        out[idx[word]] += ci * cj * c
        return out
