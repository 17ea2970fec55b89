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
the bound (`presentation._GroebnerBasis`).  A block is built when it is
first read, so an algebra costs what its reader reads: the normal words
from u are listed one length at a time, keeping to the vertices from
which v is reached.  Block dimensions and which vertices a vertex reaches
are read off the normal-word counts (`presentation._normal_word_counts`),
a fold over the admissibility walk, and the dimension off their sum; a
pair joined by no normal word has the empty block.  The constructor
accepts what `validate` certifies finite-dimensional and admissible:
monomial ideals, length-homogeneous ideals with a vanishing graded
component, and any relations on an acyclic quiver, non-homogeneous ones
such as ( d e ) - ( a b c ) included.

The opposite algebra of a monomial presentation is read off the
presentation itself: its quiver is a view that turns the arrows of a
vertex round when they are first read (`presentation._OppositeQuiver`),
and a path ends in one of its relations when the reverse path starts in
one of `a`'s.  Its report is `a`'s, since a path is relation-free exactly
when its reverse is.  Any other ideal is turned round whole, and
validated again: the normal words of its opposite come from the opposite's
own Gröbner basis, and the truncated certificate of a cyclic ideal is not
symmetric.
"""

from .presentation import (
    QsaError, validate, opposite as opposite_of, _GroebnerBasis, _OppositeQuiver,
    _normal_word_counts,
)


class _OppositeWords:
    """The monomial relations of `a`, read on the opposite quiver."""

    def __init__(self, a):
        self.a = a
        self.quiver = _OppositeQuiver(a.quiver)

    def ends_in_relation(self, arrows):
        return self.a.starts_in_relation(arrows[::-1])


def _normal_words(a, opposite=False):
    """(bound, words) for a presentation `validate` certifies admissible:
    its nilpotency bound, and the monomial relations whose relation-free
    paths below the bound are its normal words.  A monomial presentation
    is the basis of its own ideal; any other gives the leading words of
    its Gröbner basis, completed once and kept on `a`: by `validate`
    above its cutoff on a cyclic quiver, else here at the bound.  With
    `opposite`, the same for the opposite presentation (see the module
    docstring).  A presentation that is not certified admissible is
    refused with the QsaError that `TruncatedAlgebra` raises."""
    if opposite and not a.is_monomial:
        a, opposite = opposite_of(a), False
    rep = validate(a)
    if not rep.certified:
        raise QsaError(
            "algebra could not be certified finite-dimensional: "
            + "; ".join(rep.problems))
    if not rep.admissible:
        raise QsaError("relation ideal is not admissible")
    bound = rep.nilpotency_bound
    if a.is_monomial:
        return bound, _OppositeWords(a) if opposite else a
    if a._basis is None:
        a._basis = _GroebnerBasis(a.quiver, [r.terms for r in a.relations], bound)
    return bound, a._basis


class TruncatedAlgebra:
    """Basis paths and products in coordinates for a certified quotient
    algebra, or for its opposite; blocks are built when first read."""

    def __init__(self, a, opposite=False):
        self.bound, words = _normal_words(a, opposite)
        self._words = words
        self.quiver = words.quiver
        self._normal = words if isinstance(words, _GroebnerBasis) else None
        # the counts of `a` for its opposite: their rows are its columns
        self._turned = isinstance(words, _OppositeWords)
        self._counts = _normal_word_counts(words.a if self._turned else words)
        self._basis, self._index = {}, {}   # the blocks whose paths were read

    def _reaches(self, u, v):
        """Whether some normal word runs from u to v."""
        if self._turned:
            u, v = v, u
        return v in self._counts[u]

    def _block(self, u, v):
        """The basis paths of e_u A e_v, built on first read: the normal
        words from u, one length at a time, that stay on vertices from
        which v is reached."""
        block = self._basis.get((u, v))
        if block is None:
            if not self._reaches(u, v):
                return ()
            at, blocked, reaches = self.quiver._out, self._words.ends_in_relation, self._reaches
            found, level = [], [((), u)]
            while level:
                level.sort()
                found += [path for path, end in level if end == v]
                level = [(path + (ar.name,), ar.target) for path, end in level for ar in at[end]
                         if reaches(ar.target, v) and not blocked(path + (ar.name,))]
            block = self._basis[(u, v)] = tuple(found)
            self._index[(u, v)] = {p: i for i, p in enumerate(block)}
        return block

    # --- inspection -------------------------------------------------------

    def dim_block(self, u, v):
        if self._turned:
            u, v = v, u
        return self._counts[u].get(v, 0)

    def dimension(self):
        return sum(sum(row.values()) for row in self._counts.values())

    def ends(self, v, forward):
        """The vertices w with a normal word from v to w (`forward`), or
        from w to v."""
        if forward != self._turned:
            return list(self._counts[v])
        return [w for w, row in self._counts.items() if v in row]

    def free_paths(self, u, v):
        """The basis paths of e_u A e_v, in coordinate order."""
        return self._block(u, v)

    # --- elements ---------------------------------------------------------

    def path_vec(self, u, v, arrows):
        """Coordinates of a single path given as a tuple of arrow names."""
        self._block(u, v)
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
        pu = self._block(u, v)
        pw = self._block(v, w)
        self._block(u, w)
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
