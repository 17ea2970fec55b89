"""Sink and source mutation via endomorphisms of a two-term tilting complex.

At a sink x the complex T is the direct sum of the stalks P_u (u != x)
and R_x = [P_x in degree -1 mapped into the sum of P_{s(a)} over the
arrows a into x].  Only the morphism spaces with x as an end are solved,
as chain maps in exact arithmetic, and only for the pairs whose ambient
space has a nonzero block of the algebra.  No quotient by homotopy is
taken: a homotopy maps a degree-0 summand P_s into P_x, so it lies in
e_x A e_s, which is zero because no path leaves the sink x.  Between
two stalks there is no chain condition and no homotopy: Hom(P_v, P_u) is
the algebra block e_u A e_v, a morphism is its vector of coordinates at
the block's basis paths, a composite of three stalks is one product in
the algebra, and the radical of End(P_u) is the span of the basis paths
of positive length.  A morphism at a pair with x as an end is the
concatenation of such vectors over the blocks of its ambient space.  The
radical of End(R_x) is the span of every chain-map basis vector but the
first, the one with a nonzero scalar at P_x -> P_x (see `mutate_minus`),
and a quiver presentation is read back off arrow representatives;
composition and path evaluation read a pair with a zero ambient space as
the zero space.

The region.  Let S be the sources of the arrows a_i into x and
N = {x} + S.  Between two stalks the radical of the tilt is rad_A(u, v),
and its square is rad^2_A(u, v) plus the composites P_v -> R_x -> P_u
(no path of A passes through the sink x).  A map P_v -> R_x is a tuple
(g_i), g_i in e_{s_i} A e_v; a map R_x -> P_u is a tuple (f_i), f_i in
e_u A e_{s_i}, with sum f_i a_i = 0.  Their composite sum f_i g_i lies in
the span of the paths through a vertex of S, and it leaves rad^2_A only
when it has a term of length <= 1, which needs a trivial f_i or g_i, so
u or v in S.  On a pair of stalks outside N the arrows are therefore A's
arrows u -> v, renamed u~v in the block's coordinate order, and only the
pairs with an end in N are computed.

Relations of length two and three are the kernels of path evaluation on
the blocks (d, u, v) of paths of length d from u to v in the new quiver,
the length-three kernels taken modulo the shifts of the length-two
relations.  Let M be the vertices on the terms of A's non-monomial
relations.  When no path of a block visits N or M, its paths are A's
paths, its arrows evaluate as in A, and no translate of a non-monomial
relation reaches its paths: each path is zero (it contains a monomial
relation) or a basis path of its own.  The kernel is then spanned by
the zero paths, and `nullspace` gives exactly those unit vectors, in any
path order; its relations are A's monomial relations of length two and
the ones of length three with no relation of length two inside, renamed.
These pass through, and only the blocks with a path through N or M are
evaluated.  A relation of A longer than three is found by neither route,
and the final dimension count, compared against the abstract
endomorphism algebra, reports it rather than papering over it.  That
count builds no algebra of the result: its dimension is the number of
its normal words, walks on the prefix automaton of its relations (or of
the leading words of its Gröbner basis), counted by
`presentation._normal_word_counts` as a fold over the one walk of that
automaton, which `validate` made unless the basis is new.  Coordinates
are plain ints throughout; only relation coefficients become Fractions.

The cost.  A mutation reads only the algebra blocks it needs: the
algebra builds a block's basis paths when they are first read, by a walk
from u that keeps to the vertices from which v is reached, and reads the
block dimensions off the normal-word counts of A (`_algebra`).  Outside
the region the result is A renamed (`_Renaming`): one pass over A's
arrows and relations renames the arrows with no end in N and the
monomial relations on them that pass, with no check or merge, and the
tables of the result's quiver are built from those arrows and the
region's.  So a mutation costs what the neighbourhood of x costs, plus
that pass, `validate` on the result and its dimension count, which stay
whole.  A name proposed by two of the result's arrows, when a vertex
name holds `~` or `.`, grows a `~` (`_arrow_names`).

The source.  The plus mutation at a source x is the minus mutation of
the opposite algebra at its sink x, turned round.  The opposite is not
built: the engine runs on the opposite algebra (`TruncatedAlgebra` with
`opposite`), the relation blocks are read on a view of the result's
quiver that turns its arrows round (`presentation._OppositeQuiver`), the
region's arrows and relations are turned round into A's orientation, and
A's arrows keep their ends, renamed by their ends in the opposite one.
"""

from bisect import insort
from fractions import Fraction
from operator import attrgetter
from weakref import proxy

from ._linalg import identity, nullspace, reduce_vec, rref, transpose
from ._algebra import TruncatedAlgebra, _normal_words
from .presentation import (
    QsaError, Arrow, Quiver, AlgebraPresentation, RelationTerm, natural_key,
    _OppositeQuiver, _arrow_key, _normal_word_counts, _relation_key,
)


# --- chain-map hom spaces -----------------------------------------------------


class _HomSpace:
    """Hom(O_v, O_u) for a pair with x as an end, as coordinates of chain maps.

    A homotopy maps a degree-0 summand P_s of O_v into the degree -1 part
    P_x of O_u, so it lies in e_x A e_s.  No path leaves the sink x and
    s != x, so that block is zero: every homotopy is zero, and the chain
    maps are the morphisms.
    """

    def __init__(self, engine, u, v):
        # a weak reference: the engine's `homs` holds this space, and the
        # engine and its algebra are freed when the mutation returns
        self.engine = proxy(engine)
        self.u = u
        self.v = v
        alg = engine.alg
        # End(R_x) has the degree -1 block P_x -> P_x ahead of the degree-0 ones
        self.lead = int(u == v == engine.x)
        self.blocks = [(u, v)] * self.lead + [
            (z_u, z_v) for z_u in engine.degzero(u) for z_v in engine.degzero(v)]
        self.offsets = []
        total = 0
        for bu, bv in self.blocks:
            self.offsets.append(total)
            total += alg.dim_block(bu, bv)
        self.ambient_dim = total
        self._solve()

    def split(self, flat):
        """The per-block elements of an ambient vector."""
        ends = self.offsets[1:] + [self.ambient_dim]
        return [flat[off:end] for off, end in zip(self.offsets, ends)]

    def pos_index(self, i, j):
        """The block of the degree-0 components P_{zv[j]} -> P_{zu[i]}."""
        return self.lead + i * len(self.engine.degzero(self.v)) + j

    def _solve(self):
        eng = self.engine
        alg, x = eng.alg, eng.x
        zu, zv = eng.degzero(self.u), eng.degzero(self.v)

        # chain condition: for each degree-0 summand i of O_u, the two
        # routes from the degree -1 part of O_v into it must agree; one
        # column per ambient unit vector
        cols = []
        if self.v == x:
            for unit in identity(self.ambient_dim):
                parts = self.split(unit)
                col = []
                for i in range(len(zu)):
                    acc = [0] * alg.dim_block(zu[i], x)
                    for j in range(len(zv)):
                        comp = alg.mult(zu[i], zv[j], x,
                                        parts[self.pos_index(i, j)], eng.diff[j])
                        acc = [a + b for a, b in zip(acc, comp)]
                    if self.lead:
                        comp = alg.mult(zu[i], x, x, eng.diff[i], parts[0])
                        acc = [a - b for a, b in zip(acc, comp)]
                    col += acc
                cols.append(col)
        self.qrows, self.qpivots = rref(nullspace(transpose(cols), self.ambient_dim))
        self.dim = len(self.qrows)

    def nf(self, ambient):
        """Coordinates of an ambient vector in the chosen basis."""
        coords = [ambient[p] for p in self.qpivots]
        r = ambient
        for c, row in zip(coords, self.qrows):
            if c:
                r = [a - c * b for a, b in zip(r, row)]
        if any(r):
            raise QsaError("internal error: morphism outside the hom space")
        return coords

    def rep(self, coords):
        amb = [0] * self.ambient_dim
        for c, row in zip(coords, self.qrows):
            if c:
                amb = [a + c * b for a, b in zip(amb, row)]
        return amb


class _Engine:
    """Hom spaces and compositions for the mutated tilting complex.

    A pair of two stalks is read off the algebra block; a pair with x as
    an end has a `_HomSpace` when its ambient space is nonzero.  With
    `opposite`, the complex is the one of the opposite of `a` at its sink
    x, on the opposite algebra (`TruncatedAlgebra(a, opposite=True)`).
    """

    def __init__(self, a, x, opposite=False):
        self.alg = alg = TruncatedAlgebra(a, opposite)
        self.x = x
        ins = alg.quiver.in_arrows(x)
        self.sources = [ar.source for ar in ins]
        # differential components: left multiplication by each in-arrow
        self.diff = [alg.path_vec(ar.source, x, (ar.name,)) for ar in ins]
        # (u, x) is live when some block (u, s_i) is nonzero, (x, v) when
        # some (s_i, v) is; (x, x) always is.  Built in vertex-pair order.
        self.into = sorted({u for s in self.sources for u in alg.ends(s, False)} - {x},
                           key=natural_key)
        self.from_x = sorted({v for s in self.sources for v in alg.ends(s, True)} - {x},
                             key=natural_key)
        pairs = [(x, x)] + [(u, x) for u in self.into] + [(x, v) for v in self.from_x]
        pairs.sort(key=lambda p: (natural_key(p[0]), natural_key(p[1])))
        self.homs = {(u, v): _HomSpace(self, u, v) for u, v in pairs}

    def degzero(self, u):
        return self.sources if u == self.x else [u]

    # a pair of summands, whichever kind

    def live(self, u, v):
        if self.x in (u, v):
            return (u, v) in self.homs
        return bool(self.alg.dim_block(u, v))

    def dim(self, u, v):
        return self.homs[(u, v)].dim if self.x in (u, v) else self.alg.dim_block(u, v)

    def nf(self, u, v, amb):
        if self.x in (u, v):
            h = self.homs.get((u, v))
            return h.nf(amb) if h else []
        return amb

    def rep(self, u, v, coords):
        return self.homs[(u, v)].rep(coords) if self.x in (u, v) else coords

    def _split(self, u, v, amb):
        h = self.homs.get((u, v))
        return h.split(amb) if h else [amb]

    def _pos(self, u, v, i, j):
        h = self.homs.get((u, v))
        return h.pos_index(i, j) if h else 0

    def compose(self, u, v, w, amb_p, amb_q):
        """Ambient composite of p: O_v -> O_u with q: O_w -> O_v."""
        alg, x = self.alg, self.x
        if x not in (u, v, w):
            return alg.mult(u, v, w, amb_p, amb_q)
        if not self.live(u, w):
            return []
        hr = self.homs.get((u, w))
        zero = [0] * (hr.ambient_dim if hr else alg.dim_block(u, w))
        if not (self.live(u, v) and self.live(v, w)):
            return zero
        fp, fq = self._split(u, v, amb_p), self._split(v, w, amb_q)
        parts = self._split(u, w, zero)
        zu, zv, zw = self.degzero(u), self.degzero(v), self.degzero(w)
        if u == v == w == x:
            prod = alg.mult(x, x, x, fp[0], fq[0])
            parts[0] = [a + b for a, b in zip(parts[0], prod)]
        for i in range(len(zu)):
            for k in range(len(zw)):
                blk_r = self._pos(u, w, i, k)
                acc = parts[blk_r]
                for j in range(len(zv)):
                    prod = alg.mult(zu[i], zv[j], zw[k], fp[self._pos(u, v, i, j)],
                                    fq[self._pos(v, w, j, k)])
                    acc = [a + b for a, b in zip(acc, prod)]
                parts[blk_r] = acc
        return [c for part in parts for c in part]


# --- presentation extraction ----------------------------------------------


def _region_blocks(q, hot):
    """{(d, u, v): paths} for d = 2, 3, over the blocks of `q` with a path
    through a vertex of `hot`; paths in the order of the path table."""
    starts, frontier = set(hot), set(hot)
    for _ in range(3):
        frontier = {ar.source for v in frontier for ar in q.in_arrows(v)} - starts
        starts |= frontier
    blocks, touched = {}, set()
    for u in sorted(starts, key=natural_key):
        level = [((), u, u in hot)]
        for d in (1, 2, 3):
            level = [(p + (ar.name,), ar.target, hit or ar.target in hot)
                     for p, t, hit in level for ar in q.out_arrows(t)]
            if d > 1:
                for p, v, hit in level:
                    blocks.setdefault((d, u, v), []).append(p)
                    if hit:
                        touched.add((d, u, v))
    return {key: paths for key, paths in sorted(blocks.items(), key=lambda kv: kv[0][0])
            if key in touched}


def _arrow_names(counts):
    """{(u, v): names} for {(u, v): number of arrows u -> v}: u~v for one
    arrow, u~v.1, u~v.2, ... for more.  A vertex name holding `~` or `.`
    can make two pairs propose one name (a and b~c, a~b and c).  Then the
    pairs are taken in (natural_key(u), natural_key(v)) order: the first
    to propose a name keeps it, and every other grows its name by `~`
    until no pair proposes it.  Without a clash no name is changed."""
    names = {(u, v): [f"{u}~{v}"] if n == 1 else [f"{u}~{v}.{i}" for i in range(1, n + 1)]
             for (u, v), n in counts.items()}
    proposed = [name for group in names.values() for name in group]
    busy = set(proposed)
    if len(busy) < len(proposed):
        seen = set()
        for pair in sorted(names, key=lambda p: (natural_key(p[0]), natural_key(p[1]))):
            group = names[pair]
            for i, name in enumerate(group):
                if name in seen:
                    while name in busy:
                        name += "~"
                    busy.add(name)
                    group[i] = name
                seen.add(name)
    return names


class _Renaming:
    """The result's quiver tables, in `a`'s orientation, and the relations
    of `a` that pass through the mutation: outside the region N (`near`)
    the result is `a` renamed.

    The arrows of `a` with no end in N are renamed by their ends u -> v in
    the engine's orientation (the opposite one for a plus mutation),
    together with the region's arrows, given as {(u, v): number}
    (`region`), by `_arrow_names` (parallel arrows of `a` in the order of
    their old names).  `old` maps the new name of an arrow of `a` back to
    its old name, and `added` a pair of the region to its names.  `arrows`
    is the result's arrows in arrow order, `out` and `in_` its arrows at
    each vertex, as `Quiver` keeps them.  `relations` is the renamed
    relations that can pass, in canonical order: the monomial ones on the
    renamed arrows, shorter than four, with no relation of length two
    inside; `paths` and `monomials` are their paths, `long` the positions
    of those of length three, and `block` indexes them by (length, u, v) in
    the engine's orientation.  `hot` is the vertices on the terms of the
    other relations, M in the module docstring.
    """

    def __init__(self, a, opposite, near, region):
        q = a.quiver
        dropped = {ar.name for v in near for ar in (*q._out[v], *q._in[v])}
        groups = {}
        for ar in q.arrows:
            if ar.name not in dropped:
                groups.setdefault((ar.target, ar.source) if opposite else ar[1:], []).append(ar)
        names = _arrow_names({**{pair: len(group) for pair, group in groups.items()}, **region})
        self.added = {pair: names[pair] for pair in region}
        new, arrows = {}, []
        for pair, group in groups.items():
            if len(group) > 1:
                group.sort(key=attrgetter("name"))
            for name, ar in zip(names[pair], group):
                new[ar.name] = name
                arrows.append(Arrow(name, ar.source, ar.target))
        self.old = dict(zip(new.values(), new))
        arrows += [Arrow(name, v, u) if opposite else Arrow(name, u, v)
                   for (u, v), group in self.added.items() for name in group]
        self.arrows = sorted(arrows, key=_arrow_key)
        self.out, self.in_ = {v: [] for v in q.vertices}, {v: [] for v in q.vertices}
        for ar in self.arrows:
            self.out[ar.source].append(ar)
            self.in_[ar.target].append(ar)

        self.relations, self.hot = [], set()
        for r in a.relations:
            p = r.terms[0][1]
            if not r.is_monomial:
                self.hot.update(v for n in r.arrow_names for v in q.arrow(n)[1:])
            elif len(p) < 4 and dropped.isdisjoint(p) and not (
                    len(p) == 3 and (p[:2] in a.monomials or p[1:] in a.monomials)):
                self.relations.append(
                    RelationTerm._monomial(r.source, r.target, tuple(map(new.__getitem__, p))))
        self.relations.sort(key=_relation_key)
        self.paths = [r.terms[0][1] for r in self.relations]
        self.monomials = frozenset(self.paths)
        self.long = {i for i, path in enumerate(self.paths) if len(path) > 2}
        self.block = {}
        for i, r in enumerate(self.relations):
            ends = (r.target, r.source) if opposite else (r.source, r.target)
            self.block.setdefault((len(self.paths[i]), *ends), []).append(i)


def mutate_minus(a, x, opposite=False):
    """Mutate the presentation at the sink x.

    Builds the two-term complex at x, computes the morphism spaces of
    the tilt that differ from A's, and reads a quiver with relations (of
    length two or three) off its radical filtration; everything outside
    the neighbourhood of x is A's own, renamed.  With `opposite`, x is a
    source of `a` and this is its plus mutation: the minus mutation of the
    opposite of `a` at x, turned round.  The opposite is never built: the
    engine runs on the opposite algebra, the extraction reads a view of
    the result's quiver that turns its arrows round, and what it finds is
    turned round into `a`'s orientation, where the rest of `a` is renamed.
    """
    q = a.quiver
    if not q.has_vertex(x):
        raise QsaError(f"unknown vertex {x!r}")
    if opposite:
        if q.in_arrows(x):
            raise QsaError(f"plus mutation needs a source, {x!r} has in-arrows")
        if not q.out_arrows(x):
            raise QsaError(f"plus mutation needs at least one arrow out of {x!r}")
    elif q.out_arrows(x):
        raise QsaError(f"minus mutation needs a sink, {x!r} has out-arrows")
    elif not q.in_arrows(x):
        raise QsaError(f"minus mutation needs at least one arrow into {x!r}")

    # the ends of u -> v, and a path, of the engine in a's orientation
    def turned(u, v):
        return (v, u) if opposite else (u, v)
    step = -1 if opposite else 1

    eng = _Engine(a, x, opposite)
    alg = eng.alg
    near = {x, *eng.sources}

    # the live pairs with an end in N
    region = list(eng.homs)
    for s in dict.fromkeys(eng.sources):
        region += [(s, v) for v in alg.ends(s, True) if v != x]
        region += [(u, s) for u in alg.ends(s, False) if u not in near]

    rad = {}

    def radical(u, v):
        """(basis, representatives) of the radical at a pair, computed once.

        Between distinct summands it is the whole space.  At a stalk P_u it
        is spanned by the basis paths of positive length, every coordinate
        but the first (the trivial path).  At R_x it is every chain-map basis
        vector but the first: e_x A e_x is the field, so the degree -1 part
        of an endomorphism is one scalar, and a chain map with scalar 0 has
        sum_j f_ij a_j = 0 for its degree-0 components f_ij.  A's arrows are
        independent modulo rad^2, which holds A's ideal, so no f_ij has a
        scalar part; those maps form a nilpotent ideal of codimension one.
        In the rref basis only the first vector has a nonzero degree -1
        coordinate (ambient column 0), so the others span that ideal.
        """
        if (u, v) not in rad:
            basis = identity(eng.dim(u, v))[int(u == v):]
            rad[(u, v)] = basis, [eng.rep(u, v, c) for c in basis]
        return rad[(u, v)]

    def products(u, k, v):
        return [eng.nf(u, v, eng.compose(u, k, v, p, w))
                for w in radical(k, v)[1] for p in radical(u, k)[1]]

    # arrows: a complement of rad^2 inside rad.  Between stalks rad^2 is
    # rad^2_A, the coordinates at basis paths of length >= 2, plus the
    # composites through R_x; at x it is summed over the middle summand,
    # one with a live pair to x when x is the target.
    complements = {}
    for u, v in region:
        if x in (u, v):
            middle = [x] + (eng.from_x if u == x else eng.into)
            rad2 = [c for k in middle if eng.live(u, k) and eng.live(k, v)
                    for c in products(u, k, v)]
        else:
            units = identity(eng.dim(u, v))
            rad2 = [units[i] for i, p in enumerate(alg.free_paths(u, v)) if len(p) > 1]
            if eng.live(u, x) and eng.live(x, v):
                rad2 += products(u, x, v)
        rrows, rpiv = rref([c for c in rad2 if any(c)])
        kept = []
        for coords in radical(u, v)[0]:
            red = reduce_vec(list(coords), rrows, rpiv)
            if any(red):
                kept.append(red)
        basis, _ = rref(kept)
        if basis:
            complements[(u, v)] = [eng.rep(u, v, coords) for coords in basis]

    # the result's arrows: A's with no end in N, renamed, and the region's,
    # named with them
    ren = _Renaming(a, opposite, near, {pair: len(reps) for pair, reps in complements.items()})
    arrow_reps = {name: rep for pair, reps in complements.items()
                  for name, rep in zip(ren.added[pair], reps)}
    new_q = Quiver._trusted(a.name, q.vertices, ren.arrows, ren.out, ren.in_)
    tilted = _OppositeQuiver(new_q) if opposite else new_q

    def arrow_rep(name):
        if name not in arrow_reps:  # one of A's arrows, a basis path
            ar = alg.quiver.arrow(ren.old[name])
            arrow_reps[name] = alg.path_vec(ar.source, ar.target, (ar.name,))
        return arrow_reps[name]

    def eval_path(path):
        u = tilted.arrow(path[0]).source
        amb = arrow_rep(path[0])
        cur = tilted.arrow(path[0]).target
        for nm in path[1:]:
            ar = tilted.arrow(nm)
            amb = eng.compose(u, cur, ar.target, amb, arrow_rep(nm))
            cur = ar.target
        return eng.nf(u, cur, amb)

    # relations: A's outside the region, renamed, then the kernels of path
    # evaluation on the blocks with a path through N or M; kernels are
    # keyed by block in the engine's orientation
    kernels = {}

    def passing(key):
        """The combinations of A's renamed relations in a block outside the region."""
        if key not in kernels:
            kernels[key] = [[(1, ren.paths[i][::step])] for i in ren.block.get(key, ())]
        return kernels[key]

    solved, touched = [], set()
    for (d, u, v), paths in _region_blocks(tilted, ren.hot | near).items():
        # shifts of the shorter relations by one arrow at either end
        index = {p: i for i, p in enumerate(paths)}
        sides = [(passing((d - 1, u, ar.source)), (), (ar.name,))
                 for ar in tilted.in_arrows(v)]
        sides += [(passing((d - 1, ar.target, v)), (ar.name,), ())
                  for ar in tilted.out_arrows(u)]
        shifts = []
        for combos, left, right in sides:
            for combo in combos:
                row = [0] * len(paths)
                for c, p in combo:
                    row[index[left + p + right]] += c
                shifts.append(row)
        srows, spiv = rref(shifts)
        kept = kernels[(d, u, v)] = []
        cols = [eval_path(p) for p in paths]
        for lam in nullspace(transpose(cols), len(paths)):
            red = reduce_vec(lam, srows, spiv)
            if any(red):
                kept.append([(c, p) for c, p in zip(red, paths) if c])
                if d > 2:
                    srows, spiv = rref(srows + [red])
        solved += [(*turned(u, v), combo) for combo in kept]
        touched.add((d, u, v))

    # coefficients stay Fractions: `_canonical` divides by the first one
    cut = {i for key in touched for i in ren.block.get(key, ())}
    relations = [r for i, r in enumerate(ren.relations) if i not in cut]
    found = [RelationTerm._trusted(u, v, {p[::step]: Fraction(c) for c, p in combo})
             for u, v, combo in solved]
    for r in found:
        insort(relations, r, key=_relation_key)
    monomials = ren.monomials.difference([ren.paths[i] for i in cut]).union(
        r.terms[0][1] for r in found if r.is_monomial)
    quadratic = ren.long <= cut and all(len(p) == 2 for r in found for _, p in r.terms)
    # distinct: A's are renamed one to one, and the kernels are bases of
    # blocks that A's renamed relations no longer meet
    result = AlgebraPresentation.__new__(AlgebraPresentation)
    result._fill(new_q, relations, monomials, quadratic)
    # the stalk pairs are A's blocks; the pairs at x are the solved spaces
    expected = (alg.dimension() - sum(alg.dim_block(u, x) for u in alg.ends(x, False))
                + sum(h.dim for h in eng.homs.values()))
    counts = _normal_word_counts(_normal_words(result)[1])
    counted = sum(sum(row.values()) for row in counts.values())
    if counted != expected:
        raise QsaError(
            f"relation search exceeds length bound: presentation has "
            f"dimension {counted}, endomorphism algebra {expected}")
    return result
