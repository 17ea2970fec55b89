"""Sink mutation via endomorphisms of a two-term tilting complex.

At a sink x the complex T is the direct sum of the stalks P_u (u != x)
and R_x = [P_x in degree -1 mapped into the sum of P_{s(a)} over the
arrows a into x].  Only the morphism spaces with x as an end are solved
as chain maps modulo homotopy, in exact arithmetic, and only for the
pairs whose ambient space has a nonzero block of the algebra.  Between
two stalks there is no chain condition and no homotopy: Hom(P_v, P_u) is
the algebra block e_u A e_v, a morphism is its vector of coordinates at
the block's basis paths, a composite of three stalks is one product in
the algebra, and the radical of End(P_u) is the span of the basis paths
of positive length.  A morphism at a pair with x as an end is the
concatenation of such vectors over the blocks of its ambient space.  The
radical at R_x is split off with the trace form, and a quiver
presentation is read back off arrow representatives; composition and
path evaluation read a pair with a zero ambient space as the zero space.

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
endomorphism algebra, reports it rather than papering over it.
"""

from ._linalg import ONE, ZERO, identity, nullspace, reduce_vec, rref, transpose
from ._algebra import TruncatedAlgebra
from .presentation import QsaError, Arrow, Quiver, AlgebraPresentation, natural_key


# --- chain-map hom spaces -----------------------------------------------------


class _HomSpace:
    """Hom(O_v, O_u) for a pair with x as an end, as coordinates modulo homotopy."""

    def __init__(self, engine, u, v):
        self.engine = engine
        self.u = u
        self.v = v
        alg = engine.alg
        self.neg = [(d_u, d_v) for d_u in engine.degneg(u)
                    for d_v in engine.degneg(v)]
        self.pos = [(z_u, z_v) for z_u in engine.degzero(u)
                    for z_v in engine.degzero(v)]
        self.blocks = [("neg",) + b for b in self.neg] + \
                      [("pos",) + b for b in self.pos]
        self.offsets = []
        total = 0
        for _, bu, bv in self.blocks:
            self.offsets.append(total)
            total += alg.dim_block(bu, bv)
        self.ambient_dim = total
        self._solve()

    def split(self, flat):
        """The per-block elements of an ambient vector."""
        ends = self.offsets[1:] + [self.ambient_dim]
        return [flat[off:end] for off, end in zip(self.offsets, ends)]

    def block_index(self, kind, bu_i, bv_j):
        nneg = len(self.neg)
        if kind == "neg":
            return 0
        return nneg + bu_i * len(self.engine.degzero(self.v)) + bv_j

    def _solve(self):
        eng = self.engine
        alg = eng.alg
        u, v = self.u, self.v
        zu, zv = eng.degzero(u), eng.degzero(v)
        has_du = bool(eng.degneg(u))
        has_dv = bool(eng.degneg(v))

        # chain condition: for each degree-0 summand i of O_u, the two
        # routes from the degree -1 part of O_v into it must agree; one
        # column per ambient unit vector
        cols = []
        if has_dv:
            for unit in identity(self.ambient_dim):
                parts = self.split(unit)
                col = []
                for i in range(len(zu)):
                    acc = [ZERO] * alg.dim_block(zu[i], eng.x)
                    for j in range(len(zv)):
                        blk = self.block_index("pos", i, j)
                        comp = alg.mult(zu[i], zv[j], eng.x,
                                        parts[blk], eng.diff[j])
                        acc = [a + b for a, b in zip(acc, comp)]
                    if has_du:
                        comp = alg.mult(zu[i], eng.x, eng.x,
                                        eng.diff[i], parts[0])
                        acc = [a - b for a, b in zip(acc, comp)]
                    col += acc
                cols.append(col)
        sol = nullspace(transpose(cols), self.ambient_dim)

        # homotopies: maps from the degree-0 part of O_v into the
        # degree -1 part of O_u
        images = []
        if has_du:
            for j in range(len(zv)):
                for hvec in identity(alg.dim_block(eng.x, zv[j])):
                    parts = self.split([ZERO] * self.ambient_dim)
                    if has_dv:
                        contrib = alg.mult(eng.x, zv[j], eng.x,
                                           hvec, eng.diff[j])
                        parts[0] = [a + b for a, b
                                    in zip(parts[0], contrib)]
                    for i in range(len(zu)):
                        blk = self.block_index("pos", i, j)
                        contrib = alg.mult(zu[i], eng.x, zv[j],
                                           eng.diff[i], hvec)
                        parts[blk] = [a + b for a, b
                                      in zip(parts[blk], contrib)]
                    images.append([c for part in parts for c in part])
        self.hrows, self.hpivots = rref(images)

        reduced = []
        for s in sol:
            r = reduce_vec(list(s), self.hrows, self.hpivots)
            if any(r):
                reduced.append(r)
        self.qrows, self.qpivots = rref(reduced)
        self.dim = len(self.qrows)

    def nf(self, ambient):
        """Coordinates of an ambient vector in the chosen basis."""
        r = reduce_vec(list(ambient), self.hrows, self.hpivots)
        coords = [r[p] for p in self.qpivots]
        for c, row in zip(coords, self.qrows):
            if c:
                r = [a - c * b for a, b in zip(r, row)]
        if any(r):
            raise QsaError("internal error: morphism outside the hom space")
        return coords

    def rep(self, coords):
        amb = [ZERO] * self.ambient_dim
        for c, row in zip(coords, self.qrows):
            if c:
                amb = [a + c * b for a, b in zip(amb, row)]
        return amb


class _Engine:
    """Hom spaces and compositions for the mutated tilting complex.

    A pair of two stalks is read off the algebra block; a pair with x as
    an end has a `_HomSpace` when its ambient space is nonzero.
    """

    def __init__(self, a, x):
        self.alg = alg = TruncatedAlgebra(a)
        q = a.quiver
        self.x = x
        ins = q.in_arrows(x)
        self.sources = [ar.source for ar in ins]
        # differential components: left multiplication by each in-arrow
        self.diff = [alg.path_vec(ar.source, x, (ar.name,)) for ar in ins]
        # the nonzero blocks by source and by target
        self.succ, self.pred = {}, {}
        for bu, bv in alg.nonzero_blocks():
            self.succ.setdefault(bu, []).append(bv)
            self.pred.setdefault(bv, []).append(bu)
        # (u, x) is live when some block (u, s_i) is nonzero, (x, v) when
        # some (s_i, v) is; (x, x) always is.  Built in vertex-pair order.
        into = {u for s in self.sources for u in self.pred[s]} - {x}
        self.from_x = sorted({v for s in self.sources for v in self.succ[s]} - {x},
                             key=natural_key)
        pairs = [(x, x)] + [(u, x) for u in into] + [(x, v) for v in self.from_x]
        pairs.sort(key=lambda p: (natural_key(p[0]), natural_key(p[1])))
        self.homs = {(u, v): _HomSpace(self, u, v) for u, v in pairs}

    def degneg(self, u):
        return [self.x] if u == self.x else []

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
        return h.block_index("pos", i, j) if h else 0

    def compose(self, u, v, w, amb_p, amb_q):
        """Ambient composite of p: O_v -> O_u with q: O_w -> O_v."""
        alg, x = self.alg, self.x
        if x not in (u, v, w):
            return alg.mult(u, v, w, amb_p, amb_q)
        if not self.live(u, w):
            return []
        hr = self.homs.get((u, w))
        zero = [ZERO] * (hr.ambient_dim if hr else alg.dim_block(u, w))
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


def _local_radical(engine):
    """Radical of End(R_x) via the trace form of left multiplication."""
    x = engine.x
    h = engine.homs[(x, x)]
    n = h.dim
    reps = [h.rep(c) for c in identity(n)]
    table = [[h.nf(engine.compose(x, x, x, reps[i], reps[j]))
              for j in range(n)] for i in range(n)]
    tau = [sum(table[t][k][k] for k in range(n)) for t in range(n)]
    gram = [[sum(table[i][j][t] * tau[t] for t in range(n))
             for j in range(n)] for i in range(n)]
    rad = nullspace(gram, n)
    if n - len(rad) != 1:
        raise QsaError(
            f"endomorphism ring at {x!r} does not have scalar quotient; "
            "the summand is not indecomposable over this field")
    return rad


def _radical(eng, u, v):
    """Basis of the radical at a pair: all of it between distinct summands,
    the paths of positive length at a stalk, the trace-form radical at x."""
    if u != v:
        return identity(eng.dim(u, v))
    if u == eng.x:
        return _local_radical(eng)
    return identity(eng.dim(u, u))[1:]


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


def mutate_minus(a, x):
    """Mutate the presentation at the sink x.

    Builds the two-term complex at x, computes the morphism spaces of
    the tilt that differ from A's, and reads a quiver with relations (of
    length two or three) off its radical filtration; everything outside
    the neighbourhood of x is A's own, renamed.
    """
    q = a.quiver
    if not q.has_vertex(x):
        raise QsaError(f"unknown vertex {x!r}")
    if q.out_arrows(x):
        raise QsaError(f"minus mutation needs a sink, {x!r} has out-arrows")
    if not q.in_arrows(x):
        raise QsaError(f"minus mutation needs at least one arrow into {x!r}")

    eng = _Engine(a, x)
    alg = eng.alg
    near = {x, *eng.sources}

    # the live pairs with an end in N
    region = list(eng.homs)
    for s in dict.fromkeys(eng.sources):
        region += [(s, v) for v in eng.succ[s] if v != x]
        region += [(u, s) for u in eng.pred[s] if u not in near]

    rad = {}

    def radical(u, v):
        """(basis, representatives) of the radical at a pair, computed once."""
        if (u, v) not in rad:
            basis = _radical(eng, u, v)
            rad[(u, v)] = basis, [eng.rep(u, v, c) for c in basis]
        return rad[(u, v)]

    def products(u, k, v):
        return [eng.nf(u, v, eng.compose(u, k, v, p, w))
                for w in radical(k, v)[1] for p in radical(u, k)[1]]

    # arrows: a complement of rad^2 inside rad.  Between stalks rad^2 is
    # rad^2_A, the coordinates at basis paths of length >= 2, plus the
    # composites through R_x; at x it is summed over the middle summand.
    arrows = []
    arrow_reps = {}
    for u, v in region:
        if x in (u, v):
            middle = dict.fromkeys([x] + (eng.from_x if u == x else eng.succ[u]))
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
        base = f"{u}~{v}"
        for idx, coords in enumerate(basis):
            name = base if len(basis) == 1 else f"{base}.{idx + 1}"
            arrows.append(Arrow(name, u, v))
            arrow_reps[name] = eng.rep(u, v, coords)

    # A's arrows between stalks outside N, in coordinate order
    between = {}
    for ar in q.arrows:
        if ar.source not in near and ar.target not in near:
            between.setdefault((ar.source, ar.target), []).append(ar.name)
    renamed, origin = {}, {}
    for (u, v), names in between.items():
        names.sort()
        for idx, old in enumerate(names):
            name = f"{u}~{v}" if len(names) == 1 else f"{u}~{v}.{idx + 1}"
            arrows.append(Arrow(name, u, v))
            renamed[old], origin[name] = name, old

    new_q = Quiver(a.name, q.vertices, arrows)

    def arrow_rep(name):
        if name not in arrow_reps:  # one of A's arrows, a basis path
            ar = q.arrow(origin[name])
            arrow_reps[name] = alg.path_vec(ar.source, ar.target, (ar.name,))
        return arrow_reps[name]

    def eval_path(path):
        u = new_q.arrow(path[0]).source
        amb = arrow_rep(path[0])
        cur = new_q.arrow(path[0]).target
        for nm in path[1:]:
            ar = new_q.arrow(nm)
            amb = eng.compose(u, cur, ar.target, amb, arrow_rep(nm))
            cur = ar.target
        return eng.nf(u, cur, amb)

    # relations: A's outside the region, renamed, then the kernels of path
    # evaluation on the blocks with a path through N or M
    kernels = {}
    for r in a.relations:
        p = r.terms[0][1]
        if r.is_monomial and len(p) < 4 and all(n in renamed for n in p) and not (
                len(p) == 3 and (p[:2] in a.monomials or p[1:] in a.monomials)):
            key = (len(p), r.source, r.target)
            kernels.setdefault(key, []).append([(ONE, tuple(renamed[n] for n in p))])
    hot = set(near)
    for r in a.relations:
        if not r.is_monomial:
            hot.update(v for n in r.arrow_names for v in q.arrow(n)[1:])

    for (d, u, v), paths in _region_blocks(new_q, hot).items():
        # shifts of the shorter relations by one arrow at either end
        index = {p: i for i, p in enumerate(paths)}
        sides = [(kernels.get((d - 1, u, ar.source), ()), (), (ar.name,))
                 for ar in new_q.in_arrows(v)]
        sides += [(kernels.get((d - 1, ar.target, v), ()), (ar.name,), ())
                  for ar in new_q.out_arrows(u)]
        shifts = []
        for combos, left, right in sides:
            for combo in combos:
                row = [ZERO] * len(paths)
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

    result = AlgebraPresentation._trusted(new_q, [
        (u, v, {p: c for c, p in combo}) for (_, u, v), combos in kernels.items()
        for combo in combos])
    # the stalk pairs are A's blocks; the pairs at x are the solved spaces
    expected = (alg.dimension() - sum(alg.dim_block(u, x) for u in eng.pred[x])
                + sum(h.dim for h in eng.homs.values()))
    found = TruncatedAlgebra(result).dimension()
    if found != expected:
        raise QsaError(
            f"relation search exceeds length bound: presentation has "
            f"dimension {found}, endomorphism algebra {expected}")
    return result
