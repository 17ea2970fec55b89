"""Sink mutation via endomorphisms of a two-term tilting complex.

At a sink x the complex T is the direct sum of the stalks P_u (u != x)
and R_x = [P_x in degree -1 mapped into the sum of P_{s(a)} over the
arrows a into x].  Only the morphism spaces with x as an end are solved
as chain maps modulo homotopy, in exact arithmetic.  Between two stalks
there is no chain condition and no homotopy: Hom(P_v, P_u) is the
algebra block e_u A e_v in its free coordinates, so normal forms are the
identity there, a composite of three stalks is one product in the
algebra, and the radical of End(P_u) is the span of the paths of
positive length.  The radical at R_x is split off with the trace form,
and a quiver presentation is read back off arrow representatives.  Hom
spaces exist only for the pairs of summands whose ambient space has a
nonzero block of the algebra; every other pair is the zero space, and
composition and path evaluation treat it as such.  Relations of length
two and three are read in one pass over the new quiver's paths, taken
from the relation-free path table of `presentation`: in each block they
are the kernel of path evaluation, and the length-three kernel is taken
modulo the shifts of the length-two relations.  The final dimension
count is compared against the abstract endomorphism algebra; a mismatch
is reported rather than papered over.
"""

from itertools import islice

from ._linalg import ZERO, identity, nullspace, reduce_vec, rref, transpose
from ._algebra import TruncatedAlgebra
from .presentation import (
    QsaError, Arrow, Quiver, AlgebraPresentation, _relation_free_levels,
)


# --- chain-map hom spaces -----------------------------------------------------


class _HomSpace:
    """Hom(O_v, O_u) for two summands, as coordinates modulo homotopy."""

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
        # between two stalks there is no chain condition and no homotopy:
        # the basis is the free coordinates of the algebra block
        self.stalk = engine.x not in (u, v)
        if self.stalk:
            self.dim = total
        else:
            self._solve()

    # ambient <-> per-block full vectors

    def split(self, flat):
        alg = self.engine.alg
        return [alg.embed(bu, bv, flat[off:off + alg.dim_block(bu, bv)])
                for (_, bu, bv), off in zip(self.blocks, self.offsets)]

    def join(self, fulls):
        alg = self.engine.alg
        flat = []
        for (_, bu, bv), full in zip(self.blocks, fulls):
            flat += alg.coords(bu, bv, full)
        return flat

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
                fulls = self.split(unit)
                col = []
                for i in range(len(zu)):
                    acc = alg.zero(zu[i], eng.x)
                    for j in range(len(zv)):
                        blk = self.block_index("pos", i, j)
                        comp = alg.mult(zu[i], zv[j], eng.x,
                                        fulls[blk], eng.diff[j])
                        acc = [a + b for a, b in zip(acc, comp)]
                    if has_du:
                        comp = alg.mult(zu[i], eng.x, eng.x,
                                        eng.diff[i], fulls[0])
                        acc = [a - b for a, b in zip(acc, comp)]
                    col += acc
                cols.append(col)
        sol = nullspace(transpose(cols), self.ambient_dim)

        # homotopies: maps from the degree-0 part of O_v into the
        # degree -1 part of O_u
        images = []
        if has_du:
            for j in range(len(zv)):
                for hvec in alg.basis_vectors(eng.x, zv[j]):
                    fulls = [alg.zero(bu, bv) for _, bu, bv in self.blocks]
                    if has_dv:
                        contrib = alg.mult(eng.x, zv[j], eng.x,
                                           hvec, eng.diff[j])
                        fulls[0] = [a + b for a, b
                                    in zip(fulls[0], contrib)]
                    for i in range(len(zu)):
                        blk = self.block_index("pos", i, j)
                        contrib = alg.mult(zu[i], eng.x, zv[j],
                                           eng.diff[i], hvec)
                        fulls[blk] = [a + b for a, b
                                      in zip(fulls[blk], contrib)]
                    images.append(self.join(fulls))
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
        if self.stalk:
            return list(ambient)
        r = reduce_vec(list(ambient), self.hrows, self.hpivots)
        coords = [r[p] for p in self.qpivots]
        for c, row in zip(coords, self.qrows):
            if c:
                r = [a - c * b for a, b in zip(r, row)]
        if any(r):
            raise QsaError("internal error: morphism outside the hom space")
        return coords

    def rep(self, coords):
        if self.stalk:
            return list(coords)
        amb = [ZERO] * self.ambient_dim
        for c, row in zip(coords, self.qrows):
            if c:
                amb = [a + c * b for a, b in zip(amb, row)]
        return amb


class _Engine:
    """All hom spaces and compositions for the mutated tilting complex."""

    def __init__(self, a, x):
        self.alg = TruncatedAlgebra(a)
        q = a.quiver
        self.x = x
        self.ins = list(q.in_arrows(x))
        self.sources = [ar.source for ar in self.ins]
        # differential components: left multiplication by each in-arrow
        self.diff = [self.alg.path_vec(ar.source, x, (ar.name,))
                     for ar in self.ins]
        # a hom space for each pair whose ambient space has a nonzero
        # block: (x, x) for the degree -1 parts, and the pairs of summands
        # whose degree-0 parts hold the ends of a nonzero algebra block
        holders = {}
        for u in q.vertices:
            for b in self.degzero(u):
                holders.setdefault(b, set()).add(u)
        live = {(x, x)}
        for bu, bv in self.alg.nonzero_blocks():
            for u in holders.get(bu, ()):
                live.update((u, v) for v in holders.get(bv, ()))
        # in vertex-pair order, which fixes the order of the new arrows
        pos = {v: i for i, v in enumerate(q.vertices)}
        self.homs = {(u, v): _HomSpace(self, u, v)
                     for u, v in sorted(live, key=lambda p: (pos[p[0]], pos[p[1]]))}

    def degneg(self, u):
        return [self.x] if u == self.x else []

    def degzero(self, u):
        return self.sources if u == self.x else [u]

    def compose(self, u, v, w, amb_p, amb_q):
        """Ambient composite of p: O_v -> O_u with q: O_w -> O_v."""
        alg = self.alg
        hr = self.homs.get((u, w))
        if hr is None:
            return []
        hp, hq = self.homs.get((u, v)), self.homs.get((v, w))
        if hp is None or hq is None:
            return [ZERO] * hr.ambient_dim
        if hp.stalk and hq.stalk:
            return alg.coords(u, w, alg.mult(
                u, v, w, alg.embed(u, v, amb_p), alg.embed(v, w, amb_q)))
        fp, fq = hp.split(amb_p), hq.split(amb_q)
        fulls = [alg.zero(bu, bv) for _, bu, bv in hr.blocks]
        zu, zv, zw = self.degzero(u), self.degzero(v), self.degzero(w)
        if self.degneg(u) and self.degneg(v) and self.degneg(w):
            prod = alg.mult(self.x, self.x, self.x, fp[0], fq[0])
            fulls[0] = [a + b for a, b in zip(fulls[0], prod)]
        for i in range(len(zu)):
            for k in range(len(zw)):
                blk_r = hr.block_index("pos", i, k)
                acc = fulls[blk_r]
                for j in range(len(zv)):
                    blk_p = hp.block_index("pos", i, j)
                    blk_q = hq.block_index("pos", j, k)
                    prod = alg.mult(zu[i], zv[j], zw[k], fp[blk_p], fq[blk_q])
                    acc = [a + b for a, b in zip(acc, prod)]
                fulls[blk_r] = acc
        return hr.join(fulls)


# --- presentation extraction ----------------------------------------------


def _local_radical(engine, u):
    """Radical of End(O_u) via the trace form of left multiplication.

    For a stalk, End(P_u) = e_u A e_u is local and its radical is spanned
    by the paths of positive length: every free coordinate but the first,
    which is the trivial path.  Only the span of a radical is used
    downstream, so this basis gives the same presentation as the trace
    form's.
    """
    h = engine.homs[(u, u)]
    n = h.dim
    if h.stalk:
        return identity(n)[1:]
    reps = [h.rep(c) for c in identity(n)]
    table = [[h.nf(engine.compose(u, u, u, reps[i], reps[j]))
              for j in range(n)] for i in range(n)]
    tau = [sum(table[t][k][k] for k in range(n)) for t in range(n)]
    gram = [[sum(table[i][j][t] * tau[t] for t in range(n))
             for j in range(n)] for i in range(n)]
    rad = nullspace(gram, n)
    if n - len(rad) != 1:
        raise QsaError(
            f"endomorphism ring at {u!r} does not have scalar quotient; "
            "the summand is not indecomposable over this field")
    return rad


def mutate_minus(a, x):
    """Mutate the presentation at the sink x.

    Builds the two-term complex at x, computes the morphism spaces of
    the tilt that can be nonzero, and reads a quiver with relations (of
    length two or three) off its radical filtration.
    """
    q = a.quiver
    if not q.has_vertex(x):
        raise QsaError(f"unknown vertex {x!r}")
    if q.out_arrows(x):
        raise QsaError(f"minus mutation needs a sink, {x!r} has out-arrows")
    if not q.in_arrows(x):
        raise QsaError(f"minus mutation needs at least one arrow into {x!r}")

    eng = _Engine(a, x)
    vs = q.vertices

    # radical: everything between distinct summands, trace-form radical
    # on the endomorphism rings
    rad = {(u, v): identity(h.dim) if u != v else _local_radical(eng, u)
           for (u, v), h in eng.homs.items()}

    rad_reps = {key: [eng.homs[key].rep(c) for c in coords]
                for key, coords in rad.items() if coords}
    rad_from = {}
    for (k, v), reps in rad_reps.items():
        rad_from.setdefault(k, []).append((v, reps))

    # radical squared, blockwise
    rad2 = {}
    for (u, k), left in rad_reps.items():
        for v, right in rad_from.get(k, ()):
            h = eng.homs.get((u, v))
            if h is None:
                continue
            for w in right:
                for p in left:
                    comp = h.nf(eng.compose(u, k, v, p, w))
                    if any(comp):
                        rad2.setdefault((u, v), []).append(comp)

    # arrows: a complement of rad^2 inside rad
    arrows = []
    arrow_reps = {}
    for (u, v), coords_list in rad.items():
        rrows, rpiv = rref(rad2.get((u, v), []))
        kept = []
        for coords in coords_list:
            red = reduce_vec(list(coords), rrows, rpiv)
            if any(red):
                kept.append(red)
        basis, _ = rref(kept)
        base = f"{u}~{v}"
        for idx, coords in enumerate(basis):
            name = base if len(basis) == 1 else f"{base}.{idx + 1}"
            arrows.append(Arrow(name, u, v))
            arrow_reps[name] = eng.homs[(u, v)].rep(coords)

    new_q = Quiver(a.name, vs, arrows)

    # relations: kernels of path evaluation in lengths two and three
    def eval_path(path):
        u = new_q.arrow(path[0]).source
        amb = arrow_reps[path[0]]
        cur = new_q.arrow(path[0]).target
        for nm in path[1:]:
            ar = new_q.arrow(nm)
            amb = eng.compose(u, cur, ar.target, amb, arrow_reps[nm])
            cur = ar.target
        h = eng.homs.get((u, cur))
        return [] if h is None else h.nf(amb)

    blocks = {}
    levels = _relation_free_levels(AlgebraPresentation(new_q, ()))
    for level in islice(levels, 2, 4):
        for u, v, path in level:
            blocks.setdefault((len(path), u, v), []).append(path)

    relations = []
    kernels = {}
    for (d, u, v), paths in blocks.items():
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
        relations += kept

    result = AlgebraPresentation(new_q, relations)
    expected = sum(h.dim for h in eng.homs.values())
    found = TruncatedAlgebra(result).dimension()
    if found != expected:
        raise QsaError(
            f"relation search exceeds length bound: presentation has "
            f"dimension {found}, endomorphism algebra {expected}")
    return result
