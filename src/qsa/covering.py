"""Cover balls, graph-shape recognition, and wildness witnesses.

The universal cover of a connected monomial presentation is a tree; this
module materializes bounded balls of it, classifies underlying graphs as
Dynkin / Euclidean / Other, and searches balls for a wildness certificate:
a vertex subset whose full subcategory is radical-square-zero over a graph
that is neither Dynkin nor Euclidean.  Two purely local wild configurations
are matched directly on the base presentation.

A ball is built once as plain arrays indexed by vertex (`CoverBall`); the
search tests relations on the projected base arrows and classifies subsets
on vertex indices, so no presentation is built for a ball it searches: only
a witness it finds, or a ball whose `cover` is read (as `truncated_cover`
does), becomes a presentation.
"""

import os
from bisect import insort
from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

from .presentation import (
    QsaError, Arrow, Quiver, AlgebraPresentation,
    natural_key, presentations_isomorphic, serialize_presentation, validate,
)
from ._linalg import psd_flags

__all__ = [
    "GraphType", "CoverBall", "WildWitness", "PatternReport",
    "graph_type", "truncated_cover", "find_wild_witness",
    "detect_local_wild_pattern",
    "DEFAULT_WITNESS_RADIUS", "DEFAULT_WITNESS_SIZE", "DEFAULT_WITNESS_BUDGET",
]

DEFAULT_WITNESS_RADIUS = 8
DEFAULT_WITNESS_SIZE = 10
DEFAULT_WITNESS_BUDGET = 400000


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise QsaError(f"environment variable {name} must be an integer, got {raw!r}") from None


# --- graph shape recognition --------------------------------------------------


class GraphType(NamedTuple):
    """Shape of a connected multigraph: Dynkin, Euclidean, or Other.

    Read-only, since `graph_type` hands one cached instance to every caller
    that classifies the same labelled graph.
    """

    kind: str           # "Dynkin" | "Euclidean" | "Other"
    family: str = None  # "A" | "D" | "E" | None
    index: int = None   # diagram subscript, None for Other

    @property
    def label(self):
        if self.kind == "Dynkin":
            return f"{self.family}{self.index}"
        if self.kind == "Euclidean":
            return f"~{self.family}{self.index}"
        return "Other"

    def __repr__(self):
        return f"GraphType({self.label})"


def _arm_lengths(center, mult, deg, n):
    # walk away from the unique branch vertex until each arm ends in a leaf
    arms = []
    for j in range(n):
        if not mult[center][j]:
            continue
        length = 1
        prev, cur = center, j
        while deg[cur] == 2:
            nxt = next(k for k in range(n) if mult[cur][k] and k != prev)
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    return sorted(arms)


def _structural_shape(n, m, loops, mult, deg):
    if sum(loops):
        if n == 1 and m == 1:
            return GraphType("Euclidean", "A", 0)
        return GraphType("Other")
    if any(mult[i][j] >= 2 for i in range(n) for j in range(i + 1, n)):
        if n == 2 and m == 2:
            return GraphType("Euclidean", "A", 1)
        return GraphType("Other")
    if m >= n:
        if m == n and all(d == 2 for d in deg):
            return GraphType("Euclidean", "A", n - 1)
        return GraphType("Other")
    # connected with m == n - 1: a tree
    branch = [i for i in range(n) if deg[i] >= 3]
    if not branch:
        return GraphType("Dynkin", "A", n)
    if len(branch) == 1:
        c = branch[0]
        arms = _arm_lengths(c, mult, deg, n)
        if deg[c] == 3:
            if arms[0] == 1 and arms[1] == 1:
                return GraphType("Dynkin", "D", n)
            if arms == [1, 2, 2]:
                return GraphType("Dynkin", "E", 6)
            if arms == [1, 2, 3]:
                return GraphType("Dynkin", "E", 7)
            if arms == [1, 2, 4]:
                return GraphType("Dynkin", "E", 8)
            if arms == [2, 2, 2]:
                return GraphType("Euclidean", "E", 6)
            if arms == [1, 3, 3]:
                return GraphType("Euclidean", "E", 7)
            if arms == [1, 2, 5]:
                return GraphType("Euclidean", "E", 8)
            return GraphType("Other")
        if deg[c] == 4 and arms == [1, 1, 1, 1]:
            return GraphType("Euclidean", "D", 4)
        return GraphType("Other")
    if len(branch) == 2 and all(deg[i] == 3 for i in branch):
        u, w = branch
        leaves = [i for i in range(n) if deg[i] == 1]
        near_u = sum(1 for i in leaves if mult[u][i])
        near_w = sum(1 for i in leaves if mult[w][i])
        if len(leaves) == 4 and near_u == 2 and near_w == 2:
            return GraphType("Euclidean", "D", n - 1)
    return GraphType("Other")


def graph_type(vertices, edges):
    """Classify a connected multigraph; edges are unordered endpoint pairs.

    Loops repeat their vertex.  The structural verdict is cross-checked
    against the sign behaviour of the associated quadratic form (positive
    definite for Dynkin, semidefinite with radical for Euclidean, indefinite
    otherwise); a disagreement raises QsaError.

    The graph is first normalised to its vertex count and the sorted pairs
    of vertex indices, one per edge, and the shape of that key is memoised
    in a bounded cache: the witness search classifies the same few hundred
    labelled graphs thousands of times.  The shape is a pure function of
    the key, so a cached answer has passed the same cross-check; a
    disagreement is never cached and raises on every call.
    """
    try:
        idx = {v: i for i, v in enumerate(dict.fromkeys(vertices))}
    except TypeError:
        raise QsaError("graph vertices must be hashable") from None
    if not idx:
        raise QsaError("graph shape needs at least one vertex")
    pairs = []
    for e in edges:
        if not isinstance(e, (tuple, list)) or len(e) != 2:
            raise QsaError(f"edge {e!r} is not a pair of vertices")
        try:
            i, j = idx[e[0]], idx[e[1]]
        except (KeyError, TypeError):
            raise QsaError(f"edge {e!r} has an endpoint outside the vertex list") from None
        pairs.append((i, j) if i <= j else (j, i))
    pairs.sort()
    return _indexed_graph_type(len(idx), tuple(pairs))


@lru_cache(maxsize=1024)
def _indexed_graph_type(n, pairs):
    # n vertices 0..n-1; pairs is the sorted tuple of (i, j), i <= j, one
    # per edge, so a loop is (i, i)
    loops = [0] * n
    mult = [[0] * n for _ in range(n)]
    deg = [0] * n
    for i, j in pairs:
        if i == j:
            loops[i] += 1
            deg[i] += 2
        else:
            mult[i][j] += 1
            mult[j][i] += 1
            deg[i] += 1
            deg[j] += 1
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j not in seen and mult[i][j]:
                seen.add(j)
                stack.append(j)
    if len(seen) != n:
        raise QsaError("graph shape recognition needs a connected graph")

    shape = _structural_shape(n, len(pairs), loops, mult, deg)

    # twice the Gram matrix of the Tits form, over the integers
    gram2 = [[-mult[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        gram2[i][i] = 2 - 2 * loops[i]
    psd, pd = psd_flags(gram2)
    expected = "Dynkin" if pd else ("Euclidean" if psd else "Other")
    if shape.kind != expected:
        raise QsaError(
            f"graph shape {shape.label} disagrees with the form sign test ({expected})")
    return shape


# --- cover balls ---------------------------------------------------------------


class CoverBall:
    """A radius-r ball of the universal cover around a basepoint.

    Cover vertices are reduced walks from the basepoint, named by their step
    sequence (a trailing ' marks a reversed step); cover arrows are named
    base_arrow@source_vertex.  The underlying graph is a tree, and the
    projection maps send the ball back onto the base presentation.

    The ball is built as plain arrays, its vertices indexed in `natural_key`
    order: names, levels, projected base vertices, the arrows (source index,
    target index, base arrow) in the order the breadth-first walk made them,
    per vertex its out-arrows (target index, base arrow), and the vertex
    indices in the order the walk reached them, which the maps keep.  The
    witness search reads only the first five; the cover arrow names, the
    presentation `cover` and the three maps are built on first use.
    The base must be a connected monomial presentation with a certified
    admissible ideal, the basepoint one of its vertices and the radius an
    integer of at least 0; anything else is refused with a QsaError.
    """

    def __init__(self, base, basepoint, radius):
        if not isinstance(base, AlgebraPresentation):
            raise QsaError("truncated_cover needs an AlgebraPresentation")
        if not base.is_monomial:
            raise QsaError("covers are only built for monomial presentations")
        if not isinstance(radius, int):
            raise QsaError(f"cover radius must be an integer, got {radius!r}")
        if radius < 0:
            raise QsaError("cover radius must be >= 0")
        if not base.quiver.has_vertex(basepoint):
            raise QsaError(f"unknown basepoint {basepoint!r}")
        report = validate(base)
        if not report.connected:
            raise QsaError("cover construction needs a connected quiver")
        if not (report.certified and report.admissible):
            raise QsaError("cover construction needs a certified admissible ideal")
        self.base = base
        self.basepoint = basepoint
        self.radius = radius
        (self._names, self._levels, self._proj, self._edges, self._out,
         self._reached) = _ball_arrays(base.quiver, basepoint, radius)

    @cached_property
    def _arrow_names(self):
        """(source index, base arrow) -> cover arrow name, in walk order.

        An arrow is named base_arrow@source_vertex, claimed in the order the
        walk made the arrows, so a name that two arrows share gets its ~
        suffixes in walk order.  A source and a base arrow pick out one
        cover arrow, since each base arrow lifts once at each vertex."""
        names = self._names
        taken = set()
        return {(s, b): _claim(taken, b + "@" + names[s]) for s, _, b in self._edges}

    @cached_property
    def vertex_map(self):
        """cover vertex -> base vertex"""
        return {self._names[i]: self._proj[i] for i in self._reached}

    @cached_property
    def arrow_map(self):
        """cover arrow -> base arrow"""
        return {c: b for (_, b), c in self._arrow_names.items()}

    @cached_property
    def level(self):
        """cover vertex -> walk length"""
        return {self._names[i]: self._levels[i] for i in self._reached}

    @cached_property
    def cover(self):
        """The ball as a presentation: every relation generator whose whole
        lifted path fits inside the ball is a relation."""
        names = self._names
        at = self._arrow_names
        relations = []
        for mono in self.base.monomials:
            for v in range(len(names)):
                walk = _lift(self._out, v, mono)
                if walk is not None:
                    relations.append([(1, [at[s, b] for s, b in zip(walk, mono)])])
        arrows = [Arrow(at[s, b], names[s], names[t]) for s, t, b in self._edges]
        cname = f"{self.base.quiver.name}@{self.basepoint}.r{self.radius}"
        return AlgebraPresentation(Quiver(cname, names, arrows), relations)

    def __repr__(self):
        return (f"CoverBall({self.base.name!r} at {self.basepoint!r}, "
                f"radius {self.radius}, {len(self._names)} vertices)")


def _claim(taken, name):
    while name in taken:
        name += "~"
    taken.add(name)
    return name


def _lift(out, v, path):
    """The source vertex of each arrow of the path from vertex v that
    projects onto the base arrows `path`, or None when it leaves the ball."""
    walk = []
    for b in path:
        for t, b2 in out[v]:
            if b2 == b:
                walk.append(v)
                v = t
                break
        else:
            return None
    return walk


@lru_cache(maxsize=1024)
def _step_key(step):
    # the natural_key parts of a walk step ".arrow" or ".arrow'", split as
    # (text of the leading part, the parts after it); the step starts with
    # ".", so its leading part is text
    parts = natural_key.__wrapped__(step)[:-1]
    return parts[0][2], parts[1:]


def _ball_arrays(q, base, radius):
    """(names, levels, projections, arrows, out-arrows, walk order) of the
    radius-r ball of quiver q at `base`; see `CoverBall`.  The walk order
    lists the vertex indices in the order the walk reached them."""
    key = natural_key.__wrapped__   # uncached: no ball evicts the shared cache
    taken = {base}
    names = [base]
    keys = [key(base)]
    levels = [0]
    proj = [base]
    last = [None]   # (base arrow, direction) of the step that reached a vertex
    edges = []
    frontier = [0]
    for depth in range(1, radius + 1):
        nxt = []
        for w in frontier:
            u, wname, back = proj[w], names[w], last[w]
            # a child's name is its parent's plus a step, so its key is the
            # parent's parts plus the step's, closed by (-1, name); the
            # step's leading text part joins a text part that ends the
            # parent's parts
            wkey = keys[w]
            if wkey[-2][0]:
                head, tail = wkey[:-2], wkey[-2][2]
            else:
                head, tail = wkey[:-1], ""
            for arrows, sign, tick in ((q.out_arrows(u), 1, ""), (q.in_arrows(u), -1, "'")):
                for ar in arrows:
                    if back == (ar.name, -sign):
                        continue
                    step = "." + ar.name + tick
                    k = len(names)
                    vid = wname + step
                    if vid in taken:   # renamed by _claim, so keyed in full
                        vid = _claim(taken, vid)
                        keys.append(key(vid))
                    else:
                        taken.add(vid)
                        text, rest = _step_key(step)
                        keys.append(head + ((1, 0, tail + text),) + rest + ((-1, vid),))
                    names.append(vid)
                    levels.append(depth)
                    if sign > 0:
                        proj.append(ar.target)
                        edges.append((w, k, ar.name))
                    else:
                        proj.append(ar.source)
                        edges.append((k, w, ar.name))
                    last.append((ar.name, sign))
                    nxt.append(k)
        frontier = nxt

    # reindex in name order: the derived keys equal natural_key's, so this
    # is sorted(names, key=natural_key), with no name split again
    order = sorted(range(len(names)), key=keys.__getitem__)
    del keys   # they copy the names' text: free them before the arrays grow
    pos = [0] * len(order)
    for i, k in enumerate(order):
        pos[k] = i
    edges = [(pos[s], pos[t], b) for s, t, b in edges]
    out = [[] for _ in order]
    for s, t, b in edges:
        out[s].append((t, b))
    return (tuple(names[k] for k in order), [levels[k] for k in order],
            [proj[k] for k in order], edges, out, pos)


def truncated_cover(a, base, radius):
    """Materialize the radius-r ball of the universal cover at a basepoint."""
    ball = CoverBall(a, base, radius)
    ball.cover   # built and checked now, not on first read
    return ball


# --- wildness witness search ----------------------------------------------------


class WildWitness:
    """A wildness certificate extracted from a cover ball.

    The chosen ball vertices span a full subcategory whose nonzero morphisms
    are the recorded relation-free directed cover paths; every composable
    pair of those dies against a lifted relation, so the subcategory is
    radical-square-zero over a graph that is neither Dynkin nor Euclidean.
    """

    def __init__(self, ball, vertices, presentation, shape, pairs, note):
        self.ball = ball              # its presentation is built on first read
        self.basepoint = ball.basepoint
        self.radius = ball.radius
        self.vertices = tuple(vertices)
        self.presentation = presentation
        self.shape = shape
        self.pairs = tuple(pairs)     # (from, to, cover arrow names) per arrow
        self.note = note

    def __repr__(self):
        return (f"WildWitness({len(self.vertices)} vertices, "
                f"shape {self.shape.label})")

    def to_payload(self):
        """Plain-data dict for JSON output."""
        return {
            "basepoint": self.basepoint,
            "radius": self.radius,
            "vertices": list(self.vertices),
            "shape": self.shape.label,
            "presentation": serialize_presentation(self.presentation),
            "paths": [[u, v, list(names)] for u, v, names in self.pairs],
            "note": self.note,
        }


class _Budget(Exception):
    pass


def find_wild_witness(a, radius=None, max_size=None, like=None):
    """Search cover balls for a wildness witness; None when none is found.

    Basepoints are tried in vertex order, ball vertices in `natural_key`
    order of the walk names, and subsets grown by rooted expansion, so the
    first hit is deterministic.
    Each ball is searched as the plain arrays of `CoverBall`: a directed
    path in the ball is relation-free when no suffix of its projection is a
    base relation, and only the witness found becomes a presentation.
    Each subset is grown from a valid one by a single vertex, so only the
    new vertex's surviving paths are checked, plus the union of the
    interiors of the paths already in the subset; each valid subset of four
    or more vertices is classified by one `graph_type` call, whose bounded
    memo makes repeated graph shapes cheap (a connected simple graph on at
    most three vertices is never Other).  The first witness found is not
    the only one in the ball; passing a target presentation as `like` keeps
    the same enumeration but only accepts witnesses isomorphic to the
    target.  Absence within the bounds proves nothing; a returned witness is
    a complete certificate.  A radius or size that is not an int, or is
    negative, is refused; a size below 2 finds nothing.
    QSA_WITNESS_RADIUS, QSA_WITNESS_SIZE and QSA_WITNESS_BUDGET override the
    defaults.
    """
    return _witness_search(a, radius, max_size, like)[0]


def _witness_search(a, radius=None, max_size=None, like=None):
    """(witness or None, budget_hit): budget_hit is True when the search of
    some ball ran out of budget, so a None does not cover the bounds."""
    if radius is None:
        radius = _env_int("QSA_WITNESS_RADIUS", DEFAULT_WITNESS_RADIUS)
    if max_size is None:
        max_size = _env_int("QSA_WITNESS_SIZE", DEFAULT_WITNESS_SIZE)
    budget = _env_int("QSA_WITNESS_BUDGET", DEFAULT_WITNESS_BUDGET)
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("the wildness witness search needs an AlgebraPresentation")
    if not a.is_monomial:
        raise QsaError("the wildness witness search needs a monomial presentation")
    if like is not None and not isinstance(like, AlgebraPresentation):
        raise QsaError("the witness target must be an AlgebraPresentation")
    if not isinstance(radius, int):
        raise QsaError(f"cover radius must be an integer, got {radius!r}")
    if not isinstance(max_size, int):
        raise QsaError(f"witness size must be an integer, got {max_size!r}")
    if radius < 0:
        raise QsaError("cover radius must be >= 0")
    if max_size < 0:
        raise QsaError("witness size must be >= 0")
    if max_size < 2:
        return None, False
    budget_hit = False
    for base in a.quiver.vertices:
        ball = CoverBall(a, base, radius)
        try:
            found = _search_ball(ball, max_size, budget, like)
        except _Budget:
            budget_hit = True
            continue
        if found is not None:
            return found, budget_hit
    return None, budget_hit


def _survival(ball, budget):
    """All ordered pairs joined by a relation-free directed cover path.

    Returns (pairs, steps) where pairs maps (i, j) to (interior mask, base
    arrow names of the path).  Paths in a tree are geodesics, so each pair
    carries exactly one path and a path between ball vertices never leaves
    the ball.  Every suffix of such a path lies in the ball too, so the
    suffix is a lifted relation exactly when its projection is a base
    relation: the base presentation answers the relation test.
    """
    ends_in_relation = ball.base.ends_in_relation
    out = ball._out
    pairs = {}
    steps = 0
    for u in range(len(out)):
        stack = [(u, (), 0)]
        while stack:
            v, names, imask = stack.pop()
            for t, b in out[v]:
                names2 = names + (b,)
                if ends_in_relation(names2):
                    continue
                steps += 1
                if steps > budget:
                    raise _Budget()
                imask2 = imask | (1 << v if v != u else 0)
                pairs[(u, t)] = (imask2, names2)
                stack.append((t, names2, imask2))
    return pairs, steps


def _assemble(ball, pairs, members, arcs, shape):
    # members come sorted by vertex index; each arc (i, j) is a surviving
    # pair, whose path is lifted back to cover arrows from i
    names = ball._names
    taken = set()
    arrows = []
    realized = []
    for i, j in sorted(arcs):
        path = pairs[(i, j)][1]
        arrows.append(Arrow(_claim(taken, "*".join(path)), names[i], names[j]))
        walk = _lift(ball._out, i, path)
        realized.append((names[i], names[j],
                         tuple(ball._arrow_names[s, b] for s, b in zip(walk, path))))
    verts = [names[i] for i in members]
    quiver = Quiver(f"{ball.base.quiver.name}.witness@{ball.basepoint}", verts, arrows)
    rels = [[(1, [p.name, r.name])]
            for p in arrows for r in arrows if p.target == r.source]
    pres = AlgebraPresentation(quiver, rels)
    note = (f"ball around {ball.basepoint!r} at radius {ball.radius}: "
            f"{len(verts)} vertices whose surviving directed paths avoid the "
            f"set in their interiors; every composite of two such paths dies "
            f"against a lifted relation, giving a radical-square-zero full "
            f"subcategory over a graph that is neither Dynkin nor Euclidean")
    return WildWitness(ball, verts, pres, shape, realized, note)


def _search_ball(ball, max_size, budget, like=None):
    pairs, used = _survival(ball, budget)
    n = len(ball._names)
    adj = [0] * n
    link = [{} for _ in range(n)]   # link[i][j]: the surviving pair at i and j
    for arc, (imask, _) in pairs.items():
        i, j = arc
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        link[i][j] = link[j][i] = (arc, imask)
    want = None if like is None else len(like.quiver.vertices)

    remaining = budget - used
    result = None

    def extend(blocked, mask, i):
        # a subset is valid when no surviving pair's geodesic interior meets
        # it; then its full subcategory is radical-square-zero with one arrow
        # per surviving pair.  The members are valid and `blocked` is the
        # union of their arcs' interiors, so adding i keeps the subset valid
        # unless i is blocked or an arc at i passes through the new mask.
        # Returns i's arcs and the new union, or None when invalid.
        if blocked >> i & 1:
            return None
        new = []
        at = link[i]
        touch = adj[i] & mask   # the members paired with i
        while touch:
            b = touch & -touch
            touch ^= b
            arc, imask = at[b.bit_length() - 1]
            if imask & mask:
                return None
            blocked |= imask
            new.append(arc)
        return new, blocked

    def witness(members, arcs):
        # a valid subset is a witness when its graph is neither Dynkin nor
        # Euclidean; the graph is classified on vertex indices
        if want is not None and len(members) != want:
            return None
        shape = graph_type(members, arcs)
        if shape.kind != "Other":
            return None
        wit = _assemble(ball, pairs, members, arcs, shape)
        if like is not None and presentations_isomorphic(wit.presentation, like) is None:
            return None   # a certificate, but not the requested shape
        return wit

    def enum(members, arcs, blocked, mask, cand, ban):
        nonlocal remaining, result
        while cand:
            if result is not None:
                return
            b = cand & -cand
            cand ^= b
            i = b.bit_length() - 1
            remaining -= 1
            if remaining <= 0:
                raise _Budget()
            nm = mask | b
            ext = extend(blocked, nm, i)
            if ext is not None:
                new, grown_blocked = ext
                grown = members[:]
                insort(grown, i)
                grown_arcs = arcs + new   # graph_type sorts the pairs itself
                # a subset's graph is simple: a tree holds at most one
                # directed geodesic per unordered pair, and none from a
                # vertex to itself.  A connected simple graph on at most 3
                # vertices is A2, A3 or ~A2, never Other, so only subsets
                # of 4 or more vertices are classified
                if len(grown) >= 4:
                    result = witness(grown, grown_arcs)
                    if result is not None:
                        return
                if len(grown) < max_size:
                    grow = adj[i] & ~nm & ~ban & ~cand & allowed
                    enum(grown, grown_arcs, grown_blocked, nm, cand | grow, ban)
            ban |= b

    for root in range(n):
        if result is not None:
            break
        allowed = ~((1 << (root + 1)) - 1)   # strictly above the root index
        # a directed path in the cover tree never returns to its start, so a
        # single vertex is always valid
        enum([root], [], 0, 1 << root, adj[root] & allowed, 0)

    return result


# --- local wild patterns ---------------------------------------------------------


class PatternReport:
    """A matched local configuration that forces derived wildness."""

    def __init__(self, kind, vertices, arrows, note):
        self.kind = kind            # "two-cycle" | "fork-tail"
        self.vertices = tuple(vertices)
        self.arrows = dict(arrows)
        self.note = note

    def __repr__(self):
        return f"PatternReport({self.kind} at {self.vertices})"

    def to_payload(self):
        """Plain-data dict for JSON output."""
        return {
            "kind": self.kind,
            "vertices": list(self.vertices),
            "arrows": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in self.arrows.items()},
            "note": self.note,
        }


def _two_cycle_pattern(a):
    q = a.quiver
    mono = a.monomials
    for alpha in q.arrows:
        for gamma in q.arrows:
            if gamma.source != alpha.target or gamma.target != alpha.source:
                continue
            if (alpha.name, gamma.name) not in mono:
                continue
            if (gamma.name, alpha.name) not in mono:
                continue
            for beta in q.arrows:
                if beta.name == alpha.name:
                    continue
                if beta.target == alpha.target and (beta.name, gamma.name) in mono:
                    return PatternReport(
                        "two-cycle",
                        (alpha.source, alpha.target, beta.source),
                        {"forward": alpha.name, "backward": gamma.name,
                         "extra": beta.name, "side": "in"},
                        f"two-cycle {alpha.name}/{gamma.name} with both "
                        f"composites dead and a third arrow {beta.name} into "
                        f"{alpha.target!r} whose composite with {gamma.name} dies")
                if beta.source == alpha.source and (gamma.name, beta.name) in mono:
                    return PatternReport(
                        "two-cycle",
                        (alpha.source, alpha.target, beta.target),
                        {"forward": alpha.name, "backward": gamma.name,
                         "extra": beta.name, "side": "out"},
                        f"two-cycle {alpha.name}/{gamma.name} with both "
                        f"composites dead and a third arrow {beta.name} out of "
                        f"{alpha.source!r} whose composite after {gamma.name} dies")
    return None


def _grow_tail(q, mono, fork_arrows, fork_verts, start, length):
    # depth-first search for an injective undirected walk with every
    # composable pair among the patch arrows dead
    def dead_pairs(arrs):
        for p in arrs:
            for r in arrs:
                if p.target == r.source and (p.name, r.name) not in mono:
                    return False
        return True

    best = None

    def dfs(v, used, tail):
        nonlocal best
        if best is not None:
            return
        if len(tail) == length:
            if dead_pairs(fork_arrows + [t[0] for t in tail]):
                best = tuple(tail)
            return
        for ar in q.out_arrows(v):
            if ar.target not in used:
                dfs(ar.target, used | {ar.target}, tail + [(ar, 1)])
        for ar in q.in_arrows(v):
            if ar.source not in used:
                dfs(ar.source, used | {ar.source}, tail + [(ar, -1)])

    dfs(start, set(fork_verts), [])
    return best


def _fork_tail_pattern(a):
    q = a.quiver
    mono = a.monomials
    for x in q.vertices:
        ins = q.in_arrows(x)
        outs = q.out_arrows(x)
        if len(ins) < 2 or len(outs) < 2:
            continue
        for alpha, beta in combinations(ins, 2):
            for gamma, delta in combinations(outs, 2):
                needed = [(alpha.name, gamma.name), (alpha.name, delta.name),
                          (beta.name, gamma.name), (beta.name, delta.name)]
                if not all(p in mono for p in needed):
                    continue
                fork = [alpha.source, beta.source, x, gamma.target, delta.target]
                if len(set(fork)) != 5:
                    continue
                fork_arrows = [alpha, beta, gamma, delta]
                for outer in (alpha.source, beta.source, gamma.target, delta.target):
                    tail = _grow_tail(q, mono, fork_arrows, set(fork), outer, 5)
                    if tail is None:
                        continue
                    walk = [outer]
                    for ar, sgn in tail:
                        walk.append(ar.target if sgn > 0 else ar.source)
                    return PatternReport(
                        "fork-tail",
                        tuple(fork) + tuple(walk[1:]),
                        {"fork_in": (alpha.name, beta.name),
                         "fork_out": (gamma.name, delta.name),
                         "attach": outer,
                         "tail": tuple((ar.name, sgn) for ar, sgn in tail)},
                        f"fork at {x!r} with all four composites dead and an "
                        f"injective length-5 tail at {outer!r}; every "
                        f"composable pair among the nine patch arrows dies, "
                        f"so the patch lifts to a radical-square-zero tree "
                        f"subcategory of the cover")
    return None


def detect_local_wild_pattern(a):
    """Scan for the two local configurations that force derived wildness.

    Pattern "two-cycle": arrows f: u -> v and g: v -> u with fg and gf dead,
    plus a third arrow at u or v whose composite with g dies.  Pattern
    "fork-tail": a vertex with two in- and two out-arrows, all four
    composites dead, carrying an injective radical-square-zero tail of
    length 5 at one of its four outer vertices.  Returns the first match in
    deterministic order, or None.
    """
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("local wildness patterns need an AlgebraPresentation")
    if not a.is_monomial:
        raise QsaError("local wildness patterns are defined for monomial presentations")
    report = validate(a)
    if not (report.certified and report.admissible):
        raise QsaError("local wildness patterns need a certified admissible ideal")
    return _two_cycle_pattern(a) or _fork_tail_pattern(a)
