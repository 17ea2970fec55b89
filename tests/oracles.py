"""Independent oracles and input generators for the test suite.

Everything here recomputes expected values by a different route than the
library: the Euler matrix comes from inverting the Cartan matrix by
substitution (and, for quadratic relations, from arrow chains), sign tests
come from sympy's exact rational arithmetic (and the witness of a symmetric
form from a congruence elimination over Fraction, carrying every basis
row), non-monomial quotients come from ranks and row echelon forms of
the spans of relation translates, and the tree/multigraph generators are
plain combinatorics.
"""

import math
import re
from fractions import Fraction
from itertools import islice

import sympy

from qsa.presentation import (
    Arrow, Quiver, AlgebraPresentation, QsaError, natural_key, validate, _GroebnerBasis,
    _relation_free_levels,
)
from qsa._linalg import reduce_vec, rref
from qsa.classify import special_vertices


# --- Ext oracle for acyclic quadratic monomial presentations -----------------


def chain_chi(a):
    """Alternating Ext dimension sums between simples, by chain counting.

    For a quadratic monomial presentation the minimal projective resolution
    of the simple at i is indexed by paths a1..ak from i whose consecutive
    products all lie in the ideal, so dim Ext^k(S_i, S_j) counts those
    chains ending at j.  Returns (vertex order, matrix of column sums).
    """
    q = a.quiver
    dead = {r.terms[0][1] for r in a.relations}
    verts = list(q.vertices)
    idx = {v: k for k, v in enumerate(verts)}
    n = len(verts)
    chi = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        chi[k][k] = Fraction(1)

    sign = -1
    frontier = {(ar.name,): (ar.source, ar.target) for ar in q.arrows}
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > 2 * (n + len(q.arrows)) + 2:
            raise AssertionError("chain extension did not terminate")
        for names, (s, t) in frontier.items():
            chi[idx[s]][idx[t]] += sign
        grown = {}
        for names, (s, t) in frontier.items():
            last = names[-1]
            for ar in q.out_arrows(t):
                if (last, ar.name) in dead:
                    grown[names + (ar.name,)] = (s, ar.target)
        frontier = grown
        sign = -sign
    return verts, chi


def substitution_euler(a):
    """E = C^-T of an acyclic monomial presentation, dense, with int entries,
    from the relation-free path counts of `qsa.euler.cartan_matrix`.

    C[t][s] counts the paths s -> t, so C is lower unitriangular in a
    topological order.  Row i of E is the x with C x = e_i: in topological
    order from vertex i, x_t is what is left at t once every earlier x_s
    has been subtracted along the paths s -> t.
    """
    from qsa.euler import cartan_matrix
    c = cartan_matrix(a)
    vs = c.vertices
    n = len(vs)
    idx = {v: k for k, v in enumerate(vs)}
    into = [0] * n
    for ar in a.quiver.arrows:
        into[idx[ar.target]] += 1
    order = [k for k in range(n) if not into[k]]
    for s in order:  # Kahn: a vertex joins once all its arrows in are passed
        for ar in a.quiver.out_arrows(vs[s]):
            t = idx[ar.target]
            into[t] -= 1
            if not into[t]:
                order.append(t)
    rows = []
    for i in range(n):
        x = [0] * n
        rest = [0] * n
        rest[i] = 1
        for s in order:
            if rest[s]:
                x[s] = rest[s]
                for t in range(n):
                    if t != s:
                        rest[t] -= c.entries[t][s] * x[s]
        rows.append(x)
    return vs, rows


def chi_form_value(a, order, x):
    """Quadratic form value at x from the Ext oracle, x ordered by `order`."""
    verts, chi = chain_chi(a)
    pos = {v: k for k, v in enumerate(verts)}
    total = Fraction(0)
    for i, u in enumerate(order):
        for j, w in enumerate(order):
            total += Fraction(x[i]) * Fraction(x[j]) * chi[pos[u]][pos[w]]
    return total


# --- exact sign tests via sympy -----------------------------------------------


def sympy_matrix(rows):
    return sympy.Matrix([
        [sympy.Rational(x.numerator, x.denominator) for x in row]
        for row in rows
    ])


def sympy_psd(rows):
    """(positive semidefinite, positive definite) for a rational symmetric matrix."""
    m = sympy_matrix(rows)
    pd = bool(m.is_positive_definite)
    psd = pd or bool(m.is_positive_semidefinite)
    return psd, pd


def fraction_congruence(sym):
    """(semidefinite, definite, witness) by congruence elimination over Fraction.

    The reference for `qsa._linalg._congruence`, which runs the same pivot
    rule fraction-free on integers: pivot on the first positive diagonal
    entry of the unpivoted rows and clear its row and column; a negative
    diagonal entry gives that row's basis vector, a zero diagonal block
    with a nonzero off-diagonal entry the difference or sum of two basis
    vectors.  Witnesses are scaled by the lcm of their denominators.  Here
    every basis row is carried along; the library keeps none, and rebuilds
    only the witness from its pivot rows once it needs one.
    """
    n = len(sym)
    a = [[Fraction(x) for x in row] for row in sym]
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def primitive(v):
        scale = math.lcm(*(x.denominator for x in v))
        return [int(x * scale) for x in v]

    remaining = list(range(n))
    while remaining:
        neg = next((k for k in remaining if a[k][k] < 0), None)
        if neg is not None:
            return False, False, primitive(basis[neg])
        pos = next((k for k in remaining if a[k][k] > 0), None)
        if pos is None:
            for j in remaining:
                for l in remaining:
                    if l > j and a[j][l]:
                        s = 1 if a[j][l] > 0 else -1
                        v = [basis[j][t] - s * basis[l][t] for t in range(n)]
                        return False, False, primitive(v)
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


def tits_gram(vertices, edges):
    """Gram matrix of the graph form: 1 on the diagonal, -1/2 per edge side,
    loops subtract a full unit from their diagonal entry."""
    idx = {v: k for k, v in enumerate(vertices)}
    n = len(vertices)
    g = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        g[k][k] = Fraction(1)
    for u, v in edges:
        i, j = idx[u], idx[v]
        if i == j:
            g[i][i] -= 1
        else:
            g[i][j] -= Fraction(1, 2)
            g[j][i] -= Fraction(1, 2)
    return g


def sympy_graph_kind(vertices, edges):
    psd, pd = sympy_psd(tits_gram(vertices, edges))
    if pd:
        return "Dynkin"
    if psd:
        return "Euclidean"
    return "Other"


# --- tree and multigraph generators --------------------------------------------

TREE_SHAPES = [
    [],
    [(0, 1)],
    [(0, 1), (1, 2)],
    [(0, 1), (1, 2), (2, 3)],
    [(0, 1), (0, 2), (0, 3)],
    [(0, 1), (1, 2), (2, 3), (3, 4)],
    [(0, 1), (0, 2), (0, 3), (3, 4)],
    [(0, 1), (0, 2), (0, 3), (0, 4)],
]

# the six trees on six vertices: A6, E6, D6, the four-arm star with one arm
# of length two, the extended D5 and the five-arm star; the last three carry
# wild hereditary algebras, so their forms are where negative vectors live
SIX_VERTEX_TREE_SHAPES = [
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)],
    [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5)],
    [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)],
    [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
]


def oriented_trees(shapes=TREE_SHAPES):
    """Every tree of `shapes` (default: every unlabeled tree on at most 5
    vertices), every arrow orientation."""
    out = []
    for edges in shapes:
        n = max((max(e) for e in edges), default=0) + 1
        verts = [str(i + 1) for i in range(n)]
        for mask in range(1 << len(edges)):
            arrows = []
            for k, (u, v) in enumerate(edges):
                s, t = ((u, v), (v, u))[(mask >> k) & 1]
                arrows.append(Arrow(f"e{k + 1}", verts[s], verts[t]))
            out.append(Quiver(f"tree{len(out)}", verts, arrows))
    return out


def quadratic_ideals(q, max_relations=2):
    """All sets of at most max_relations composable arrow pairs of q."""
    pairs = [(a.name, b.name) for a in q.arrows for b in q.arrows
             if a.target == b.source]
    yield ()
    for i, p in enumerate(pairs):
        yield (p,)
        if max_relations >= 2:
            for r in pairs[i + 1:]:
                yield (p, r)


def tree_presentations(shapes=TREE_SHAPES, max_relations=2):
    """Every monomial presentation on the oriented trees of `shapes` with at
    most max_relations quadratic relations (default: <= 5 vertices, <= 2)."""
    for q in oriented_trees(shapes):
        for ideal in quadratic_ideals(q, max_relations):
            rels = [[(1, list(p))] for p in ideal]
            yield AlgebraPresentation(q, rels)


def random_multigraph(rng, max_vertices=9, max_edges=10):
    """A connected multigraph: random attachment tree plus extra edges,
    parallel edges and the occasional loop allowed."""
    n = rng.randint(1, max_vertices)
    verts = [str(i + 1) for i in range(n)]
    edges = []
    for k in range(1, n):
        edges.append((verts[rng.randrange(k)], verts[k]))
    room = max(0, max_edges - len(edges))
    for _ in range(rng.randint(0, rng.choice((0, 1, 2, room)))):
        u = verts[rng.randrange(n)]
        if rng.random() < 0.08:
            edges.append((u, u))
        else:
            edges.append((u, verts[rng.randrange(n)]))
    return verts, edges


def chain_text(n):
    """The text of A_n, arrows a1: 1 -> 2, ..., a(n-1): n-1 -> n."""
    return ("quiver chain\nvertices: " + " ".join(map(str, range(1, n + 1))) + "\n"
            + "".join(f"arrow a{i}: {i} -> {i + 1}\n" for i in range(1, n)))


def loose_loop_text():
    """Four vertices whose loop a2 has no relation, so a2 a2 ... never
    dies: the ideal is not admissible."""
    return ("quiver loose-loop\nvertices: 1 2 3 4\narrow a0: 4 -> 1\n"
            "arrow a1: 2 -> 1\narrow a2: 2 -> 2\narrow a3: 1 -> 3\n"
            "relations:\na0 a3\na1 a3\na2 a1\n")


def wild_tail_text(n=1200):
    """A_n, arrows i -> i + 1, with three leaves x1, x2, x3 on vertex n: a
    star with four arms, one of them long, so wild."""
    return (f"quiver tail{n}\nvertices: " + " ".join(map(str, range(1, n + 1)))
            + " x1 x2 x3\n" + "".join(f"arrow a{i}: {i} -> {i + 1}\n" for i in range(1, n))
            + "".join(f"arrow b{k}: {n} -> x{k}\n" for k in (1, 2, 3)))


def deep_tree_text(n=600):
    """A spine 1 .. n whose arrows run in threes, two forward and one back,
    with a zero relation on the composable pair at every fifth arrow, and
    three leaves y1, y2, y3 on vertex n."""
    arrows = [(f"a{i}",) + ((i, i + 1) if i % 3 else (i + 1, i)) for i in range(1, n)]
    rels = []
    for x, y in zip(arrows, arrows[1:]):
        if int(x[0][1:]) % 5 == 0:
            if x[2] == y[1]:
                rels.append(f"{x[0]} {y[0]}")
            elif y[2] == x[1]:
                rels.append(f"{y[0]} {x[0]}")
    arrows += [("b1", n, "y1"), ("b2", n, "y2"), ("b3", "y3", n)]
    return (f"quiver deep{n}\nvertices: " + " ".join(map(str, range(1, n + 1)))
            + " y1 y2 y3\n" + "".join(f"arrow {a}: {s} -> {t}\n" for a, s, t in arrows)
            + "relations:\n" + "".join(r + "\n" for r in rels))


# --- non-monomial ideals by rank and row echelon form ---------------------------

# The route the library used before its Gröbner normal form: the ideal
# inside each (source, target) block of relation-free paths is spanned by
# the translates x r y of the non-monomial relations, the graded scan ranks
# those spans degree by degree, and an algebra element is reduced against
# an echelon basis of its block.  It shares only the relation-free path
# table with the library.


def ideal_rows(combos, blocks, u, v, index, limit):
    """Rows spanning the relations `combos` inside e_u KQ e_v.

    One row per translate x r y with x in blocks[(u, r.source)], y in
    blocks[(r.target, v)] and len(x) + len(first term of r) + len(y) <
    limit; the row holds the coefficients at the positions `index` gives,
    and translates that hit no indexed path are dropped.  Each block list
    must be ordered by length.
    """
    rows = []
    if not index:
        return rows
    for r in combos:
        rights = blocks.get((r.target, v), ())
        for x in blocks.get((u, r.source), ()):
            room = limit - len(r.terms[0][1]) - len(x)
            for y in rights:
                if len(y) >= room:
                    break
                row = None
                for coef, term in r.terms:
                    i = index.get(x + term + y)
                    if i is not None:
                        if row is None:
                            row = [Fraction(0)] * len(index)
                        row[i] += coef
                if row is not None:
                    rows.append(row)
    return rows


def graded_dimensions(a, cutoff):
    """Dimensions of the graded components, for length-homogeneous ideals.

    Returns (dims, certified_bound) where certified_bound is the first degree
    with dimension zero, or None when the scan hits the cutoff first.
    """
    for r in a.relations:
        if len({len(p) for p in r.paths()}) != 1:
            raise QsaError("graded scan needs length-homogeneous relations")
    combos = [r for r in a.relations if not r.is_monomial]
    dims = {1: len(a.quiver.arrows)}
    blocks = {}
    for d, level in enumerate(islice(_relation_free_levels(a), cutoff + 1)):
        degree = {}
        for src, tgt, path in level:
            blocks.setdefault((src, tgt), []).append(path)
            degree.setdefault((src, tgt), []).append(path)
        if d < 2:
            continue
        dim = 0
        for (u, v), paths in degree.items():
            rows = ideal_rows(combos, blocks, u, v, {p: i for i, p in enumerate(paths)}, d + 1)
            dim += len(paths) - len(rref(rows)[0])
        dims[d] = dim
        if dim == 0:
            return dims, d
    return dims, None


def graded_admissibility(a):
    """(certified, admissible, nilpotency bound, problems) of a cyclic
    non-monomial presentation by the graded scan, up to the cutoff
    max(16, 2·|Q1| + 2) that `validate` uses."""
    problems = []
    try:
        _, stop = graded_dimensions(a, max(16, 2 * len(a.quiver.arrows) + 2))
    except QsaError as e:
        problems.append(str(e))
        stop = None
    if stop is None:
        problems.append("admissibility not certified for this cyclic non-monomial ideal")
        return False, False, 0, tuple(problems)
    return True, True, stop, ()


class RrefAlgebra:
    """Basis paths and products of a certified quotient algebra with
    nilpotency bound `bound`, reduced block by block against an echelon
    basis of the ideal; the same interface as `TruncatedAlgebra`."""

    def __init__(self, a, bound):
        self.bound = bound
        paths = {}
        for level in islice(_relation_free_levels(a), bound):
            for src, tgt, path in level:
                paths.setdefault((src, tgt), []).append(path)
        for block in paths.values():
            block.sort(key=lambda p: (len(p), p))
        combos = [r for r in a.relations if not r.is_monomial]
        self._index, self._basis, self._ideal = {}, {}, {}
        for (u, v), block in paths.items():
            index = self._index[(u, v)] = {p: i for i, p in enumerate(block)}
            if combos:
                rows, pivots = rref(ideal_rows(combos, paths, u, v, index, bound))
                if rows:
                    free = sorted(set(range(len(block))).difference(pivots))
                    self._ideal[(u, v)] = rows, pivots, free
                    block = [block[i] for i in free]
            self._basis[(u, v)] = tuple(block)

    def _reduce(self, key, vec):
        if key not in self._ideal:
            return vec
        rows, pivots, free = self._ideal[key]
        vec = reduce_vec(vec, rows, pivots)
        return [vec[i] for i in free]

    def free_paths(self, u, v):
        return self._basis.get((u, v), ())

    def path_vec(self, u, v, arrows):
        index = self._index.get((u, v), {})
        vec = [Fraction(0)] * len(index)
        i = index.get(tuple(arrows))
        if i is not None:
            vec[i] = Fraction(1)
        return self._reduce((u, v), vec)

    def mult(self, u, v, w, p, q):
        pu = self.free_paths(u, v)
        pw = self.free_paths(v, w)
        idx = self._index.get((u, w), {})
        out = [Fraction(0)] * len(idx)
        for i, ci in enumerate(p):
            for j, cj in enumerate(q):
                k = idx.get(pu[i] + pw[j])
                if k is not None and ci and cj:
                    out[k] += ci * cj
        return self._reduce((u, w), out)


def bound_basis_products(a):
    """{(u, v, w, p, q): {normal word: coefficient}}: the product of every
    normal word p from u to v with every normal word q from v to w of a
    certified admissible presentation, reduced by a Gröbner basis of its
    relations completed afresh and truncated at the nilpotency bound.

    That is the basis `TruncatedAlgebra` read before it shared the one
    `validate` keeps, truncated above its cutoff; for a monomial ideal
    its rules are the monomial relations.  Every normal word q from v is
    a key ((), q) at u = v."""
    bound = validate(a).nilpotency_bound
    basis = _GroebnerBasis(a.quiver, [r.terms for r in a.relations], bound)
    words = [t for level in islice(_relation_free_levels(basis), bound) for t in level]
    return {(u, v, w, p, q): basis.reduce({p + q: Fraction(1)})
            for u, v, p in words for v2, w, q in words if v == v2}


# --- cover ball oracles ---------------------------------------------------------


def interior_vertices(ball):
    """The cover vertices strictly inside a `CoverBall`, where the ball
    looks locally like the base."""
    return tuple(v for v, lv in ball.level.items() if lv < ball.radius)


def relation_free_paths(ball):
    """(i, j) -> (interior vertices, source vertices, base arrows) of the
    directed tree path from i to j, for every path with no window of its
    base arrows among the base monomials; each path is read off the
    undirected tree, not grown step by step."""
    mono = ball.base.monomials
    longest = max(map(len, mono), default=0)
    near = [[] for _ in ball._names]
    for s, t, b in ball._edges:
        near[s].append((t, (s, t, b)))
        near[t].append((s, (s, t, b)))
    paths = {}
    for u in range(len(near)):
        via = {u: None}
        order = [u]
        for v in order:
            for w, edge in near[v]:
                if w not in via:
                    via[w] = (v, edge)
                    order.append(w)
        for j in order[1:]:
            path = []   # (from, to, ball arrow) per step, u to j
            v = j
            while v != u:
                prev, edge = via[v]
                path.append((prev, v, edge))
                v = prev
            path.reverse()
            if any(edge[:2] != (a, c) for a, c, edge in path):
                continue   # some arrow points back towards u
            arrows = tuple(edge[2] for _, _, edge in path)
            if any(arrows[k:k + ln] in mono
                   for ln in range(1, longest + 1) for k in range(len(arrows) - ln + 1)):
                continue
            paths[(u, j)] = ({c for _, c, _ in path[:-1]}, tuple(a for a, _, _ in path),
                             arrows)
    return paths


def _relation_free_pairs(ball):
    # (i, j) -> interior vertices of the relation-free directed path from i to j
    return {pair: inner for pair, (inner, _, _) in relation_free_paths(ball).items()}


def valid_subset_counts(ball, max_size):
    """{size: count} of the valid connected vertex subsets of a `CoverBall`
    with 2 to max_size vertices, by brute force.

    A subset is valid when no relation-free directed path between two of
    its vertices passes through a third; it is connected when those paths
    join it.  Validity passes to subsets, and a connected graph keeps a
    vertex whose removal leaves it connected, so growing the valid
    connected subsets one neighbour at a time, with the full validity test
    on every candidate, reaches each of them.
    """
    pairs = _relation_free_pairs(ball)
    near = [set() for _ in ball._names]
    for i, j in pairs:
        near[i].add(j)
        near[j].add(i)

    def valid(sub):
        return not any(i in sub and j in sub and inner & sub
                       for (i, j), inner in pairs.items())

    level = {frozenset([v]) for v in range(len(near))}
    counts = {}
    for size in range(2, max_size + 1):
        level = {sub | {w} for sub in level for v in sub for w in near[v] - sub
                 if valid(sub | {w})}
        if not level:
            break
        counts[size] = len(level)
    return counts


# --- presentation rebuilding ----------------------------------------------------


def relabel(a, vmap, amap=None, name=None):
    """The same presentation with vertices (and optionally arrows) renamed."""
    q = a.quiver
    amap = amap or {ar.name: ar.name for ar in q.arrows}
    quiver = Quiver(name or q.name,
                    [vmap[v] for v in q.vertices],
                    [Arrow(amap[ar.name], vmap[ar.source], vmap[ar.target])
                     for ar in q.arrows])
    rels = [[(c, [amap[x] for x in path]) for c, path in r.terms]
            for r in a.relations]
    return AlgebraPresentation(quiver, rels)


# --- blow-up / mutation commutation cases ----------------------------------------

_COMMUTE_BASES = [
    """quiver chain4
vertices: 1 2 3 4
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 3 -> 4
""",
    """quiver chain4r
vertices: 1 2 3 4
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 3 -> 4
relations:
b c
""",
    """quiver outstar
vertices: c x y
arrow p: c -> x
arrow q: c -> y
""",
    """quiver instar
vertices: c x y
arrow p: x -> c
arrow q: y -> c
""",
    """quiver join
vertices: 1 2 3 4
arrow a: 1 -> 3
arrow b: 2 -> 3
arrow c: 3 -> 4
relations:
a c
b c
""",
    """quiver chain5
vertices: 1 2 3 4 5
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 3 -> 4
arrow d: 4 -> 5
relations:
b c
""",
    """quiver fork
vertices: 1 2 3 4
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 2 -> 4
""",
]


def _subsets(pool, max_size=2):
    pool = sorted(pool, key=natural_key)
    for i, v in enumerate(pool):
        yield (v,)
        if max_size >= 2:
            for w in pool[i + 1:]:
                yield (v, w)


def commuting_mutation_cases(extra_bases=()):
    """(presentation, blown vertices, mutation vertex, sign) quadruples.

    The side condition for the commutation law: the mutation vertex is a
    sink (sign minus) or source (plus) outside the blown set, and no blown
    vertex sends an arrow into a minus vertex or receives one from a plus
    vertex.  Mutations that leave the monomial quadratic world are skipped,
    since blowing up the mutated presentation is then out of scope.
    """
    from qsa.presentation import parse_presentation
    from qsa.transform import mutate_at
    bases = [parse_presentation(t) for t in _COMMUTE_BASES]
    bases.extend(extra_bases)
    cases = []
    for a in bases:
        q = a.quiver
        sp = set(special_vertices(a).special)
        for x in q.vertices:
            ins, outs = q.in_arrows(x), q.out_arrows(x)
            if ins and not outs:
                sign, banned = "minus", {ar.source for ar in ins}
            elif outs and not ins:
                sign, banned = "plus", {ar.target for ar in outs}
            else:
                continue
            m = mutate_at(a, x, sign)
            if not (m.is_monomial and m.is_quadratic):
                continue
            for blown in _subsets(sp - {x} - banned):
                cases.append((a, blown, x, sign))
    return cases


# --- seeded random presentations for the mutation digest --------------------


def _acyclic_binomial_lists(rng, idx):
    """An acyclic quiver built from commuting squares, three-diamonds and
    one non-homogeneous pentagon at random, glued at shared vertices, plus
    random forward arrows and length-2 zero relations."""
    verts, arrows, rels = [1], [], []

    def vertex():
        verts.append(len(verts) + 1)
        return verts[-1]

    def arrow(s, t):
        arrows.append((f"a{len(arrows) + 1}", s, t))
        return arrows[-1][0]

    for _ in range(rng.randint(1, 3)):
        u = rng.choice(verts)
        shape = rng.choice(("square", "square", "diamond", "pentagon"))
        if shape == "pentagon":
            m1, m2, m3, v = vertex(), vertex(), vertex(), vertex()
            p = (arrow(u, m1), arrow(m1, v))
            r = (arrow(u, m2), arrow(m2, m3), arrow(m3, v))
            rels.append([(1, p), (-1, r)])
            continue
        mids = [vertex() for _ in range(2 if shape == "square" else 3)]
        v = vertex()
        legs = [(arrow(u, m), arrow(m, v)) for m in mids]
        for leg in legs[1:]:
            c = rng.choice((1, 2, Fraction(1, 2)))
            rels.append([(1, legs[0]), (-c, leg)])
    for _ in range(rng.randint(0, 3)):
        s = rng.choice(verts[:-1])
        arrow(s, rng.choice([t for t in verts if t > s]))
    outs = {}
    for name, s, t in arrows:
        outs.setdefault(s, []).append((name, t))
    for name, s, t in rng.sample(arrows, len(arrows)):
        if rng.random() < 0.3 and outs.get(t):
            rels.append([(1, (name, rng.choice(outs[t])[0]))])
    return f"acyclic{idx}", verts, arrows, rels


def _cyclic_monomial_lists(rng, idx):
    """An oriented cycle with one zero relation on it and a few tails, plus
    random extra monomial relations of length 2 to 4."""
    m = rng.randint(1, 4)
    verts = list(range(1, m + 1))
    arrows = [(f"c{i}", i, i % m + 1) for i in verts]
    for j in range(rng.randint(1, 4)):
        v = m + j + 1
        w = rng.choice(verts)
        verts.append(v)
        arrows.append((f"t{j + 1}",) + ((w, v) if rng.random() < 0.5 else (v, w)))
    outs = {}
    for name, s, t in arrows:
        outs.setdefault(s, []).append((name, t))
    k = rng.randint(1, m)
    paths = {(f"c{k}", f"c{k % m + 1}")}
    for _ in range(rng.randint(0, 4)):
        name, _, t = rng.choice(arrows)
        path = [name]
        for _ in range(rng.randint(1, 3)):
            if not outs.get(t):
                break
            name, t = rng.choice(outs[t])
            path.append(name)
        if len(path) > 1:
            paths.add(tuple(path))
    return (f"cyclic{idx}", verts, arrows,
            [[(1, p)] for p in sorted(paths, key=" ".join)])


def _relation_text(combo):
    """A relation line: a path line for a path with coefficient 1, else a
    combination `( p ) - 2 ( q ) + 1/2 ( r )`."""
    if len(combo) == 1 and combo[0][0] == 1:
        return " ".join(combo[0][1])
    bits = []
    for k, (c, path) in enumerate(combo):
        c = Fraction(c)
        sign = ("- " if c < 0 else "+ ") if k else ("- " if c < 0 else "")
        coef = "" if abs(c) == 1 else f"{abs(c)} "
        bits.append(f"{sign}{coef}( {' '.join(path)} )")
    return " ".join(bits)


def presentation_text(name, verts, arrows, rels):
    """The text of a presentation from its lists: vertices, (name, source,
    target) arrows and relations as lists of (coefficient, path) pairs."""
    lines = [f"quiver {name}", "vertices: " + " ".join(map(str, verts))]
    lines += [f"arrow {a}: {s} -> {t}" for a, s, t in arrows]
    if rels:
        lines += ["relations:"] + [_relation_text(r) for r in rels]
    return "\n".join(lines) + "\n"


def random_presentation_lists(count=60, seed=2026):
    """`count` seeded presentations as (name, vertices, arrows, relations)
    lists, alternately acyclic with binomial relations and cyclic
    monomial; every one is valid and admissible."""
    import random
    rng = random.Random(seed)
    return [(_acyclic_binomial_lists if i % 2 == 0 else _cyclic_monomial_lists)(rng, i)
            for i in range(count)]


def random_mutation_texts(count=60, seed=2026):
    """The texts of `random_presentation_lists(count, seed)`."""
    return [presentation_text(*lists) for lists in random_presentation_lists(count, seed)]


# --- radical of End(R_x) by the trace form ---------------------------------------


def trace_form_radical(engine):
    """Basis of the radical of End(R_x) at the sink x of a tilting engine.

    Found the general way: the radical of a finite-dimensional algebra in
    characteristic 0 is the null space of the trace form (s, t) ->
    tr(left multiplication by st), read here off the table of composites
    of the basis vectors of the engine's chain-map hom space at (x, x).
    """
    from qsa._linalg import identity, nullspace
    x = engine.x
    h = engine.homs[(x, x)]
    n = h.dim
    reps = [h.rep(c) for c in identity(n)]
    table = [[h.nf(engine.compose(x, x, x, reps[i], reps[j]))
              for j in range(n)] for i in range(n)]
    tau = [sum(table[t][k][k] for k in range(n)) for t in range(n)]
    gram = [[sum(table[i][j][t] * tau[t] for t in range(n))
             for j in range(n)] for i in range(n)]
    return nullspace(gram, n)


# --- reduction corpora for the frozen reduction digests -----------------------


def glued_reduction_inputs(max_k=12):
    """`glued_twelve_gqs(k)` and its opposite for k = 1..max_k: 3k
    reduction moves each, classes 3, 1, 2 (5, 1, 2 on the opposite), with
    relations kept across copies."""
    from conftest import glued_twelve_gqs
    from qsa.presentation import opposite
    out = []
    for k in range(1, max_k + 1):
        a = glued_twelve_gqs(k)
        out += [a, opposite(a)]
    return out


def random_reducing_texts(seed, count=120):
    """`count` seeded presentation texts that the reduction accepts and
    makes at least one move on.

    A draw has 3 to 8 vertices and n - 1 to n + 2 arrows, loops allowed,
    with in- and out-degree at most 2: the first n - 1 arrows join each
    vertex to an earlier one, in a random direction, and the rest join
    random vertices.  Each composable pair of arrows is a relation with
    probability one half; then, while an arrow has two relation-free
    continuations (or predecessors), one of them at random joins the
    relations, so most draws satisfy the string conditions.  A draw is
    kept when `validate` reports no problem and `reduce_to_skewed_gentle`
    makes a step; draws it refuses or leaves as they are are skipped.
    """
    import random
    from qsa.presentation import parse_presentation, validate
    from qsa.transform import reduce_to_skewed_gentle
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 8)
        verts = [str(i) for i in range(1, n + 1)]
        outs = {v: [] for v in verts}
        ins = {v: [] for v in verts}

        def arrow(s, t):
            name = f"a{sum(map(len, outs.values()))}"
            outs[s].append((name, t))
            ins[t].append((name, s))

        for i, v in enumerate(verts[1:], 1):
            w = rng.choice(verts[:i])
            ends = [(w, v), (v, w)]
            rng.shuffle(ends)
            ends = [(s, t) for s, t in ends if len(outs[s]) < 2 and len(ins[t]) < 2]
            if ends:
                arrow(*ends[0])
        for _ in range(rng.randint(0, 3)):
            free_s = [v for v in verts if len(outs[v]) < 2]
            free_t = [v for v in verts if len(ins[v]) < 2]
            if free_s and free_t:
                arrow(rng.choice(free_s), rng.choice(free_t))
        arrows = sorted(((x, s, t) for s in verts for x, t in outs[s]),
                        key=lambda ar: int(ar[0][1:]))
        rels = {(x, y) for x, _, t in arrows for y, _ in outs[t] if rng.random() < 0.5}
        for x, s, t in arrows:
            free = [y for y, _ in outs[t] if (x, y) not in rels]
            if len(free) == 2:
                rels.add((x, rng.choice(free)))
            free = [w for w, _ in ins[s] if (w, x) not in rels]
            if len(free) == 2:
                rels.add((rng.choice(free), x))
        text = presentation_text(f"r{seed}_{len(out)}", verts, arrows,
                                 [[(1, p)] for p in sorted(rels)])
        a = parse_presentation(text)
        if validate(a).problems:
            continue
        try:
            steps = reduce_to_skewed_gentle(a).steps
        except QsaError:
            continue
        if steps:
            out.append(text)
    return out


# --- witness corpus for the frozen witness digest -------------------------------


# names that the cover's walk names and arrow names can confuse: a step
# ".a'" is both arrow a reversed and arrow a' forward, "a.b" is both one
# arrow and two steps, and "@" inside a name can make two cover arrows
# base_arrow@source share a name; digit runs with leading zeros tie
_WITNESS_VERTEX_NAMES = ("1", "01", "007", "v", "v.a", "x'", "p@q", "r~", "u.1", "10")
_WITNESS_ARROW_NAMES = ("a", "b", "a.b", "a'", "b'", "c@v", "d~", "a1", "a01", "e.1",
                        "c", "f@p@q")


def random_witness_texts(seed, count):
    """`count` seeded texts of connected cyclic monomial presentations with
    a certified admissible ideal, for the cover ball and witness search.

    A draw has an oriented cycle of 1 to 3 vertices with a relation of
    length 2 or 3 along it, 1 to 3 more vertices each joined to an earlier
    one in a random direction, and 0 to 2 extra arrows between random
    vertices, loops allowed; every vertex keeps at most three arrows, so a
    ball of radius 6 has at most 190 vertices.  Each composable pair of
    arrows is a relation with probability 0.4, and a few random paths of
    length 3 join them.  Vertex and arrow names are drawn from pools with
    dots, primes, @, ~ and leading zeros.  A draw is kept when `validate`
    reports no problem.
    """
    import random
    from qsa.presentation import parse_presentation
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(1, 3)
        n = m + rng.randint(1, 3)
        verts = rng.sample(_WITNESS_VERTEX_NAMES, n)
        names = iter(rng.sample(_WITNESS_ARROW_NAMES, len(_WITNESS_ARROW_NAMES)))
        degree = dict.fromkeys(verts, 0)
        arrows = []

        def arrow(s, t):
            if degree[s] + (s == t) >= 3 or degree[t] >= 3:
                return False
            name = next(names, None)
            if name is None:
                return False
            arrows.append((name, s, t))
            degree[s] += 1
            degree[t] += 1
            return True

        for i in range(m):
            arrow(verts[i], verts[(i + 1) % m])
        for i in range(m, n):
            w = rng.choice(verts[:i])
            arrow(*((w, verts[i]) if rng.random() < 0.5 else (verts[i], w)))
        for _ in range(rng.randint(0, 2)):
            arrow(rng.choice(verts), rng.choice(verts))
        outs = {v: [] for v in verts}
        for name, s, t in arrows:
            outs[s].append((name, t))
        cycle = [name for name, s, t in arrows[:m]]
        k = rng.randrange(m)
        rels = {tuple(cycle[(k + j) % m] for j in range(rng.randint(2, 3)))}
        rels |= {(x, y) for x, _, t in arrows for y, _ in outs[t] if rng.random() < 0.4}
        for _ in range(rng.randint(0, 2)):
            name, _, t = rng.choice(arrows)
            path = [name]
            while len(path) < 3 and outs[t]:
                name, t = rng.choice(outs[t])
                path.append(name)
            if len(path) == 3:
                rels.add(tuple(path))
        text = presentation_text(f"w{seed}_{len(out)}", verts, arrows,
                                 [[(1, p)] for p in sorted(rels)])
        if validate(parse_presentation(text)).problems:
            continue
        out.append(text)
    return out


# --- the natural order of names, as a tuple key ---------------------------------


_DIGIT_RUNS = re.compile(r"([0-9]+)")


def tuple_natural_key(s):
    """The natural order of names as a flat tuple: per run, (0, length,
    digits) for a digit run without its leading zeros, which orders the
    runs as numbers with no int() built, or (1, 0, text) for a text run;
    closed by (-1, s), which sorts before every run, so a name's raw
    string breaks ties and a key that is a prefix of another sorts
    first."""
    parts = []
    for p in _DIGIT_RUNS.split(s):
        if p.isdigit():
            p = p.lstrip("0")
            parts.append((0, len(p), p))
        elif p:
            parts.append((1, 0, p))
    return (*parts, (-1, s))


# --- canonical-order corpus for the frozen canonical-order digest --------------


# the identifier alphabet after the first character; a first character is
# a letter, a digit or _
_NAME_TEXT = "aAbZ_+-~*.'@"


def _adversarial_name(rng, taken):
    """A fresh identifier of one to four alternating text and digit runs:
    digit runs of 1 to 25 digits, some with leading zeros, text runs over
    the whole identifier alphabet; a third of the names extend, or cut
    short, a name already taken, so names are often prefixes of others."""
    while True:
        if taken and rng.random() < 0.35:
            base = rng.choice(taken)
            if rng.random() < 0.5 and len(base) > 1:
                name = base[:rng.randrange(1, len(base))]
            else:
                name = base + rng.choice(("0", "00", "1", "a", ".", "'", "10", "@b"))
        else:
            runs = []
            digits = rng.random() < 0.5
            for _ in range(rng.randint(1, 4)):
                if digits:
                    zeros = "0" * rng.choice((0, 0, 1, 3))
                    runs.append(zeros + str(rng.randrange(10 ** rng.choice((1, 1, 2, 9, 25)))))
                else:
                    runs.append("".join(rng.choice(_NAME_TEXT) for _ in range(rng.randint(1, 3))))
                digits = not digits
            name = "".join(runs)
        if not (name[0].isalnum() or name[0] == "_"):
            name = rng.choice("a_Z") + name
        if name not in taken:
            taken.append(name)
            return name


def random_canonical_texts(seed, count):
    """`count` seeded presentation texts whose names are drawn by
    `_adversarial_name`, each line block written in a random order.

    A draw has 2 to 7 vertices joined as a tree, each vertex to an earlier
    one in a random direction; half the draws add 1 to 3 arrows between
    random vertices, loops allowed.  The relations are 0 to 4 random paths
    of length 2 or 3, and on a draw with parallel paths of those lengths
    up to 3 binomial relations with coefficients among 1, -1, 2, 1/2 and
    -3/4; one relation in four is written twice, the second time scaled by
    3 when it is a combination.  Every parsed draw is kept: the corpus
    pins canonical order, not admissibility.
    """
    import random
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        taken = []
        n = rng.randint(2, 7)
        verts = [_adversarial_name(rng, taken) for _ in range(n)]
        names = []
        arrows = []
        for i in range(1, n):
            w = rng.choice(verts[:i])
            ends = (w, verts[i]) if rng.random() < 0.5 else (verts[i], w)
            arrows.append((_adversarial_name(rng, names), *ends))
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                arrows.append((_adversarial_name(rng, names), rng.choice(verts),
                               rng.choice(verts)))
        outs = {v: [] for v in verts}
        for name, s, t in arrows:
            outs[s].append((name, t))
        paths = [((name,), s, t) for name, s, t in arrows]
        for _ in range(2):
            paths += [(p + (x,), s, t2) for p, s, t in paths if len(p) == len(paths[-1][0])
                      for x, t2 in outs[t]]
        long = [p for p in paths if len(p[0]) > 1]
        rels = [[(1, p)] for p, _, _ in rng.sample(long, min(len(long), rng.randint(0, 4)))]
        parallel = [(p, q) for i, (p, s, t) in enumerate(long) for q, s2, t2 in long[i + 1:]
                    if (s, t) == (s2, t2)]
        for p, q in rng.sample(parallel, min(len(parallel), rng.randint(0, 3))):
            rels.append([(rng.choice((1, -1, 2, Fraction(1, 2))), p),
                         (rng.choice((1, -1, Fraction(-3, 4))), q)])
        for r in list(rels):
            if rng.random() < 0.25:
                rels.append(r if len(r) == 1 else [(3 * c, p) for c, p in r])
        for block in (verts, arrows, rels):
            rng.shuffle(block)
        out.append(presentation_text(f"n{seed}_{idx}", verts, arrows, rels))
    return out
