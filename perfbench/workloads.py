"""Seeded inputs for the four benchmark workloads.

Every input is generated as presentation text (plus, for `cli_edit`, an
argument vector over files written at set-up), so the program under test
receives nothing but what it would read from a file.  Each input also
carries the generator's own structural description (`spec`) and the
outcome known by construction (`expect`); the checks in `checks.py` use
those, never the program's data structures.

The size mix of every workload is a fixed multiset, and the costly inputs
have a fixed structure: between random trees of one size the cost varies
by 10-30%, enough to move the median latency of a 40-input list by 11%
from one seed to the next.  The seed relabels vertices and arrows, picks
tails, names and edit positions, and shuffles the list, so two seeds give
different texts of about the same cost.
"""

import hashlib
import random

NUM_INPUTS = 40
WITNESS_RADIUS = 8
WITNESS_SIZE = 10

# tests/fixtures/twelve-vertex-gqs.qsa: one exceptional vertex in each of
# the classes 1, 2 and 3; reduces to a gentle algebra in three steps.
TWELVE_ARROWS = (
    ("alpha", 1, 3), ("beta", 2, 3), ("gamma", 3, 4), ("delta", 5, 4),
    ("lambda", 4, 6), ("rho", 4, 7), ("mu", 8, 7), ("kappa", 7, 9),
    ("eta", 9, 10), ("epsilon", 10, 9), ("sigma", 11, 10), ("tau", 10, 12),
)
TWELVE_RELATIONS = (
    ("alpha", "gamma"), ("beta", "gamma"), ("gamma", "lambda"),
    ("delta", "lambda"), ("delta", "rho"), ("rho", "kappa"),
    ("epsilon", "eta"), ("eta", "tau"), ("sigma", "tau"),
    ("sigma", "epsilon"),
)

# tests/fixtures/three-vertex-wild.qsa
THREE_WILD_ARROWS = (("alpha", "a", "c"), ("beta", "c", "b"),
                     ("delta", "a", "b"), ("gamma", "b", "a"))
THREE_WILD_RELATIONS = (("delta", "gamma"), ("alpha", "beta"),
                        ("beta", "gamma"))

TAME = "Tame"
WILD = "Wild"
NOT_QUADRATIC_STRING = "NotQuadraticString"


class Spec:
    """A presentation as plain lists: the generator's ground truth."""

    def __init__(self, name, vertices, arrows, relations):
        self.name = name
        self.vertices = list(vertices)
        self.arrows = list(arrows)            # (name, source, target)
        self.relations = [tuple(r) for r in relations]

    def text(self):
        out = [f"quiver {self.name}", "vertices: " + " ".join(self.vertices)]
        out += [f"arrow {n}: {s} -> {t}" for n, s, t in self.arrows]
        if self.relations:
            out.append("relations:")
            out += [" ".join(r) for r in self.relations]
        return "\n".join(out) + "\n"


class Input:
    """One operation of a workload.

    `text` is the presentation handed to the program; `argv` is set for
    CLI operations, whose file argument is the placeholder `{file}`.
    `expect` holds what is known by construction (the tag, a step count,
    a vertex count); `kind` names the generator family.
    """

    def __init__(self, kind, spec, expect, argv=None):
        self.kind = kind
        self.spec = spec
        self.text = spec.text()
        self.expect = expect
        self.argv = argv

    def digest(self):
        data = self.text if self.argv is None else self.text + "\0" + "\0".join(self.argv)
        return hashlib.sha256(data.encode()).hexdigest()


# --- trees --------------------------------------------------------------------

# n for the 20 linear and the 20 branching trees of `tree_euler`; a
# branching tree costs about twice a linear one of the same size.
LINEAR_SIZES = (10, 10, 11, 11, 12, 12, 13, 13, 14, 14,
                15, 15, 16, 17, 18, 19, 20, 22, 26, 36)
BRANCHING_SIZES = (10, 10, 11, 11, 12, 12, 13, 13, 14, 14,
                   15, 15, 16, 16, 17, 18, 19, 20, 22, 24)


def linear_tree(n, rng, label):
    """A_n with random orientation; each composable pair is a relation with
    probability 1/2.  Gentle, hence tame."""
    verts = [str(i) for i in range(1, n + 1)]
    arrows = []
    for i in range(1, n):
        ends = (str(i), str(i + 1)) if rng.random() < 0.5 else (str(i + 1), str(i))
        arrows.append((f"a{i}",) + ends)
    rels = []
    for x, y in zip(arrows, arrows[1:]):
        if x[2] == y[1] and rng.random() < 0.5:
            rels.append((x[0], y[0]))
        elif y[2] == x[1] and rng.random() < 0.5:
            rels.append((y[0], x[0]))
    return Spec(f"lin{n}_{label}", verts, arrows, rels)


def branching_tree(n, rng, label):
    """Random tree with in- and out-degree <= 2; each composable pair is a
    relation with probability 1/2."""
    verts = ["1"]
    ins, outs = {"1": 0}, {"1": 0}
    arrows = []
    for i in range(2, n + 1):
        v = str(i)
        while True:
            u = rng.choice(verts)
            dirs = [d for d, free in (("out", outs[u] < 2), ("in", ins[u] < 2)) if free]
            if dirs:
                break
        if rng.choice(dirs) == "out":
            arrows.append((f"a{i}", u, v))
            outs[u] += 1
            ins[v], outs[v] = 1, 0
        else:
            arrows.append((f"a{i}", v, u))
            ins[u] += 1
            ins[v], outs[v] = 0, 1
        verts.append(v)
    rels = [(x[0], y[0]) for x in arrows for y in arrows
            if x[2] == y[1] and rng.random() < 0.5]
    return Spec(f"tree{n}_{label}", verts, arrows, rels)


def relabel(spec, rng):
    """Random vertex numbers and arrow names in the original order.

    Keeping the order keeps the Cartan matrix in the same vertex order, so
    the cost of the elimination steps does not change with the seed.
    """
    vnames = sorted(rng.sample(range(1, 10 * len(spec.vertices)), len(spec.vertices)))
    vmap = {v: str(x) for v, x in zip(spec.vertices, vnames)}
    anames = sorted(rng.sample(range(1, 10 * len(spec.arrows) + 1), len(spec.arrows)))
    amap = {a[0]: f"a{x}" for a, x in zip(spec.arrows, anames)}
    return Spec(spec.name, [vmap[v] for v in spec.vertices],
                [(amap[n], vmap[s], vmap[t]) for n, s, t in spec.arrows],
                [tuple(amap[x] for x in r) for r in spec.relations])


def tree_euler(rng):
    """Trees drawn once per slot from a fixed generator, relabelled by `rng`."""
    out = [Input("linear", relabel(linear_tree(n, random.Random(f"linear:{i}"), i), rng),
                 {"tag": TAME})
           for i, n in enumerate(LINEAR_SIZES)]
    out += [Input("branching",
                  relabel(branching_tree(n, random.Random(f"branching:{i}"), i), rng), {})
            for i, n in enumerate(BRANCHING_SIZES)]
    rng.shuffle(out)
    return out


# --- glued copies of the twelve-vertex example ------------------------------------


def glued_twelve(labels, link, name):
    """Copies of the twelve-vertex example, chained in the order of `labels`.

    link "gqs": vertex 8 of each copy gets an arrow l_c into vertex 8 of the
    next, with relation l_c mu_c; the result stays gqs with 3 exceptional
    vertices per copy.  link "wild": an arrow l_c from vertex 12 of each copy
    to vertex 1 of the next, no relation; vertex 3 of the second copy is then
    neither gentle nor exceptional.
    """
    verts, arrows, rels = [], [], []
    for c in labels:
        verts += [f"{v}_{c}" for v in range(1, 13)]
        arrows += [(f"{n}_{c}", f"{s}_{c}", f"{t}_{c}") for n, s, t in TWELVE_ARROWS]
        rels += [tuple(f"{x}_{c}" for x in r) for r in TWELVE_RELATIONS]
    for prev, c in zip(labels, labels[1:]):
        if link == "gqs":
            arrows.append((f"l_{c}", f"8_{prev}", f"8_{c}"))
            rels.append((f"l_{c}", f"mu_{c}"))
        else:
            arrows.append((f"l_{c}", f"12_{prev}", f"1_{c}"))
    return Spec(name, verts, arrows, rels)


# k for the 40 inputs of `gqs_reduce`: cost grows like k^2.5, so the list
# leans to small k and still reaches k = 12.  The median (inputs 20 and 21 by
# cost) and p75 (input 30) fall inside the groups k = 3 and k = 4, not at a
# group's edge, where one noisy input would move them.
GQS_COPIES = (1,) * 9 + (2,) * 8 + (3,) * 7 + (4,) * 8 + (5,) * 3 + (6,) * 2 + (7, 8, 12)


def gqs_reduce(rng):
    ks = list(GQS_COPIES)
    rng.shuffle(ks)
    out = []
    for i, k in enumerate(ks):
        labels = rng.sample(range(1, 100), k)
        spec = glued_twelve(labels, "gqs", f"gqs{k}_{i}")
        out.append(Input("glued-gqs", spec, {"tag": TAME, "steps": 3 * k}))
    return out


# --- witness search -------------------------------------------------------------

CYCLE_SIZES = (6, 7, 8)


def cubic_cycle(n):
    """Oriented n-cycle with the relation a1 a2 a3: not quadratic, monomial
    and admissible, and no witness exists within the bounds."""
    verts = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)]
    return Spec(f"cycle{n}", verts, arrows, [("a1", "a2", "a3")])


def _tail(spec, at, length, incoming):
    """Attach a directed path of `length` new vertices at vertex `at`."""
    verts, arrows = list(spec.vertices), list(spec.arrows)
    prev = at
    for i in range(1, length + 1):
        v = f"t{i}"
        verts.append(v)
        arrows.append((f"t{i}",) + ((v, prev) if incoming else (prev, v)))
        prev = v
    return Spec(spec.name, verts, arrows, spec.relations)


def kronecker3(rng, label):
    """The 3-Kronecker quiver with a seeded tail: hereditary, wild."""
    spec = Spec(f"kron3_{label}", ["1", "2"],
                [(f"k{j}", "1", "2") for j in (1, 2, 3)], [])
    return _tail(spec, rng.choice("12"), rng.randrange(3), rng.random() < 0.5)


def two_cycle(rng, label):
    """A two-cycle with both composites dead and a third arrow whose
    composite through the cycle dies (tests/fixtures/two-cycle.qsa), with a
    seeded tail into the third arrow's source."""
    spec = Spec(f"twocycle_{label}", ["1", "2", "3"],
                [("alpha", "1", "2"), ("gamma", "2", "1"), ("beta", "3", "2")],
                [("alpha", "gamma"), ("gamma", "alpha"), ("beta", "gamma")])
    return _tail(spec, "3", rng.randrange(4), True)


def three_vertex_wild(rng, label):
    """tests/fixtures/three-vertex-wild.qsa with seeded vertex names."""
    names = rng.sample(["a", "b", "c", "d", "e"], 3)
    vmap = dict(zip("abc", names))
    return Spec(f"threewild_{label}", names,
                [(n, vmap[s], vmap[t]) for n, s, t in THREE_WILD_ARROWS],
                THREE_WILD_RELATIONS)


def witness_search(rng):
    """Searches that succeed late (glued), never (cycles) or early (small).

    The small inputs lean to two-cycles: on the 3-Kronecker quiver and the
    three-vertex example building the cover ball costs a quarter to a half
    of the time, while `graph_type` does over 90% of the work overall.
    """
    out = [Input("glued-wild", glued_twelve(list(range(1, k + 1)), "wild", f"gluedwild{k}"),
                 {"tag": WILD, "witness": True}) for k in (2, 3)]
    out += [Input("cubic-cycle", cubic_cycle(n), {"tag": NOT_QUADRATIC_STRING})
            for n in CYCLE_SIZES]
    out.append(Input("kronecker3", kronecker3(rng, 0), {"tag": WILD}))
    out += [Input("three-vertex-wild", three_vertex_wild(rng, i), {"tag": WILD})
            for i in range(6)]
    out += [Input("two-cycle", two_cycle(rng, i), {"tag": WILD}) for i in range(28)]
    rng.shuffle(out)
    return out


# --- CLI edits -------------------------------------------------------------------

CLI_COPIES = tuple(range(1, 9))


def cli_edit(rng):
    """Five commands on each glued-gqs file with k = 1..8 copies.

    The mutations are fixed per k, since their cost depends on the vertex;
    the seed picks the blown-up vertices and the order.
    """
    out = []
    for k in CLI_COPIES:
        spec = glued_twelve(list(range(1, k + 1)), "gqs", f"edit{k}")
        n = 12 * k
        c = (k + 1) // 2
        sink = f"{6 if k % 2 else 12}_{c}"
        source = f"{5 if k % 2 else 11}_{c}"
        blown = sorted({f"{v}_{rng.randint(1, k)}" for v in rng.sample((1, 2, 6, 12), 2)})
        out += [
            Input("check", spec, {"vertices": n}, ["check", "{file}", "--json"]),
            Input("classify", spec, {"exceptional": 3 * k},
                  ["classify", "{file}", "--json"]),
            Input("mutate-minus", spec, {"vertices": n},
                  ["mutate", "{file}", "--vertex", sink, "--sign", "minus"]),
            Input("mutate-plus", spec, {"vertices": n},
                  ["mutate", "{file}", "--vertex", source, "--sign", "plus"]),
            Input("blowup", spec, {"vertices": n + len(blown)},
                  ["blowup", "{file}", "--vertices", ",".join(blown)]),
        ]
    rng.shuffle(out)
    return out


WORKLOADS = {
    "tree_euler": tree_euler,
    "gqs_reduce": gqs_reduce,
    "witness_search": witness_search,
    "cli_edit": cli_edit,
}


def build(workload, seed):
    """The input list of a workload for a seed; same seed, same list."""
    inputs = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    if len(inputs) != NUM_INPUTS:
        raise ValueError(f"{workload} built {len(inputs)} inputs, not {NUM_INPUTS}")
    return inputs
