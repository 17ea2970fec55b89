"""Vertex classification for quadratic monomial presentations.

Every vertex is tested for gentleness (at each vertex the in-arrows and
out-arrows whose composite lies in the ideal form a partial matching) and,
failing that, against the six local exceptional configurations that keep a
cyclic algebra derived tame. A presentation is "gqs" when it is a quadratic
string algebra and every vertex is gentle or exceptional.
"""

from typing import NamedTuple

from .presentation import AlgebraPresentation, QsaError, natural_key, _is_connected

__all__ = [
    "VertexClass", "VertexClassification", "QuadraticStringReport",
    "SpecialVertices", "is_quadratic_string", "classify_vertices", "is_gqs",
    "special_vertices",
]

GENTLE = "gentle"
EXCEPTIONAL = "exceptional"
OTHER = "non-gentle-non-exceptional"


class VertexClass(NamedTuple):
    vertex: str
    kind: str                 # GENTLE | EXCEPTIONAL | OTHER
    exceptional_class: int    # 1..6, or 0
    witness: dict             # role -> arrow name (in1/in2/out1/out2)
    ordinary_in: tuple        # class indices whose marking made this vertex ordinary


class _LocalResults(NamedTuple):
    """Per-vertex and per-arrow results behind a VertexClassification.

    A reduction move changes a few arrows; the next classification reads
    these for every vertex the move cannot have affected.
    """
    marks: dict               # exceptional vertex -> (marked pair, diagnostic or None)
    vertex_faults: dict       # vertex -> its quadratic-string violations, if any
    arrow_faults: dict        # arrow name -> its quadratic-string violations, if any


class VertexClassification(NamedTuple):
    classes: dict             # vertex -> VertexClass
    exceptional: dict         # i -> tuple of vertices in class i
    ordinary: dict            # i -> tuple of vertices marked ordinary by class i
    is_quadratic_string: bool
    violations: tuple
    diagnostics: tuple
    local: _LocalResults

    @property
    def is_gentle_presentation(self):
        return all(c.kind == GENTLE for c in self.classes.values())

    @property
    def exceptional_vertices(self):
        out = [v for v, c in self.classes.items() if c.kind == EXCEPTIONAL]
        return tuple(sorted(out, key=natural_key))

    @property
    def ordinary_vertices(self):
        """Vertices marked ordinary by some exceptional class."""
        out = {v for vs in self.ordinary.values() for v in vs}
        return tuple(sorted(out, key=natural_key))

    @property
    def gqs(self):
        return self.is_quadratic_string and all(
            c.kind in (GENTLE, EXCEPTIONAL) for c in self.classes.values())


class QuadraticStringReport:
    """Outcome of the quadratic-string test; truthy iff it holds."""

    def __init__(self, ok, violations):
        self.ok = ok
        self.violations = tuple(violations)

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"QuadraticStringReport(ok={self.ok}, violations={self.violations!r})"


class SpecialVertices(NamedTuple):
    special: tuple
    ordinary: tuple            # ordinary vertices (union over all classes)
    special_not_ordinary: tuple


# --- quadratic string test --------------------------------------------------


def _quadratic_pairs(a):
    """The ideal as a set of composable arrow pairs; errors otherwise."""
    if not a.is_monomial:
        raise QsaError("classification needs a monomial presentation")
    if not a.is_quadratic:
        raise QsaError("classification needs quadratic relations")
    return a.monomials


def _vertex_faults(q, v):
    """Quadratic-string violations of vertex v: more than two arrows in or out."""
    out = []
    if len(q.out_arrows(v)) > 2:
        out.append(f"vertex {v} is the source of {len(q.out_arrows(v))} arrows")
    if len(q.in_arrows(v)) > 2:
        out.append(f"vertex {v} is the target of {len(q.in_arrows(v))} arrows")
    return out


def _arrow_faults(q, rel, ar):
    """Quadratic-string violations of arrow ar: two relation-free neighbours."""
    out = []
    cont = [b.name for b in q.out_arrows(ar.target) if (ar.name, b.name) not in rel]
    if len(cont) > 1:
        out.append(
            f"arrow {ar.name} has {len(cont)} relation-free continuations: "
            + ", ".join(sorted(cont, key=natural_key)))
    pre = [b.name for b in q.in_arrows(ar.source) if (b.name, ar.name) not in rel]
    if len(pre) > 1:
        out.append(
            f"arrow {ar.name} has {len(pre)} relation-free predecessors: "
            + ", ".join(sorted(pre, key=natural_key)))
    return out


def is_quadratic_string(a):
    """Check the quadratic string conditions, reporting every violation."""
    if not a.is_monomial or not a.is_quadratic:
        return QuadraticStringReport(
            False, ["the ideal is not generated by paths of length two"])
    q = a.quiver
    rel = _quadratic_pairs(a)
    violations = [m for v in q.vertices for m in _vertex_faults(q, v)]
    violations += [m for ar in q.arrows for m in _arrow_faults(q, rel, ar)]
    return QuadraticStringReport(not violations, violations)


# --- gentleness and the exceptional classes ---------------------------------


def _is_gentle_vertex(q, rel, x):
    for b in q.out_arrows(x):
        partners = [a for a in q.in_arrows(x) if (a.name, b.name) in rel]
        if len(partners) > 1:
            return False
    for a in q.in_arrows(x):
        partners = [b for b in q.out_arrows(x) if (a.name, b.name) in rel]
        if len(partners) > 1:
            return False
    return True


def _single_source(q, v, arrow):
    """v emits exactly the given arrow and receives nothing."""
    outs = q.out_arrows(v)
    return len(outs) == 1 and outs[0].name == arrow and not q.in_arrows(v)


def _single_sink(q, v, arrow):
    ins = q.in_arrows(v)
    return len(ins) == 1 and ins[0].name == arrow and not q.out_arrows(v)


def _ordered_pairs(arrows):
    out = []
    names = sorted((a.name for a in arrows), key=natural_key)
    for x in names:
        for y in names:
            if x != y:
                out.append((x, y))
    return out


def _class_witnesses(q, rel, x):
    """{class: (witness dict, pair of vertices marked ordinary)} for every
    exceptional class that fits at x, in one pass over the candidates.

    Candidate arrows are scanned in name order and the first witness of
    each class is kept, so it is the lexicographically first one.
    """
    ins = q.in_arrows(x)
    outs = q.out_arrows(x)
    src = {ar.name: ar.source for ar in ins}
    tgt = {ar.name: ar.target for ar in outs}
    found = {}

    def distinct(*vs):
        return len(set(vs)) == len(vs)

    # classes 1 and 2: two in, two out; in1 comes from a single-arrow source
    # and out1 lands on a single-arrow sink; of the four composites only
    # in2*out2 survives. Class 2 additionally closes out2 back into in2's
    # source with the back composite in the ideal.
    if len(ins) == 2 and len(outs) == 2:
        for al, be in _ordered_pairs(ins):
            for ga, de in _ordered_pairs(outs):
                if not _single_source(q, src[al], al):
                    continue
                if not _single_sink(q, tgt[ga], ga):
                    continue
                if not ((al, ga) in rel and (be, ga) in rel and (al, de) in rel
                        and (be, de) not in rel):
                    continue
                witness = {"in1": al, "in2": be, "out1": ga, "out2": de}
                if distinct(src[al], src[be], x, tgt[ga], tgt[de]):
                    found.setdefault(1, (witness, (src[al], tgt[ga])))
                if tgt[de] == src[be] and (de, be) in rel \
                        and distinct(src[al], src[be], x, tgt[ga]):
                    found.setdefault(2, (witness, (src[al], tgt[ga])))

    # classes 3 and 4: two in, a single out, both composites in the ideal;
    # in1 comes from a single-arrow source. Class 3 also has in2 from a
    # single-arrow source; class 4 instead has the out-arrow landing on a
    # single-arrow sink.
    if len(ins) == 2 and len(outs) == 1:
        ga = outs[0].name
        for al, be in _ordered_pairs(ins):
            if not distinct(src[al], src[be], x, tgt[ga]):
                continue
            if not _single_source(q, src[al], al):
                continue
            if (al, ga) not in rel or (be, ga) not in rel:
                continue
            witness = {"in1": al, "in2": be, "out1": ga}
            if _single_source(q, src[be], be):
                found.setdefault(3, (witness, (src[al], src[be])))
            if _single_sink(q, tgt[ga], ga):
                found.setdefault(4, (witness, (src[al], tgt[ga])))

    # classes 5 and 6: a single in, two out, both composites in the ideal;
    # out1 lands on a single-arrow sink. Class 5 also has out2 landing on
    # a single-arrow sink; class 6 instead has the in-arrow coming from a
    # single-arrow source.
    if len(ins) == 1 and len(outs) == 2:
        al = ins[0].name
        for ga, de in _ordered_pairs(outs):
            if not distinct(src[al], x, tgt[ga], tgt[de]):
                continue
            if not _single_sink(q, tgt[ga], ga):
                continue
            if (al, ga) not in rel or (al, de) not in rel:
                continue
            witness = {"in1": al, "out1": ga, "out2": de}
            if _single_sink(q, tgt[de], de):
                found.setdefault(5, (witness, (tgt[de], tgt[ga])))
            if _single_source(q, src[al], al):
                found.setdefault(6, (witness, (src[al], tgt[ga])))

    return found


def _classify_vertex(a, rel, x):
    """VertexClass of x with `ordinary_in` empty, and for an exceptional x
    its (marked pair, diagnostic or None); None for any other x."""
    q = a.quiver
    if _is_gentle_vertex(q, rel, x):
        return VertexClass(x, GENTLE, 0, None, ()), None
    found = _class_witnesses(q, rel, x)
    if not found:
        return VertexClass(x, OTHER, 0, None, ()), None
    idx, *higher = sorted(found)
    witness, marked = found[idx]
    note = None
    if higher:
        note = (f"vertex {x} also fits exceptional class(es) "
                f"{', '.join(map(str, higher))}; class {idx} retained")
    return VertexClass(x, EXCEPTIONAL, idx, witness, ()), (marked, note)


def _set_or_drop(table, key, value):
    if value:
        table[key] = value
    else:
        table.pop(key, None)


def classify_vertices(a, previous=None, dirty=None):
    """Classify every vertex as gentle, exceptional (class 1..6), or neither.

    With `previous`, only the vertices in `dirty` and the arrows at them
    are examined again; everything else is read from `previous`.  That is
    exact when `previous` classifies a presentation that agrees with `a`
    away from `dirty`: every other vertex keeps its arrows, the relations
    between them, and the arrows of its neighbours, which is all a
    vertex's class and the string conditions at its arrows read.

    The quiver must be connected.  A fresh classification checks that over
    the whole quiver.  With `previous` it is not checked again: the
    presentation `previous` classifies was connected, and the caller
    vouches that the change keeps it so, as `transform._move` argues for
    each reduction move.
    """
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("classification needs an AlgebraPresentation")
    if previous is None and not _is_connected(a.quiver):
        raise QsaError("classification needs a connected quiver")
    rel = _quadratic_pairs(a)
    q = a.quiver
    if previous is None:
        dirty, was_ordinary = q.vertices, ()
        classes, marks, vertex_faults, arrow_faults = {}, {}, {}, {}
    else:
        dirty = [x for x in dirty if q.has_vertex(x)]
        was_ordinary = [v for v in previous.ordinary_vertices if q.has_vertex(v)]
        old = previous.local
        classes = {v: c for v, c in previous.classes.items() if q.has_vertex(v)}
        marks = {v: m for v, m in old.marks.items() if q.has_vertex(v)}
        vertex_faults = {v: f for v, f in old.vertex_faults.items() if q.has_vertex(v)}
        arrow_faults = {n: f for n, f in old.arrow_faults.items() if q.has_arrow(n)}

    arrows = {}  # the arrows at dirty vertices, in a hash-seed-free order
    for x in dirty:
        classes[x], mark = _classify_vertex(a, rel, x)
        _set_or_drop(marks, x, mark)
        _set_or_drop(vertex_faults, x, tuple(_vertex_faults(q, x)))
        arrows.update(dict.fromkeys(q.in_arrows(x) + q.out_arrows(x)))
    for ar in arrows:
        _set_or_drop(arrow_faults, ar.name, tuple(_arrow_faults(q, rel, ar)))

    exceptional = {i: [] for i in range(1, 7)}
    ordinary = {i: set() for i in range(1, 7)}
    ordinary_by_vertex = {}
    diagnostics = []
    for x in q.vertices:
        if x not in marks:
            continue
        marked, note = marks[x]
        idx = classes[x].exceptional_class
        exceptional[idx].append(x)
        ordinary[idx].update(marked)
        for v in marked:
            ordinary_by_vertex.setdefault(v, set()).add(idx)
        if note:
            diagnostics.append(note)
    for v in set(ordinary_by_vertex).union(was_ordinary):
        ordinary_in = tuple(sorted(ordinary_by_vertex.get(v, ())))
        if classes[v].ordinary_in != ordinary_in:
            classes[v] = classes[v]._replace(ordinary_in=ordinary_in)

    violations = [m for v in q.vertices for m in vertex_faults.get(v, ())]
    violations += [m for ar in q.arrows for m in arrow_faults.get(ar.name, ())]
    return VertexClassification(
        classes=classes,
        exceptional={i: tuple(sorted(vs, key=natural_key)) for i, vs in exceptional.items()},
        ordinary={i: tuple(sorted(vs, key=natural_key)) for i, vs in ordinary.items()},
        is_quadratic_string=not violations,
        violations=tuple(violations),
        diagnostics=tuple(diagnostics),
        local=_LocalResults(marks, vertex_faults, arrow_faults),
    )


def is_gqs(a):
    """Quadratic string and every vertex gentle or exceptional."""
    return classify_vertices(a).gqs


def _is_special(a, v):
    """At most one arrow in, one out, and their composite not a relation."""
    q = a.quiver
    if not q.has_vertex(v):
        return False
    ins = q.in_arrows(v)
    outs = q.out_arrows(v)
    if len(ins) > 1 or len(outs) > 1:
        return False
    if ins and outs and (ins[0].name, outs[0].name) in a.monomials:
        return False
    return True


def special_vertices(a):
    """Vertices with at most one arrow in, at most one out, composite surviving."""
    _quadratic_pairs(a)  # shape errors come before the connectivity check
    special = [v for v in a.quiver.vertices if _is_special(a, v)]
    ordinary = classify_vertices(a).ordinary_vertices
    special_not_ordinary = [v for v in special if v not in ordinary]
    return SpecialVertices(tuple(special), ordinary, tuple(special_not_ordinary))
