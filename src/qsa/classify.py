"""Vertex classification for quadratic monomial presentations.

Every vertex is tested for gentleness (at each vertex the in-arrows and
out-arrows whose composite lies in the ideal form a partial matching) and,
failing that, against the six local exceptional configurations that keep a
cyclic algebra derived tame. A presentation is "gqs" when it is a quadratic
string algebra and every vertex is gentle or exceptional.

A `VertexClassification` stores only what `classify_vertices` examines:
each vertex's class (without its ordinary marks), the marked pair and
note of each exceptional vertex, the string faults of each vertex and
arrow, the count of vertices neither gentle nor exceptional, and the
exceptional vertices in canonical order.  That answers `gqs` and drives
a reduction.  The tables a report reads (`classes` with `ordinary_in`,
`exceptional`, `ordinary`, `diagnostics`, `violations`,
`ordinary_vertices`) are derived from those facts together, on first
read.

A classification is maintained by delta.  Given the classification before
a change and the vertices the change can affect, one routine re-examines
only those vertices and their arrows and updates the stored facts in
place (`_reclassify`).  `classify_vertices` runs it on empty facts,
which examines every vertex; a reduction runs it on the classification
it carries.
"""

from bisect import bisect_left, insort
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

from .presentation import AlgebraPresentation, QsaError, natural_key

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


class _Tables(NamedTuple):
    classes: dict             # vertex -> VertexClass, with ordinary_in
    exceptional: dict         # i -> tuple of vertices in class i
    ordinary: dict            # i -> tuple of vertices marked ordinary by class i
    diagnostics: tuple
    violations: tuple
    ordinary_vertices: tuple  # vertices marked ordinary by some class


class VertexClassification:
    """The facts `classify_vertices` examines, and the tables derived from them.

    Stored: `raw_classes` (vertex -> VertexClass with `ordinary_in`
    empty), `marks` (exceptional vertex -> (marked pair, note or None)),
    `vertex_faults` and `arrow_faults` (vertex or arrow name -> its
    quadratic-string violations, if any), `others` (how many vertices are
    neither gentle nor exceptional) and `exceptional_vertices` (in
    canonical order).  Two classifications are equal when these are.
    """

    def __init__(self, raw_classes, marks, vertex_faults, arrow_faults, others,
                 exceptional_vertices):
        self.raw_classes = raw_classes
        self.marks = marks
        self.vertex_faults = vertex_faults
        self.arrow_faults = arrow_faults
        self.others = others
        self.exceptional_vertices = exceptional_vertices

    def _facts(self):
        return (self.raw_classes, self.marks, self.vertex_faults,
                self.arrow_faults, self.others, self.exceptional_vertices)

    def __eq__(self, other):
        return isinstance(other, VertexClassification) and self._facts() == other._facts()

    @cached_property
    def _tables(self):
        """Every derived table, read off the stored facts together."""
        raw, marks, exc = self.raw_classes, self.marks, self.exceptional_vertices
        ordinary_in = {}
        for x in exc:
            for v in marks[x][0]:
                ordinary_in.setdefault(v, set()).add(raw[x].exceptional_class)
        ordinary_vertices = tuple(sorted(ordinary_in, key=natural_key))
        faults = [self.vertex_faults[v] for v in sorted(self.vertex_faults, key=natural_key)]
        faults += [self.arrow_faults[n] for n in sorted(self.arrow_faults, key=natural_key)]
        return _Tables(
            classes={v: vc._replace(ordinary_in=tuple(sorted(ordinary_in[v])))
                     if v in ordinary_in else vc for v, vc in raw.items()},
            exceptional={i: tuple(x for x in exc if raw[x].exceptional_class == i)
                         for i in range(1, 7)},
            ordinary={i: tuple(v for v in ordinary_vertices if i in ordinary_in[v])
                      for i in range(1, 7)},
            diagnostics=tuple(marks[x][1] for x in exc if marks[x][1]),
            violations=tuple(m for ms in faults for m in ms),
            ordinary_vertices=ordinary_vertices,
        )

    classes = property(attrgetter("_tables.classes"))
    exceptional = property(attrgetter("_tables.exceptional"))
    ordinary = property(attrgetter("_tables.ordinary"))
    diagnostics = property(attrgetter("_tables.diagnostics"))
    violations = property(attrgetter("_tables.violations"))
    ordinary_vertices = property(attrgetter("_tables.ordinary_vertices"))

    @property
    def is_quadratic_string(self):
        return not self.vertex_faults and not self.arrow_faults

    @property
    def is_gentle_presentation(self):
        return not self.exceptional_vertices and not self.others

    @property
    def gqs(self):
        return self.is_quadratic_string and not self.others

    def __repr__(self):
        # every table, then the stored facts, in the layout this class has
        # always printed, so a saved repr still compares equal
        t = self._tables
        return (f"VertexClassification(classes={t.classes!r}, "
                f"exceptional={t.exceptional!r}, ordinary={t.ordinary!r}, "
                f"is_quadratic_string={self.is_quadratic_string!r}, "
                f"violations={t.violations!r}, diagnostics={t.diagnostics!r}, "
                f"exceptional_vertices={self.exceptional_vertices!r}, "
                f"local=_LocalResults(marks={self.marks!r}, "
                f"vertex_faults={self.vertex_faults!r}, "
                f"arrow_faults={self.arrow_faults!r}, others={self.others!r}))")


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


def _vertex_faults(v, ins, outs):
    """Quadratic-string violations of vertex v, whose arrows in and out are
    `ins` and `outs`: more than two arrows in or out."""
    n_out, n_in = len(outs), len(ins)
    if n_out <= 2 and n_in <= 2:
        return ()
    out = []
    if n_out > 2:
        out.append(f"vertex {v} is the source of {n_out} arrows")
    if n_in > 2:
        out.append(f"vertex {v} is the target of {n_in} arrows")
    return tuple(out)


def _arrow_faults(q, rel, ar):
    """Quadratic-string violations of arrow ar: two relation-free neighbours."""
    cont = [b.name for b in q.out_arrows(ar.target) if (ar.name, b.name) not in rel]
    pre = [b.name for b in q.in_arrows(ar.source) if (b.name, ar.name) not in rel]
    if len(cont) <= 1 and len(pre) <= 1:
        return ()
    out = []
    if len(cont) > 1:
        out.append(
            f"arrow {ar.name} has {len(cont)} relation-free continuations: "
            + ", ".join(sorted(cont, key=natural_key)))
    if len(pre) > 1:
        out.append(
            f"arrow {ar.name} has {len(pre)} relation-free predecessors: "
            + ", ".join(sorted(pre, key=natural_key)))
    return tuple(out)


def is_quadratic_string(a):
    """Check the quadratic string conditions, reporting every violation."""
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("the quadratic string test needs an AlgebraPresentation")
    if not a.is_monomial or not a.is_quadratic:
        return QuadraticStringReport(
            False, ["the ideal is not generated by paths of length two"])
    q = a.quiver
    rel = _quadratic_pairs(a)
    violations = [m for v in q.vertices
                  for m in _vertex_faults(v, q.in_arrows(v), q.out_arrows(v))]
    violations += [m for ar in q.arrows for m in _arrow_faults(q, rel, ar)]
    return QuadraticStringReport(not violations, violations)


# --- gentleness and the exceptional classes ---------------------------------


def _is_gentle_vertex(rel, ins, outs):
    """Whether the arrows `ins` and `outs` at a vertex pair up partially:
    each has at most one partner whose composite lies in `rel`."""
    for b in outs:
        partners = [a for a in ins if (a.name, b.name) in rel]
        if len(partners) > 1:
            return False
    for a in ins:
        partners = [b for b in outs if (a.name, b.name) in rel]
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
    """Ordered pairs of distinct names of `arrows`, which are in arrow
    order, as `out_arrows` and `in_arrows` give them."""
    out = []
    names = [a.name for a in arrows]
    for x in names:
        for y in names:
            if x != y:
                out.append((x, y))
    return out


def _class_witnesses(q, rel, x, ins, outs):
    """{class: (witness dict, pair of vertices marked ordinary)} for every
    exceptional class that fits at x, whose arrows in and out are `ins`
    and `outs`, in one pass over the candidates.

    Candidate arrows are scanned in name order and the first witness of
    each class is kept, so it is the lexicographically first one.
    """
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


def _classify_vertex(q, rel, x, ins, outs):
    """VertexClass of x, whose arrows in and out are `ins` and `outs`, with
    `ordinary_in` empty, and for an exceptional x its (marked pair,
    diagnostic or None); None for any other x."""
    if _is_gentle_vertex(rel, ins, outs):
        return VertexClass(x, GENTLE, 0, None, ()), None
    found = _class_witnesses(q, rel, x, ins, outs)
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


def _ordinary_in(q, classification, v):
    """Classes whose exceptional vertices mark v ordinary.  A vertex marks
    only neighbours of its own, so only the neighbours of v are read."""
    found = set()
    for y in [ar.source for ar in q.in_arrows(v)] + [ar.target for ar in q.out_arrows(v)]:
        mark = classification.marks.get(y)
        if mark and v in mark[0]:
            found.add(classification.raw_classes[y].exceptional_class)
    return tuple(sorted(found))


def _reclassify(q, rel, c, dirty):
    """Examine the vertices in `dirty` and the arrows at them again, and
    update the stored facts of the classification `c` in place.

    `q` reads the quiver after a change (a `Quiver`, or the working state
    of a reduction) and `rel` is its set of relation pairs.  `dirty` also
    names the vertices `q` no longer has, and the faults of arrows `q` no
    longer has are dropped.  `c.exceptional_vertices` is a list in
    canonical order; it changes only where a dirty vertex became or
    stopped being exceptional.
    """
    raw, marks, vertex_faults, arrow_faults = (
        c.raw_classes, c.marks, c.vertex_faults, c.arrow_faults)
    for name in [n for n in arrow_faults if not q.has_arrow(n)]:
        del arrow_faults[name]
    exceptional, order = c.exceptional_vertices, q._order.__getitem__
    others = c.others
    arrows = {}   # the arrows at dirty vertices, each once
    for x in dirty:
        was = raw.get(x)
        if was is not None:
            others -= was.kind == OTHER
        if q.has_vertex(x):
            ins, outs = q.in_arrows(x), q.out_arrows(x)
            vc, mark = _classify_vertex(q, rel, x, ins, outs)
            raw[x] = vc
            others += vc.kind == OTHER
            _set_or_drop(vertex_faults, x, _vertex_faults(x, ins, outs))
            arrows.update(dict.fromkeys(ins + outs))
        else:
            mark = None
            raw.pop(x, None)
            vertex_faults.pop(x, None)
        if (x in marks) != (mark is not None):
            if mark:
                insort(exceptional, x, key=order)
            else:
                del exceptional[bisect_left(exceptional, order(x), key=order)]
        _set_or_drop(marks, x, mark)
    for ar in arrows:
        _set_or_drop(arrow_faults, ar.name, _arrow_faults(q, rel, ar))
    c.others = others


def classify_vertices(a):
    """Classify every vertex as gentle, exceptional (class 1..6), or neither.

    `_reclassify` runs from empty facts over every vertex, the routine a
    reduction runs in place on the classification it carries.  The
    quiver must be connected.
    """
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("classification needs an AlgebraPresentation")
    q = a.quiver
    if not q._connected:
        raise QsaError("classification needs a connected quiver")
    c = VertexClassification({}, {}, {}, {}, 0, [])
    _reclassify(q, _quadratic_pairs(a), c, q.vertices)
    c.exceptional_vertices = tuple(c.exceptional_vertices)
    return c


def is_gqs(a):
    """Quadratic string and every vertex gentle or exceptional."""
    return classify_vertices(a).gqs


def _is_special(q, rel, v):
    """At most one arrow in, one out, and their composite not in `rel`."""
    if not q.has_vertex(v):
        return False
    ins = q.in_arrows(v)
    outs = q.out_arrows(v)
    if len(ins) > 1 or len(outs) > 1:
        return False
    if ins and outs and (ins[0].name, outs[0].name) in rel:
        return False
    return True


def special_vertices(a):
    """Vertices with at most one arrow in, at most one out, composite surviving."""
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("special vertices need an AlgebraPresentation")
    _quadratic_pairs(a)  # shape errors come before the connectivity check
    special = [v for v in a.quiver.vertices if _is_special(a.quiver, a.monomials, v)]
    ordinary = classify_vertices(a).ordinary_vertices
    special_not_ordinary = [v for v in special if v not in ordinary]
    return SpecialVertices(tuple(special), ordinary, tuple(special_not_ordinary))
