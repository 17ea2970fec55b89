"""Vertex classification for quadratic monomial presentations.

Every vertex is tested for gentleness (at each vertex the in-arrows and
out-arrows whose composite lies in the ideal form a partial matching) and,
failing that, against the six local exceptional configurations that keep a
cyclic algebra derived tame. A presentation is "gqs" when it is a quadratic
string algebra and every vertex is gentle or exceptional.

A classification is maintained by delta.  Given the classification before
a change and the vertices the change can affect, `classify_vertices`
copies the previous dicts (classes, marks, faults) at C level and patches
them at those vertices and their arrows.  The class tables, the sorted
tuple of exceptional vertices and the diagnostics change only where an
exceptional vertex changed its class or marked pair, the ordinary marks
only at those pairs, and the string violations are rebuilt only from the
faults there are.  The count of vertices neither gentle nor exceptional
is kept too, so `gqs` and `exceptional_vertices` read no vertex.  A fresh
classification is the same patch of the empty one.
"""

from bisect import insort
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


class _LocalResults(NamedTuple):
    """Per-vertex and per-arrow results behind a VertexClassification.

    A reduction move changes a few arrows; the next classification copies
    these and patches them only where the move can have changed them.
    """
    marks: dict               # exceptional vertex -> (marked pair, diagnostic or None)
    vertex_faults: dict       # vertex -> its quadratic-string violations, if any
    arrow_faults: dict        # arrow name -> its quadratic-string violations, if any
    others: int               # how many vertices are neither gentle nor exceptional


class VertexClassification(NamedTuple):
    classes: dict             # vertex -> VertexClass
    exceptional: dict         # i -> tuple of vertices in class i
    ordinary: dict            # i -> tuple of vertices marked ordinary by class i
    is_quadratic_string: bool
    violations: tuple
    diagnostics: tuple
    exceptional_vertices: tuple   # every exceptional vertex, in canonical order
    local: _LocalResults

    @property
    def is_gentle_presentation(self):
        return not self.exceptional_vertices and not self.local.others

    @property
    def ordinary_vertices(self):
        """Vertices marked ordinary by some exceptional class."""
        out = {v for vs in self.ordinary.values() for v in vs}
        return tuple(sorted(out, key=natural_key))

    @property
    def gqs(self):
        return self.is_quadratic_string and not self.local.others


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
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("the quadratic string test needs an AlgebraPresentation")
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


def _ordinary_in(q, classes, marks, v):
    """Classes whose exceptional vertices mark v ordinary.  A vertex marks
    only neighbours of its own, so only the neighbours of v are read."""
    found = set()
    for y in [ar.source for ar in q.in_arrows(v)] + [ar.target for ar in q.out_arrows(v)]:
        mark = marks.get(y)
        if mark and v in mark[0]:
            found.add(classes[y].exceptional_class)
    return tuple(sorted(found))


def _edited(items, drops, adds, order):
    """The canonically ordered tuple `items` without `drops`, with `adds`."""
    out = list(items)
    for v in drops:
        out.remove(v)
    for v in adds:
        insort(out, v, key=order)
    return tuple(out)


def _patched(table, drops, adds, order):
    """A copy of {i: canonically ordered tuple}, edited at the keys of
    `drops` and `adds` ({i: vertices})."""
    out = table.copy()
    for i in {**drops, **adds}:
        out[i] = _edited(table[i], drops.get(i, ()), adds.get(i, ()), order)
    return out


_UNCLASSIFIED = VertexClassification(
    classes={}, exceptional=dict.fromkeys(range(1, 7), ()),
    ordinary=dict.fromkeys(range(1, 7), ()), is_quadratic_string=True,
    violations=(), diagnostics=(), exceptional_vertices=(),
    local=_LocalResults({}, {}, {}, 0))


def classify_vertices(a, previous=None, dirty=None):
    """Classify every vertex as gentle, exceptional (class 1..6), or neither.

    With `previous`, only the vertices in `dirty` and the arrows at them
    are examined again; everything else is read from `previous`.  That is
    exact when `previous` classifies a presentation that agrees with `a`
    away from `dirty`: every other vertex keeps its arrows, the relations
    between them, and the arrows of its neighbours, which is all a
    vertex's class and the string conditions at its arrows read.  `dirty`
    also names the vertices of `previous` that `a` no longer has.

    The result is `previous` patched by delta: its dicts are copied and
    changed at the dirty vertices and their arrows; the class tables, the
    exceptional vertices and the diagnostics change only where an
    exceptional vertex changed its class or its marked pair, and the
    ordinary marks only at those pairs.  Nothing is read per vertex or per
    arrow of the whole quiver, and `previous` is left as it is.  A fresh
    classification is the same patch of the empty one, every vertex dirty.

    The quiver must be connected.  A fresh classification checks that over
    the whole quiver.  With `previous` it is not checked again: the
    presentation `previous` classifies was connected, and the caller
    vouches that the change keeps it so, as `transform._move` argues for
    each reduction move.
    """
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("classification needs an AlgebraPresentation")
    if previous is None:
        if not a.quiver._connected:
            raise QsaError("classification needs a connected quiver")
        previous, dirty = _UNCLASSIFIED, a.quiver.vertices
    rel = _quadratic_pairs(a)
    q = a.quiver
    order = q._order.__getitem__
    old = previous.local
    classes = previous.classes.copy()
    marks = old.marks.copy()
    vertex_faults = old.vertex_faults.copy()
    arrow_faults = {n: f for n, f in old.arrow_faults.items() if q.has_arrow(n)}
    others = old.others

    remarked = []      # (vertex, old entry, new entry); an entry is (class, pair, note)
    was_ordinary = []  # dirty vertices marked ordinary before
    arrows = {}        # the arrows at dirty vertices, in a hash-seed-free order
    for x in dirty:
        was, was_mark = classes.get(x), marks.get(x)
        if q.has_vertex(x):
            vc, mark = _classify_vertex(a, rel, x)
            classes[x] = vc
            _set_or_drop(marks, x, mark)
            _set_or_drop(vertex_faults, x, tuple(_vertex_faults(q, x)))
            arrows.update(dict.fromkeys(q.in_arrows(x) + q.out_arrows(x)))
            others += vc.kind == OTHER
        else:
            mark = None
            for table in (classes, marks, vertex_faults):
                table.pop(x, None)
        if was is not None:
            others -= was.kind == OTHER
            if was.ordinary_in:
                was_ordinary.append(x)
        if mark != was_mark or (mark and vc.exceptional_class != was.exceptional_class):
            remarked.append((x, was_mark and (was.exceptional_class, *was_mark),
                             mark and (vc.exceptional_class, *mark)))
    for ar in arrows:
        _set_or_drop(arrow_faults, ar.name, tuple(_arrow_faults(q, rel, ar)))

    drops, adds = {}, {}
    for x, before, after in remarked:
        if before:
            drops.setdefault(before[0], []).append(x)
        if after:
            adds.setdefault(after[0], []).append(x)
    exceptional = _patched(previous.exceptional, drops, adds, order)
    exceptional_vertices = previous.exceptional_vertices
    if remarked:
        exceptional_vertices = _edited(
            exceptional_vertices, [x for x, before, _ in remarked if before],
            [x for x, _, after in remarked if after], order)
    ordinary = _patch_ordinary(q, previous, classes, marks, remarked, was_ordinary)

    diagnostics = previous.diagnostics
    if any(entry and entry[2] for _, *entries in remarked for entry in entries):
        diagnostics = tuple(marks[x][1] for x in exceptional_vertices if marks[x][1])
    violations = ()
    if vertex_faults or arrow_faults:
        violations = tuple(
            [m for v in sorted(vertex_faults, key=order) for m in vertex_faults[v]]
            + [m for n in sorted(arrow_faults, key=natural_key) for m in arrow_faults[n]])
    return VertexClassification(
        classes=classes,
        exceptional=exceptional,
        ordinary=ordinary,
        is_quadratic_string=not violations,
        violations=violations,
        diagnostics=diagnostics,
        exceptional_vertices=exceptional_vertices,
        local=_LocalResults(marks, vertex_faults, arrow_faults, others),
    )


def _patch_ordinary(q, previous, classes, marks, remarked, was_ordinary):
    """The ordinary table of the patched classification, with the
    `ordinary_in` of every vertex whose marks changed set in `classes`.

    Marks change only at the pairs of the remarked exceptional vertices,
    and at the dirty vertices that were ordinary, whose class was just
    computed afresh.  A vertex that a remarked vertex no longer marks may
    still be marked by another vertex of the same class, so its classes
    are read off its neighbours; for the others, the classes they had and
    the ones they gained are enough.
    """
    gained, lost = {}, {}   # vertex -> classes of the marks it gained / lost
    for _, before, after in remarked:
        for entry, table in ((before, lost), (after, gained)):
            if entry:
                for v in entry[1]:
                    table.setdefault(v, set()).add(entry[0])
    drops, adds = {}, {}
    for v in {**dict.fromkeys(was_ordinary), **gained, **lost}:
        was = previous.classes.get(v)
        was_in = was.ordinary_in if was is not None else ()
        if v not in classes:
            now_in = ()
        elif v in lost:
            now_in = _ordinary_in(q, classes, marks, v)
        else:
            now_in = tuple(sorted(gained.get(v, set()).union(was_in)))
        if v in classes and classes[v].ordinary_in != now_in:
            classes[v] = classes[v]._replace(ordinary_in=now_in)
        for i in was_in:
            if i not in now_in:
                drops.setdefault(i, []).append(v)
        for i in now_in:
            if i not in was_in:
                adds.setdefault(i, []).append(v)
    return _patched(previous.ordinary, drops, adds, q._order.__getitem__)


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
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("special vertices need an AlgebraPresentation")
    _quadratic_pairs(a)  # shape errors come before the connectivity check
    special = [v for v in a.quiver.vertices if _is_special(a, v)]
    ordinary = classify_vertices(a).ordinary_vertices
    special_not_ordinary = [v for v in special if v not in ordinary]
    return SpecialVertices(tuple(special), ordinary, tuple(special_not_ordinary))
