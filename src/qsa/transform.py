"""Blow-ups, vertex mutations, and reduction to a skewed-gentle form.

A blow-up doubles a set of special vertices and lifts arrows and
relations along the folding map; the kernel of the fold contributes one
binomial for each special vertex whose two arrows survive.

The reduction removes exceptional vertices one at a time.  Each move
either recognizes the algebra outright as a blow-up of a smaller one
(classes 3 and 5) or rewrites the neighbourhood of the exceptional
vertex the way a sink mutation followed by a source mutation would
(classes 1, 2, 4, 6), recording which vertex becomes special.  Classes
1, 2, 4 and 6 share one rewrite, classes 3 and 5 one peel; classes 5
and 6 are 3 and 4 with in- and out-arrows swapped, rewritten in place.

A reduction works on one private working state (`_WorkingState`), built
once from the gqs input and its classification: the arrows by vertex and
by name, the relations as arrow pairs indexed by arrow, the arrow and
relation lines of the text format in canonical order with their sort
keys, and a copy of the classification.  A move names the vertex and
arrows it drops and the arrows and relations it adds, and one `edit`
checks them and changes the tables in place; nothing else is copied or
built.  A move keeps the quiver connected by construction (see `_move`),
and it classifies its result by delta, in place: only the ends of the
arrows it changed, and the neighbours of an end that became or stopped
being a single source or sink, are examined again (`_dirty_vertices`).
That classification drives the next move.  The special set is checked
in full once, on the input; after a move only the carried special
vertices the move touched are tested again.  Each intermediate
presentation is serialized once, as one join of the state's lines, and
the final presentation is built once, at the end, from the state's
tables.
"""

import json
from collections.abc import Iterable
from typing import NamedTuple

from bisect import bisect_left

from .presentation import (
    QsaError, Arrow, Quiver, AlgebraPresentation, RelationTerm,
    serialize_presentation, natural_key, validate,
    _arrow_line, _as_arrow, _check_id, _relation_key, _relation_line,
)
from .classify import (
    VertexClassification, classify_vertices, OTHER, _is_special, _ordinary_in,
    _reclassify,
)


# --- step kinds ---------------------------------------------------------------

CASE_REWRITE = "CaseRewrite"
DIRECT_BLOWUP = "DirectBlowupRecognition"


class BlowupSpec(NamedTuple):
    presentation: object
    blown: tuple
    vertex_map: dict          # vertex -> (plus copy, minus copy)
    arrow_map: dict           # arrow -> tuple of lifted arrow names


class ReductionStep(NamedTuple):
    kind: str
    case: int                 # exceptional class handled (1..6)
    vertex: str               # the exceptional vertex
    witness: dict
    removed_vertex: str
    removed_arrows: tuple
    new_arrows: tuple         # ((name, source, target), ...)
    special_added: str
    before: str               # serialized presentations
    after: str


class ReductionCertificate(NamedTuple):
    initial: object
    final: object
    steps: tuple
    special: tuple


# --- blow-up ------------------------------------------------------------------


def blow_up(a, blown):
    """Double each vertex in `blown`, lifting arrows and relations.

    Every blown vertex must be special.  Requires a monomial quadratic
    presentation; returns a BlowupSpec whose presentation has one
    binomial relation per blown vertex with both an arrow in and out,
    for each sign choice at the blown outer ends of those two arrows.
    """
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("blow-up needs an AlgebraPresentation")
    if not (a.is_monomial and a.is_quadratic):
        raise QsaError("blow-up requires a monomial quadratic presentation")
    q = a.quiver
    blown = sorted(set(_vertex_names(blown, "the blown vertices")), key=natural_key)
    for d in blown:
        if not q.has_vertex(d):
            raise QsaError(f"unknown vertex {d!r}")
        if not _is_special(q, a.monomials, d):
            raise QsaError(f"vertex {d!r} is not special, cannot blow up")

    bset = set(blown)
    vertex_map = {}
    taken = set(q.vertices)
    for d in blown:
        plus, minus = d + "+", d + "-"
        while plus in taken or minus in taken:
            plus += "+"
            minus += "-"
        vertex_map[d] = (plus, minus)
        taken.update((plus, minus))
    vertices = [v for v in q.vertices if v not in bset]
    for d in blown:
        vertices.extend(vertex_map[d])

    def end_signs(v):
        return ("+", "-") if v in bset else ("",)

    def lift_end(v, sign):
        if v in bset:
            return vertex_map[v][0 if sign == "+" else 1]
        return v

    # an arrow with no blown end keeps its name; a lift is the name and
    # its end signs, grown by its last sign while the name is taken
    arrows = []
    arrow_map = {}
    lift_name = {}   # (arrow, source sign, target sign) -> lifted name
    taken = {ar.name for ar in q.arrows if ar.source not in bset and ar.target not in bset}
    for ar in q.arrows:
        lifts = []
        for ss in end_signs(ar.source):
            for ts in end_signs(ar.target):
                nm = ar.name + ss + ts
                if ss or ts:
                    while nm in taken:
                        nm += ts or ss
                    taken.add(nm)
                lift_name[(ar.name, ss, ts)] = nm
                lifts.append(nm)
                arrows.append(Arrow(nm, lift_end(ar.source, ss),
                                    lift_end(ar.target, ts)))
        arrow_map[ar.name] = tuple(lifts)

    # monomial relation lifts: every sign choice at the outer endpoints
    monomials = set()
    for r in a.relations:
        p, w = r.terms[0][1]
        for ss in end_signs(q.arrow(p).source):
            for ts in end_signs(q.arrow(w).target):
                monomials.add((lift_name[(p, ss, "")], lift_name[(w, "", ts)]))

    # fold-kernel binomials: one matched-sign difference per blown vertex
    # with both an arrow in and an arrow out, for every outer sign choice
    combos = []
    for d in blown:
        ins, outs = q.in_arrows(d), q.out_arrows(d)
        if not (ins and outs):
            continue
        u, w = ins[0], outs[0]
        for ss in end_signs(u.source):
            for ts in end_signs(w.target):
                plus = (lift_name[(u.name, ss, "+")], lift_name[(w.name, "+", ts)])
                minus = (lift_name[(u.name, ss, "-")], lift_name[(w.name, "-", ts)])
                combos.append([(1, plus), (-1, minus)])

    # a blown vertex is special, so its in-then-out composites are no
    # relation and no binomial term is a lifted relation
    if any(path in monomials for combo in combos for _, path in combo):
        raise QsaError("internal error: a fold binomial has a relation as a term")

    quiver = Quiver(a.name, vertices, arrows)
    relations = [[(1, list(mpath))] for mpath in sorted(monomials)]
    relations += combos
    pres = AlgebraPresentation(quiver, relations)
    return BlowupSpec(pres, tuple(blown), vertex_map, arrow_map)


# --- the working state of a reduction -----------------------------------------


_BLOCK = 64


class _SortedLines:
    """Items with their lines of the text format, in the order of `key`,
    in blocks of at most 2 * _BLOCK items.

    Each block keeps the keys of its items, and caches the join of
    `lead + line + trail` over them, so the text of all the items is a
    join over the blocks, and an insertion or a removal costs one key, a
    search and the edit of one block.  Keys are distinct.
    """

    def __init__(self, items, lines, key, lead="", trail="\n"):
        self._key, self._lead, self._trail = key, lead, trail
        keys = list(map(key, items))
        self._blocks = [[keys[i:i + _BLOCK], list(items[i:i + _BLOCK]),
                         list(lines[i:i + _BLOCK]), None]
                        for i in range(0, len(keys), _BLOCK)]
        self._last = [block[0][-1] for block in self._blocks]   # each block's largest key
        self.size = len(keys)

    def insert(self, item, line):
        k = self._key(item)
        if not self._blocks:
            self._blocks.append([[], [], [], None])
            self._last.append(k)
        b = min(bisect_left(self._last, k), len(self._last) - 1)
        block = self._blocks[b]
        keys, items, lines, _ = block
        i = bisect_left(keys, k)
        keys.insert(i, k)
        items.insert(i, item)
        lines.insert(i, line)
        block[3] = None
        if len(keys) > 2 * _BLOCK:
            self._blocks.insert(b + 1, [keys[_BLOCK:], items[_BLOCK:], lines[_BLOCK:], None])
            self._last.insert(b + 1, keys[-1])
            del keys[_BLOCK:], items[_BLOCK:], lines[_BLOCK:]
        self._last[b] = keys[-1]
        self.size += 1

    def remove(self, item):
        k = self._key(item)
        b = min(bisect_left(self._last, k), len(self._last) - 1)
        block = self._blocks[b]
        keys, items, lines, _ = block
        i = bisect_left(keys, k)
        del keys[i], items[i], lines[i]
        if keys:
            block[3] = None
            self._last[b] = keys[-1]
        else:
            del self._blocks[b], self._last[b]
        self.size -= 1

    def texts(self):
        """The cached text of each block, in order."""
        sep = self._trail + self._lead
        for block in self._blocks:
            if block[3] is None:
                block[3] = self._lead + sep.join(block[2]) + self._trail
        return [block[3] for block in self._blocks]

    def items(self):
        return [item for block in self._blocks for item in block[1]]

    def lines(self):
        return [line for block in self._blocks for line in block[2]]


class _WorkingState:
    """The presentation a reduction works on, and its classification,
    changed in place by each move.

    Built once from a quadratic monomial presentation `a` and its
    classification `c`: the arrows by vertex (in arrow order) and by name;
    the relations as {arrow pair: RelationTerm}, found through the arrows
    at a vertex; the vertices, arrows and relations with their lines of
    the text format in canonical order (`_SortedLines`, keyed by rank,
    by `natural_key`, kept by name, and by `sort_key`); and a copy of the
    stored facts of `c` (`classification`, whose exceptional vertices are
    a list).  It answers the quiver reads of `classify` (`arrow`,
    `out_arrows`, `in_arrows`, `has_vertex`, `has_arrow`, `_order`), so
    the classification is updated on the state itself.  `text` joins the
    cached blocks of lines; `presentation` hands the tables to the final
    presentation, after which the state is not used again.
    """

    def __init__(self, a, c):
        q = a.quiver
        self.name = q.name
        self._order = q._order   # a dropped vertex keeps its rank, unread
        self._vertices = _SortedLines(q.vertices, q.vertices, self._order.__getitem__, " ", "")
        self._by_name = q._by_name.copy()
        # a vertex's list of arrows is replaced, not changed, when an edit
        # changes it, so the lists of the input are shared, not copied
        self._out = q._out.copy()
        self._in = q._in.copy()
        self._keys = {ar.name: natural_key(ar.name) for ar in q.arrows}
        self._arrows = _SortedLines(q.arrows, q._arrow_lines, self._arrow_key)
        self._relations = _SortedLines(a.relations, a._relation_lines, _relation_key)
        self.monomials = {r.terms[0][1]: r for r in a.relations}
        self.classification = VertexClassification(
            c.raw_classes.copy(), c.marks.copy(), c.vertex_faults.copy(),
            c.arrow_faults.copy(), c.others, list(c.exceptional_vertices))

    arrow = Quiver.arrow
    out_arrows = Quiver.out_arrows
    in_arrows = Quiver.in_arrows
    has_vertex = Quiver.has_vertex
    has_arrow = Quiver.has_arrow

    def edit(self, vertex, removed, arrows, relations):
        """Drop `vertex` and the arrows named in `removed`, with every
        relation through them, and add the (name, source, target) triples
        `arrows` and the arrow pairs `relations`; a pair that already is a
        relation is kept once.  Returns the vertices whose class the edit
        can change (`_dirty_vertices`).

        Everything is checked before anything changes: the removed arrows
        exist; `vertex` exists, keeps no arrow and is not the last vertex;
        the new identifiers are valid and unused; their ends exist and are
        not `vertex`; and each new relation is a composable pair of arrows
        of the result.
        """
        removed = set(removed)
        for name in removed:
            self.arrow(name)
        if not self.has_vertex(vertex):
            raise QsaError(f"unknown vertex {vertex!r}")
        if any(ar.name not in removed for ar in self._out[vertex] + self._in[vertex]):
            raise QsaError(f"vertex {vertex!r} keeps an arrow")
        if self._vertices.size == 1:
            raise QsaError("quiver needs at least one vertex")
        new = {}
        for ar in map(_as_arrow, arrows):
            _check_id("arrow", ar.name)
            if ar.name in new or (ar.name in self._by_name and ar.name not in removed):
                raise QsaError(f"duplicate arrow identifier {ar.name!r}")
            if vertex in (ar.source, ar.target) or not (
                    self.has_vertex(ar.source) and self.has_vertex(ar.target)):
                raise QsaError(f"arrow {ar.name!r} has an endpoint outside the vertex list")
            new[ar.name] = ar

        def kept_or_new(name):
            ar = new.get(name) or (self._by_name.get(name) if name not in removed else None)
            if ar is None:
                raise QsaError(f"unknown arrow {name!r}")
            return ar

        pairs = []
        for pair in relations:
            if len(pair) != 2:
                raise QsaError(f"a move adds pairs of arrows as relations, not {pair!r}")
            x, y = map(kept_or_new, pair)
            if x.target != y.source:
                raise QsaError(f"arrows {x.name!r} and {y.name!r} do not compose")
            pairs.append((x, y))

        ends = {vertex}
        ends.update(v for name in removed for v in self._by_name[name][1:])
        ends.update(v for ar in new.values() for v in ar[1:])
        lone = {v: _lone_arrow(self, v) for v in ends}
        for name in removed:
            self._drop_arrow(name)
        del self._out[vertex], self._in[vertex]
        self._vertices.remove(vertex)
        for ar in new.values():
            self._add_arrow(ar)
        for x, y in pairs:
            if (x.name, y.name) not in self.monomials:
                self._add_relation(RelationTerm._monomial(x.source, y.target, (x.name, y.name)))
        return _dirty_vertices(self, lone)

    def _drop_arrow(self, name):
        """Drop the arrow and the relations through it: a relation is a
        composable pair, so they are found among the arrows at its ends."""
        ar = self._by_name.pop(name)
        pop = self.monomials.pop
        dropped = [pop((name, y.name), None) for y in self._out[ar.target]]
        dropped += [pop((w.name, name), None) for w in self._in[ar.source]]
        for r in dropped:
            if r is not None:
                self._relations.remove(r)
        self._out[ar.source] = [x for x in self._out[ar.source] if x.name != name]
        self._in[ar.target] = [x for x in self._in[ar.target] if x.name != name]
        self._arrows.remove(ar)
        del self._keys[name]

    def _add_arrow(self, ar):
        self._by_name[ar.name] = ar
        self._keys[ar.name] = natural_key(ar.name)
        self._out[ar.source] = sorted((*self._out[ar.source], ar), key=self._arrow_key)
        self._in[ar.target] = sorted((*self._in[ar.target], ar), key=self._arrow_key)
        self._arrows.insert(ar, _arrow_line(ar))

    def _arrow_key(self, ar):
        """The arrow's `natural_key`, computed once for each name."""
        return self._keys[ar.name]

    def _add_relation(self, r):
        self.monomials[r.terms[0][1]] = r
        self._relations.insert(r, _relation_line(r))

    def text(self):
        """The text format of the current presentation, equal to
        `serialize_presentation(self.presentation())`: one join of the
        cached blocks of lines."""
        parts = [f"quiver {self.name}\nvertices:", *self._vertices.texts(), "\n",
                 *self._arrows.texts()]
        if self._relations.size:
            parts += ["relations:\n", *self._relations.texts()]
        return "".join(parts)

    def presentation(self):
        """The current presentation, equal to `parse_presentation(text())`.
        It takes the state's tables, so the state is not used again."""
        q = Quiver._trusted(self.name, self._vertices.items(), self._arrows.items(),
                            self._out, self._in)
        q._order = self._order
        q._arrow_lines = tuple(self._arrows.lines())
        b = AlgebraPresentation.__new__(AlgebraPresentation)
        b._fill(q, self._relations.items(), frozenset(self.monomials), True)
        b._relation_lines = tuple(self._relations.lines())
        return b


def _lone_arrow(q, v):
    """(arrow name, v is its source) when v has exactly one arrow; else None.
    `q` is a quiver or the working state: both keep `_out` and `_in`."""
    outs, ins = q._out.get(v, ()), q._in.get(v, ())
    if len(outs) + len(ins) != 1:
        return None
    return (outs or ins)[0].name, bool(outs)


def _dirty_vertices(q, lone):
    """Vertices whose class an edit can change, from `q` after the edit
    and `lone`, {end: `_lone_arrow` at it before the edit}, for the vertex
    the edit drops and the ends of the arrows it removed and added.

    An edit removes and adds arrows, with the relations through them, and
    drops a vertex together with its arrows.  A vertex's class reads only
    its own arrows, the relations between them, and whether its
    neighbours are single sources or sinks of the arrows it shares with
    them.  So the ends can change class, and so can the neighbours of an
    end that gained or lost that status.  Every other vertex keeps its
    arrows, its relations and the status of its neighbours: a neighbour
    before or after the edit that is not an end meets it through an arrow
    the edit left alone.  Ends and neighbours do not depend on
    orientation, so the class 5 and 6 moves, which read arrows backwards,
    are covered too.  The set holds the vertex the edit drops, and
    `_reclassify` drops it.
    """
    dirty = set(lone)
    for v, was in lone.items():
        if q.has_vertex(v) and _lone_arrow(q, v) != was:
            dirty.update(ar.target for ar in q.out_arrows(v))
            dirty.update(ar.source for ar in q.in_arrows(v))
    return dirty


# --- reduction moves ----------------------------------------------------------


def _rewire(q, x, case, witness):
    """Classes 1, 2, 4 and 6: drop the marked source, rewire through the sink.

    Class 4 has no second out-arrow, so only in2 and out1 are rerouted.
    Class 6 is class 4 with in- and out-arrows swapped: its out-arrows
    play in1 and in2 and its in-arrow plays out1, and every arrow and
    relation of the rewrite is read backwards.  `q` is the working state;
    returns the step's fields and the relations to add, as arrow pairs.
    """
    dual = case == 6
    if dual:
        in1, in2, out1, out2 = witness["out1"], witness["out2"], witness["in1"], None
    else:
        in1, in2, out1 = witness["in1"], witness["in2"], witness["out1"]
        out2 = witness.get("out2")

    ins, outs = (q.out_arrows, q.in_arrows) if dual else (q.in_arrows, q.out_arrows)

    def oriented(*path):
        return path[::-1] if dual else path

    def ends(name):   # (tail, head) in the orientation of the rewrite
        return oriented(*q.arrow(name)[1:])

    v1, v2, v4 = ends(in1)[0], ends(in2)[0], ends(out1)[1]
    removed = {in1, in2, out1}
    if out2:
        removed.add(out2)
    new_arrows = []

    def add_arrow(base, tail, head):
        name = base + "~"
        while (q.has_arrow(name) and name not in removed) or any(
                ar[0] == name for ar in new_arrows):
            name += "~"
        new_arrows.append((name, *oriented(tail, head)))
        return name

    in2t = add_arrow(in2, v2, v4)
    out1t = add_arrow(out1, v4, x)
    relations = [oriented(ar.name, in2t) for ar in ins(v2)
                 if ar.name not in removed and oriented(ar.name, in2) in q.monomials]
    if out2:
        v5 = ends(out2)[1]
        out2t = add_arrow(out2, x, v5)
        relations += [oriented(out2t, ar.name) for ar in outs(v5)
                      if ar.name not in removed and oriented(out2, ar.name) in q.monomials]
    if case == 2:
        relations.append((out2t, in2t))

    step = dict(kind=CASE_REWRITE, case=case, vertex=x, witness=witness,
                removed_vertex=v1, removed_arrows=tuple(sorted(removed)),
                new_arrows=tuple(new_arrows), special_added=x)
    return step, relations


def _peel(q, x, case, witness):
    """Classes 3 and 5: the algebra is already a blow-up; peel the second
    single source (class 5, its dual: the second single sink)."""
    if case == 5:
        first, second, end = witness["out1"], witness["out2"], 2
    else:
        first, second, end = witness["in1"], witness["in2"], 1
    v1, v2 = q.arrow(first)[end], q.arrow(second)[end]
    step = dict(kind=DIRECT_BLOWUP, case=case, vertex=x, witness=witness,
                removed_vertex=v2, removed_arrows=(second,),
                new_arrows=(), special_added=v1)
    return step, ()


def _check_special(q, rel, ds, classification):
    for d in ds:
        if not _is_special(q, rel, d):
            raise QsaError(f"vertex {d!r} is not special")
        if _ordinary_in(q, classification, d):
            raise QsaError(f"vertex {d!r} is special but ordinary")


def _vertex_names(vs, what):
    """`vs` as a list of vertex names; a bare string, one vertex per character, is refused."""
    names = list(vs) if isinstance(vs, Iterable) and not isinstance(vs, str) else [None]
    if not all(isinstance(v, str) for v in names):
        raise QsaError(f"{what} must be a list of vertex names, not {vs!r}")
    return names


def _gqs_classification(a):
    """classify_vertices(a), refusing presentations that are not certified
    admissible or not gqs."""
    rep = validate(a)
    if not (rep.certified and rep.admissible):
        raise QsaError("the reduction needs a certified admissible ideal")
    c = classify_vertices(a)
    if not c.is_quadratic_string:
        raise QsaError("not a quadratic string algebra: "
                       + "; ".join(c.violations))
    if not c.gqs:
        bad = [v for v, vc in c.classes.items() if vc.kind == OTHER]
        raise QsaError("vertices neither gentle nor exceptional: "
                       + ", ".join(sorted(bad, key=natural_key)))
    return c


def _move(state, special, before):
    """One reduction move on the working state, at its smallest
    exceptional vertex; `before` is the state's text.  The caller has
    checked that the state has an exceptional vertex and that the set
    `special` is valid on it; the move checks the special set of its
    result, so each presentation of a reduction is checked once.  Only the
    vertices whose check can change are tested: the one the move adds, and
    the carried ones the move touched.  A vertex stays special unless its
    arrows or the relations between them change, which makes it dirty, and
    it turns ordinary only when it lies in the marked pair of an
    exceptional vertex whose mark changed, which is dirty too.

    Returns the ReductionStep.  The classification is updated in place
    and does not check connectivity again.  Every move keeps the quiver
    connected: it removes a single source or sink with its one arrow, and
    every other end of an arrow it removes is x or meets x through the
    arrows it adds.  So a path that used a removed arrow can be rerouted
    through x.
    """
    c = state.classification
    exc = c.exceptional_vertices
    x, count = exc[0], len(exc)
    vc = c.raw_classes[x]
    move = _peel if vc.exceptional_class in (3, 5) else _rewire
    meta, relations = move(state, x, vc.exceptional_class, vc.witness)
    dirty = state.edit(meta["removed_vertex"], meta["removed_arrows"],
                       meta["new_arrows"], relations)

    marks = [c.marks.get(v) for v in dirty]
    _reclassify(state, state.monomials, c, dirty)
    if not c.gqs:
        raise QsaError("reduction move left the quadratic string class")
    if len(exc) != count - 1:
        raise QsaError("reduction move did not remove one exceptional vertex")
    touched = set(dirty)
    for mark in marks + [c.marks.get(v) for v in dirty]:
        if mark:
            touched.update(mark[0])
    recheck = touched.intersection(special)
    recheck.add(meta["special_added"])
    _check_special(state, state.monomials, sorted(recheck, key=state._order.__getitem__), c)
    return ReductionStep(before=before, after=state.text(), **meta)


def reduce_step(a, special=()):
    """One reduction move at the smallest exceptional vertex.

    Returns (smaller presentation, ReductionStep).  `special` is the set
    of vertices already carried along; it is revalidated before and
    after the move.
    """
    c = _gqs_classification(a)
    if not c.exceptional_vertices:
        raise QsaError("no exceptional vertex to reduce")
    special = _vertex_names(special, "the special vertices")
    _check_special(a.quiver, a.monomials, special, c)
    state = _WorkingState(a, c)
    step = _move(state, set(special), serialize_presentation(a))
    return state.presentation(), step


def reduce_to_skewed_gentle(a, special=()):
    """Iterate reduction moves until no exceptional vertex remains.

    Returns a ReductionCertificate whose final presentation is gentle
    and carries the accumulated special vertices; blowing the final
    algebra up at them recovers something derived equivalent to the
    input.
    """
    return _reduce_classified(a, _gqs_classification(a), special)


def _reduce_classified(a, c, special=()):
    """reduce_to_skewed_gentle for `a` whose gqs classification is `c`.

    The special vertices are carried as a set and put in canonical order
    once, at the end: no move reads their order.
    """
    carried = set(_vertex_names(special, "the special vertices"))
    steps = []
    final = a
    if c.exceptional_vertices:
        _check_special(a.quiver, a.monomials, sorted(carried, key=natural_key), c)
        state = _WorkingState(a, c)
        text = serialize_presentation(a)
        while state.classification.exceptional_vertices:
            step = _move(state, carried, text)
            text = step.after
            carried.add(step.special_added)
            steps.append(step)
        final = state.presentation()
    return ReductionCertificate(initial=a, final=final, steps=tuple(steps),
                                special=tuple(sorted(carried, key=natural_key)))


def certificate_payload(cert):
    """Plain-data dict form of a ReductionCertificate."""
    if not isinstance(cert, ReductionCertificate):
        raise QsaError("the certificate payload needs a ReductionCertificate")
    return {
        "initial": serialize_presentation(cert.initial),
        "final": serialize_presentation(cert.final),
        "special": list(cert.special),
        "steps": [
            {
                "kind": s.kind,
                "case": s.case,
                "vertex": s.vertex,
                "witness": s.witness,
                "removed_vertex": s.removed_vertex,
                "removed_arrows": list(s.removed_arrows),
                "new_arrows": [list(t) for t in s.new_arrows],
                "special_added": s.special_added,
                "before": s.before,
                "after": s.after,
            }
            for s in cert.steps
        ],
    }


def certificate_to_json(cert):
    """Serialize a ReductionCertificate to a JSON string."""
    return json.dumps(certificate_payload(cert), indent=2)


# --- mutations ----------------------------------------------------------------


def mutate_at(a, x, direction):
    """Tilt at a sink (`direction="minus"`) or a source (`"plus"`).

    The result is extracted from the endomorphisms of the two-term
    tilting complex; the plus direction is computed on the opposite
    algebra, which is read off `a` and never built (`_endo.mutate_minus`).
    """
    from ._endo import mutate_minus
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("mutation needs an AlgebraPresentation")
    if direction in ("minus", "-"):
        return mutate_minus(a, x)
    if direction in ("plus", "+"):
        return mutate_minus(a, x, opposite=True)
    raise QsaError(f"unknown mutation direction {direction!r}")
