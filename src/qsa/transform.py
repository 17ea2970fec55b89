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

A move derives its result from the presentation it changes
(`AlgebraPresentation._derive`): it names the vertex and arrows it
drops and the arrows and relations it adds.  Only those are checked and
built; the kept arrows and relations pass through unchanged.  A move
keeps the quiver connected by construction (see `_move`), and it
classifies its result once, by delta: only the ends of the arrows it
changed, and the neighbours of an end that became or stopped being a
single source or sink, are examined again (`_dirty_vertices`); the rest
is copied from the previous classification.  That classification drives
the next move.  The special set is checked in full once, on the input;
after a move only the carried special vertices the move touched are
tested again.  Each intermediate presentation is serialized once, as a
join of the arrow and relation lines it kept from the presentation it
came from and the few lines the move formatted.
"""

import json
from collections.abc import Iterable
from typing import NamedTuple

from .presentation import (
    QsaError, Arrow, Quiver, AlgebraPresentation,
    opposite, serialize_presentation, natural_key, validate,
)
from .classify import classify_vertices, OTHER, _is_special, _ordinary_in


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


def blow_up(a, blown, name=None):
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
        if not _is_special(a, d):
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

    def lift_name(arrow, ssign, tsign):
        return arrow.name + ssign + tsign

    def lift_end(v, sign):
        if v in bset:
            return vertex_map[v][0 if sign == "+" else 1]
        return v

    arrows = []
    arrow_map = {}
    names = set()
    for ar in q.arrows:
        lifts = []
        for ss in end_signs(ar.source):
            for ts in end_signs(ar.target):
                nm = lift_name(ar, ss, ts)
                if nm in names:
                    raise QsaError(f"arrow name collision {nm!r} in blow-up")
                names.add(nm)
                lifts.append(nm)
                arrows.append(Arrow(nm, lift_end(ar.source, ss),
                                    lift_end(ar.target, ts)))
        arrow_map[ar.name] = tuple(lifts)

    # monomial relation lifts: every sign choice at the outer endpoints
    monomials = set()
    for r in a.relations:
        p, w = r.terms[0][1]
        pa, wa = q.arrow(p), q.arrow(w)
        for ss in end_signs(pa.source):
            for ts in end_signs(wa.target):
                monomials.add((lift_name(pa, ss, ""), lift_name(wa, "", ts)))

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
                plus = (lift_name(u, ss, "+"), lift_name(w, "+", ts))
                minus = (lift_name(u, ss, "-"), lift_name(w, "-", ts))
                combos.append([(1, plus), (-1, minus)])

    # a blown vertex is special, so its in-then-out composites are no
    # relation and no binomial term is a lifted relation
    if any(path in monomials for combo in combos for _, path in combo):
        raise QsaError("internal error: a fold binomial has a relation as a term")

    quiver = Quiver(name or a.name, vertices, arrows)
    relations = [[(1, list(mpath))] for mpath in sorted(monomials)]
    relations += combos
    pres = AlgebraPresentation(quiver, relations)
    return BlowupSpec(pres, tuple(blown), vertex_map, arrow_map)


# --- reduction moves ----------------------------------------------------------


def _rewire(a, x, case, witness):
    """Classes 1, 2, 4 and 6: drop the marked source, rewire through the sink.

    Class 4 has no second out-arrow, so only in2 and out1 are rerouted.
    Class 6 is class 4 with in- and out-arrows swapped: its out-arrows
    play in1 and in2 and its in-arrow plays out1, and every arrow and
    relation of the rewrite is read backwards.
    """
    q = a.quiver
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
                ar.name == name for ar in new_arrows):
            name += "~"
        new_arrows.append(Arrow(name, *oriented(tail, head)))
        return name

    in2t = add_arrow(in2, v2, v4)
    out1t = add_arrow(out1, v4, x)
    relations = [[(1, oriented(ar.name, in2t))] for ar in ins(v2)
                 if ar.name not in removed and oriented(ar.name, in2) in a.monomials]
    if out2:
        v5 = ends(out2)[1]
        out2t = add_arrow(out2, x, v5)
        relations += [[(1, oriented(out2t, ar.name))] for ar in outs(v5)
                      if ar.name not in removed and oriented(out2, ar.name) in a.monomials]
    if case == 2:
        relations.append([(1, (out2t, in2t))])

    b = a._derive(v1, removed, new_arrows, relations)
    step = dict(kind=CASE_REWRITE, case=case, vertex=x, witness=witness,
                removed_vertex=v1, removed_arrows=tuple(sorted(removed)),
                new_arrows=tuple(tuple(ar) for ar in new_arrows),
                special_added=x)
    return b, step


def _peel(a, x, case, witness):
    """Classes 3 and 5: the algebra is already a blow-up; peel the second
    single source (class 5, its dual: the second single sink)."""
    q = a.quiver
    if case == 5:
        first, second, end = witness["out1"], witness["out2"], 2
    else:
        first, second, end = witness["in1"], witness["in2"], 1
    v1, v2 = q.arrow(first)[end], q.arrow(second)[end]
    b = a._derive(v2, (second,), (), ())
    step = dict(kind=DIRECT_BLOWUP, case=case, vertex=x, witness=witness,
                removed_vertex=v2, removed_arrows=(second,),
                new_arrows=(), special_added=v1)
    return b, step


def _check_special(a, ds, classification):
    for d in ds:
        if not _is_special(a, d):
            raise QsaError(f"vertex {d!r} is not special")
        if _ordinary_in(a.quiver, classification, d):
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


def _lone_arrow(q, v):
    """(arrow name, v is its source) when v has exactly one arrow; else None."""
    if not q.has_vertex(v):
        return None
    outs, ins = q.out_arrows(v), q.in_arrows(v)
    if len(outs) + len(ins) != 1:
        return None
    return (outs + ins)[0].name, bool(outs)


def _dirty_vertices(a, b, meta):
    """Vertices whose class the move from `a` to `b` can change.

    A move removes and adds arrows, with the relations through them, and
    drops a vertex together with its arrows.  A vertex's class reads only
    its own arrows, the relations between them, and whether its
    neighbours are single sources or sinks of the arrows it shares with
    them.  So the ends of removed and added arrows can change class, and
    so can the neighbours of an end that gained or lost that status.
    Every other vertex keeps its arrows, its relations and the status of
    its neighbours: a neighbour in `a` or in `b` that is not an end meets
    it through an arrow the move left alone.  Ends and neighbours do not
    depend on orientation, so the class 5 and 6 moves, which read arrows
    backwards, are covered too.  The vertex a move drops is the end of an
    arrow it removes, so the set holds it as well, and `classify_vertices`
    drops it.
    """
    ends = {v for name in meta["removed_arrows"] for v in a.quiver.arrow(name)[1:]}
    ends.update(v for _name, source, target in meta["new_arrows"]
                for v in (source, target))
    q = b.quiver
    dirty = set(ends)
    for v in ends:
        if q.has_vertex(v) and _lone_arrow(a.quiver, v) != _lone_arrow(q, v):
            dirty.update(ar.target for ar in q.out_arrows(v))
            dirty.update(ar.source for ar in q.in_arrows(v))
    return dirty


def _move(a, c, special, before):
    """One reduction move on `a`, whose gqs classification is `c` and
    whose serialization is `before`.  The caller has checked that `c` has
    an exceptional vertex and that the set `special` is valid on `a`; the
    move checks the special set of its result, so each presentation of a
    reduction is checked once.  Only the vertices whose check can change
    are tested: the one the move adds, and the carried ones the move
    touched.  A vertex stays special unless its arrows or the relations
    between them change, which makes it dirty, and it turns ordinary only
    when it lies in the marked pair of an exceptional vertex whose mark
    changed, which is dirty too.

    Returns (smaller presentation, ReductionStep, its classification).
    The classification of the result reuses `c`, which does not check
    connectivity again.  Every move keeps the quiver connected: it removes
    a single source or sink with its one arrow, and every other end of an
    arrow it removes is x or meets x through the arrows it adds.  So a
    path of `a` that used a removed arrow can be rerouted through x.
    """
    exc = c.exceptional_vertices
    x = exc[0]
    vc = c.raw_classes[x]
    move = _peel if vc.exceptional_class in (3, 5) else _rewire
    b, meta = move(a, x, vc.exceptional_class, vc.witness)

    dirty = _dirty_vertices(a, b, meta)
    cb = classify_vertices(b, c, dirty)
    if not cb.gqs:
        raise QsaError("reduction move left the quadratic string class")
    if len(cb.exceptional_vertices) != len(exc) - 1:
        raise QsaError("reduction move did not remove one exceptional vertex")
    touched = set(dirty)
    for v in dirty:
        for mark in (c.marks.get(v), cb.marks.get(v)):
            if mark:
                touched.update(mark[0])
    added = meta["special_added"]
    recheck = touched.intersection(special)
    recheck.add(added)
    _check_special(b, sorted(recheck, key=natural_key), cb)

    step = ReductionStep(before=before, after=serialize_presentation(b), **meta)
    return b, step, cb


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
    _check_special(a, special, c)
    b, step, _ = _move(a, c, set(special), serialize_presentation(a))
    return b, step


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
    cur = a
    text = serialize_presentation(a)
    carried = set(_vertex_names(special, "the special vertices"))
    steps = []
    if c.exceptional_vertices:
        _check_special(a, sorted(carried, key=natural_key), c)
    while c.exceptional_vertices:
        cur, step, c = _move(cur, c, carried, text)
        text = step.after
        carried.add(step.special_added)
        steps.append(step)
    return ReductionCertificate(initial=a, final=cur, steps=tuple(steps),
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
    algebra.
    """
    from ._endo import mutate_minus
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("mutation needs an AlgebraPresentation")
    if direction in ("minus", "-"):
        return mutate_minus(a, x)
    if direction in ("plus", "+"):
        if not a.quiver.has_vertex(x):
            raise QsaError(f"unknown vertex {x!r}")
        if a.quiver.in_arrows(x):
            raise QsaError(f"plus mutation needs a source, {x!r} has in-arrows")
        if not a.quiver.out_arrows(x):
            raise QsaError(f"plus mutation needs at least one arrow out of {x!r}")
        return opposite(mutate_minus(opposite(a), x))
    raise QsaError(f"unknown mutation direction {direction!r}")
