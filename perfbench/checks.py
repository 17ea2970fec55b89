"""Independent re-checks of the evidence behind each verdict.

Nothing here imports `qsa`: the checks read the generator's own
description of an input (`workloads.Spec`) and the plain JSON the
program printed, and recompute what they need with exact `Fraction`
arithmetic.

* Trees: the Euler form is rebuilt from relation-chain counts (for a
  quadratic monomial algebra, Ext^k(S_i, S_j) has a basis of the arrow
  chains i -> j of length k whose consecutive pairs are all relations),
  then an LDL^T sign test decides tame (semidefinite) or wild, and a
  reported negative vector must evaluate below zero.
* Cover witnesses: the witness graph must be neither Dynkin nor Euclidean,
  i.e. its Tits form must not be positive semidefinite.
* Reductions: the certificate must have exactly 3 steps per glued copy.
* CLI edits: exit code, empty standard error, and the vertex counts the
  command must produce.

Each check returns None when the output is right, else a message.
"""

import json
from fractions import Fraction


def ldlt_semidefinite(m):
    """True when the symmetric rational matrix m is positive semidefinite.

    Symmetric Gaussian elimination: a negative pivot, or a zero pivot with
    a nonzero row, proves indefiniteness.
    """
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    for k in range(n):
        d = a[k][k]
        if d < 0:
            return False
        if d == 0:
            if any(a[k][j] for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return True


def euler_form(spec, order):
    """E[i][j] = sum_k (-1)^k #(relation chains of length k from i to j)."""
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    rels = set(spec.relations)
    by_source = {}
    for name, s, t in spec.arrows:
        by_source.setdefault(s, []).append((name, t))
    e = [[Fraction(0)] * n for _ in range(n)]
    for v in order:
        e[pos[v]][pos[v]] += 1
        # chains ending in arrow `last` at vertex `at`, with their parity
        frontier = [(name, t, -1) for name, t in by_source.get(v, ())]
        while frontier:
            nxt = []
            for last, at, sign in frontier:
                e[pos[v]][pos[at]] += sign
                nxt += [(name, t, -sign) for name, t in by_source.get(at, ())
                        if (last, name) in rels]
            frontier = nxt
    return e


def _form_value(e, x):
    n = len(x)
    return sum(x[i] * e[i][j] * x[j] for i in range(n) for j in range(n))


def check_tree(inp, payload):
    order = payload["euler"]["vertices"]
    if sorted(order) != sorted(inp.spec.vertices):
        return "Euler form vertices differ from the input"
    e = euler_form(inp.spec, order)
    got = [[Fraction(x) for x in row] for row in payload["euler"]["matrix"]]
    if got != e:
        return "Euler form differs from the relation-chain count"
    n = len(order)
    sym = [[(e[i][j] + e[j][i]) / 2 for j in range(n)] for i in range(n)]
    tame = ldlt_semidefinite(sym)
    tag = "Tame" if tame else "Wild"
    if payload["tag"] != tag or payload["nonnegative"] != tame:
        return f"verdict {payload['tag']}, LDL^T says {tag}"
    if not tame:
        x = [Fraction(t) for t in payload["negative_at"]]
        value = _form_value(e, x)
        if not value < 0 or Fraction(payload["negative_value"]) != value:
            return f"negative vector evaluates to {value}"
    return None


def check_witness(witness):
    """The witness graph's Tits form must not be positive semidefinite."""
    verts = witness["vertices"]
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    q = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = Fraction(1)
    for u, v, _ in witness["paths"]:
        if u == v:
            q[pos[u]][pos[u]] -= 1
        else:
            q[pos[u]][pos[v]] -= Fraction(1, 2)
            q[pos[v]][pos[u]] -= Fraction(1, 2)
    if ldlt_semidefinite(q):
        return f"{n}-vertex witness graph is Dynkin or Euclidean"
    return None


def check_pattern(inp, pattern):
    """A two-cycle pattern must name a dead two-cycle of the input plus a
    third arrow whose composite through the cycle dies."""
    if pattern["kind"] != "two-cycle":
        return None
    arrows = {name: (s, t) for name, s, t in inp.spec.arrows}
    rels = set(inp.spec.relations)
    f, b, x = (pattern["arrows"][k] for k in ("forward", "backward", "extra"))
    (fs, ft), (bs, bt), (xs, xt) = arrows[f], arrows[b], arrows[x]
    dead = (f, b) in rels and (b, f) in rels
    extra = ((b, x) in rels and xs == fs) if pattern["arrows"]["side"] == "out" \
        else ((x, b) in rels and xt == ft)
    if not (fs == bt and ft == bs and dead and extra):
        return "two-cycle pattern does not match the input"
    return None


def check_decide(inp, payload):
    """Check a `Verdict.to_payload()` against what the input guarantees."""
    want = inp.expect.get("tag")
    if want is not None and payload["tag"] != want:
        return f"tag {payload['tag']}, expected {want}"
    if "euler" in payload:
        return check_tree(inp, payload)
    if "steps" in inp.expect:
        steps = len(payload["certificate"]["steps"])
        if steps != inp.expect["steps"]:
            return f"{steps} reduction steps, expected {inp.expect['steps']}"
    if payload["tag"] == "Wild":
        if "witness" not in payload and "pattern" not in payload:
            return "wild verdict without a witness or a pattern"
        if inp.expect.get("witness") and "witness" not in payload:
            return "no cover witness"
        for err in (check_witness(payload["witness"]) if "witness" in payload else None,
                    check_pattern(inp, payload["pattern"]) if "pattern" in payload else None):
            if err:
                return err
    if payload["tag"] == "NotQuadraticString" and "witness" in payload:
        return "witness reported on an input without one"
    return None


def _presentation_vertices(text):
    for line in text.splitlines():
        if line.startswith("vertices:"):
            return len(line.split()) - 1
    return None


def check_cli(inp, code, out, err):
    if code != 0 or err:
        return f"exit {code}: {err.strip()}"
    cmd = inp.argv[0]
    if cmd == "check":
        doc = json.loads(out)
        if not (doc["ok"] and doc["quadratic_string"]) or doc["vertices"] != inp.expect["vertices"]:
            return "check report differs from the input"
    elif cmd == "classify":
        doc = json.loads(out)
        exc = sum(len(vs) for vs in doc["E"].values())
        if not doc["flags"]["is_gqs"] or exc != inp.expect["exceptional"]:
            return f"classify found {exc} exceptional vertices"
    elif _presentation_vertices(out) != inp.expect["vertices"]:
        return f"{cmd} printed {_presentation_vertices(out)} vertices"
    return None
