"""Command line front end.

Subcommands mirror the library: check, classify, decide, blowup, mutate,
reduce, euler, cover, witness.  Every subcommand reads one presentation
file; `--json` switches the output to a single JSON document.  Exit codes:
0 success, 1 domain error (message on standard error), 2 usage error.
"""

import functools
import json
import os
import re
import sys
from fractions import Fraction

from .presentation import (
    QsaError, parse_presentation, serialize_presentation, validate,
    natural_key,
)
from .classify import classify_vertices, is_quadratic_string
from .euler import cartan_matrix, euler_matrix, euler_eval, is_nonnegative_form
from .transform import blow_up, mutate_at, reduce_to_skewed_gentle, certificate_payload
from .covering import truncated_cover, _witness_search
from .decide import decide_derived_type

__all__ = ["run_cli", "main"]


# --- helpers -----------------------------------------------------------------


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise QsaError(f"cannot read {path}: {e.strerror or e}") from None
    return parse_presentation(text)


def _emit_json(data):
    print(json.dumps(data, indent=2))


def _fmt_set(items):
    return "{" + ", ".join(items) + "}"


def _fmt_bool(b):
    return "true" if b else "false"


def _quiver_dot(q):
    lines = [f'digraph "{q.name}" {{']
    for v in q.vertices:
        lines.append(f'  "{v}";')
    for ar in q.arrows:
        lines.append(f'  "{ar.source}" -> "{ar.target}" [label="{ar.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write_file(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise QsaError(f"cannot write {path}: {e.strerror or e}") from None


def _matrix_lines(rows):
    """The rows, each cell right-aligned to the widest one.  Each distinct
    value is formatted once, so a row is one join of dictionary lookups."""
    values = set().union(*map(set, rows))
    width = max((len(str(x)) for x in values), default=1)
    cell = {x: str(x).rjust(width) for x in values}
    return ["  " + " ".join(map(cell.__getitem__, row)) for row in rows]


# an exponent of six or more digits (underscores aside) gives a number too
# large to print, and Fraction would take seconds or more to build it
_HUGE_EXPONENT_RE = re.compile(r"[eE][-+]?0*[1-9]\d{5}")


def _exact_text(x, what):
    """str(x), refused with QsaError when x has more digits than Python
    converts to text (sys.get_int_max_str_digits)."""
    try:
        return str(x)
    except ValueError:
        raise QsaError(f"{what} is too large to print") from None


def _parse_vector(text, n):
    parts = [p.strip() for p in text.split(",")]   # an empty field does not parse
    for p in parts:
        if _HUGE_EXPONENT_RE.search(p.replace("_", "")):
            raise QsaError(f"vector entry {p!r} is too large to print")
    try:
        vec = [Fraction(p) for p in parts]
    except ValueError:
        raise QsaError(f"cannot parse vector {text!r}") from None
    except ZeroDivisionError:
        raise QsaError(f"zero denominator in vector {text!r}") from None
    for p, t in zip(parts, vec):
        _exact_text(t, f"vector entry {p!r}")
    if len(vec) != n:
        raise QsaError(f"vector has {len(vec)} entries, expected {n}")
    return vec


# --- subcommands --------------------------------------------------------------


def _cmd_check(args):
    a = _load(args.file)
    rep = validate(a)
    qs = is_quadratic_string(a)
    if args.json:
        _emit_json({
            "name": a.quiver.name,
            "vertices": len(a.quiver.vertices),
            "arrows": len(a.quiver.arrows),
            "relations": len(a.relations),
            "connected": rep.connected,
            "monomial": rep.monomial,
            "quadratic_monomial": rep.quadratic_monomial,
            "admissible": rep.admissible,
            "certified": rep.certified,
            "nilpotency_bound": rep.nilpotency_bound,
            "quadratic_string": qs.ok,
            "string_violations": list(qs.violations),
            "problems": list(rep.problems),
            "ok": rep.ok,
        })
        return 0
    q = a.quiver
    print(f"{q.name}: {len(q.vertices)} vertices, {len(q.arrows)} arrows, "
          f"{len(a.relations)} relations")
    print(f"connected: {_fmt_bool(rep.connected)}")
    print(f"monomial: {_fmt_bool(rep.monomial)}"
          + (" (quadratic)" if rep.quadratic_monomial else ""))
    if rep.certified:
        extra = f" (rad^{rep.nilpotency_bound} = 0)" if rep.admissible else ""
        print(f"admissible: {_fmt_bool(rep.admissible)}{extra}")
    else:
        print("admissible: not certified")
    print(f"quadratic string: {_fmt_bool(qs.ok)}")
    for v in qs.violations:
        print(f"  - {v}")
    for p in rep.problems:
        print(f"problem: {p}")
    return 0


def _cmd_classify(args):
    a = _load(args.file)
    cls = classify_vertices(a)
    if args.json:
        _emit_json({
            "vertices": {
                v: {
                    "kind": c.kind,
                    "exceptional_class": c.exceptional_class,
                    "witness": c.witness,
                    "ordinary_in": list(c.ordinary_in),
                }
                for v, c in cls.classes.items()
            },
            "E": {str(i): list(cls.exceptional[i]) for i in range(1, 7)},
            "O": {str(i): list(cls.ordinary[i]) for i in range(1, 7)},
            "flags": {
                "is_quadratic_string": cls.is_quadratic_string,
                "is_gqs": cls.gqs,
                "is_gentle": cls.is_gentle_presentation,
            },
            "violations": list(cls.violations),
            "diagnostics": list(cls.diagnostics),
        })
        return 0
    for v in sorted(a.quiver.vertices, key=natural_key):
        c = cls.classes[v]
        tail = ""
        if c.kind == "exceptional":
            tail = f" (class {c.exceptional_class})"
        if c.ordinary_in:
            marks = ", ".join(f"O{i}" for i in c.ordinary_in)
            tail += f" [{marks}]"
        print(f"vertex {v}: {c.kind}{tail}")
    for i in range(1, 7):
        if cls.exceptional[i] or cls.ordinary[i]:
            print(f"E{i} = {_fmt_set(cls.exceptional[i])}  "
                  f"O{i} = {_fmt_set(cls.ordinary[i])}")
    print(f"is_quadratic_string: {_fmt_bool(cls.is_quadratic_string)}")
    print(f"is_gqs: {_fmt_bool(cls.gqs)}")
    for msg in cls.violations:
        print(f"  - {msg}")
    return 0


def _cmd_decide(args):
    a = _load(args.file)
    verdict = decide_derived_type(a, args.radius, args.max_size)
    if args.json:
        _emit_json(verdict.to_payload())
    else:
        print(verdict.summary)
    return 0


def _cmd_blowup(args):
    a = _load(args.file)
    blown = [v.strip() for v in args.vertices.split(",") if v.strip()]
    if not blown:
        raise QsaError("no vertices to blow up")
    spec = blow_up(a, blown)
    if args.json:
        _emit_json({
            "presentation": serialize_presentation(spec.presentation),
            "blown": list(spec.blown),
            "vertex_map": {v: list(pair) for v, pair in spec.vertex_map.items()},
            "arrow_map": {k: list(v) for k, v in spec.arrow_map.items()},
        })
    else:
        print(serialize_presentation(spec.presentation), end="")
    return 0


def _cmd_mutate(args):
    a = _load(args.file)
    b = mutate_at(a, args.vertex, args.sign)
    if args.json:
        _emit_json({"presentation": serialize_presentation(b)})
    else:
        print(serialize_presentation(b), end="")
    return 0


def _cmd_reduce(args):
    a = _load(args.file)
    cert = reduce_to_skewed_gentle(a)
    payload = certificate_payload(cert)
    if args.certificate:
        _write_file(args.certificate, json.dumps(payload, indent=2) + "\n")
    if args.json:
        _emit_json(payload)
        return 0
    n = len(cert.steps)
    noun = "step" if n == 1 else "steps"
    print(f"{n} {noun} to a gentle presentation")
    for k, s in enumerate(cert.steps, 1):
        print(f"step {k}: class {s.case} at vertex {s.vertex}; "
              f"removed {s.removed_vertex}; special {s.special_added}")
    if cert.special:
        print(f"special vertices: {', '.join(cert.special)}")
    print("final presentation:")
    print(serialize_presentation(cert.final), end="")
    return 0


def _cmd_euler(args):
    a = _load(args.file)
    c = cartan_matrix(a)
    e = euler_matrix(a)
    rep = is_nonnegative_form(e)
    data = None
    if args.json:
        data = {
            "vertices": list(e.vertices),
            "cartan": [list(row) for row in c.entries],
            "euler": [list(map(str, row)) for row in e.entries],
            "polynomial": _form_polynomial(e),
            "nonnegative": rep.nonnegative,
            "positive_definite": rep.positive_definite,
        }
        if rep.witness:
            data["negative_at"] = [str(t) for t in rep.witness]
            data["negative_value"] = str(rep.value)
    evaluated = None
    if args.eval is not None:
        vec = _parse_vector(args.eval, len(e.vertices))
        evaluated = (vec, _exact_text(euler_eval(e, vec), "the form value at that vector"))
        if args.json:
            data["eval"] = {"vector": [str(t) for t in vec],
                            "value": evaluated[1]}
    if args.json:
        _emit_json(data)
        return 0
    print("vertices: " + " ".join(e.vertices))
    print("cartan C (C[i][j] = relation-free paths j -> i):")
    for line in _matrix_lines(c.entries):
        print(line)
    print("euler E (form x^T E x, x ordered as above):")
    for line in _matrix_lines(e.entries):
        print(line)
    print("form: " + _form_polynomial(e))
    if rep.nonnegative:
        extra = " (positive definite)" if rep.positive_definite else ""
        print(f"nonnegative: true{extra}")
    else:
        vec = ", ".join(str(t) for t in rep.witness)
        print(f"nonnegative: false; value {rep.value} at ({vec})")
    if evaluated is not None:
        at = ", ".join(str(t) for t in evaluated[0])
        print(f"value at ({at}): {evaluated[1]}")
    return 0


def _form_polynomial(e):
    """The form as a polynomial, its terms in (i, j) order, read off the
    sparse rows of E: E[i][j] + E[j][i] is the coefficient of x_i x_j."""
    coefs = {}
    for i, row in enumerate(e._rows):
        for j, x in row.items():
            key = (i, j) if i <= j else (j, i)
            coefs[key] = coefs[key] + x if key in coefs else x
    terms = []
    for (i, j), coef in sorted(coefs.items()):
        if not coef:
            continue
        mono = f"x{i + 1}^2" if i == j else f"x{i + 1}*x{j + 1}"
        mag = -coef if coef < 0 else coef
        terms.append((" - " if coef < 0 else " + ") + (mono if mag == 1 else f"{mag}*{mono}"))
    text = "".join(terms)
    return ("-" if text.startswith(" - ") else "") + text[3:]


def _cmd_cover(args):
    a = _load(args.file)
    ball = truncated_cover(a, args.base, args.radius)
    if args.dot:
        _write_file(args.dot, _quiver_dot(ball.cover.quiver))
    if args.json:
        _emit_json({
            "presentation": serialize_presentation(ball.cover),
            "basepoint": ball.basepoint,
            "radius": ball.radius,
            "vertex_map": dict(ball.vertex_map),
            "arrow_map": dict(ball.arrow_map),
            "levels": dict(ball.level),
        })
    else:
        print(serialize_presentation(ball.cover), end="")
    return 0


def _cmd_witness(args):
    a = _load(args.file)
    wit, budget_hit = _witness_search(a, args.radius, args.max_size)
    if wit is None:
        if args.json:
            _emit_json({"witness": None, "budget_hit": True} if budget_hit else {"witness": None})
        elif budget_hit:
            print("none found: the search budget ran out before the bounds "
                  "were covered (QSA_WITNESS_BUDGET raises it)")
        else:
            print("none within bounds")
        return 0
    if args.dot:
        _write_file(args.dot, _quiver_dot(wit.presentation.quiver))
    if args.json:
        _emit_json({"witness": wit.to_payload()})
        return 0
    print(f"witness at basepoint {wit.basepoint}, radius {wit.radius}: "
          f"{len(wit.vertices)} vertices, shape {wit.shape.label}")
    print(wit.note)
    for u, v, names in wit.pairs:
        print(f"  {u} -> {v} ({'*'.join(names)})")
    print("presentation:")
    print(serialize_presentation(wit.presentation), end="")
    return 0


# --- parser and entry ----------------------------------------------------------


# built on the first call, not at import (nor is argparse imported before
# then); argparse keeps no state between parse_args calls, so one parser
# serves every call
@functools.cache
def _build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="qsa",
        description="Decide derived representation type of quadratic string algebras.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", metavar="FILE", help="presentation file")
        p.add_argument("--json", action="store_true",
                       help="emit a single JSON document")
        p.set_defaults(func=func)
        return p

    add("check", _cmd_check, "validate a presentation file")
    add("classify", _cmd_classify, "classify vertices and report the E/O sets")

    p = add("decide", _cmd_decide, "decide derived tameness or wildness")
    p.add_argument("--radius", type=int, default=None,
                   help="cover radius for the witness search")
    p.add_argument("--max-size", type=int, default=None,
                   help="maximum witness size for the witness search")

    p = add("blowup", _cmd_blowup, "blow up special vertices")
    p.add_argument("--vertices", required=True, metavar="V1,V2,...",
                   help="comma-separated vertices to blow up")

    p = add("mutate", _cmd_mutate, "mutate at a sink or source")
    p.add_argument("--vertex", required=True, help="vertex to mutate at")
    p.add_argument("--sign", required=True, choices=("minus", "plus"),
                   help="minus tilts at a sink, plus at a source")

    p = add("reduce", _cmd_reduce, "reduce a gqs presentation to a gentle one")
    p.add_argument("--certificate", metavar="OUT",
                   help="write the JSON certificate to this file")

    add("euler", _cmd_euler, "print Cartan and Euler data for a tree presentation"
        ).add_argument("--eval", metavar="X1,X2,...",
                       help="evaluate the form at a vector")

    p = add("cover", _cmd_cover, "materialize a ball of the universal cover")
    p.add_argument("--base", required=True, help="basepoint vertex")
    p.add_argument("--radius", required=True, type=int, help="ball radius")
    p.add_argument("--dot", metavar="OUT", help="also write the quiver as DOT")

    p = add("witness", _cmd_witness, "search cover balls for a wildness witness")
    p.add_argument("--radius", type=int, default=None, help="maximum ball radius")
    p.add_argument("--max-size", type=int, default=None,
                   help="maximum witness size")
    p.add_argument("--dot", metavar="OUT", help="write the witness quiver as DOT")

    return parser


def run_cli(argv=None):
    """Parse arguments and dispatch; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except QsaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    try:
        status = run_cli()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of the output went away (`qsa ... | head`): the standard
        # library recipe points stdout at devnull, so the flush at exit does
        # not fail again, and exits 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
