"""Derived representation type decision with machine-checkable evidence.

Trees go through the Euler-form branch: the form is non-negative exactly
for the tame ones.  Connected quivers with cycles go through the vertex
classification: gentle-or-exceptional everywhere means tame, with an
explicit reduction certificate; a vertex failing that is wildness
evidence.  Inputs that are not quadratic string presentations still get
a Wild verdict when a wildness certificate turns up, and an explicit
NotQuadraticString verdict otherwise.
"""

from .presentation import AlgebraPresentation, QsaError, validate, is_tree
from .classify import OTHER, classify_vertices, is_quadratic_string
from .transform import certificate_payload, _reduce_classified
from .euler import euler_matrix, is_nonnegative_form
from .covering import detect_local_wild_pattern, find_wild_witness

__all__ = [
    "Verdict", "decide_derived_type",
    "TAME", "WILD", "NOT_QUADRATIC_STRING", "TREE_EULER", "GQS_CYCLES",
]

TAME = "Tame"
WILD = "Wild"
NOT_QUADRATIC_STRING = "NotQuadraticString"
TREE_EULER = "TreeEuler"
GQS_CYCLES = "GqsCycles"


class Verdict:
    """Decision outcome plus the evidence backing it."""

    def __init__(self, tag, branch, summary, certificate=None, euler=None,
                 nonnegativity=None, gqs_violation=None, string_violations=(),
                 witness=None, pattern=None):
        self.tag = tag
        self.branch = branch
        self.summary = summary
        self.certificate = certificate        # ReductionCertificate
        self.euler = euler                    # EulerData
        self.nonnegativity = nonnegativity    # NonnegativityReport
        self.gqs_violation = gqs_violation    # offending vertex, if any
        self.string_violations = tuple(string_violations)
        self.witness = witness                # WildWitness
        self.pattern = pattern                # PatternReport

    @property
    def tame(self):
        return self.tag == TAME

    def __repr__(self):
        return f"Verdict({self.tag}, {self.branch})"

    def to_payload(self):
        """Plain-data dict for JSON output."""
        data = {"tag": self.tag, "branch": self.branch, "summary": self.summary}
        if self.string_violations:
            data["string_violations"] = list(self.string_violations)
        if self.gqs_violation is not None:
            data["gqs_violation"] = self.gqs_violation
        if self.euler is not None:
            data["euler"] = {
                "vertices": list(self.euler.vertices),
                "matrix": [[str(x) for x in row] for row in self.euler.entries],
            }
        if self.nonnegativity is not None:
            rep = self.nonnegativity
            data["nonnegative"] = rep.nonnegative
            if rep.witness:
                data["negative_at"] = list(rep.witness)
                data["negative_value"] = str(rep.value)
        if self.certificate is not None:
            data["certificate"] = certificate_payload(self.certificate)
        if self.witness is not None:
            data["witness"] = self.witness.to_payload()
        if self.pattern is not None:
            data["pattern"] = self.pattern.to_payload()
        return data


def decide_derived_type(a, witness_radius=None, witness_size=None):
    """Decide derived tameness/wildness of a presentation, with evidence.

    The witness bounds only affect the best-effort certificate search on
    wild or out-of-class inputs; None means the default radius 8 or size 10.
    """
    if not isinstance(a, AlgebraPresentation):
        raise QsaError("the decision needs an AlgebraPresentation")
    report = validate(a)
    if not report.connected:
        raise QsaError("the decision needs a connected quiver")
    if not (report.certified and report.admissible):
        raise QsaError("the decision needs a certified admissible ideal")

    if is_tree(a):
        # relations on a tree are single paths, so the Cartan data exists
        e = euler_matrix(a)
        rep = is_nonnegative_form(e)
        if rep.nonnegative:
            return Verdict(TAME, TREE_EULER,
                           "TAME (tree; Euler form non-negative)",
                           euler=e, nonnegativity=rep)
        vec = ", ".join(str(t) for t in rep.witness)
        return Verdict(WILD, TREE_EULER,
                       f"WILD (tree; Euler form negative at ({vec}))",
                       euler=e, nonnegativity=rep)

    cls = None
    if a.is_monomial and a.is_quadratic:
        cls = classify_vertices(a)
        if cls.gqs:
            cert = _reduce_classified(a, cls)
            n = len(cert.steps)
            noun = "vertex" if n == 1 else "vertices"
            return Verdict(TAME, GQS_CYCLES,
                           f"TAME (gqs; {n} exceptional {noun} reduced)",
                           certificate=cert)

    pattern = None
    witness = None
    if a.is_monomial:
        # sound for any monomial presentation, no string hypothesis needed
        pattern = detect_local_wild_pattern(a)
        witness = find_wild_witness(a, witness_radius, witness_size)

    if cls is not None and cls.is_quadratic_string:
        bad = next(v for v in a.quiver.vertices if cls.classes[v].kind == OTHER)
        return Verdict(WILD, GQS_CYCLES,
                       f"WILD (cycles; vertex {bad} is neither gentle nor exceptional)",
                       gqs_violation=bad, witness=witness, pattern=pattern)

    violations = cls.violations if cls is not None else is_quadratic_string(a).violations
    if pattern is not None or witness is not None:
        if pattern is not None:
            what = f"local {pattern.kind} configuration"
        else:
            what = f"{len(witness.vertices)}-vertex cover witness"
        return Verdict(WILD, GQS_CYCLES,
                       f"WILD (cycles; not quadratic string, but a wildness "
                       f"certificate exists: {what})",
                       string_violations=violations,
                       witness=witness, pattern=pattern)

    reason = violations[0] if violations else "structure violated"
    return Verdict(NOT_QUADRATIC_STRING, GQS_CYCLES,
                   f"NOT QUADRATIC STRING ({reason})",
                   string_violations=violations)
