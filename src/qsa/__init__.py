"""Derived representation type of quadratic string algebras.

The package decides whether a bounded quiver presentation is derived tame or
derived wild and, in the tame cyclic case, produces an explicit reduction
certificate down to a skewed-gentle presentation (blow-up plus mutation
moves). See the README for the file format and the `qsa` command line tool.
"""

from .presentation import (
    QsaError, Arrow, Path, RelationTerm, Quiver, AlgebraPresentation,
    ValidationReport, parse_presentation, serialize_presentation, validate,
    underlying_graph, is_tree, path_basis, presentations_isomorphic, opposite,
)
from .classify import (
    VertexClass, VertexClassification, QuadraticStringReport, SpecialVertices,
    is_quadratic_string, classify_vertices, is_gqs, special_vertices,
)
from .transform import (
    BlowupSpec, ReductionStep, ReductionCertificate, blow_up, mutate_at,
    reduce_step, reduce_to_skewed_gentle, certificate_payload,
    certificate_to_json,
)
from .covering import (
    CoverBall, GraphType, WildWitness, PatternReport, truncated_cover,
    graph_type, find_wild_witness, detect_local_wild_pattern,
)
from .euler import (
    CartanMatrix, EulerData, NonnegativityReport, cartan_matrix, euler_matrix,
    euler_eval, is_nonnegative_form,
)
from .decide import Verdict, decide_derived_type
from .cli import run_cli

__version__ = "0.1.0"

__all__ = [
    "QsaError", "Arrow", "Path", "RelationTerm", "Quiver",
    "AlgebraPresentation", "ValidationReport", "parse_presentation",
    "serialize_presentation", "validate", "underlying_graph", "is_tree",
    "path_basis", "presentations_isomorphic", "opposite",
    "VertexClass", "VertexClassification", "QuadraticStringReport",
    "SpecialVertices", "is_quadratic_string", "classify_vertices", "is_gqs",
    "special_vertices",
    "BlowupSpec", "ReductionStep", "ReductionCertificate", "blow_up",
    "mutate_at", "reduce_step", "reduce_to_skewed_gentle",
    "certificate_payload", "certificate_to_json",
    "CoverBall", "GraphType", "WildWitness", "PatternReport",
    "truncated_cover", "graph_type", "find_wild_witness",
    "detect_local_wild_pattern",
    "CartanMatrix", "EulerData", "NonnegativityReport", "cartan_matrix",
    "euler_matrix", "euler_eval", "is_nonnegative_form",
    "Verdict", "decide_derived_type",
    "run_cli",
    "__version__",
]
