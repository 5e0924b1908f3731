"""Exact sparing numbers of weak set-indexed graphs.

Computes, for a simple graph, the minimum number of singleton-labeled edges
any weak set-labeling must carry, constructs an explicit optimal labeling as
a certificate, generates the named graph families, and checks a catalog of
closed-form claims against the exact solver.
"""

from .claims import Claim, ClaimVerdict, catalog, check_claim, claim_by_id, predicted_value
from .errors import (
    CertificationFailed,
    DomainError,
    EdgeNotFound,
    GraphFormatError,
    IndexOutOfRange,
    InvalidParam,
    MissingGraph,
    MissingLabel,
    NotIndependent,
    SelfLoop,
    SparingError,
    TooLarge,
)
from .families import FamilySpec, LabeledGraph, generate, make, random_graph
from .graphs import (
    Graph,
    edges_within,
    graph_from_edges,
    is_independent,
    read_graph,
    shadow,
    subdivide_edges,
    triangles_through,
    write_graph,
)
from .labels import (
    Failure,
    FailureKind,
    Verdict,
    induced_edge_labels,
    make_label,
    mono_edges,
    read_labeling,
    sumset,
    verify_weak,
    write_labeling,
)
from .solver import (
    SearchStats,
    SparingResult,
    construct_witness,
    solve_and_certify,
    sparing_bruteforce,
    sparing_exact,
)

__version__ = "0.1.0"

__all__ = [
    "Claim",
    "ClaimVerdict",
    "FamilySpec",
    "Failure",
    "FailureKind",
    "Graph",
    "LabeledGraph",
    "SearchStats",
    "SparingResult",
    "Verdict",
    "catalog",
    "check_claim",
    "claim_by_id",
    "construct_witness",
    "edges_within",
    "generate",
    "graph_from_edges",
    "induced_edge_labels",
    "is_independent",
    "make",
    "make_label",
    "mono_edges",
    "predicted_value",
    "random_graph",
    "read_graph",
    "read_labeling",
    "shadow",
    "solve_and_certify",
    "sparing_bruteforce",
    "sparing_exact",
    "subdivide_edges",
    "sumset",
    "triangles_through",
    "verify_weak",
    "write_graph",
    "write_labeling",
    "CertificationFailed",
    "DomainError",
    "EdgeNotFound",
    "GraphFormatError",
    "IndexOutOfRange",
    "InvalidParam",
    "MissingGraph",
    "MissingLabel",
    "NotIndependent",
    "SelfLoop",
    "SparingError",
    "TooLarge",
]
