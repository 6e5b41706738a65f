"""Topology-based geometric modeling kernel.

Objects are generalized maps: graphs over darts whose arcs carry
topological dimensions, subject to the incidence and cycle constraints.
Modeling operations are rule schemes, folded rewrite rules that unfold
against the orbit of an anchor dart and then apply as ordinary graph
rewrites, with embedded geometry carried along.
"""

from .errors import (
    ArityError,
    ConstraintViolationError,
    DanglingDartError,
    DimensionError,
    DirectiveError,
    DuplicateNodeError,
    EmbeddingError,
    GmapError,
    MalformedFaceError,
    MatchError,
    MeshError,
    MissingDirectiveError,
    NonManifoldEdgeError,
    ParseError,
    PostValidationError,
    RelabelingError,
    SchemeError,
    UnknownLayerError,
    UnknownLinkError,
    UnknownNodeError,
)
from .gmap import (
    CycleViolation,
    EmbeddingLayer,
    EmbeddingViolation,
    Gmap,
    IncidenceViolation,
    ValidationReport,
)
from .graph import LabeledGraph, Link
from .mesh import PolygonalMesh, unify
from .orbits import (
    REMOVE,
    GeneralizedOrbitType,
    OrbitType,
    RelabelingFunction,
)
from .rewrite import (
    EmbeddingDirective,
    Match,
    apply_rule,
    complete_match,
    extend_match,
    parse_directive,
)
from .scheme import (
    GraphScheme,
    InstantiatedRule,
    RuleScheme,
    SchemeArc,
    instance_name,
    instantiate_rule,
    instantiate_scheme,
    split_instance,
)
from .textio import (
    export_obj,
    import_off,
    parse_gmap,
    parse_rule_scheme,
    serialize_gmap,
    serialize_rule_scheme,
)

__version__ = "0.1.0"
