"""Modeling and decomposition of accuracy, noise, and bias in citation systems."""

from .audit import (
    AuditReport,
    JustificationEntry,
    OmissionFlags,
    SimilarityMatrix,
    audit_justification,
    build_similarity,
    canonicalize_key,
    omission_indicator,
    parse_justification_table,
    serialize_justification_table,
)
from .fixtures import builtin_fixture, fixture_names
from .metrics import (
    BiasDirection,
    BiasResult,
    NoiseReport,
    analyze,
    citation_bias,
)
from .model import (
    CitationSystem,
    DecisionClass,
    build_system,
    classify_decision,
    error_matrix,
)
from .simulate import (
    GenerativeConfig,
    LatentTruth,
    aggregation_curve,
    bias_recovery,
    decompose_pattern_noise,
    expected_bias,
    generate_system,
    replicate_decisions,
)

__version__ = "0.1.0"
