"""pipevis: transparency ratings for ML production pipelines.

Scores how visible a pipeline's contributions are from a
bill-of-materials style assessment document: each leaf contribution
(data sources, human contributors) carries 1-4 judgements on quantity,
accuracy and freshness of its documentation, and the package aggregates
them into per-node and overall visibility indices.
"""

from .ingest import (
    DocumentError,
    MalformedSyntaxError,
    SchemaViolationError,
    SemanticViolationError,
    UnknownSchemaVersionError,
    parse_document,
    serialize_document,
)
from .metrics import (
    DegenerateWeightsError,
    InvalidWeightsError,
    LeafNodeError,
    NodeVisibility,
    RankEntry,
    SensitivityResult,
    UnknownNodeError,
    VisibilityReport,
    derived_asset_visibility,
    overall_visibility,
    quality_index,
    rank,
    sensitivity,
    visibility_index,
)
from .model import (
    Assessment,
    ContributionNode,
    Criterion,
    InvalidAssessmentError,
    Judgement,
    NodeKind,
    PipelineGraph,
    RUBRIC,
    ValidationResult,
    WeightScheme,
    validate_assessment,
    validate_graph,
)
from .report import (
    EmptyInputError,
    MixedAssetError,
    RenderedReport,
    ReportError,
    format_fixed,
    format_value,
    render_comparison,
    render_machine,
    render_rubric,
    render_sensitivity,
    render_series,
    render_table,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "Assessment",
    "ContributionNode",
    "Criterion",
    "InvalidAssessmentError",
    "Judgement",
    "NodeKind",
    "PipelineGraph",
    "RUBRIC",
    "ValidationResult",
    "WeightScheme",
    "validate_assessment",
    "validate_graph",
    # metrics
    "DegenerateWeightsError",
    "InvalidWeightsError",
    "LeafNodeError",
    "NodeVisibility",
    "RankEntry",
    "SensitivityResult",
    "UnknownNodeError",
    "VisibilityReport",
    "derived_asset_visibility",
    "overall_visibility",
    "quality_index",
    "rank",
    "sensitivity",
    "visibility_index",
    # ingest
    "DocumentError",
    "MalformedSyntaxError",
    "SchemaViolationError",
    "SemanticViolationError",
    "UnknownSchemaVersionError",
    "parse_document",
    "serialize_document",
    # report
    "EmptyInputError",
    "MixedAssetError",
    "RenderedReport",
    "ReportError",
    "format_fixed",
    "format_value",
    "render_comparison",
    "render_machine",
    "render_rubric",
    "render_sensitivity",
    "render_series",
    "render_table",
]
