"""Visibility index computation for assessed pipelines.

Per leaf node the three judgement scores collapse into a 1-4 visibility
index: the quality index is the geometric mean of accuracy and freshness,
and the node index is the geometric mean of the quantity score and the
quality index. The overall pipeline index is the weighted sum of node
indices. Everything is computed at full float precision; rounding happens
only at display time (see :mod:`pipevis.report`).

Weighted sums use ``math.fsum``, which is correctly rounded regardless of
term order, so relabeling or reordering nodes cannot change the overall
index and equal weighting is bit-identical to an explicit 1/M vector.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

from .model import (
    Assessment,
    Judgement,
    NodeKind,
    WeightScheme,
    InvalidAssessmentError,
    _reaching_set,
    validate_assessment,
)

__all__ = [
    "NodeVisibility",
    "VisibilityReport",
    "RankEntry",
    "SensitivityResult",
    "quantity_index",
    "quality_index",
    "visibility_index",
    "node_visibility",
    "overall_visibility",
    "derived_asset_visibility",
    "rank",
    "sensitivity",
    "UnknownNodeError",
    "LeafNodeError",
    "DegenerateWeightsError",
    "InvalidWeightsError",
]


class UnknownNodeError(ValueError):
    """A node id does not exist in the graph (or is not a judged leaf)."""

    def __init__(self, node_id: str, message: str | None = None):
        self.node_id = node_id
        super().__init__(message or f"unknown node: {node_id}")


class LeafNodeError(ValueError):
    """Derived-asset scoring was requested for a node that is not one."""

    def __init__(self, node_id: str, kind: NodeKind):
        self.node_id = node_id
        super().__init__(
            f"node {node_id} has kind {kind.value}; derived-asset scoring "
            "requires a DerivedAsset or OutputAsset node"
        )


class DegenerateWeightsError(ValueError):
    """Explicit weights over the selected leaves sum to zero."""

    def __init__(self, node_id: str, leaf_ids: Sequence[str]):
        self.node_id = node_id
        self.leaf_ids = tuple(leaf_ids)
        super().__init__(
            f"explicit weights of the leaves contributing to {node_id} sum to 0 "
            f"({', '.join(leaf_ids)}); cannot renormalise"
        )


class InvalidWeightsError(ValueError):
    """A replacement weight scheme failed assessment validation."""

    def __init__(self, violations: Sequence[str]):
        self.violations = tuple(violations)
        super().__init__("invalid weights: " + "; ".join(self.violations))


@dataclass(frozen=True)
class NodeVisibility:
    """Computed indices for one leaf node, plus its weight in the overall sum."""

    node_id: str
    quantity_index: float
    quality_index: float
    visibility_index: float
    weight: float


@dataclass(frozen=True)
class VisibilityReport:
    """Per-node indices (sorted by node id) and the weighted overall index."""

    per_node: tuple[NodeVisibility, ...]
    overall: float
    leaf_count: int
    weight_scheme: WeightScheme
    display_precision: int = 2

    def node(self, node_id: str) -> NodeVisibility:
        for entry in self.per_node:
            if entry.node_id == node_id:
                return entry
        raise UnknownNodeError(node_id)


class RankEntry(NamedTuple):
    asset_name: str
    asset_version: str
    overall: float


@dataclass(frozen=True)
class SensitivityResult:
    """Baseline and what-if reports, with full-precision deltas."""

    baseline: VisibilityReport
    modified: VisibilityReport
    node_deltas: Mapping[str, float]
    overall_delta: float


def quantity_index(judgement: Judgement) -> float:
    """The quantity score as a real number."""
    return float(judgement.quantity)


def quality_index(judgement: Judgement) -> float:
    """Geometric mean of the accuracy and freshness scores."""
    return math.sqrt(judgement.accuracy * judgement.freshness)


def visibility_index(judgement: Judgement) -> float:
    """Geometric mean of the quantity and quality indices, in [1, 4]."""
    return math.sqrt(quantity_index(judgement) * quality_index(judgement))


def node_visibility(
    node_id: str, judgement: Judgement, weight: float = 0.0
) -> NodeVisibility:
    """All indices for one node at full precision; no intermediate rounding."""
    quantity = quantity_index(judgement)
    quality = quality_index(judgement)
    return NodeVisibility(
        node_id=node_id,
        quantity_index=quantity,
        quality_index=quality,
        visibility_index=math.sqrt(quantity * quality),
        weight=weight,
    )


def _require_valid(assessment: Assessment, subject: str | None = None) -> None:
    result = validate_assessment(assessment)
    if not result.ok:
        raise InvalidAssessmentError(result.violations, subject=subject)


def _weighted_report(
    assessment: Assessment,
    leaf_ids: Sequence[str],
    weights: Mapping[str, float],
    scheme: WeightScheme,
) -> VisibilityReport:
    rows = tuple(
        node_visibility(nid, assessment.judgements[nid], weights[nid])
        for nid in leaf_ids
    )
    overall = math.fsum(row.visibility_index * row.weight for row in rows)
    return VisibilityReport(
        per_node=rows,
        overall=overall,
        leaf_count=len(rows),
        weight_scheme=scheme,
        display_precision=assessment.display_precision,
    )


def overall_visibility(assessment: Assessment) -> VisibilityReport:
    """Score the whole pipeline: weighted sum of leaf visibility indices.

    With equal weights this is the arithmetic mean of the node indices.
    Raises :class:`~pipevis.model.InvalidAssessmentError` (carrying every
    violation) if the assessment does not validate.
    """
    _require_valid(assessment)
    return _score(assessment)


def _score(assessment: Assessment) -> VisibilityReport:
    """``overall_visibility`` of an assessment the caller has validated."""
    leaf_ids = assessment.graph.leaf_ids()
    weights = assessment.weights.resolve(leaf_ids)
    return _weighted_report(assessment, leaf_ids, weights, assessment.weights)


def derived_asset_visibility(assessment: Assessment, node_id: str) -> VisibilityReport:
    """Score a derived or output asset from its contributing leaves only.

    The report is ``overall_visibility`` restricted to the leaf ancestors of
    ``node_id``, with weights renormalised over that set (equal weighting
    becomes 1/m over the m ancestors). Scoring the output node is identical
    to scoring the whole pipeline.
    """
    _require_valid(assessment)
    graph = assessment.graph
    node = graph.node_by_id(node_id)
    if node is None:
        raise UnknownNodeError(node_id)
    if node.kind not in (NodeKind.DERIVED_ASSET, NodeKind.OUTPUT_ASSET):
        raise LeafNodeError(node_id, node.kind)

    ancestors = _reaching_set(graph, node_id)
    leaf_ids = [nid for nid in graph.leaf_ids() if nid in ancestors]

    if assessment.weights.is_equal:
        share = 1.0 / len(leaf_ids)
        weights = {nid: share for nid in leaf_ids}
        scheme = WeightScheme.equal()
    else:
        raw = assessment.weights.resolve(leaf_ids)
        total = math.fsum(raw.values())
        if total <= 0:
            raise DegenerateWeightsError(node_id, leaf_ids)
        weights = {nid: value / total for nid, value in raw.items()}
        scheme = WeightScheme.explicit(weights)

    return _weighted_report(assessment, leaf_ids, weights, scheme)


def rank(assessments: Sequence[Assessment]) -> list[RankEntry]:
    """Order assessments by unrounded overall index, descending.

    Ties break on the higher minimum node index, then lexicographically on
    (asset name, asset version), so the result is stable and deterministic.
    Raises :class:`~pipevis.model.InvalidAssessmentError` naming the
    offending assessment if any input is invalid.
    """
    scored = []
    for assessment in assessments:
        subject = f"{assessment.asset_name} {assessment.asset_version}"
        _require_valid(assessment, subject=subject)
        report = _score(assessment)
        min_vis = min(row.visibility_index for row in report.per_node)
        scored.append((assessment, report.overall, min_vis))
    scored.sort(
        key=lambda item: (
            -item[1],
            -item[2],
            item[0].asset_name,
            item[0].asset_version,
        )
    )
    return [
        RankEntry(a.asset_name, a.asset_version, overall)
        for a, overall, _ in scored
    ]


def sensitivity(
    assessment: Assessment,
    changes: Mapping[str, Judgement] | Iterable[tuple[str, Judgement]] = (),
    weights: WeightScheme | None = None,
) -> SensitivityResult:
    """What-if analysis: re-judge leaves and/or swap the weight scheme.

    The baseline assessment is untouched; the modified report is recomputed
    from scratch. Deltas are modified minus baseline at full precision.
    Judgement changes must target existing leaf nodes; with only a weight
    change every node delta is zero.
    """
    baseline = overall_visibility(assessment)

    leaf_ids = set(assessment.graph.leaf_ids())
    items = changes.items() if isinstance(changes, Mapping) else changes
    new_judgements = dict(assessment.judgements)
    for node_id, judgement in items:
        if node_id not in leaf_ids:
            if node_id in assessment.graph.node_ids():
                raise UnknownNodeError(
                    node_id, f"node {node_id} is not a leaf and cannot be re-judged"
                )
            raise UnknownNodeError(node_id)
        new_judgements[node_id] = judgement

    modified_assessment = replace(
        assessment,
        judgements=new_judgements,
        weights=assessment.weights if weights is None else weights,
    )
    result = validate_assessment(modified_assessment)
    if not result.ok:
        raise InvalidWeightsError(result.violations)
    modified = _score(modified_assessment)

    node_deltas = {
        after.node_id: after.visibility_index - before.visibility_index
        for before, after in zip(baseline.per_node, modified.per_node)
    }
    return SensitivityResult(
        baseline=baseline,
        modified=modified,
        node_deltas=node_deltas,
        overall_delta=modified.overall - baseline.overall,
    )
