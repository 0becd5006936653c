"""Visibility index computation for assessed pipelines.

Per leaf node the three judgement scores collapse into a 1-4 visibility
index: the quality index is the geometric mean of accuracy and freshness,
and the node index is the geometric mean of the quantity score and the
quality index; each :class:`~pipevis.model.Judgement` carries its own. The
overall pipeline index is the weighted sum of node indices, at full float
precision; rounding happens only at display time (see :mod:`pipevis.report`).

Weighted sums use ``math.fsum``, which is correctly rounded regardless of
term order, so relabeling or reordering nodes cannot change the overall
index and equal weighting is bit-identical to an explicit 1/M vector.

A scored report keeps its leaf ids, indices and weights as columns and
builds its ``per_node`` rows on the first read, so a caller that reads only
``overall`` and ``leaf_count`` pays for no rows; the renderers and
:func:`rank` read the columns without building rows. Equality, hashing, repr,
:func:`dataclasses.replace`, copies and pickles read the rows, so they see
a plain report; they go through the constructor, which checks each field's
type, while scoring builds its reports past it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from itertools import repeat
from operator import itemgetter, mul, truediv
from typing import NamedTuple

from .model import (
    _gather,
    _init_args,
    Assessment,
    Judgement,
    NodeKind,
    WeightScheme,
    InvalidAssessmentError,
    _is_integer,
    _is_number,
    _items,
    _require,
    validate_assessment,
)

__all__ = [
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


class NodeVisibility(NamedTuple):
    """Computed indices for one leaf node, plus its weight in the overall sum.

    A report holds one per leaf, so it is a tuple: it unpacks and compares
    equal to a plain tuple, and ``_replace`` makes a changed copy.
    """

    node_id: str
    quantity_index: float
    quality_index: float
    visibility_index: float
    weight: float


@dataclass(frozen=True)
class VisibilityReport:
    """Per-node indices (sorted by node id) and the weighted overall index.

    A report that scoring returns builds ``per_node`` on its first read (see
    the module docstring); copying and unpickling go through the constructor.
    The constructor raises ``ValueError`` unless ``per_node`` is a tuple of
    rows, each a string id and four numbers, ``overall`` is a number and
    ``leaf_count`` an integer. ``display_precision`` is left to the
    renderers, which refuse it as they refuse a precision argument.
    """

    per_node: tuple[NodeVisibility, ...]
    overall: float
    leaf_count: int
    display_precision: int = 2

    def __post_init__(self) -> None:
        rows = self.per_node
        if type(rows) is not tuple:
            raise ValueError(
                f"report per_node must be a tuple, got {type(rows).__name__}"
            )
        what = "a NodeVisibility of a string id and four numbers"
        for row in rows:
            _require("report row", row, _is_row, what)
        _require("report overall", self.overall, _is_number, "a number")
        _require("report leaf_count", self.leaf_count, _is_integer, "an integer")

    def __getattr__(self, name: str) -> object:
        # Runs only for a name the instance lacks.
        state = vars(self)
        if name != "per_node" or "_columns" not in state:
            return object.__getattribute__(self, name)  # raises AttributeError
        rows = tuple(map(NodeVisibility._make, self._cells()))
        # A thread that built them first wins, so every read sees one tuple.
        rows = state.setdefault("per_node", rows)
        state.pop("_columns", None)
        return rows

    def _cells(self) -> Iterator[tuple[str, float, float, float, float]]:
        """Each row's five fields; a scored report's are zipped in C, unbuilt."""
        columns = vars(self).get("_columns")
        if columns is None:
            return iter(self.per_node)
        leaf_ids, indices, weights = columns
        return zip(leaf_ids, map(_quantity, indices), map(_quality, indices),
                   map(_visibility, indices), weights)

    __reduce__ = _init_args


def _is_row(row: object) -> bool:
    return (isinstance(row, NodeVisibility) and isinstance(row[0], str)
            and all(map(_is_number, row[1:])))


class RankEntry(NamedTuple):
    asset_name: str
    asset_version: str
    overall: float


@dataclass(frozen=True)
class SensitivityResult:
    """Baseline and what-if reports, with the full-precision overall delta.

    The constructor raises ``ValueError`` unless both reports are
    :class:`VisibilityReport` instances and the delta is a number.
    """

    baseline: VisibilityReport
    modified: VisibilityReport
    overall_delta: float

    def __post_init__(self) -> None:
        for name in ("baseline", "modified"):
            _require(f"sensitivity {name}", getattr(self, name), VisibilityReport,
                     "a VisibilityReport")
        delta = self.overall_delta
        _require("sensitivity overall_delta", delta, _is_number, "a number")


def quality_index(judgement: Judgement) -> float:
    """Geometric mean of the accuracy and freshness scores."""
    _require("judgement", judgement, Judgement, "a Judgement", _invalid)
    return judgement._indices[1]


def visibility_index(judgement: Judgement) -> float:
    """Geometric mean of the quantity and quality indices, in [1, 4]."""
    _require("judgement", judgement, Judgement, "a Judgement", _invalid)
    return judgement._indices[2]


def _require_valid(assessment: Assessment, subject: str | None = None) -> None:
    result = validate_assessment(assessment)
    if not result.ok:
        raise InvalidAssessmentError(result.violations, subject=subject)


def _invalid(violation: str) -> InvalidAssessmentError:
    return InvalidAssessmentError([violation])


def _is_pair(item: object) -> bool:
    return isinstance(item, tuple) and len(item) == 2


_quantity, _quality, _visibility = map(itemgetter, range(3))


def _weighted_report(
    assessment: Assessment,
    leaf_ids: Sequence[str],
    indices: Sequence[tuple[float, float, float]],
    weights: Iterable[float],
) -> VisibilityReport:
    """Report on ``leaf_ids`` (sorted), their indices and their weights, in
    order, and the weighted sum, taken in C.

    The report keeps the columns, and builds its rows from them when
    ``per_node`` is first read.
    """
    weights = tuple(weights)
    report = object.__new__(VisibilityReport)
    vars(report).update(
        overall=math.fsum(map(mul, map(_visibility, indices), weights)),
        leaf_count=len(indices),
        display_precision=assessment.display_precision,
        _columns=(leaf_ids, indices, weights),
    )
    return report


def overall_visibility(assessment: Assessment) -> VisibilityReport:
    """Score the whole pipeline: weighted sum of leaf visibility indices.

    With equal weights this is the arithmetic mean of the node indices.
    Raises :class:`~pipevis.model.InvalidAssessmentError` (carrying every
    violation) if the assessment does not validate.
    """
    _require_valid(assessment)
    return _weighted_report(assessment, *assessment._leaf_columns)


def derived_asset_visibility(assessment: Assessment, node_id: str) -> VisibilityReport:
    """Score a derived or output asset from its contributing leaves only.

    The report is ``overall_visibility`` restricted to the leaf ancestors of
    ``node_id``, with weights renormalised over that set when it is not all
    the leaves (equal weighting becomes 1/m over the m ancestors). Scoring
    the output node is identical to scoring the whole pipeline. The leaf
    ancestors of every node are collected on the first call for a graph, as
    the ranks of its leaves in id order (a sorted tuple, or a bitset when
    dense), and each report column is gathered by those ranks from the
    assessment's leaf columns, so no call looks a judgement up or walks the
    graph. A ``node_id`` that is not a string is an unknown node.
    """
    _require_valid(assessment)
    graph = assessment.graph
    kind = graph._kind_of(node_id)
    if kind is None:
        raise UnknownNodeError(node_id)
    if kind not in (NodeKind.DERIVED_ASSET, NodeKind.OUTPUT_ASSET):
        raise LeafNodeError(node_id, kind)

    members = graph._leaf_sets[node_id]
    leaf_ids, indices, weights = _gather(members, assessment._leaf_columns)
    scheme = assessment.weights
    if scheme.is_equal:
        weights = scheme._column(leaf_ids)
    elif len(leaf_ids) < len(graph._index.leaves):
        total = math.fsum(weights)
        if total <= 0:
            raise DegenerateWeightsError(node_id, leaf_ids)
        weights = list(map(truediv, weights, repeat(total)))
    return _weighted_report(assessment, leaf_ids, indices, weights)


def rank(assessments: Iterable[Assessment]) -> list[RankEntry]:
    """Order assessments by unrounded overall index, descending.

    Ties break on the higher minimum node index, then lexicographically on
    (asset name, asset version), so the result is stable and deterministic.
    Raises :class:`~pipevis.model.InvalidAssessmentError` naming an invalid
    assessment, an item that is not an :class:`~pipevis.model.Assessment` by
    position, or a non-iterable argument by type. Every item's type is checked
    before any item is validated.
    """
    items = _items("assessments", assessments, Assessment, "an Assessment", _invalid)
    scored = []
    for assessment in items:
        subject = f"{assessment.asset_name} {assessment.asset_version}"
        _require_valid(assessment, subject=subject)
        report = overall_visibility(assessment)
        min_vis = min(map(itemgetter(3), report._cells()))  # visibility_index
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
    from scratch. The delta is modified minus baseline at full precision.
    Judgement changes must target existing leaf nodes. Changes and weights of
    the wrong type raise :class:`~pipevis.model.InvalidAssessmentError`.
    """
    baseline = overall_visibility(assessment)

    items = changes.items() if isinstance(changes, Mapping) else _items(
        "changes", changes, _is_pair, "a (node id, judgement) pair", _invalid
    )
    new_judgements = dict(assessment.judgements)
    for node_id, judgement in items:
        # A valid assessment judges exactly its leaves.
        if not isinstance(node_id, str) or node_id not in assessment.judgements:
            if assessment.graph._kind_of(node_id) is not None:
                raise UnknownNodeError(
                    node_id, f"node {node_id} is not a leaf and cannot be re-judged"
                )
            raise UnknownNodeError(node_id)
        new_judgements[node_id] = judgement

    try:
        modified_assessment = replace(
            assessment,
            judgements=new_judgements,
            weights=assessment.weights if weights is None else weights,
        )
    except ValueError as error:  # the constructor refused a change or the weights
        raise _invalid(str(error)) from None
    result = validate_assessment(modified_assessment)
    if not result.ok:
        raise InvalidWeightsError(result.violations)
    modified = overall_visibility(modified_assessment)
    return SensitivityResult(
        baseline=baseline,
        modified=modified,
        overall_delta=modified.overall - baseline.overall,
    )
