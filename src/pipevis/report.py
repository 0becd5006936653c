"""Rendering of visibility results as tables and machine-readable documents.

Two display styles coexist, both deliberate:

* Score tables (``render_table``, ``render_comparison``, ``render_rubric``)
  print values the way the source tables do -- integers bare (``4``, ``3``),
  everything else rounded half-away-from-zero to the display precision
  (``2.45``, ``2.90``).
* Trend output (``render_series``, ``render_sensitivity``) always keeps the
  decimals (``4.00``, ``0.00``, ``-1.10``) so deltas line up column-wise.

Machine documents skip display rounding entirely: computed indices are
emitted as JSON numbers at 15 significant digits.

All renderers are pure; identical inputs produce byte-identical bodies, and
every body ends with exactly one newline.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from functools import cache, partial
from json.encoder import encode_basestring

from .ingest import _block, document_text
# Unused here, but the benchmark's tracer wraps ``pipevis.report.document_dict``.
from .ingest import document_dict  # noqa: F401
from .metrics import (
    RankEntry,
    SensitivityResult,
    VisibilityReport,
    overall_visibility,
)
from .model import (
    Assessment,
    Criterion,
    Judgement,
    RUBRIC,
    SCORE_MAX,
    SCORE_MIN,
)

__all__ = [
    "RenderedReport",
    "ReportError",
    "EmptyInputError",
    "MixedAssetError",
    "format_value",
    "format_fixed",
    "render_table",
    "render_comparison",
    "render_series",
    "render_machine",
    "render_rubric",
    "render_sensitivity",
]

TABLE_HEADER = "Node | Quantity | Freshness | Accuracy | VISQuality | VIS"
OVERALL_LABEL = "Overall VIS for model"
COMPARISON_HEADER = "Asset | Version | VIS"
SERIES_HEADER = "Date | VIS"
RUBRIC_HEADER = "Score | Quantity | Freshness | Accuracy"


class ReportError(ValueError):
    """Base class for rendering precondition failures."""


class EmptyInputError(ReportError):
    """Nothing to render."""


class MixedAssetError(ReportError):
    """A series may only cover one asset."""


@dataclass(frozen=True)
class RenderedReport:
    body: str


def _quantize(value: float, precision: int) -> Decimal:
    # Decimal(float) is exact, so ties break on the value actually computed.
    exponent = Decimal(1).scaleb(-precision)
    quantized = Decimal(value).quantize(exponent, rounding=ROUND_HALF_UP)
    return abs(quantized) if not quantized else quantized  # drop "-0.00"


def format_value(value: float, precision: int = 2) -> str:
    """Round half-away-from-zero; exact integers render bare (``3``, not ``3.00``)."""
    quantized = _quantize(value, precision)
    integral = quantized.to_integral_value()
    if quantized == integral:
        return str(integral)
    return str(quantized)


def format_fixed(value: float, precision: int = 2) -> str:
    """Round half-away-from-zero, always keeping ``precision`` decimals."""
    return str(_quantize(value, precision))


def _report(body_lines: list[str]) -> RenderedReport:
    return RenderedReport("\n".join(body_lines) + "\n")


def render_table(
    report: VisibilityReport,
    judgements: Mapping[str, Judgement],
    precision: int | None = None,
) -> RenderedReport:
    """Per-node score table plus the overall row.

    Columns: Node, Quantity, Freshness, Accuracy, VISQuality, VIS; the last
    row is labeled "Overall VIS for model". Each row reads its node's
    judgement from ``judgements``; other keys are ignored, so a derived-asset
    report takes the assessment's full mapping.
    """
    if precision is None:
        precision = report.display_precision
    # A leaf's indices take one of 64 values, so each is formatted once.
    cell = cache(partial(format_value, precision=precision))
    lines = [TABLE_HEADER]
    for row in report.per_node:
        judgement = judgements[row.node_id]
        lines.append(
            " | ".join(
                (
                    row.node_id,
                    str(judgement.quantity),
                    str(judgement.freshness),
                    str(judgement.accuracy),
                    cell(row.quality_index),
                    cell(row.visibility_index),
                )
            )
        )
    lines.append(f"{OVERALL_LABEL} | {format_value(report.overall, precision)}")
    return _report(lines)


def render_comparison(
    ranked: Sequence[RankEntry], precision: int = 2
) -> RenderedReport:
    """Ranking table, one row per assessment, best first."""
    if not ranked:
        raise EmptyInputError("nothing to compare: ranking is empty")
    lines = [COMPARISON_HEADER]
    for entry in ranked:
        lines.append(
            " | ".join(
                (
                    entry.asset_name,
                    entry.asset_version,
                    format_value(entry.overall, precision),
                )
            )
        )
    return _report(lines)


def render_series(
    assessments: Sequence[Assessment], precision: int | None = None
) -> RenderedReport:
    """Date-ordered overall VIS for one asset, with the net change at the end."""
    if not assessments:
        raise EmptyInputError("nothing to render: series is empty")
    names = sorted({a.asset_name for a in assessments})
    if len(names) > 1:
        raise MixedAssetError(f"mixed assets in series: {', '.join(names)}")
    ordered = sorted(assessments, key=lambda a: a.assessed_at)
    if precision is None:
        precision = ordered[0].display_precision
    overalls = [overall_visibility(a).overall for a in ordered]
    lines = [SERIES_HEADER]
    for assessment, overall in zip(ordered, overalls):
        lines.append(
            f"{assessment.assessed_at.isoformat()} | "
            f"{format_fixed(overall, precision)}"
        )
    net = overalls[-1] - overalls[0]
    lines.append(f"Net change | {format_fixed(net, precision)}")
    return _report(lines)


def render_machine(
    report: VisibilityReport,
    assessment: Assessment,
    scope_node: str | None = None,
) -> RenderedReport:
    """Input document echoed back with a full-precision ``results`` block."""
    tails: dict[tuple[float, float, float, float], str] = {}
    rows = []
    for row in report.per_node:
        key = (row.quantity_index, row.quality_index, row.visibility_index, row.weight)
        tail = tails.get(key)
        if tail is None:
            tail = (
                f',\n        "quantity_index": {_sig15(row.quantity_index)!r},'
                f'\n        "quality_index": {_sig15(row.quality_index)!r},'
                f'\n        "visibility_index": {_sig15(row.visibility_index)!r},'
                f'\n        "weight": {_sig15(row.weight)!r}\n      }}'
            )
            if row.weight:  # 0.0 and -0.0 are equal keys but print differently
                tails[key] = tail
        rows.append(f'{{\n        "node": {encode_basestring(row.node_id)}{tail}')
    scope = scope_node if scope_node is not None else "overall"
    results = (
        f',\n  "results": {{\n    "scope": {encode_basestring(scope)},'
        f'\n    "leaf_count": {int.__repr__(report.leaf_count)},'
        f'\n    "per_node": {_block(rows, "[]", 2)},'
        f'\n    "overall_visibility": {_sig15(report.overall)!r}\n  }}'
    )
    return RenderedReport(document_text(assessment, results))


def render_rubric() -> RenderedReport:
    """The judgement scale, one row per score level."""
    lines = [RUBRIC_HEADER]
    for level in range(SCORE_MIN, SCORE_MAX + 1):
        lines.append(
            " | ".join(
                (
                    str(level),
                    RUBRIC[(Criterion.QUANTITY, level)],
                    RUBRIC[(Criterion.FRESHNESS, level)],
                    RUBRIC[(Criterion.ACCURACY, level)],
                )
            )
        )
    return _report(lines)


def render_sensitivity(
    result: SensitivityResult, precision: int | None = None
) -> RenderedReport:
    """Baseline, modified and delta overall VIS after a what-if."""
    if precision is None:
        precision = result.baseline.display_precision
    lines = [
        f"Baseline | {format_fixed(result.baseline.overall, precision)}",
        f"Modified | {format_fixed(result.modified.overall, precision)}",
        f"Delta | {format_fixed(result.overall_delta, precision)}",
    ]
    return _report(lines)


def _sig15(value: float) -> float:
    return float(f"{value:.15g}")
