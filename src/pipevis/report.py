"""Rendering of visibility results as tables and machine-readable documents.

Two display styles coexist, both deliberate:

* Score tables (``render_table``, ``render_comparison``, ``render_rubric``)
  print values the way the source tables do -- integers bare (``4``, ``3``),
  everything else rounded half-away-from-zero to the display precision
  (``2.45``, ``2.90``).
* Trend output (``render_series``, ``render_sensitivity``) always keeps the
  decimals (``4.00``, ``0.00``, ``-1.10``) so deltas line up column-wise.

Both styles write every finite value in fixed point, however small or large
(``0.0000000``, never ``0E-7``), and refuse an infinite or NaN value, an
int past the float range or a value that is not an int or a float with a
:class:`ReportError`, as they refuse a precision outside 0 to
``PRECISION_MAX``, or an argument of the wrong type. Machine documents skip display
rounding entirely: computed indices are emitted as JSON numbers at 15
significant digits.

All renderers are pure; identical inputs produce byte-identical bodies, and
every body ends with exactly one newline.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from functools import cache
from json.encoder import encode_basestring

from .ingest import _put, document_text
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
    _PRECISION,
    _as_float,
    _is_number,
    _is_precision,
    _items,
    _require,
)

__all__ = [
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


#: Rounds half away from zero, with digits for any finite float (at most 309
#: before the point) at ``PRECISION_MAX`` decimals.
_CONTEXT = Context(prec=330, rounding=ROUND_HALF_UP)


def _quantize(value: float, precision: int) -> Decimal:
    _require("precision", precision, _is_precision, _PRECISION, ReportError)
    if not _is_number(value):
        raise ReportError(f"cannot format a value that is not a number: {value!r}")
    # An int past the float range reads as ±inf, as it does in a WeightScheme.
    if not math.isfinite(number := _as_float(value)):
        raise ReportError(f"cannot format a non-finite value: {number!r}")
    # Decimal(float) is exact, so ties break on the value actually computed.
    exact = Decimal(value)
    quantized = _CONTEXT.quantize(exact, Decimal(1).scaleb(-precision))
    return quantized.copy_abs() if not quantized else quantized  # drop "-0.00"


def format_value(value: float, precision: int = 2) -> str:
    """Round half-away-from-zero; exact integers render bare (``3``, not ``3.00``)."""
    quantized = _quantize(value, precision)
    integral = quantized.to_integral_value()
    return format(integral if quantized == integral else quantized, "f")


def format_fixed(value: float, precision: int = 2) -> str:
    """Round half-away-from-zero, always keeping ``precision`` decimals."""
    return format(_quantize(value, precision), "f")


def _report(body_lines: list[str]) -> RenderedReport:
    body_lines.append("")  # the newline every body ends with
    return RenderedReport("\n".join(body_lines))


def render_table(
    report: VisibilityReport,
    judgements: Mapping[str, Judgement],
    precision: int | None = None,
) -> RenderedReport:
    """Per-node score table plus the overall row.

    Columns: Node, Quantity, Freshness, Accuracy, VISQuality, VIS; the last
    row is labeled "Overall VIS for model". Each row reads its node's
    judgement from ``judgements``; other keys are ignored, so a derived-asset
    report takes the assessment's full mapping. A row whose node has no
    judgement, or a judgement that is not a :class:`Judgement`, raises
    :class:`ReportError`.
    """
    _require("report", report, VisibilityReport, "a VisibilityReport", ReportError)
    _require("judgements", judgements, Mapping, "a mapping", ReportError)
    if precision is None:
        precision = report.display_precision
    # A row past its node id depends only on its judgement's levels and its
    # two indices, and a leaf has one of 64 such states, so each state's tail
    # is formatted once. 0.0 and -0.0 are equal keys, and both print 0.
    @cache
    def tail(quantity: int, freshness: int, accuracy: int, *indices: float) -> str:
        cells = [str(quantity), str(freshness), str(accuracy)]
        cells += [format_value(index, precision) for index in indices]
        return " | " + " | ".join(cells)

    lines = [TABLE_HEADER]
    for node_id, _, quality, visibility, _ in report._cells():
        try:
            judgement = judgements[node_id]
            levels = judgement.quantity, judgement.freshness, judgement.accuracy
        except KeyError:
            raise ReportError(f"no judgement for node {node_id}") from None
        except AttributeError:
            raise ReportError(
                f"judgement for node {node_id} is not a Judgement: {judgement!r}"
            ) from None
        lines.append(node_id + tail(*levels, quality, visibility))
    lines.append(f"{OVERALL_LABEL} | {format_value(report.overall, precision)}")
    return _report(lines)


def render_comparison(
    ranked: Iterable[RankEntry], precision: int = 2
) -> RenderedReport:
    """Ranking table, one row per assessment, best first."""
    ranked = _items("ranked", ranked, RankEntry, "a RankEntry", ReportError)
    if not ranked:
        raise EmptyInputError("nothing to compare: ranking is empty")
    lines = [COMPARISON_HEADER]
    for position, (name, version, overall) in enumerate(ranked):
        try:
            lines.append(" | ".join((name, version, format_value(overall, precision))))
        except TypeError:
            raise ReportError(
                f"item {position} has a name or version that is not a string: "
                f"{ranked[position]!r}"
            ) from None
    return _report(lines)


def render_series(
    assessments: Iterable[Assessment], precision: int | None = None
) -> RenderedReport:
    """Date-ordered overall VIS for one asset, with the net change at the end."""
    assessments = _items(
        "assessments", assessments, Assessment, "an Assessment", ReportError
    )
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
    _require("report", report, VisibilityReport, "a VisibilityReport", ReportError)
    _require("assessment", assessment, Assessment, "an Assessment", ReportError)
    if scope_node is not None:
        _require("scope_node", scope_node, str, "a string", ReportError)
    # Not functools.cache: each column prints 0.0 and -0.0 apart, and a cache
    # would merge the equal keys.
    tails: dict[tuple[float, float, float, float], str] = {}
    rows = []
    for node_id, quantity, quality, visibility, weight in report._cells():
        key = (quantity, quality, visibility, weight)
        tail = tails.get(key)
        if tail is None:
            tail = (
                f',\n        "quantity_index": {_sig15(quantity)!r},'
                f'\n        "quality_index": {_sig15(quality)!r},'
                f'\n        "visibility_index": {_sig15(visibility)!r},'
                f'\n        "weight": {_sig15(weight)!r}\n      }}'
            )
            if all(key):  # 0.0 and -0.0 are equal keys but print differently
                tails[key] = tail
        rows.append(f'{{\n        "node": {encode_basestring(node_id)}{tail}')
    scope = scope_node if scope_node is not None else "overall"
    results = [
        f',\n  "results": {{\n    "scope": {encode_basestring(scope)},'
        f'\n    "leaf_count": {int.__repr__(report.leaf_count)},\n    "per_node": '
    ]
    overall = f',\n    "overall_visibility": {_sig15(report.overall)!r}\n  }}'
    _put(results, rows, "[]", 2, overall)
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
    _require("result", result, SensitivityResult, "a SensitivityResult", ReportError)
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
