"""Assessment document parsing, validation and canonical serialization.

The carrier is a single UTF-8 JSON document, schema version "1.0"; the
normative field-by-field description ships in ``schema/assessment-1.0.json``.
Parsing is total: any byte stream either yields a valid
:class:`~pipevis.model.Assessment` or raises one of the classified errors
below -- syntax problems are position-annotated, schema problems are
gathered and reported together, and semantic problems carry the full
violation list from :func:`~pipevis.model.validate_assessment`.

Serialization is canonical: fixed key order, nodes and edges sorted by id,
``"equal"`` for equal weighting, 2-space indentation and a trailing
newline. Two equal assessments serialize to identical bytes, and
``parse_document(serialize_document(a)) == a``.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Mapping
from datetime import date
from typing import Any

from .model import (
    Assessment,
    ContributionNode,
    Criterion,
    InvalidAssessmentError,
    Judgement,
    NodeKind,
    PipelineGraph,
    RUBRIC,
    SCORE_MAX,
    SCORE_MIN,
    WeightScheme,
    validate_assessment,
)

logger = logging.getLogger(__name__)

SCHEMA_VERSION = "1.0"

_TOP_LEVEL_FIELDS = (
    "schema_version",
    "asset",
    "assessed_at",
    "assessor",
    "nodes",
    "edges",
    "judgements",
    "weights",
    "display_precision",
)
_NODE_FIELDS = ("id", "kind", "label", "description", "evidence_refs")
_EDGE_FIELDS = ("from", "to")
_JUDGEMENT_FIELDS = ("quantity", "accuracy", "freshness")
_KIND_VALUES = {kind.value for kind in NodeKind}


class DocumentError(ValueError):
    """Base class for everything ``parse_document`` can raise."""

    def __init__(self, message: str, violations: tuple[str, ...] = ()):
        self.violations = violations or (message,)
        super().__init__(message)


class MalformedSyntaxError(DocumentError):
    """Input is not well-formed UTF-8 JSON; position annotated when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line} column {column}: {message}"
        super().__init__(message)


class UnknownSchemaVersionError(DocumentError):
    def __init__(self, version: object):
        self.version = version
        super().__init__(f"unknown schema version: {version!r}")


class SchemaViolationError(DocumentError):
    """Structural problems: missing, duplicate, or ill-typed fields."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations), tuple(violations))


class SemanticViolationError(DocumentError):
    """Well-formed document whose assessment fails model validation."""

    def __init__(self, violations: tuple[str, ...]):
        super().__init__("; ".join(violations), tuple(violations))


class _DuplicateKeyError(ValueError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(key)


def _reject_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise _DuplicateKeyError(key)
        obj[key] = value
    return obj


def _load_json(data: bytes | bytearray | str, object_pairs_hook: Any = None) -> Any:
    """Decode UTF-8 JSON, mapping every decoding failure to a DocumentError."""
    try:
        if isinstance(data, (bytes, bytearray)):
            data = bytes(data).decode("utf-8")
        return json.loads(data, object_pairs_hook=object_pairs_hook)
    except UnicodeDecodeError as exc:
        raise MalformedSyntaxError(
            f"invalid UTF-8 at byte {exc.start}: {exc.reason}"
        ) from None
    except _DuplicateKeyError as exc:
        raise SchemaViolationError([f"duplicate key: {exc.key}"]) from None
    except json.JSONDecodeError as exc:
        raise MalformedSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise MalformedSyntaxError("document nested too deeply") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise MalformedSyntaxError(str(exc).partition(";")[0]) from None


def parse_document(data: bytes | bytearray | str, *, lenient: bool = False) -> Assessment:
    """Decode one assessment document into a validated Assessment.

    With ``lenient=True`` unknown fields are logged and ignored instead of
    rejected.
    """
    raw = _load_json(data, object_pairs_hook=_reject_duplicate_keys)
    if not isinstance(raw, dict):
        raise SchemaViolationError(
            [f"document root must be an object, got {_type_name(raw)}"]
        )

    if "schema_version" not in raw:
        raise SchemaViolationError(["schema_version: required field missing"])
    version = raw["schema_version"]
    if not isinstance(version, str):
        raise SchemaViolationError(
            [f"schema_version: must be a string, got {_type_name(version)}"]
        )
    if version != SCHEMA_VERSION:
        raise UnknownSchemaVersionError(version)

    errors: list[str] = []
    for key in sorted(set(raw) - set(_TOP_LEVEL_FIELDS)):
        if lenient:
            logger.warning("ignoring unknown field: %s", key)
        else:
            errors.append(f"unknown field: {key}")

    asset_name, asset_version = _parse_asset(raw, errors, lenient=lenient)
    assessed_at = _parse_date(raw, errors)
    assessor = _parse_str_field(raw, "assessor", errors)
    nodes = _parse_nodes(raw, errors, lenient=lenient)
    edges = _parse_edges(raw, errors, lenient=lenient)
    judgements = _parse_judgements(raw, errors, lenient=lenient)
    weights = _parse_weights(raw, errors)
    precision = _parse_precision(raw, errors)

    if errors:
        raise SchemaViolationError(errors)

    assessment = Assessment(
        graph=PipelineGraph(nodes=tuple(nodes), edges=tuple(edges)),
        judgements=judgements,
        weights=weights,
        asset_name=asset_name,
        asset_version=asset_version,
        assessed_at=assessed_at,
        assessor=assessor,
        display_precision=precision,
    )
    result = validate_assessment(assessment)
    if not result.ok:
        raise SemanticViolationError(result.violations)
    return assessment


def serialize_document(assessment: Assessment) -> bytes:
    """Canonical UTF-8 JSON bytes for a valid assessment."""
    result = validate_assessment(assessment)
    if not result.ok:
        raise InvalidAssessmentError(result.violations)
    return _encode(document_dict(assessment))


def document_dict(assessment: Assessment) -> dict[str, Any]:
    """The canonical document as a plain dict, keys in serialization order."""
    nodes = []
    for node in assessment.graph.nodes:
        entry: dict[str, Any] = {
            "id": node.id,
            "kind": node.kind.value,
            "label": node.label,
        }
        if node.description is not None:
            entry["description"] = node.description
        if node.evidence_refs:
            entry["evidence_refs"] = list(node.evidence_refs)
        nodes.append(entry)

    scheme = assessment.weights
    weights: str | dict[str, float]
    if scheme.is_equal:
        weights = "equal"
    else:
        assert scheme.weights is not None
        weights = {nid: float(scheme.weights[nid]) for nid in sorted(scheme.weights)}

    return {
        "schema_version": SCHEMA_VERSION,
        "asset": {
            "name": assessment.asset_name,
            "version": assessment.asset_version,
        },
        "assessed_at": assessment.assessed_at.isoformat(),
        "assessor": assessment.assessor,
        "nodes": nodes,
        "edges": [{"from": src, "to": dst} for src, dst in assessment.graph.edges],
        "judgements": {
            nid: {
                "quantity": assessment.judgements[nid].quantity,
                "accuracy": assessment.judgements[nid].accuracy,
                "freshness": assessment.judgements[nid].freshness,
            }
            for nid in sorted(assessment.judgements)
        },
        "weights": weights,
        "display_precision": assessment.display_precision,
    }


def serialize_rubric(rubric: Mapping[tuple[Criterion, int], str] = RUBRIC) -> bytes:
    """Canonical JSON dump of the 12-cell judgement rubric."""
    body = {
        criterion.value: {
            str(level): rubric[(criterion, level)]
            for level in range(SCORE_MIN, SCORE_MAX + 1)
        }
        for criterion in Criterion
    }
    return _encode({"schema_version": SCHEMA_VERSION, "rubric": body})


def parse_rubric(data: bytes | bytearray | str) -> dict[tuple[Criterion, int], str]:
    """Inverse of :func:`serialize_rubric`; raises the same classified errors."""
    raw = _load_json(data)
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise SchemaViolationError(["rubric document root must be an object"])
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise UnknownSchemaVersionError(raw.get("schema_version"))
    body = raw.get("rubric")
    if not isinstance(body, dict):
        raise SchemaViolationError(["rubric: must be an object"])

    cells: dict[tuple[Criterion, int], str] = {}
    for criterion in Criterion:
        levels = body.get(criterion.value)
        if not isinstance(levels, dict):
            errors.append(f"rubric.{criterion.value}: must be an object")
            continue
        for level in range(SCORE_MIN, SCORE_MAX + 1):
            text_value = levels.get(str(level))
            if not isinstance(text_value, str) or not text_value:
                errors.append(
                    f"rubric.{criterion.value}.{level}: must be a non-empty string"
                )
            else:
                cells[(criterion, level)] = text_value
    if errors:
        raise SchemaViolationError(errors)
    return cells


def _encode(document: dict[str, Any]) -> bytes:
    return (json.dumps(document, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _type_name(value: Any) -> str:
    if value is None:
        return "null"
    return {bool: "boolean", int: "integer", float: "number", str: "string",
            list: "array", dict: "object"}.get(type(value), type(value).__name__)


def _parse_str_field(raw: dict[str, Any], key: str, errors: list[str]) -> str:
    if key not in raw:
        errors.append(f"{key}: required field missing")
        return ""
    value = raw[key]
    if not isinstance(value, str):
        errors.append(f"{key}: must be a string, got {_type_name(value)}")
        return ""
    return value


def _parse_asset(
    raw: dict[str, Any], errors: list[str], *, lenient: bool
) -> tuple[str, str]:
    asset = raw.get("asset")
    if asset is None:
        errors.append("asset: required field missing")
        return "", ""
    if not isinstance(asset, dict):
        errors.append(f"asset: must be an object, got {_type_name(asset)}")
        return "", ""
    for key in sorted(set(asset) - {"name", "version"}):
        if lenient:
            logger.warning("ignoring unknown field: asset.%s", key)
        else:
            errors.append(f"asset.{key}: unknown field")
    name = asset.get("name")
    version = asset.get("version")
    if not isinstance(name, str) or not name:
        errors.append("asset.name: must be a non-empty string")
        name = ""
    if not isinstance(version, str):
        errors.append("asset.version: must be a string")
        version = ""
    return name, version


def _parse_date(raw: dict[str, Any], errors: list[str]) -> date:
    value = raw.get("assessed_at")
    fallback = date(1970, 1, 1)
    if value is None:
        errors.append("assessed_at: required field missing")
        return fallback
    if not isinstance(value, str):
        errors.append(f"assessed_at: must be a string, got {_type_name(value)}")
        return fallback
    # Day granularity only: exactly YYYY-MM-DD, no time component.
    if len(value) != 10 or value[4] != "-" or value[7] != "-":
        errors.append(f"assessed_at: must be an ISO-8601 date (YYYY-MM-DD), got {value!r}")
        return fallback
    try:
        return date.fromisoformat(value)
    except ValueError:
        errors.append(f"assessed_at: not a valid calendar date: {value!r}")
        return fallback


def _parse_nodes(
    raw: dict[str, Any], errors: list[str], *, lenient: bool
) -> list[ContributionNode]:
    value = raw.get("nodes")
    if value is None:
        errors.append("nodes: required field missing")
        return []
    if not isinstance(value, list):
        errors.append(f"nodes: must be an array, got {_type_name(value)}")
        return []
    nodes: list[ContributionNode] = []
    for i, item in enumerate(value):
        path = f"nodes[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{path}: must be an object, got {_type_name(item)}")
            continue
        for key in sorted(set(item) - set(_NODE_FIELDS)):
            if lenient:
                logger.warning("ignoring unknown field: %s.%s", path, key)
            else:
                errors.append(f"{path}.{key}: unknown field")
        node_id = item.get("id")
        kind = item.get("kind")
        label = item.get("label")
        description = item.get("description")
        refs = item.get("evidence_refs")
        ok = True
        if not isinstance(node_id, str) or not node_id:
            errors.append(f"{path}.id: must be a non-empty string")
            ok = False
        if not isinstance(kind, str) or kind not in _KIND_VALUES:
            expected = ", ".join(sorted(_KIND_VALUES))
            errors.append(f"{path}.kind: must be one of {expected}, got {kind!r}")
            ok = False
        if not isinstance(label, str):
            errors.append(f"{path}.label: must be a string")
            ok = False
        if description is not None and not isinstance(description, str):
            errors.append(f"{path}.description: must be a string")
            ok = False
        if refs is None:
            refs = []
        elif not isinstance(refs, list) or not all(isinstance(r, str) for r in refs):
            errors.append(f"{path}.evidence_refs: must be an array of strings")
            ok = False
            refs = []
        if ok:
            nodes.append(
                ContributionNode(
                    id=node_id,
                    kind=NodeKind(kind),
                    label=label,
                    description=description,
                    evidence_refs=tuple(refs),
                )
            )
    return nodes


def _parse_edges(
    raw: dict[str, Any], errors: list[str], *, lenient: bool
) -> list[tuple[str, str]]:
    value = raw.get("edges")
    if value is None:
        errors.append("edges: required field missing")
        return []
    if not isinstance(value, list):
        errors.append(f"edges: must be an array, got {_type_name(value)}")
        return []
    edges: list[tuple[str, str]] = []
    for i, item in enumerate(value):
        path = f"edges[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{path}: must be an object, got {_type_name(item)}")
            continue
        for key in sorted(set(item) - set(_EDGE_FIELDS)):
            if lenient:
                logger.warning("ignoring unknown field: %s.%s", path, key)
            else:
                errors.append(f"{path}.{key}: unknown field")
        src = item.get("from")
        dst = item.get("to")
        ok = True
        if not isinstance(src, str) or not src:
            errors.append(f"{path}.from: must be a non-empty string")
            ok = False
        if not isinstance(dst, str) or not dst:
            errors.append(f"{path}.to: must be a non-empty string")
            ok = False
        if ok:
            edges.append((src, dst))
    return edges


def _parse_judgements(
    raw: dict[str, Any], errors: list[str], *, lenient: bool
) -> dict[str, Judgement]:
    value = raw.get("judgements")
    if value is None:
        errors.append("judgements: required field missing")
        return {}
    if not isinstance(value, dict):
        errors.append(f"judgements: must be an object, got {_type_name(value)}")
        return {}
    judgements: dict[str, Judgement] = {}
    for node_id in value:
        item = value[node_id]
        path = f"judgements.{node_id}"
        if not isinstance(item, dict):
            errors.append(f"{path}: must be an object, got {_type_name(item)}")
            continue
        for key in sorted(set(item) - set(_JUDGEMENT_FIELDS)):
            if lenient:
                logger.warning("ignoring unknown field: %s.%s", path, key)
            else:
                errors.append(f"{path}.{key}: unknown field")
        scores: dict[str, int] = {}
        ok = True
        for criterion in _JUDGEMENT_FIELDS:
            score = item.get(criterion)
            if score is None:
                errors.append(f"{path}.{criterion}: required field missing")
                ok = False
            elif isinstance(score, bool) or not isinstance(score, int):
                # 3.0 is rejected on purpose: the scale has four discrete levels.
                errors.append(
                    f"{path}.{criterion}: must be an integer, got {_type_name(score)}"
                )
                ok = False
            elif not SCORE_MIN <= score <= SCORE_MAX:
                errors.append(
                    f"{path}.{criterion}: must be between {SCORE_MIN} and "
                    f"{SCORE_MAX}, got {score}"
                )
                ok = False
            else:
                scores[criterion] = score
        if ok:
            judgements[node_id] = Judgement(**scores)
    return judgements


def _parse_weights(raw: dict[str, Any], errors: list[str]) -> WeightScheme:
    value = raw.get("weights")
    if value is None:
        errors.append("weights: required field missing")
        return WeightScheme.equal()
    if value == "equal":
        return WeightScheme.equal()
    if isinstance(value, str):
        errors.append(f'weights: must be "equal" or an object, got {value!r}')
        return WeightScheme.equal()
    if not isinstance(value, dict):
        errors.append(
            f'weights: must be "equal" or an object, got {_type_name(value)}'
        )
        return WeightScheme.equal()
    weights: dict[str, float] = {}
    ok = True
    for node_id in value:
        weight = value[node_id]
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            errors.append(
                f"weights.{node_id}: must be a number, got {_type_name(weight)}"
            )
            ok = False
        else:
            weights[node_id] = float(weight)
    return WeightScheme.explicit(weights) if ok else WeightScheme.equal()


def _parse_precision(raw: dict[str, Any], errors: list[str]) -> int:
    value = raw.get("display_precision")
    if value is None:
        return 2
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value <= 12:
        errors.append(
            f"display_precision: must be an integer between 0 and 12, got {value!r}"
        )
        return 2
    return value
