"""Assessment document parsing, validation and canonical serialization.

The carrier is a single UTF-8 JSON document, schema version "1.0"; the
normative field-by-field description ships in ``schema/assessment-1.0.json``.
Parsing is total: any byte stream either yields a valid
:class:`~pipevis.model.Assessment` or raises one of the classified errors
below -- syntax problems are position-annotated, schema problems are
gathered and reported together, and semantic problems carry the full
violation list from :func:`~pipevis.model.validate_assessment`.

One field table gives each object kind (top level, asset, node, edge,
judgement) its keys and one check per key. The parser accepts what the schema
accepts, except ``3.0`` as an integer; it rejects duplicate keys, lone
surrogates (``"\\ud800"``), unknown keys and an explicit ``null`` for an
optional key. ``lenient=True`` only downgrades unknown keys to warnings.

Serialization is canonical: fixed key order, nodes and edges sorted by id,
``"equal"`` for equal weighting, 2-space indentation and a trailing
newline. Two equal assessments serialize to identical bytes, and
``parse_document(serialize_document(a)) == a``.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections.abc import Callable, Mapping
from datetime import date
from operator import itemgetter
from typing import Any, NamedTuple

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


def _reject_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaViolationError([f"duplicate key: {key}"])
        obj[key] = value
    return obj


def _load_json(data: bytes | bytearray | str) -> Any:
    """Decode UTF-8 JSON, mapping every decoding failure to a DocumentError."""
    try:
        text = data if isinstance(data, str) else bytes(data).decode("utf-8")
        value = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
        # A lone surrogate, from a str argument or a \\u escape, fails to encode.
        if isinstance(data, str) or re.search(r"\\u[dD][89a-fA-F]", text):
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        return value
    except UnicodeDecodeError as exc:
        raise MalformedSyntaxError(
            f"invalid UTF-8 at byte {exc.start}: {exc.reason}"
        ) from None
    except UnicodeEncodeError as exc:
        surrogate = exc.object[exc.start]
        raise MalformedSyntaxError(f"lone surrogate {surrogate!r} in a string") from None
    except SchemaViolationError:  # a duplicate key, from the hook
        raise
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
    raw = _load_json(data)
    if not isinstance(raw, dict):
        raise SchemaViolationError(
            [f"document root must be an object, got {_type_name(raw)}"]
        )

    try:
        if "schema_version" not in raw:
            raise _Invalid("required field missing")
        version = _string(raw["schema_version"])
    except _Invalid as exc:
        raise SchemaViolationError([f"schema_version: {exc}"]) from None
    if version != SCHEMA_VERSION:
        raise UnknownSchemaVersionError(version)

    errors: list[str] = []
    fields = _DOCUMENT.read(raw, "", errors, lenient)
    if errors:
        raise SchemaViolationError(errors)

    graph = PipelineGraph(nodes=fields["nodes"].values(), edges=fields["edges"].values())
    assessment = Assessment(
        graph=graph,
        judgements=fields["judgements"],
        weights=fields["weights"],
        asset_name=fields["asset"]["name"],
        asset_version=fields["asset"]["version"],
        assessed_at=fields["assessed_at"],
        assessor=fields["assessor"],
        display_precision=fields["display_precision"],
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
    return canonical_json(document_dict(assessment)).encode("utf-8")


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
    document = {"schema_version": SCHEMA_VERSION, "rubric": body}
    return canonical_json(document).encode("utf-8")


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


def canonical_json(document: Mapping[str, Any]) -> str:
    """The canonical text of a JSON document: 2-space indent, trailing newline."""
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"


def _type_name(value: Any) -> str:
    if value is None:
        return "null"
    return {bool: "boolean", int: "integer", float: "number", str: "string",
            list: "array", dict: "object"}.get(type(value), type(value).__name__)


class _Invalid(ValueError):
    """A check's verdict on one value: the violation text after ``path: ``."""


# How a row takes an absent key and an explicit null. Any other value is the
# default of an optional key; its explicit null is "must be <expected>, got null".
_REQUIRED = "absent or null: required field missing"
_PRESENT = "absent: required field missing; null goes to the check"
_CHECKED = "absent reads as null, which goes to the check"


class _Object(NamedTuple):
    """One object kind: a ``key -> (check, absent)`` row for each known key.

    A check returns the converted value or raises _Invalid; a value with
    violations of its own has a spec (_Object, _Each, _Weights) instead.
    ``read`` alone judges unknown keys, absent keys and explicit nulls: it
    returns ``build(values)``, or None after appending violations.
    """

    rows: dict[str, tuple[Any, Any]]
    build: Callable[[dict[str, Any]], Any] = dict

    def read(self, obj: Any, path: str, errors: list[str], lenient: bool) -> Any:
        if not isinstance(obj, dict):
            raise _Invalid(f"must be an object, got {_type_name(obj)}")
        before = len(errors)
        if not obj.keys() <= self.rows.keys():
            for key in sorted(obj.keys() - self.rows.keys()):
                name = f"{path}.{key}" if path else key
                if lenient:
                    logger.warning("ignoring unknown field: %s", name)
                else:
                    errors.append(
                        f"{name}: unknown field" if path else f"unknown field: {key}"
                    )
        values: dict[str, Any] = {}
        for key, (check, absent) in self.rows.items():
            value = obj.get(key)
            try:
                if value is None:
                    if absent is _REQUIRED or (absent is _PRESENT and key not in obj):
                        raise _Invalid("required field missing")
                    if absent is not _PRESENT and absent is not _CHECKED:
                        if key in obj:
                            raise _Invalid(f"must be {check.expected}, got null")
                        values[key] = absent
                        continue
                if callable(check):
                    value = check(value)
                else:
                    name = f"{path}.{key}" if path else key
                    value = check.read(value, name, errors, lenient)
            except _Invalid as exc:
                errors.append(f"{path}.{key}: {exc}" if path else f"{key}: {exc}")
            values[key] = value
        return self.build(values) if len(errors) == before else None


class _Each(NamedTuple):
    """Items of one object kind, by index in an array or, ``keyed``, by node id."""

    item: _Object
    keyed: bool = False

    def read(self, value: Any, path: str, errors: list[str], lenient: bool) -> Any:
        shape, expected = (dict, "an object") if self.keyed else (list, "an array")
        if not isinstance(value, shape):
            raise _Invalid(f"must be {expected}, got {_type_name(value)}")
        before = len(errors)
        built = {}
        for key, item in value.items() if self.keyed else enumerate(value):
            name = f"{path}.{key}" if self.keyed else f"{path}[{key}]"
            try:
                built[key] = self.item.read(item, name, errors, lenient)
            except _Invalid as exc:
                errors.append(f"{name}: {exc}")
        return None if len(errors) > before else built


class _Weights:
    """``"equal"``, or an object of numbers keyed by node id."""

    def read(self, value: Any, path: str, errors: list[str], lenient: bool) -> Any:
        if value == "equal":
            return WeightScheme.equal()
        if not isinstance(value, dict):
            got = repr(value) if isinstance(value, str) else _type_name(value)
            raise _Invalid(f'must be "equal" or an object, got {got}')
        weights = {}
        for node_id, weight in value.items():
            if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                got = _type_name(weight)
                errors.append(f"{path}.{node_id}: must be a number, got {got}")
                continue
            try:
                weights[node_id] = float(weight)
            except OverflowError:  # an integer past the float range reads as 1e400 does
                weights[node_id] = math.inf if weight > 0 else -math.inf
        return WeightScheme.explicit(weights) if len(weights) == len(value) else None


def _must(expected: str, test: Callable[[Any], bool],
          got: Callable[[Any], str] | None = None) -> Callable[[Any], Any]:
    """A check that returns a value ``test`` accepts, else says what it must be."""

    def check(value: Any) -> Any:
        if test(value):
            return value
        raise _Invalid(f"must be {expected}" + (f", got {got(value)}" if got else ""))

    check.expected = expected  # type: ignore[attr-defined]  # for the null rule
    return check


def _is_integer(value: Any) -> bool:
    """The one integer rule: not ``true``, not ``3.0``; both scales are discrete."""
    return isinstance(value, int) and not isinstance(value, bool)


def _score(value: Any) -> int:
    if not _is_integer(value):
        raise _Invalid(f"must be an integer, got {_type_name(value)}")
    if not SCORE_MIN <= value <= SCORE_MAX:
        raise _Invalid(f"must be between {SCORE_MIN} and {SCORE_MAX}, got {value}")
    return value


_KIND_VALUES = {kind.value for kind in NodeKind}
_string = _must("a string", lambda v: isinstance(v, str), _type_name)
_text = _must("a string", lambda v: isinstance(v, str))
_name = _must("a non-empty string", lambda v: isinstance(v, str) and v != "")
_kind = _must(
    "one of " + ", ".join(sorted(_KIND_VALUES)),
    lambda v: isinstance(v, str) and v in _KIND_VALUES,
    repr,
)
_strings = _must(
    "an array of strings",
    lambda v: isinstance(v, list) and all(isinstance(r, str) for r in v),
)
_precision = _must(
    "an integer between 0 and 12", lambda v: _is_integer(v) and 0 <= v <= 12, repr
)


def _date(value: Any) -> date:
    text = _string(value)
    # Day granularity only: exactly YYYY-MM-DD, no time component.
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise _Invalid(f"must be an ISO-8601 date (YYYY-MM-DD), got {text!r}")
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise _Invalid(f"not a valid calendar date: {text!r}") from None


_ASSET = _Object({"name": (_name, _CHECKED), "version": (_text, _CHECKED)})
_NODE = _Object({
    "id": (_name, _CHECKED),
    "kind": (_kind, _CHECKED),
    "label": (_text, _CHECKED),
    "description": (_text, None),
    "evidence_refs": (_strings, ()),
}, lambda fields: ContributionNode(**fields))
_EDGE = _Object(
    {"from": (_name, _CHECKED), "to": (_name, _CHECKED)}, itemgetter("from", "to")
)
_JUDGEMENT = _Object({
    "quantity": (_score, _REQUIRED),
    "accuracy": (_score, _REQUIRED),
    "freshness": (_score, _REQUIRED),
}, lambda fields: Judgement(**fields))
_DOCUMENT = _Object({
    "schema_version": (_string, _PRESENT),
    "asset": (_ASSET, _REQUIRED),
    "assessed_at": (_date, _REQUIRED),
    "assessor": (_string, _PRESENT),
    "nodes": (_Each(_NODE), _REQUIRED),
    "edges": (_Each(_EDGE), _REQUIRED),
    "judgements": (_Each(_JUDGEMENT, keyed=True), _REQUIRED),
    "weights": (_Weights(), _REQUIRED),
    "display_precision": (_precision, 2),
})
