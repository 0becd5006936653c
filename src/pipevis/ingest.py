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
surrogates (``"\\ud800"``), the non-JSON tokens ``NaN`` and ``Infinity``,
unknown keys and an explicit ``null`` for an optional key. ``lenient=True``
only downgrades unknown keys to warnings.

A strict parse decodes without the duplicate-key hook, which the C decoder
would call once per object, reads the fields, and then proves from the text
that no key repeated. JSON has a raw ``:`` only as a member separator or
inside a string, where a ``\\u003a`` escape also writes one. Without the hook
a repeated key keeps only its last member; an earlier member is dropped with
its separator, its key and its value, which takes at least one colon out of
the decoded document. So the text's colons and colon escapes equal the
decoded objects' key counts plus the colons of the decoded keys and strings
exactly when no member was dropped. A ``\\u003a`` after an escaped backslash
is no escape and adds to the text's side only: it can fail the count without
a repeat, never pass it with one. After a strict read the only objects are
the root, ``asset``, each node, edge and judgement, ``judgements`` and
explicit ``weights``, so the key count is a few C-level sums; the escapes are
counted only when the text has a backslash, the strings' colons (six times
the cost) only when the text has more colons than keys. A failed read, or a
count that does not match, decodes again with the hook only to name a repeat;
without one the read's own error, or its fields, stand: every error is the
hooked parse's, in the order the decoder meets them. ``lenient=True`` decodes
once, hooked.

Nodes, edges and judgements each have an array reader, which reads a whole
array in a few C-level passes: it builds the values of an array whose every
item is plainly valid (no unknown key, no null, every field of its type) or
declines the array. The node reader sorts the array by id and hands the graph
its node columns, each kind looked up by value and each ``evidence_refs`` made
a tuple, declining exactly what :class:`~pipevis.model.ContributionNode`
refuses; a judgement is one of 64 shared instances, one per valid state. A
declined array goes item by item to the full walker, which builds the same
values (nodes, for the graph's constructor), and alone writes violation text
and handles ``lenient``.

Serialization is canonical: fixed key order, nodes and edges sorted by id,
``"equal"`` for equal weighting, 2-space indentation and a trailing
newline. Two equal assessments serialize to identical bytes, and
``parse_document(serialize_document(a)) == a``.

:func:`document_text` writes the canonical text straight from the model, the
nodes from the graph's columns: it alone holds the key order, the indentation
and the node, edge and judgement templates, and the machine document of
:func:`pipevis.report.render_machine` is its text with a ``results`` member
added. Strings are escaped by ``json.encoder.encode_basestring``, floats
written by ``float.__repr__`` and ints as ints, which is what
``json.dumps(indent=2, ensure_ascii=False)`` writes; the texts of the 64 valid
judgements are formatted once, at import.
:func:`document_dict` builds the same document as a dict and is the writer's
reference: the tests check that ``json.dumps`` of it gives the same text.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterable
from datetime import date
from itertools import chain, repeat
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Any, NamedTuple

from .model import (
    Assessment,
    ContributionNode,
    InvalidAssessmentError,
    Judgement,
    PipelineGraph,
    WeightScheme,
    _JUDGEMENTS,
    _KIND,
    _KINDS,
    _LEVEL,
    _PRECISION,
    _graph_of,
    _is_integer,
    _is_kind,
    _is_level,
    _is_nonempty_str,
    _is_number,
    _is_precision,
    validate_assessment,
)

__all__ = [
    "DocumentError",
    "MalformedSyntaxError",
    "SchemaViolationError",
    "SemanticViolationError",
    "UnknownSchemaVersionError",
    "parse_document",
    "serialize_document",
]

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
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _value in pairs:
            if key in seen:
                raise SchemaViolationError([f"duplicate key: {key}"])
            seen.add(key)
    return obj


def _reject_constant(token: str) -> Any:
    raise MalformedSyntaxError(f"{token} is not valid JSON")


def _source(data: bytes | bytearray | memoryview | str) -> str | bytes:
    """``data`` as a str or bytes, or a MalformedSyntaxError naming its type."""
    if isinstance(data, (str, bytes)):
        return data
    if isinstance(data, (bytearray, memoryview)):
        return bytes(data)
    raise MalformedSyntaxError(
        f"document must be str, bytes, bytearray or memoryview, "
        f"got {type(data).__name__}"
    )


def _load_json(source: str | bytes, hook: Callable[..., Any] | None) -> tuple[str, Any]:
    """Decode UTF-8 JSON to its text and value, mapping every decoding failure
    to a DocumentError. ``hook`` is the decoder's ``object_pairs_hook``:
    _reject_duplicate_keys, or None, which keeps the last of a repeated key's values.
    """
    try:
        text = source if isinstance(source, str) else source.decode("utf-8")
        value = json.loads(text, object_pairs_hook=hook, parse_constant=_reject_constant)
        # The first lone surrogate, escaped or raw, fails to encode.
        if "\\" in text and re.search(r"\\u[dD][89a-fA-F]", text):
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        elif isinstance(source, str):  # raw ones only; bytes hold none
            source.encode("utf-8")
        return text, value
    except UnicodeDecodeError as exc:
        raise MalformedSyntaxError(
            f"invalid UTF-8 at byte {exc.start}: {exc.reason}"
        ) from None
    except UnicodeEncodeError as exc:
        raise MalformedSyntaxError(_lone_surrogate(exc)) from None
    except DocumentError:  # a duplicate key or NaN/Infinity, from the hooks
        raise
    except json.JSONDecodeError as exc:
        raise MalformedSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise MalformedSyntaxError("document nested too deeply") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise MalformedSyntaxError(str(exc).partition(";")[0]) from None


def _lone_surrogate(exc: UnicodeEncodeError) -> str:
    return f"lone surrogate {exc.object[exc.start]!r} in a string"


def _read(source: str | bytes, lenient: bool) -> dict[str, Any]:
    """The document's fields, or its first DocumentError; a strict read
    decodes without the duplicate-key hook (see the module docstring)."""
    try:
        text, raw = _load_json(source, _reject_duplicate_keys if lenient else None)
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
    except DocumentError:
        if not lenient:
            _repeat(source)
        raise
    if not lenient and not _no_key_repeated(text, raw):
        _repeat(source)
    return fields


def _repeat(source: str | bytes) -> None:
    """Raise what a hooked decode of ``source`` raises, if anything: a
    repeated key, which the decoder meets first, or the hookless decode's error."""
    try:
        _load_json(source, _reject_duplicate_keys)
    except DocumentError as exc:
        raise exc from None


def _no_key_repeated(text: str, raw: dict[str, Any]) -> bool:
    """Whether ``text``'s colons and colon escapes prove that no object of
    ``raw``, which the strict read accepted, lost a repeated key (see the
    module docstring)."""
    asset, nodes, edges, judgements, weights = _OBJECTS(raw)
    explicit = weights if isinstance(weights, dict) else {}
    keys = (
        len(raw) + len(asset) + sum(map(len, nodes)) + sum(map(len, edges))
        + len(judgements) + sum(map(len, judgements.values())) + len(explicit)
    )
    colons = text.count(":")
    if "\\" in text:
        colons += len(re.findall(r"\\u003[aA]", text))
    if colons == keys:
        return True
    # A node's values are strings and lists of strings; a list's str() adds
    # no colon to its items'.
    strings = chain(
        (raw["schema_version"], raw["assessed_at"], raw["assessor"]),
        asset.values(),
        map(str, chain.from_iterable(map(dict.values, nodes))),
        chain.from_iterable(map(dict.values, edges)),
        judgements,
        explicit,
    )
    return colons == keys + sum(map(str.count, strings, repeat(":")))


_OBJECTS = itemgetter("asset", "nodes", "edges", "judgements", "weights")


def parse_document(
    data: bytes | bytearray | memoryview | str, *, lenient: bool = False
) -> Assessment:
    """Decode one assessment document into a validated Assessment.

    With ``lenient=True`` unknown fields are logged and ignored instead of
    rejected.
    """
    fields = _read(_source(data), lenient)

    nodes, edges = fields["nodes"], fields["edges"]
    # The array reader hands over checked node columns, the walker nodes.
    build = _graph_of if type(nodes) is tuple else PipelineGraph
    graph = build(nodes, edges)
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
    """Canonical UTF-8 JSON bytes for a valid assessment.

    A string with a lone surrogate has no UTF-8 form; validation does not look
    for one, so it surfaces here, as the parser words it.
    """
    result = validate_assessment(assessment)
    if not result.ok:
        raise InvalidAssessmentError(result.violations)
    try:
        return document_text(assessment).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidAssessmentError([_lone_surrogate(exc)]) from None


def document_dict(assessment: Assessment) -> dict[str, Any]:
    """The canonical document as a dict, keys in order: the writer's reference."""
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
                "quantity": judgement.quantity,
                "accuracy": judgement.accuracy,
                "freshness": judgement.freshness,
            }
            for nid, judgement in sorted(assessment.judgements.items())
        },
        "weights": weights,
        "display_precision": assessment.display_precision,
    }


#: The text of each of the 64 valid judgements, keyed by its levels.
_SCORES_TEXT = {
    (q, a, f): (
        f'{{\n      "quantity": {q},\n      "accuracy": {a},'
        f'\n      "freshness": {f}\n    }}'
    )
    for q, a, f in _JUDGEMENTS
}


def document_text(assessment: Assessment, members: Iterable[str] = ()) -> str:
    """The canonical text of ``assessment``, written without a validity check.

    ``members`` are the pieces of further top-level members, each ``,\n  "key":
    value`` at one level of indent; they go after ``display_precision``. Every
    piece goes into one list, joined once. A ``NodeKind`` is a ``str``, so
    ``encode_basestring`` writes its value.
    """
    text = encode_basestring
    nodes = []
    for nid, kind, label, description, refs in zip(*assessment.graph._columns):
        entry = (
            f'{{\n      "id": {text(nid)},\n      "kind": {text(kind)},'
            f'\n      "label": {text(label)}'
        )
        if description is not None:
            entry += f',\n      "description": {text(description)}'
        if refs:
            refs = ",\n        ".join(map(text, refs))
            entry += f',\n      "evidence_refs": [\n        {refs}\n      ]'
        nodes.append(entry + "\n    }")
    edges = [
        f'{{\n      "from": {text(src)},\n      "to": {text(dst)}\n    }}'
        for src, dst in assessment.graph.edges
    ]
    ids = sorted(assessment.judgements)  # all str: no tuple compares
    judgements = [
        f"{text(nid)}: {_SCORES_TEXT[j.quantity, j.accuracy, j.freshness]}"
        for nid, j in zip(ids, map(assessment.judgements.__getitem__, ids))
    ]
    pieces = [
        f'{{\n  "schema_version": "{SCHEMA_VERSION}",'
        f'\n  "asset": {{\n    "name": {text(assessment.asset_name)},'
        f'\n    "version": {text(assessment.asset_version)}\n  }},'
        f'\n  "assessed_at": {text(assessment.assessed_at.isoformat())},'
        f'\n  "assessor": {text(assessment.assessor)},\n  "nodes": '
    ]
    _put(pieces, nodes, "[]", 1, ',\n  "edges": ')
    _put(pieces, edges, "[]", 1, ',\n  "judgements": ')
    _put(pieces, judgements, "{}", 1, ',\n  "weights": ')
    explicit = assessment.weights.weights
    tail = f',\n  "display_precision": {int.__repr__(assessment.display_precision)}'
    if explicit is None:
        pieces.append('"equal"' + tail)
    else:
        items = [f"{text(k)}: {float.__repr__(explicit[k])}" for k in sorted(explicit)]
        _put(pieces, items, "{}", 1, tail)
    pieces += [*members, "\n}\n"]
    return "".join(pieces)


def _put(
    pieces: list[str], items: list[str], brackets: str, depth: int, after: str
) -> None:
    """Append to ``pieces`` a JSON array or object (``brackets``) of ``items``
    at ``depth``, then ``after``. Each item goes on a line of its own, one
    level deeper (its own later lines carry their full indent already), put
    between the separators by one C-level slice assignment."""
    if not items:
        pieces.append(brackets + after)
        return
    inner = "\n" + "  " * (depth + 1)
    start = len(pieces)
    pieces += repeat("," + inner, 2 * len(items) + 1)
    pieces[start] = brackets[0] + inner
    pieces[start + 1::2] = items
    pieces[-1] = "\n" + "  " * depth + brackets[1] + after


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

    ``fast``, which every item kind of an ``_Each`` has, reads a whole array:
    it takes the list of the items and returns the list of their built values,
    or None when any item is not plainly valid. Then each item goes to
    ``read``, the full walker, which alone writes violation text and handles
    ``lenient``.
    """

    rows: dict[str, tuple[Any, Any]]
    build: Callable[[dict[str, Any]], Any] = dict
    fast: Callable[[list[Any]], list[Any] | None] | None = None

    def read(self, obj: Any, path: str, errors: list[str], lenient: bool) -> Any:
        if not isinstance(obj, dict):
            raise _Invalid(f"must be an object, got {_type_name(obj)}")
        before = len(errors)
        if not obj.keys() <= self.rows.keys():  # in C; most objects pass it
            for key in sorted(obj.keys() - self.rows.keys()):
                name = f"{path}.{key}" if path else key
                if lenient:
                    import logging  # here only: no other path logs

                    logging.getLogger(__name__).warning(
                        "ignoring unknown field: %s", name
                    )
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
    """Items of one object kind, in an array or, ``keyed``, by node id.

    The array, or the keyed object's values, is first offered whole to the
    kind's array reader, ``fast``; only when it declines is each item walked
    and its path formatted. An array's values come back as a list, a keyed
    object's as a dict.
    """

    item: _Object
    keyed: bool = False

    def read(self, value: Any, path: str, errors: list[str], lenient: bool) -> Any:
        shape, expected = (dict, "an object") if self.keyed else (list, "an array")
        if not isinstance(value, shape):
            raise _Invalid(f"must be {expected}, got {_type_name(value)}")
        built = self.item.fast(list(value.values()) if self.keyed else value)
        if built is None:
            before = len(errors)
            built = []
            for key, item in value.items() if self.keyed else enumerate(value):
                name = f"{path}.{key}" if self.keyed else f"{path}[{key}]"
                try:
                    built.append(self.item.read(item, name, errors, lenient))
                except _Invalid as exc:
                    errors.append(f"{name}: {exc}")
            if len(errors) > before:
                return None
        return dict(zip(value, built)) if self.keyed else built


class _Weights:
    """``"equal"``, or an object of numbers keyed by node id."""

    def read(self, value: Any, path: str, errors: list[str], lenient: bool) -> Any:
        if value == "equal":
            return WeightScheme.equal()
        if not isinstance(value, dict):
            got = repr(value) if isinstance(value, str) else _type_name(value)
            raise _Invalid(f'must be "equal" or an object, got {got}')
        before = len(errors)
        for node_id, weight in value.items():
            if not _is_number(weight):
                got = _type_name(weight)
                errors.append(f"{path}.{node_id}: must be a number, got {got}")
        return WeightScheme(value) if len(errors) == before else None


def _must(expected: str, test: Callable[[Any], bool],
          got: Callable[[Any], str] | None = None) -> Callable[[Any], Any]:
    """A check that returns a value ``test`` accepts, else says what it must be."""

    def check(value: Any) -> Any:
        if test(value):
            return value
        raise _Invalid(f"must be {expected}" + (f", got {got(value)}" if got else ""))

    check.expected = expected  # type: ignore[attr-defined]  # for the null rule
    return check


def _score(value: Any) -> int:
    if not _is_integer(value):
        raise _Invalid(f"must be an integer, got {_type_name(value)}")
    if not _is_level(value):
        raise _Invalid(f"must be {_LEVEL}, got {value}")
    return value


_string = _must("a string", lambda v: isinstance(v, str), _type_name)
_text = _must("a string", lambda v: isinstance(v, str))
_name = _must("a non-empty string", _is_nonempty_str)
_kind = _must(_KIND, _is_kind, repr)
_strings = _must(
    "an array of strings",
    lambda v: isinstance(v, list) and all(isinstance(r, str) for r in v),
)
_precision = _must(_PRECISION, _is_precision, repr)


def _date(value: Any) -> date:
    text = _string(value)
    # Day granularity only: exactly YYYY-MM-DD, no time component.
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise _Invalid(f"must be an ISO-8601 date (YYYY-MM-DD), got {text!r}")
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise _Invalid(f"not a valid calendar date: {text!r}") from None


def _plain_dicts(objs: list[Any], value_types: set[type]) -> bool:
    """Whether every item is a dict, each value of exactly one of ``value_types``."""
    return set(map(type, objs)) <= {dict} and set(
        map(type, chain.from_iterable(map(dict.values, objs)))
    ) <= value_types


def _plain_nodes(objs: list[Any]) -> tuple[list[Any], ...] | None:
    """The node columns (see :class:`~pipevis.model.PipelineGraph`) of an array
    of plainly valid objects, in id order, or None: this reader checks the
    document's rules, and declines what the node's constructor refuses."""
    keys = _NODE.rows.keys()
    if not _plain_dicts(objs, {str, list}) or not set(chain.from_iterable(objs)) <= keys:
        return None
    try:
        if list in set(map(type, map(_ID, objs))):  # before the sort compares ids
            return None
        objs = sorted(objs, key=_ID)
        ids, labels = list(map(_ID, objs)), list(map(_LABEL, objs))
        kinds = list(map(_KINDS.__getitem__, map(_KIND_OF, objs)))
    except (KeyError, TypeError):  # a key or kind missing, or a list kind
        return None
    descriptions = list(map(dict.get, objs, repeat("description")))
    refs = list(map(dict.get, objs, repeat("evidence_refs"), repeat(())))
    if (all(ids) and list not in set(map(type, chain(labels, descriptions)))
            and str not in set(map(type, refs))
            and set(map(type, chain.from_iterable(refs))) <= {str}):
        return ids, kinds, labels, descriptions, list(map(tuple, refs))
    return None


def _plain_edges(objs: list[Any]) -> list[tuple[str, str]] | None:
    """The ``(from, to)`` pairs of an array of objects of exactly two
    non-empty string ids, or None."""
    if not _plain_dicts(objs, {str}) or not set(map(len, objs)) <= {2}:
        return None
    try:
        edges = list(map(_ENDS, objs))
    except KeyError:
        return None
    return edges if all(chain.from_iterable(edges)) else None


_ID, _KIND_OF, _LABEL = map(itemgetter, ("id", "kind", "label"))
_ENDS = itemgetter("from", "to")
_ASSET = _Object({"name": (_name, _CHECKED), "version": (_text, _CHECKED)})
_NODE = _Object({
    "id": (_name, _CHECKED),
    "kind": (_kind, _CHECKED),
    "label": (_text, _CHECKED),
    "description": (_text, None),
    "evidence_refs": (_strings, ()),
}, lambda fields: ContributionNode(**fields), _plain_nodes)
_EDGE = _Object(
    {"from": (_name, _CHECKED), "to": (_name, _CHECKED)}, _ENDS, _plain_edges
)
_SCORES = itemgetter("quantity", "accuracy", "freshness")


def _interned(objs: list[Any]) -> list[Judgement] | None:
    """The shared judgements of an array of objects of exactly three integer
    scores in range, or None."""
    if _plain_dicts(objs, {int}) and set(map(len, objs)) <= {3}:
        try:
            return list(map(_JUDGEMENTS.__getitem__, map(_SCORES, objs)))
        except KeyError:  # a score missing or out of range
            pass
    return None


_JUDGEMENT = _Object({
    "quantity": (_score, _REQUIRED),
    "accuracy": (_score, _REQUIRED),
    "freshness": (_score, _REQUIRED),
}, lambda fields: _JUDGEMENTS[_SCORES(fields)], _interned)
#: The colon count in ``_no_key_repeated`` follows this shape: an object that
#: a schema change adds, or a string field outside a node, must join it, or
#: every document that has one decodes twice (correctly, but slower).
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
