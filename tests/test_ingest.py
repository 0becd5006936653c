"""Document ingest: parsing, classified errors, canonical serialization."""

from __future__ import annotations

import copy
import json
import logging
import random
import re
from pathlib import Path

import jsonschema
import pytest

import helpers
from pipevis import (
    DocumentError,
    InvalidAssessmentError,
    MalformedSyntaxError,
    RUBRIC,
    SchemaViolationError,
    SemanticViolationError,
    UnknownSchemaVersionError,
    overall_visibility,
    parse_document,
    parse_rubric,
    serialize_document,
    serialize_rubric,
)


def valid_doc() -> dict:
    return json.loads(serialize_document(helpers.later_assessment()))


def dumps(doc: dict) -> str:
    return json.dumps(doc)


class TestParseGoldenSamples:
    @pytest.mark.parametrize(
        ("name", "expected"),
        [
            ("first_party.json", 4.0),
            ("first_party_later.json", helpers.OVERALL_FIRST_PARTY_LATER),
            ("third_party_minimal.json", helpers.OVERALL_THIRD_PARTY_MINIMAL),
            ("third_party_documented.json", helpers.OVERALL_THIRD_PARTY_DOCUMENTED),
        ],
    )
    def test_sample_documents_score_as_published(self, samples_dir, name, expected):
        assessment = parse_document((samples_dir / name).read_bytes())
        assert overall_visibility(assessment).overall == pytest.approx(
            expected, abs=1e-9
        )

    def test_samples_are_canonical_bytes(self, samples_dir: Path):
        for path in sorted(samples_dir.glob("*.json")):
            raw = path.read_bytes()
            assert serialize_document(parse_document(raw)) == raw, path.name

    def test_samples_validate_against_schema(self, samples_dir, assessment_schema):
        for path in sorted(samples_dir.glob("*.json")):
            jsonschema.validate(
                json.loads(path.read_text("utf-8")), assessment_schema
            )


class TestRoundTrip:
    def test_parse_inverts_serialize(self):
        rng = random.Random(700)
        for _ in range(100):
            assessment = helpers.random_assessment(rng)
            assert parse_document(serialize_document(assessment)) == assessment

    def test_serialization_is_canonical_across_input_order(self):
        rng = random.Random(701)
        a = helpers.random_assessment(rng)
        nodes = list(a.graph.nodes)
        rng.shuffle(nodes)
        ids = list(a.judgements)
        rng.shuffle(ids)
        b = helpers.Assessment(
            graph=helpers.PipelineGraph(nodes=tuple(nodes), edges=a.graph.edges),
            judgements={nid: a.judgements[nid] for nid in ids},
            weights=a.weights,
            asset_name=a.asset_name,
            asset_version=a.asset_version,
            assessed_at=a.assessed_at,
            assessor=a.assessor,
            display_precision=a.display_precision,
        )
        assert serialize_document(a) == serialize_document(b)

    def test_document_key_order_is_fixed(self):
        doc = valid_doc()
        assert list(doc) == [
            "schema_version",
            "asset",
            "assessed_at",
            "assessor",
            "nodes",
            "edges",
            "judgements",
            "weights",
            "display_precision",
        ]
        assert [n["id"] for n in doc["nodes"]] == sorted(
            n["id"] for n in doc["nodes"]
        )

    def test_serialize_rejects_invalid_assessment(self):
        broken = helpers.example_assessment(judgements={"DS": helpers.ALL_FOUR})
        with pytest.raises(InvalidAssessmentError):
            serialize_document(broken)

    def test_serialized_form_ends_with_newline(self):
        blob = serialize_document(helpers.later_assessment())
        assert blob.endswith(b"}\n")
        assert not blob.endswith(b"\n\n")

    def test_explicit_weights_round_trip(self):
        a = helpers.later_assessment(
            weights=helpers.WeightScheme.explicit(
                {"DS": 0.8, "H1": 0.1, "H2": 0.1}
            )
        )
        again = parse_document(serialize_document(a))
        assert again == a
        assert not again.weights.is_equal


class TestSyntaxErrors:
    def test_empty_input(self):
        with pytest.raises(MalformedSyntaxError) as excinfo:
            parse_document(b"")
        assert excinfo.value.line == 1
        assert excinfo.value.column == 1

    def test_truncated_document(self):
        with pytest.raises(MalformedSyntaxError):
            parse_document(b'{"schema_version": "1.0", ')

    def test_position_is_reported(self):
        with pytest.raises(MalformedSyntaxError, match=r"line \d+ column \d+"):
            parse_document(b'{\n  "schema_version": oops\n}')

    def test_invalid_utf8(self):
        with pytest.raises(MalformedSyntaxError, match="invalid UTF-8"):
            parse_document(b'\xff\xfe{"schema_version": "1.0"}')

    def test_trailing_garbage(self):
        with pytest.raises(MalformedSyntaxError):
            parse_document(b"{} {}")

    def test_duplicate_keys_rejected(self):
        doc = b'{"schema_version": "1.0", "schema_version": "1.0"}'
        with pytest.raises(SchemaViolationError, match="duplicate key"):
            parse_document(doc)

    @pytest.mark.parametrize("parse", [parse_document, parse_rubric])
    def test_deep_nesting(self, parse):
        with pytest.raises(MalformedSyntaxError, match="nested too deeply"):
            parse("[" * 100000)
        with pytest.raises(MalformedSyntaxError, match="nested too deeply"):
            parse(b'{"schema_version": ' + b"[" * 100000)

    @pytest.mark.parametrize("parse", [parse_document, parse_rubric])
    def test_integer_past_the_digit_limit(self, parse):
        text = dumps(valid_doc()).replace(
            '"display_precision": 2', '"display_precision": ' + "1" * 5000
        )
        assert "1" * 5000 in text
        with pytest.raises(MalformedSyntaxError, match="digits"):
            parse(text)
        with pytest.raises(MalformedSyntaxError, match="digits"):
            parse(b"9" * 5000)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update(assessor="\ud800"),
            lambda doc: doc["nodes"][0].update(label="x\udc00y"),
            lambda doc: doc["nodes"][0].update(evidence_refs=["\udbff"]),
            lambda doc: doc.update({"\ud800": 1}),
            lambda doc: doc["judgements"].update({"\ud83d": doc["judgements"]["DS"]}),
        ],
        ids=["value", "inner", "array_item", "key", "id_key"],
    )
    @pytest.mark.parametrize("as_bytes", [True, False], ids=["escaped", "str"])
    def test_lone_surrogate_rejected(self, edit, as_bytes):
        doc = valid_doc()
        edit(doc)
        # Escaped in the bytes, or a raw surrogate in a str argument.
        if as_bytes:
            blob = json.dumps(doc).encode("ascii")
        else:
            blob = json.dumps(doc, ensure_ascii=False)
        with pytest.raises(MalformedSyntaxError, match="lone surrogate"):
            parse_document(blob)

    def test_surrogate_pair_round_trips(self):
        doc = valid_doc()
        doc["assessor"] = "\U0001f600 audit"
        escaped = json.dumps(doc).encode("ascii")
        assert b"\\ud83d\\ude00" in escaped
        assessment = parse_document(escaped)
        assert assessment.assessor == "\U0001f600 audit"
        assert parse_document(serialize_document(assessment)) == assessment
        assert parse_document(json.dumps(doc, ensure_ascii=False)) == assessment

    def test_escaped_backslash_is_not_a_surrogate(self):
        doc = valid_doc()
        doc["assessor"] = "\\ud800"
        assert parse_document(dumps(doc)).assessor == "\\ud800"

    def test_rubric_duplicate_keys_rejected(self):
        with pytest.raises(SchemaViolationError) as excinfo:
            parse_rubric('{"a": 1, "a": 2}')
        assert excinfo.value.violations == ("duplicate key: a",)


class TestSchemaErrors:
    def test_root_must_be_object(self):
        with pytest.raises(SchemaViolationError, match="root must be an object"):
            parse_document(b"[1, 2, 3]")

    def test_missing_schema_version(self):
        with pytest.raises(SchemaViolationError, match="schema_version"):
            parse_document(b"{}")

    def test_unknown_schema_version(self):
        doc = valid_doc()
        doc["schema_version"] = "9.9"
        with pytest.raises(UnknownSchemaVersionError) as excinfo:
            parse_document(dumps(doc))
        assert excinfo.value.version == "9.9"

    def test_score_out_of_range_names_the_path(self):
        doc = valid_doc()
        doc["judgements"]["DS"]["quantity"] = 5
        with pytest.raises(SchemaViolationError) as excinfo:
            parse_document(dumps(doc))
        assert (
            "judgements.DS.quantity: must be between 1 and 4, got 5"
            in excinfo.value.violations
        )

    def test_float_score_rejected(self):
        doc = valid_doc()
        doc["judgements"]["DS"]["freshness"] = 3.0
        with pytest.raises(
            SchemaViolationError, match="must be an integer, got number"
        ):
            parse_document(dumps(doc))

    def test_boolean_score_rejected(self):
        doc = valid_doc()
        doc["judgements"]["DS"]["accuracy"] = True
        with pytest.raises(
            SchemaViolationError, match="must be an integer, got boolean"
        ):
            parse_document(dumps(doc))

    def test_missing_judgement_field(self):
        doc = valid_doc()
        del doc["judgements"]["DS"]["accuracy"]
        with pytest.raises(
            SchemaViolationError, match="judgements.DS.accuracy: required"
        ):
            parse_document(dumps(doc))

    def test_datetime_rejected_for_assessed_at(self):
        doc = valid_doc()
        doc["assessed_at"] = "2025-02-17T10:00:00"
        with pytest.raises(SchemaViolationError, match="ISO-8601 date"):
            parse_document(dumps(doc))

    def test_impossible_date_rejected(self):
        doc = valid_doc()
        doc["assessed_at"] = "2025-13-40"
        with pytest.raises(SchemaViolationError, match="not a valid calendar date"):
            parse_document(dumps(doc))

    def test_bad_node_kind(self):
        doc = valid_doc()
        doc["nodes"][0]["kind"] = "Wizard"
        with pytest.raises(SchemaViolationError, match=r"nodes\[0\].kind"):
            parse_document(dumps(doc))

    def test_weights_must_be_equal_or_map(self):
        doc = valid_doc()
        doc["weights"] = "uniform"
        with pytest.raises(SchemaViolationError, match='"equal" or an object'):
            parse_document(dumps(doc))

    def test_weight_values_must_be_numbers(self):
        doc = valid_doc()
        doc["weights"] = {"DS": "heavy", "H1": 0.5, "H2": 0.5}
        with pytest.raises(SchemaViolationError, match="weights.DS"):
            parse_document(dumps(doc))

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_weight_past_the_float_range_is_not_finite(self, sign):
        doc = valid_doc()
        doc["weights"] = {"DS": 0.5, "H1": 0.25, "H2": 0.25}
        text = dumps(doc).replace("0.5", sign + "9" * 400)
        with pytest.raises(SemanticViolationError) as excinfo:
            parse_document(text)
        assert "non-finite weight for DS" in excinfo.value.violations

    @pytest.mark.parametrize("value", [13, -1, True, "2"])
    def test_bad_display_precision(self, value):
        doc = valid_doc()
        doc["display_precision"] = value
        with pytest.raises(SchemaViolationError, match="display_precision"):
            parse_document(dumps(doc))

    @pytest.mark.parametrize(
        ("path", "violation"),
        [
            ("display_precision",
             "display_precision: must be an integer between 0 and 12, got null"),
            ("nodes/0/description", "nodes[0].description: must be a string, got null"),
            ("nodes/0/evidence_refs",
             "nodes[0].evidence_refs: must be an array of strings, got null"),
        ],
    )
    def test_explicit_null_for_optional_field_rejected(self, path, violation):
        assert violations_of(edited({path: None})) == (violation,)

    def test_display_precision_defaults_to_two(self):
        doc = valid_doc()
        del doc["display_precision"]
        assert parse_document(dumps(doc)).display_precision == 2

    def test_multiple_errors_reported_together(self):
        doc = valid_doc()
        del doc["assessor"]
        doc["judgements"]["DS"]["quantity"] = 0
        doc["extra"] = 1
        with pytest.raises(SchemaViolationError) as excinfo:
            parse_document(dumps(doc))
        violations = excinfo.value.violations
        assert "assessor: required field missing" in violations
        assert "unknown field: extra" in violations
        assert any(v.startswith("judgements.DS.quantity") for v in violations)

    def test_unknown_top_level_field_rejected(self):
        doc = valid_doc()
        doc["vendor_extra"] = {"note": "hi"}
        with pytest.raises(SchemaViolationError, match="unknown field: vendor_extra"):
            parse_document(dumps(doc))

    def test_unknown_nested_field_rejected(self):
        doc = valid_doc()
        doc["nodes"][0]["colour"] = "red"
        with pytest.raises(SchemaViolationError, match=r"nodes\[0\].colour"):
            parse_document(dumps(doc))


DELETE = object()
KINDS = "DataSource, DerivedAsset, HumanContributor, OutputAsset"

# One small malformed document per violation class of the field parser: the
# edits to valid_doc() ("a/0/b" is doc["a"][0]["b"]; DELETE drops the key)
# and the full violation tuple, text and order, in strict mode.
VIOLATION_CLASSES = {
    "schema_version_missing": (
        {"schema_version": DELETE}, ("schema_version: required field missing",)
    ),
    "schema_version_null": (
        {"schema_version": None}, ("schema_version: must be a string, got null",)
    ),
    "schema_version_integer": (
        {"schema_version": 1}, ("schema_version: must be a string, got integer",)
    ),
    "unknown_top_level_sorted": (
        {"zeta": 1, "alpha": None}, ("unknown field: alpha", "unknown field: zeta")
    ),
    "asset_missing": ({"asset": DELETE}, ("asset: required field missing",)),
    "asset_null": ({"asset": None}, ("asset: required field missing",)),
    "asset_string": ({"asset": "model"}, ("asset: must be an object, got string",)),
    "asset_unknown_field": ({"asset/sku": "A-17"}, ("asset.sku: unknown field",)),
    "asset_name_missing": (
        {"asset/name": DELETE}, ("asset.name: must be a non-empty string",)
    ),
    "asset_name_empty": ({"asset/name": ""}, ("asset.name: must be a non-empty string",)),
    "asset_name_null": ({"asset/name": None}, ("asset.name: must be a non-empty string",)),
    "asset_version_missing": (
        {"asset/version": DELETE}, ("asset.version: must be a string",)
    ),
    "asset_version_integer": ({"asset/version": 1}, ("asset.version: must be a string",)),
    "assessed_at_missing": (
        {"assessed_at": DELETE}, ("assessed_at: required field missing",)
    ),
    "assessed_at_null": ({"assessed_at": None}, ("assessed_at: required field missing",)),
    "assessed_at_integer": (
        {"assessed_at": 20250217}, ("assessed_at: must be a string, got integer",)
    ),
    "assessed_at_datetime": (
        {"assessed_at": "2025-02-17T10:00:00"},
        ("assessed_at: must be an ISO-8601 date (YYYY-MM-DD), got '2025-02-17T10:00:00'",),
    ),
    "assessed_at_slashes": (
        {"assessed_at": "2025/02/17"},
        ("assessed_at: must be an ISO-8601 date (YYYY-MM-DD), got '2025/02/17'",),
    ),
    "assessed_at_impossible": (
        {"assessed_at": "2025-13-40"},
        ("assessed_at: not a valid calendar date: '2025-13-40'",),
    ),
    "assessor_missing": ({"assessor": DELETE}, ("assessor: required field missing",)),
    "assessor_null": ({"assessor": None}, ("assessor: must be a string, got null",)),
    "assessor_integer": ({"assessor": 5}, ("assessor: must be a string, got integer",)),
    "nodes_missing": ({"nodes": DELETE}, ("nodes: required field missing",)),
    "nodes_null": ({"nodes": None}, ("nodes: required field missing",)),
    "nodes_object": ({"nodes": {}}, ("nodes: must be an array, got object",)),
    "node_integer": ({"nodes/0": 5}, ("nodes[0]: must be an object, got integer",)),
    "node_null": ({"nodes/0": None}, ("nodes[0]: must be an object, got null",)),
    "node_unknown_fields": (
        {"nodes/0/colour": "red", "nodes/0/ag": 1},
        ("nodes[0].ag: unknown field", "nodes[0].colour: unknown field"),
    ),
    "node_id_missing": (
        {"nodes/0/id": DELETE}, ("nodes[0].id: must be a non-empty string",)
    ),
    "node_id_empty": ({"nodes/0/id": ""}, ("nodes[0].id: must be a non-empty string",)),
    "node_id_null": ({"nodes/0/id": None}, ("nodes[0].id: must be a non-empty string",)),
    "node_kind_missing": (
        {"nodes/0/kind": DELETE}, (f"nodes[0].kind: must be one of {KINDS}, got None",)
    ),
    "node_kind_unknown": (
        {"nodes/0/kind": "Wizard"},
        (f"nodes[0].kind: must be one of {KINDS}, got 'Wizard'",),
    ),
    "node_kind_integer": (
        {"nodes/0/kind": 5}, (f"nodes[0].kind: must be one of {KINDS}, got 5",)
    ),
    "node_label_missing": (
        {"nodes/0/label": DELETE}, ("nodes[0].label: must be a string",)
    ),
    "node_label_null": ({"nodes/0/label": None}, ("nodes[0].label: must be a string",)),
    "node_description_integer": (
        {"nodes/0/description": 5}, ("nodes[0].description: must be a string",)
    ),
    "node_evidence_refs_string": (
        {"nodes/0/evidence_refs": "doc"},
        ("nodes[0].evidence_refs: must be an array of strings",),
    ),
    "node_evidence_refs_integers": (
        {"nodes/0/evidence_refs": ["a", 1]},
        ("nodes[0].evidence_refs: must be an array of strings",),
    ),
    "node_every_field_bad": (
        {
            "nodes/0": {
                "id": 1, "kind": None, "label": [], "description": {},
                "evidence_refs": 2, "x": 0,
            }
        },
        (
            "nodes[0].x: unknown field",
            "nodes[0].id: must be a non-empty string",
            f"nodes[0].kind: must be one of {KINDS}, got None",
            "nodes[0].label: must be a string",
            "nodes[0].description: must be a string",
            "nodes[0].evidence_refs: must be an array of strings",
        ),
    ),
    "edges_missing": ({"edges": DELETE}, ("edges: required field missing",)),
    "edges_null": ({"edges": None}, ("edges: required field missing",)),
    "edges_string": ({"edges": "DS->LD"}, ("edges: must be an array, got string",)),
    "edge_array": ({"edges/0": ["DS", "LD"]}, ("edges[0]: must be an object, got array",)),
    "edge_unknown_field": ({"edges/0/weight": 1}, ("edges[0].weight: unknown field",)),
    "edge_from_missing": (
        {"edges/0/from": DELETE}, ("edges[0].from: must be a non-empty string",)
    ),
    "edge_from_empty": (
        {"edges/0/from": ""}, ("edges[0].from: must be a non-empty string",)
    ),
    "edge_to_integer": ({"edges/0/to": 5}, ("edges[0].to: must be a non-empty string",)),
    "judgements_missing": (
        {"judgements": DELETE}, ("judgements: required field missing",)
    ),
    "judgements_null": ({"judgements": None}, ("judgements: required field missing",)),
    "judgements_array": (
        {"judgements": []}, ("judgements: must be an object, got array",)
    ),
    "judgement_integer": (
        {"judgements/DS": 3}, ("judgements.DS: must be an object, got integer",)
    ),
    "judgement_null": (
        {"judgements/DS": None}, ("judgements.DS: must be an object, got null",)
    ),
    "judgement_unknown_field": (
        {"judgements/DS/notes": "x"}, ("judgements.DS.notes: unknown field",)
    ),
    "score_missing": (
        {"judgements/DS/accuracy": DELETE},
        ("judgements.DS.accuracy: required field missing",),
    ),
    "score_null": (
        {"judgements/DS/accuracy": None},
        ("judgements.DS.accuracy: required field missing",),
    ),
    "score_float": (
        {"judgements/DS/freshness": 3.0},
        ("judgements.DS.freshness: must be an integer, got number",),
    ),
    "score_boolean": (
        {"judgements/DS/accuracy": True},
        ("judgements.DS.accuracy: must be an integer, got boolean",),
    ),
    "score_string": (
        {"judgements/DS/quantity": "3"},
        ("judgements.DS.quantity: must be an integer, got string",),
    ),
    "score_too_high": (
        {"judgements/DS/quantity": 5},
        ("judgements.DS.quantity: must be between 1 and 4, got 5",),
    ),
    "score_too_low": (
        {"judgements/DS/quantity": 0},
        ("judgements.DS.quantity: must be between 1 and 4, got 0",),
    ),
    "weights_missing": ({"weights": DELETE}, ("weights: required field missing",)),
    "weights_null": ({"weights": None}, ("weights: required field missing",)),
    "weights_other_string": (
        {"weights": "uniform"}, ("weights: must be \"equal\" or an object, got 'uniform'",)
    ),
    "weights_array": (
        {"weights": [0.5, 0.5]}, ('weights: must be "equal" or an object, got array',)
    ),
    "weight_values": (
        {"weights": {"DS": "heavy", "H1": None, "H2": True, "LD": 1}},
        (
            "weights.DS: must be a number, got string",
            "weights.H1: must be a number, got null",
            "weights.H2: must be a number, got boolean",
        ),
    ),
    "display_precision_too_high": (
        {"display_precision": 13},
        ("display_precision: must be an integer between 0 and 12, got 13",),
    ),
    "display_precision_negative": (
        {"display_precision": -1},
        ("display_precision: must be an integer between 0 and 12, got -1",),
    ),
    "display_precision_boolean": (
        {"display_precision": True},
        ("display_precision: must be an integer between 0 and 12, got True",),
    ),
    "display_precision_string": (
        {"display_precision": "2"},
        ("display_precision: must be an integer between 0 and 12, got '2'",),
    ),
    "display_precision_float": (
        {"display_precision": 3.0},
        ("display_precision: must be an integer between 0 and 12, got 3.0",),
    ),
}

# Every class at once, to pin the order across object kinds.
EVERYTHING_AT_ONCE = {
    "zz": 1, "aa": 2, "asset/name": "", "asset/q": 0, "assessed_at": "today",
    "assessor": DELETE, "nodes/0/id": "", "nodes/0/colour": "red", "nodes/2": "H2",
    "edges/0/to": None, "edges/1/w": 1, "judgements/DS/quantity": 9,
    "judgements/DS/n": 1, "judgements/H1": [], "weights": {"DS": "x", "H1": 1},
    "display_precision": 99,
}
AT_ONCE_VIOLATIONS = (
    "unknown field: aa",
    "unknown field: zz",
    "asset.q: unknown field",
    "asset.name: must be a non-empty string",
    "assessed_at: must be an ISO-8601 date (YYYY-MM-DD), got 'today'",
    "assessor: required field missing",
    "nodes[0].colour: unknown field",
    "nodes[0].id: must be a non-empty string",
    "nodes[2]: must be an object, got string",
    "edges[0].to: must be a non-empty string",
    "edges[1].w: unknown field",
    "judgements.DS.n: unknown field",
    "judgements.DS.quantity: must be between 1 and 4, got 9",
    "judgements.H1: must be an object, got array",
    "weights.DS: must be a number, got string",
    "display_precision: must be an integer between 0 and 12, got 99",
)


def edited(edits: dict) -> dict:
    doc = valid_doc()
    for path, value in edits.items():
        *parents, last = [int(s) if s.isdigit() else s for s in path.split("/")]
        target = doc
        for step in parents:
            target = target[step]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
    return doc


def violations_of(doc: object, *, lenient: bool = False) -> tuple[str, ...]:
    with pytest.raises(SchemaViolationError) as excinfo:
        parse_document(dumps(doc), lenient=lenient)
    return excinfo.value.violations


class TestViolationCharacterization:
    """The field parser's violations, text and order, for each class it emits."""

    @pytest.mark.parametrize(
        ("edits", "expected"),
        list(VIOLATION_CLASSES.values()),
        ids=list(VIOLATION_CLASSES),
    )
    def test_violation_class(self, edits, expected):
        assert violations_of(edited(edits)) == expected

    def test_root_must_be_an_object(self):
        assert violations_of([1]) == ("document root must be an object, got array",)

    def test_every_class_at_once_in_document_order(self):
        assert violations_of(edited(EVERYTHING_AT_ONCE)) == AT_ONCE_VIOLATIONS

    def test_lenient_logs_unknown_fields_in_document_order(self, caplog):
        unknown = [v for v in AT_ONCE_VIOLATIONS if "unknown field" in v]
        with caplog.at_level(logging.WARNING, logger="pipevis.ingest"):
            assert violations_of(edited(EVERYTHING_AT_ONCE), lenient=True) == tuple(
                v for v in AT_ONCE_VIOLATIONS if v not in unknown
            )
        assert [record.getMessage() for record in caplog.records] == [
            "ignoring unknown field: "
            + v.removeprefix("unknown field: ").removesuffix(": unknown field")
            for v in unknown
        ]


# Values a mutation may put anywhere: every JSON type, integral and
# fractional numbers, empty and enum-like strings, and impossible dates.
RETYPES = (
    None, True, False, 0, 1, 3, 5, -1, 3.0, 2.5, 12.0, "", "x", "equal",
    "1.0", "DataSource", "2025-02-30", "2025-02-17", [], ["a"], [1], {}, {"a": 1},
)
# The one class the parser rejects and the schema accepts: an integral
# number token such as 3.0 where an integer is expected.
INTEGRAL_FLOAT = re.compile(
    r"judgements\..+: must be an integer, got number"
    r"|display_precision: must be an integer between 0 and 12, got -?\d+\.0"
)


def mutate(doc, rng):
    """Drop, null, retype or add a field, put a surrogate in, or turn an
    integer into an integral float, 1-3 times."""
    for _ in range(rng.randrange(1, 4)):
        pairs = list(helpers.slots(doc))
        container, key = rng.choice(pairs)
        integers = [(c, k) for c, k in pairs if type(c[k]) is int]
        op = rng.randrange(6)
        if op == 5 and integers:
            container, key = rng.choice(integers)
            container[key] = float(container[key])
        elif op == 0 and isinstance(container, dict):
            del container[key]
        elif op == 1:
            container[key] = None
        elif op == 2:
            container[key] = copy.deepcopy(rng.choice(RETYPES))
        elif op == 3:
            objects = [doc] + [c[k] for c, k in pairs if isinstance(c[k], dict)]
            rng.choice(objects)[rng.choice(["extra", "x", "id"])] = 1
        else:
            container[key] = rng.choice(["\ud800", "a\udfff", "\U0001f600"])


class TestSchemaDifferential:
    def test_parser_agrees_with_schema_on_mutated_samples(
        self, samples_dir, assessment_schema
    ):
        validator = jsonschema.Draft202012Validator(
            assessment_schema,
            format_checker=jsonschema.Draft202012Validator.FORMAT_CHECKER,
        )
        bases = [
            json.loads(path.read_bytes()) for path in sorted(samples_dir.glob("*.json"))
        ]
        rng = random.Random(3301)
        outcomes = {"accepted": 0, "schema": 0, "integral float": 0}
        for i in range(1500):
            doc = copy.deepcopy(rng.choice(bases))
            mutate(doc, rng)
            try:
                parse_document(json.dumps(doc))
            except (SchemaViolationError, UnknownSchemaVersionError) as exc:
                if not validator.is_valid(doc):
                    outcomes["schema"] += 1
                    continue
                assert all(INTEGRAL_FLOAT.fullmatch(v) for v in exc.violations), (
                    i, exc.violations
                )
                outcomes["integral float"] += 1
            except DocumentError:
                continue
            else:
                assert validator.is_valid(doc), (i, doc)
                outcomes["accepted"] += 1
        assert all(outcomes.values()), outcomes


class TestLenientMode:
    def test_unknown_fields_become_warnings(self, caplog):
        doc = valid_doc()
        doc["vendor_extra"] = 1
        doc["nodes"][0]["colour"] = "red"
        doc["asset"]["sku"] = "A-17"
        with caplog.at_level(logging.WARNING, logger="pipevis.ingest"):
            assessment = parse_document(dumps(doc), lenient=True)
        assert assessment.asset_name == "example-classifier"
        messages = [record.getMessage() for record in caplog.records]
        assert "ignoring unknown field: vendor_extra" in messages
        assert "ignoring unknown field: asset.sku" in messages
        assert any("colour" in message for message in messages)

    def test_lenient_still_rejects_bad_values(self):
        doc = valid_doc()
        doc["judgements"]["DS"]["quantity"] = 5
        with pytest.raises(SchemaViolationError):
            parse_document(dumps(doc), lenient=True)


class TestSemanticErrors:
    def test_judgement_on_non_leaf(self):
        doc = valid_doc()
        doc["judgements"]["LD"] = {"quantity": 3, "accuracy": 3, "freshness": 3}
        with pytest.raises(SemanticViolationError) as excinfo:
            parse_document(dumps(doc))
        assert "judgement on non-leaf node LD" in excinfo.value.violations

    def test_missing_judgement(self):
        doc = valid_doc()
        del doc["judgements"]["H2"]
        with pytest.raises(SemanticViolationError) as excinfo:
            parse_document(dumps(doc))
        assert "missing judgement for H2" in excinfo.value.violations

    def test_cycle_reported_from_document(self):
        doc = valid_doc()
        doc["edges"].append({"from": "M", "to": "DS"})
        with pytest.raises(SemanticViolationError) as excinfo:
            parse_document(dumps(doc))
        assert any(
            v.startswith("cycle detected:") for v in excinfo.value.violations
        )

    def test_incomplete_weights(self):
        doc = valid_doc()
        doc["weights"] = {"DS": 0.5, "H1": 0.5}
        with pytest.raises(SemanticViolationError) as excinfo:
            parse_document(dumps(doc))
        assert "missing weight for H2" in excinfo.value.violations
        assert "weights sum 1.0 but key set incomplete" in excinfo.value.violations

    def test_all_document_errors_share_a_base(self):
        for blob in (b"", b"[]", b'{"schema_version": "0.1"}'):
            with pytest.raises(DocumentError):
                parse_document(blob)


class TestFuzzSafety:
    def test_arbitrary_bytes_yield_classified_errors(self):
        rng = random.Random(702)
        pool = [serialize_document(helpers.random_assessment(rng)) for _ in range(10)]
        for i in range(500):
            choice = rng.random()
            if choice < 0.3:
                blob = bytes(rng.randrange(256) for _ in range(rng.randrange(80)))
            elif choice < 0.6:
                blob = "".join(
                    chr(rng.randrange(32, 1000)) for _ in range(rng.randrange(80))
                ).encode("utf-8")
            else:
                base = bytearray(rng.choice(pool))
                for _ in range(rng.randrange(1, 6)):
                    base[rng.randrange(len(base))] = rng.randrange(256)
                blob = bytes(base[: rng.randrange(1, len(base))])
            try:
                assessment = parse_document(blob)
            except DocumentError:
                continue
            assert assessment.graph.nodes, f"case {i} produced a bogus assessment"


class TestRubricDocuments:
    def test_round_trip(self):
        assert parse_rubric(serialize_rubric()) == RUBRIC

    def test_serialized_rubric_is_stable(self):
        assert serialize_rubric() == serialize_rubric()

    def test_missing_cell_rejected(self):
        doc = json.loads(serialize_rubric())
        del doc["rubric"]["quantity"]["3"]
        with pytest.raises(SchemaViolationError, match="rubric.quantity.3"):
            parse_rubric(json.dumps(doc))

    def test_malformed_rubric(self):
        with pytest.raises(MalformedSyntaxError):
            parse_rubric(b"not json")

    def test_wrong_version(self):
        with pytest.raises(UnknownSchemaVersionError):
            parse_rubric(b'{"schema_version": "2.0", "rubric": {}}')
