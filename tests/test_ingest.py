"""Document ingest: parsing, classified errors, canonical serialization."""

from __future__ import annotations

import json
import logging
import random
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

    @pytest.mark.parametrize("value", [13, -1, True, "2"])
    def test_bad_display_precision(self, value):
        doc = valid_doc()
        doc["display_precision"] = value
        with pytest.raises(SchemaViolationError, match="display_precision"):
            parse_document(dumps(doc))

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
