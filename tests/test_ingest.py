"""Document ingest: parsing, classified errors, canonical serialization."""

from __future__ import annotations

import copy
import dataclasses
import json
import logging
import random
import re
from operator import attrgetter
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import helpers
from pipevis import (
    Assessment,
    ContributionNode,
    DegenerateWeightsError,
    DocumentError,
    InvalidAssessmentError,
    MalformedSyntaxError,
    NodeKind,
    PipelineGraph,
    SchemaViolationError,
    SemanticViolationError,
    UnknownSchemaVersionError,
    VisibilityReport,
    WeightScheme,
    derived_asset_visibility,
    overall_visibility,
    parse_document,
    render_machine,
    serialize_document,
    validate_assessment,
)
from pipevis import ingest


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


# Text that looks like the writer's own separators and brackets, escapes and
# non-ASCII, beside arbitrary characters. No lone surrogates: those have no
# UTF-8 form, so no document holds one.
TRICKY_TEXT = st.text(
    st.sampled_from('{}[],:" \\\n\t\x00\x1f\u2028é€😀')
    | st.characters(exclude_categories=("Cs",)),
    max_size=8,
)
# Weights whose text is easy to get wrong: signed zeros, the smallest
# subnormal, a huge value and a 17-digit repr. 1e300 makes an assessment invalid.
EDGE_WEIGHTS = (0.0, -0.0, 5e-324, 1e300, 1 / 3)


@st.composite
def tricky_assessments(draw):
    """``helpers.random_assessment`` with tricky text in every string field.

    Explicit weights give three leaves 1/3 each and the rest an edge weight,
    so most such assessments stay valid; one of 1e300 makes them invalid.
    """
    base = helpers.random_assessment(random.Random(draw(st.integers(0, 2**32))), 8)
    ids = [node.id for node in base.graph.nodes]
    unique = st.lists(
        TRICKY_TEXT.filter(bool), min_size=len(ids), max_size=len(ids), unique=True
    )
    rename = dict(zip(ids, draw(unique)))
    nodes = tuple(
        dataclasses.replace(
            node,
            id=rename[node.id],
            label=draw(TRICKY_TEXT),
            description=draw(st.none() | TRICKY_TEXT),
            evidence_refs=tuple(draw(st.lists(TRICKY_TEXT, max_size=3))),
        )
        for node in base.graph.nodes
    )
    leaves = [rename[nid] for nid in base.judgements]
    weights = WeightScheme.equal()
    if draw(st.booleans()):
        edge = st.sampled_from(EDGE_WEIGHTS)
        weights = WeightScheme.explicit(
            {nid: 1 / 3 if i < 3 else draw(edge) for i, nid in enumerate(leaves)}
        )
    return Assessment(
        graph=PipelineGraph(
            nodes=nodes,
            edges=tuple((rename[src], rename[dst]) for src, dst in base.graph.edges),
        ),
        judgements={rename[nid]: j for nid, j in base.judgements.items()},
        weights=weights,
        asset_name=draw(TRICKY_TEXT.filter(bool)),
        asset_version=draw(TRICKY_TEXT),
        assessed_at=base.assessed_at,
        assessor=draw(TRICKY_TEXT),
        display_precision=draw(st.integers(0, 12)),
    )


def weighted(*weights: float) -> Assessment:
    """The 2.90 scenario with explicit weights for DS, H1 and H2."""
    return helpers.later_assessment(
        weights=WeightScheme.explicit(dict(zip(("DS", "H1", "H2"), weights)))
    )


def reference_text(document: dict) -> str:
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"


def machine_reference(report, assessment, scope_node=None) -> dict:
    """The machine document as a dict: ``document_dict`` plus the results."""

    def sig15(value):
        return float(f"{value:.15g}")

    document = ingest.document_dict(assessment)
    document["results"] = {
        "scope": scope_node if scope_node is not None else "overall",
        "leaf_count": report.leaf_count,
        "per_node": [
            {
                "node": row.node_id,
                "quantity_index": sig15(row.quantity_index),
                "quality_index": sig15(row.quality_index),
                "visibility_index": sig15(row.visibility_index),
                "weight": sig15(row.weight),
            }
            for row in report.per_node
        ],
        "overall_visibility": sig15(report.overall),
    }
    return document


class TestWriter:
    """The text writer is ``json.dumps(indent=2, ensure_ascii=False)`` of its
    reference, ``document_dict``, plus a newline."""

    @given(assessment=tricky_assessments())
    # H1 and H2 share a judgement: their rows differ only in the weight's sign.
    @example(assessment=weighted(1.0, 0.0, -0.0))
    @example(assessment=weighted(1.0, -0.0, 0.0))
    @example(assessment=weighted(5e-324, 0.5, 0.5))
    @example(assessment=weighted(1 / 3, 1 / 3, 1 / 3))
    @example(assessment=weighted(1e300, 0.5, 0.5))
    def test_matches_json_dumps_of_the_reference(self, assessment):
        expected = reference_text(ingest.document_dict(assessment))
        if not validate_assessment(assessment).ok:
            with pytest.raises(InvalidAssessmentError):
                serialize_document(assessment)
            assert ingest.document_text(assessment) == expected
            # A report of a valid twin: render_machine does not validate.
            scored = dataclasses.replace(assessment, weights=WeightScheme.equal())
        else:
            assert serialize_document(assessment) == expected.encode("utf-8")
            scored = assessment
        report = overall_visibility(scored)
        body = render_machine(report, assessment).body
        assert body == reference_text(machine_reference(report, assessment))
        for node in scored.graph.nodes:
            if node.kind is not NodeKind.DERIVED_ASSET:
                continue
            try:
                scoped = derived_asset_visibility(scored, node.id)
            except DegenerateWeightsError:  # every upstream leaf weighs zero
                continue
            body = render_machine(scoped, assessment, scope_node=node.id).body
            expected = machine_reference(scoped, assessment, scope_node=node.id)
            assert body == reference_text(expected)

    def test_a_large_assessment_matches_json_dumps(self):
        # 2,000 leaves under 20 derived assets, each leaf with a description,
        # 0-2 evidence refs and a weight of its own: every block has many
        # items to interleave with its separators, and every optional field.
        rng = random.Random(2000)
        leaves = [f"L{i:04d}" for i in range(2000)]
        derived = [f"D{i:02d}" for i in range(20)]
        nodes = [
            ContributionNode(
                id=nid,
                kind=rng.choice((NodeKind.DATA_SOURCE, NodeKind.HUMAN_CONTRIBUTOR)),
                label=f"leaf {nid}",
                description=f"origin of {nid}",
                evidence_refs=tuple(f"refs/{nid}/{j}" for j in range(i % 3)),
            )
            for i, nid in enumerate(leaves)
        ]
        nodes += [ContributionNode(id=d, kind=NodeKind.DERIVED_ASSET, label=d) for d in derived]
        nodes.append(ContributionNode(id="OUT", kind=NodeKind.OUTPUT_ASSET, label="output"))
        edges = [(nid, derived[i % 20]) for i, nid in enumerate(leaves)]
        edges += [(d, "OUT") for d in derived]
        raw = [rng.uniform(0.05, 1.0) for _ in leaves]
        assessment = helpers.example_assessment(
            graph=PipelineGraph(nodes=tuple(nodes), edges=tuple(edges)),
            judgements={nid: helpers.random_judgement(rng) for nid in leaves},
            weights=WeightScheme.explicit(
                {nid: w / sum(raw) for nid, w in zip(leaves, raw)}
            ),
        )
        assert validate_assessment(assessment).ok
        expected = reference_text(ingest.document_dict(assessment))
        assert ingest.document_text(assessment) == expected
        assert serialize_document(assessment) == expected.encode("utf-8")
        for scope in (None, derived[7]):
            if scope is None:
                report = overall_visibility(assessment)
            else:
                report = derived_asset_visibility(assessment, scope)
                assert report.leaf_count == 100
            body = render_machine(report, assessment, scope_node=scope).body
            assert body == reference_text(machine_reference(report, assessment, scope))

    def test_empty_containers_match_json_dumps(self):
        # Never valid, but the writer still owes the reference's text.
        assessment = helpers.example_assessment(
            graph=PipelineGraph(nodes=(), edges=()),
            judgements={},
            weights=WeightScheme.explicit({}),
        )
        assert ingest.document_text(assessment) == reference_text(
            ingest.document_dict(assessment)
        )
        report = VisibilityReport(per_node=(), overall=0.0, leaf_count=0)
        assert render_machine(report, assessment).body == reference_text(
            machine_reference(report, assessment)
        )

    @pytest.mark.parametrize("label", [None, 5, b"label"])
    def test_non_string_label_is_refused_at_construction(self, label):
        # The writer would raise TypeError on a node the parser would reject.
        # The constructor refuses one first, directly and through replace, as
        # it does a non-string description or evidence ref.
        h1 = helpers.example_graph().nodes[1]
        cases = [("label", label, "label"), ("evidence_refs", [label], "evidence ref")]
        if label is not None:  # a description may be None
            cases.append(("description", label, "description"))
        for field, value, name in cases:
            message = f"^node {name} must be a string, got {re.escape(repr(label))}$"
            with pytest.raises(ValueError, match=message):
                ContributionNode(**{"id": "H1", "kind": h1.kind, "label": "x",
                                    field: value})
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(h1, **{field: value})


    @pytest.mark.parametrize("where", ["asset_name", "label"])
    def test_lone_surrogate_is_an_invalid_assessment(self, where):
        # Validation does not look for one; the writer reports it as the
        # parser does, instead of raising UnicodeEncodeError.
        if where == "asset_name":
            assessment = helpers.later_assessment(asset_name="x\ud800")
        else:
            graph = helpers.example_graph()
            nodes = tuple(
                dataclasses.replace(node, label="x\ud800") if node.id == "H1" else node
                for node in graph.nodes
            )
            assessment = helpers.later_assessment(
                graph=PipelineGraph(nodes=nodes, edges=graph.edges)
            )
        assert validate_assessment(assessment).ok
        with pytest.raises(InvalidAssessmentError) as excinfo:
            serialize_document(assessment)
        assert excinfo.value.violations == ("lone surrogate '\\ud800' in a string",)


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

    @pytest.mark.parametrize(
        ("data", "name"), [(5, "int"), (None, "NoneType"), ([b"{}"], "list")]
    )
    def test_input_that_is_not_text_or_bytes_is_named(self, data, name):
        # 5 used to read as five NUL bytes, None to raise TypeError.
        with pytest.raises(MalformedSyntaxError) as excinfo:
            parse_document(data)
        assert str(excinfo.value) == (
            f"document must be str, bytes, bytearray or memoryview, got {name}"
        )
        assert excinfo.value.line is None

    def test_a_memoryview_is_read_as_its_bytes(self):
        blob = serialize_document(helpers.later_assessment())
        assert parse_document(memoryview(blob)) == parse_document(blob)

    def test_trailing_garbage(self):
        with pytest.raises(MalformedSyntaxError):
            parse_document(b"{} {}")

    def test_duplicate_keys_rejected(self):
        doc = b'{"schema_version": "1.0", "schema_version": "1.0"}'
        with pytest.raises(SchemaViolationError, match="duplicate key"):
            parse_document(doc)

    @pytest.mark.parametrize("parse", [parse_document])
    def test_deep_nesting(self, parse):
        with pytest.raises(MalformedSyntaxError, match="nested too deeply"):
            parse("[" * 100000)
        with pytest.raises(MalformedSyntaxError, match="nested too deeply"):
            parse(b'{"schema_version": ' + b"[" * 100000)

    @pytest.mark.parametrize("parse", [parse_document])
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

    @pytest.mark.parametrize(
        "edit",
        [lambda doc: doc.update(assessor="\ud800"), lambda doc: doc.update({"\ud800": 1})],
        ids=["value", "key"],
    )
    def test_raw_lone_surrogate_in_a_str_is_named(self, edit):
        doc = valid_doc()
        edit(doc)
        text = json.dumps(doc, ensure_ascii=False)
        assert "\\" not in text  # no escape: the argument itself is encoded
        with pytest.raises(MalformedSyntaxError) as excinfo:
            parse_document(text)
        assert excinfo.value.violations == ("lone surrogate '\\ud800' in a string",)

    @pytest.mark.parametrize("escaped", ["\ud801", "\ud802"])
    def test_the_first_lone_surrogate_in_document_order_is_named(self, escaped):
        # One escaped and one raw, either of them first.
        doc = valid_doc()
        doc["assessor"] = "\ud801"
        doc["nodes"][-1]["label"] = "\ud802"
        text = json.dumps(doc, ensure_ascii=False)
        text = text.replace(escaped, f"\\u{ord(escaped):04x}")
        with pytest.raises(MalformedSyntaxError) as excinfo:
            parse_document(text)
        assert excinfo.value.violations == ("lone surrogate '\\ud801' in a string",)

    @pytest.mark.parametrize("surrogate", ["\ud800", "\\ud800"], ids=["raw", "escaped"])
    @pytest.mark.parametrize("kept", [False, True], ids=["dropped", "kept"])
    def test_a_repeated_key_is_reported_before_a_surrogate(self, surrogate, kept):
        # Without the hook the first assessor is dropped; the surrogate is in
        # the dropped value or in the kept one.
        first, last = ("a", surrogate) if kept else (surrogate, "internal-audit")
        text = dumps(valid_doc()).replace(
            '"assessor": "internal-audit"',
            f'"assessor": "{first}", "assessor": "{last}"',
        )
        assert outcome(text) == (SchemaViolationError, ("duplicate key: assessor",), 0, 0)

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

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["weights", "schema_version"])
    def test_non_json_token_rejected(self, field, token):
        text = helpers.with_bare_token(valid_doc(), field, token)
        with pytest.raises(MalformedSyntaxError) as excinfo:
            parse_document(text)
        assert excinfo.value.violations == (f"{token} is not valid JSON",)


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


# Objects with something to report: each gets the full walker's text in strict
# and in lenient mode; the judgement lookup declines the bad judgements.
DECLINED = {
    "score true": (
        {"judgements/DS/quantity": True},
        "judgements.DS.quantity: must be an integer, got boolean",
    ),
    "score 1.0": (
        {"judgements/DS/quantity": 1.0},
        "judgements.DS.quantity: must be an integer, got number",
    ),
    "score null": (
        {"judgements/DS/quantity": None},
        "judgements.DS.quantity: required field missing",
    ),
    "score missing": (
        {"judgements/DS/accuracy": DELETE},
        "judgements.DS.accuracy: required field missing",
    ),
    "null label": ({"nodes/0/label": None}, "nodes[0].label: must be a string"),
    "edge to 7": ({"edges/0/to": 7}, "edges[0].to: must be a non-empty string"),
}


class TestFieldFastPath:
    @pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
    @pytest.mark.parametrize(
        ("edits", "expected"), list(DECLINED.values()), ids=list(DECLINED)
    )
    def test_declined_objects_get_the_full_walker_text(self, edits, expected, lenient):
        assert violations_of(edited(edits), lenient=lenient) == (expected,)

    @pytest.mark.parametrize(
        ("edits", "expected"),
        [edit for name, edit in DECLINED.items() if name.startswith("score")],
        ids=[name for name in DECLINED if name.startswith("score")],
    )
    def test_judgement_lookup_declines(self, edits, expected):
        judgements = edited(edits)["judgements"]
        assert ingest._JUDGEMENT.fast(list(judgements.values())) is None

    def test_extra_key_is_declined(self, caplog):
        doc = valid_doc()
        doc["judgements"]["DS"]["note"] = "x"
        assert ingest._JUDGEMENT.fast(list(doc["judgements"].values())) is None
        assert violations_of(doc) == ("judgements.DS.note: unknown field",)
        with caplog.at_level(logging.WARNING, logger="pipevis.ingest"):
            assessment = parse_document(dumps(doc), lenient=True)
        assert [r.getMessage() for r in caplog.records] == [
            "ignoring unknown field: judgements.DS.note"
        ]
        clean = parse_document(dumps(valid_doc()))
        assert assessment.judgements["DS"] is clean.judgements["DS"]

    def test_parses_share_one_judgement_per_state(self):
        blob = serialize_document(helpers.random_assessment(random.Random(704), 40))
        first, second = parse_document(blob), parse_document(blob)
        for nid, judgement in first.judgements.items():
            assert second.judgements[nid] is judgement
        states = {}
        for judgement in first.judgements.values():
            assert states.setdefault(judgement, judgement) is judgement

    def test_duplicate_key_inside_a_judgement(self):
        # Both quantity and accuracy repeat; quantity repeats first.
        blob = dumps(valid_doc()).replace(
            '"DS": {"quantity": 3,',
            '"DS": {"quantity": 3, "accuracy": 2, "quantity": 2,',
        )
        assert blob.count('"quantity"') == 4
        with pytest.raises(SchemaViolationError) as excinfo:
            parse_document(blob)
        assert excinfo.value.violations == ("duplicate key: quantity",)

    def test_duplicate_key_names_the_first_repeated_key(self):
        with pytest.raises(SchemaViolationError) as excinfo:
            parse_document('{"a": 1, "b": 2, "b": 3, "a": 4}')
        assert excinfo.value.violations == ("duplicate key: b",)


# Valid node and edge objects, and edits that each may or may not spoil.
NODE_OBJECTS = st.fixed_dictionaries(
    {
        "id": TRICKY_TEXT.filter(bool),
        "kind": st.sampled_from([kind.value for kind in NodeKind]),
        "label": TRICKY_TEXT,
    },
    optional={
        "description": TRICKY_TEXT,
        "evidence_refs": st.lists(TRICKY_TEXT, max_size=3),
    },
)
EDGE_OBJECTS = st.fixed_dictionaries(
    {"from": TRICKY_TEXT.filter(bool), "to": TRICKY_TEXT.filter(bool)}
)
ODD_VALUES = ("", True, 1, 2.5, ["a"], {"a": 1}, "Wizard", "x")
NODE_KEYS = ("id", "kind", "label", "description", "evidence_refs")
EDGE_KEYS = ("from", "to")
JUDGEMENT_KEYS = ("quantity", "accuracy", "freshness")
JUDGEMENT_OBJECTS = st.fixed_dictionaries(
    dict.fromkeys(JUDGEMENT_KEYS, st.integers(1, 4))
)
EDITS = [("drop",), ("null",)] + [("retype", value) for value in ODD_VALUES]


def edit_object(obj: dict, key: str, edit: tuple) -> None:
    """Drop, null or retype ``key``, or, for ``"ref"``, add a bad ref."""
    op, *value = edit
    if key == "ref":
        refs = obj.get("evidence_refs")
        obj["evidence_refs"] = (refs if isinstance(refs, list) else []) + value
    elif op == "drop":
        obj.pop(key, None)
    else:
        obj[key] = copy.deepcopy(value[0]) if value else None


def single_edits(keys: tuple[str, ...]) -> list[tuple[str, tuple]]:
    """Every edit of one known key, an unknown key, and each bad ref."""
    edits = [(key, edit) for key in keys for edit in EDITS]
    edits += [("note", ("retype", value)) for value in ODD_VALUES]
    if "evidence_refs" in keys:
        edits += [("ref", ("ref", value)) for value in (None, 1, True, ["a"], {})]
    return edits


def assert_reader_agrees(item: ingest._Object, objs: list) -> None:
    """The array reader returns None or exactly the walker's clean values,
    in strict and lenient mode, and never declines a plainly valid array."""
    fast = item.fast(copy.deepcopy(objs))
    if item is ingest._NODE and fast is not None:
        # The node reader's columns, as nodes in id order, and as their types.
        fast, columns = list(map(ContributionNode, *fast)), fast
        assert set(map(type, columns[1])) <= {NodeKind}
        assert set(map(type, columns[4])) <= {tuple}
        assert PipelineGraph(fast, ())._columns == columns
    for value in fast or ():
        if isinstance(value, ingest.ContributionNode):
            assert type(value.kind) is NodeKind
            assert type(value.evidence_refs) is tuple
        elif isinstance(value, ingest.Judgement):
            levels = value.quantity, value.accuracy, value.freshness
            assert value is ingest._JUDGEMENTS[levels]
        else:
            assert type(value) is tuple
    for lenient in (False, True):
        errors: list[str] = []
        built = []
        for position, obj in enumerate(copy.deepcopy(objs)):
            try:
                built.append(item.read(obj, f"items[{position}]", errors, lenient))
            except ingest._Invalid as exc:  # not an object
                errors.append(str(exc))
        if fast is not None:
            assert errors == []
            if item is ingest._NODE:
                built.sort(key=attrgetter("id"))
            assert built == fast
            assert list(map(type, built)) == list(map(type, fast))
        elif not lenient:
            assert errors != []


class TestOneStepReaders:
    """The node, edge and judgement array readers against the full walker."""

    @pytest.mark.parametrize("spec", ["_NODE", "_EDGE", "_JUDGEMENT"])
    def test_every_item_kind_with_a_reader_is_read_in_one_step(self, spec):
        assert getattr(ingest, spec).fast is not None
        empty = ([],) * 5 if spec == "_NODE" else []  # the node reader's five columns
        assert getattr(ingest, spec).fast([]) == empty

    @pytest.mark.parametrize(
        ("spec", "base", "keys"),
        [
            ("_NODE", {"id": "a", "kind": "DataSource", "label": "A"}, NODE_KEYS),
            ("_NODE", {
                "id": "a", "kind": "OutputAsset", "label": "", "description": "d",
                "evidence_refs": ["r"],
            }, NODE_KEYS),
            ("_EDGE", {"from": "a", "to": "b"}, EDGE_KEYS),
        ],
        ids=["node", "full node", "edge"],
    )
    def test_every_single_edit(self, spec, base, keys):
        item = getattr(ingest, spec)
        assert item.fast([base]) is not None
        for key, edit in single_edits(keys):
            obj = copy.deepcopy(base)
            edit_object(obj, key, edit)
            assert_reader_agrees(item, [obj])
            assert_reader_agrees(item, [base, obj, base])
        for value in ODD_VALUES + (None, [], 0):
            assert_reader_agrees(item, [value])
            assert_reader_agrees(item, [base, value])

    @given(
        node=NODE_OBJECTS,
        edits=st.lists(st.sampled_from(single_edits(NODE_KEYS)), max_size=3),
    )
    def test_edited_nodes(self, node, edits):
        for key, edit in edits:
            edit_object(node, key, edit)
        assert_reader_agrees(ingest._NODE, [node])

    @given(
        edge=EDGE_OBJECTS,
        edits=st.lists(st.sampled_from(single_edits(EDGE_KEYS)), max_size=2),
    )
    def test_edited_edges(self, edge, edits):
        for key, edit in edits:
            edit_object(edge, key, edit)
        assert_reader_agrees(ingest._EDGE, [edge])

    @pytest.mark.parametrize(
        ("item", "objects", "keys"),
        [
            (ingest._NODE, NODE_OBJECTS, NODE_KEYS),
            (ingest._EDGE, EDGE_OBJECTS, EDGE_KEYS),
            (ingest._JUDGEMENT, JUDGEMENT_OBJECTS, JUDGEMENT_KEYS),
        ],
        ids=["nodes", "edges", "judgements"],
    )
    @given(data=st.data())
    def test_one_edited_item_in_an_array(self, item, objects, keys, data):
        objs = data.draw(st.lists(objects, min_size=1, max_size=5))
        position = data.draw(st.integers(0, len(objs) - 1))
        if data.draw(st.booleans()):
            objs[position] = copy.deepcopy(data.draw(st.sampled_from(ODD_VALUES)))
        else:
            edits = single_edits(keys)
            if item is ingest._JUDGEMENT:  # scores out of range
                edits += [(key, ("retype", v)) for key in keys for v in (0, 5)]
            for key, edit in data.draw(st.lists(st.sampled_from(edits), max_size=3)):
                edit_object(objs[position], key, edit)
        assert_reader_agrees(item, objs)

    @pytest.mark.parametrize("extra", [False, True], ids=["read", "walked"])
    def test_parsed_kinds_are_the_members_themselves(self, extra):
        doc = valid_doc()
        if extra:  # an unknown key sends every node to the lenient walker
            for node in doc["nodes"]:
                node["note"] = 1
        assessment = parse_document(dumps(doc), lenient=True)
        kinds = {node.id: node.kind for node in assessment.graph.nodes}
        assert kinds["DS"] is NodeKind.DATA_SOURCE
        assert kinds["H1"] is NodeKind.HUMAN_CONTRIBUTOR
        assert kinds["LD"] is NodeKind.DERIVED_ASSET
        assert kinds["M"] is NodeKind.OUTPUT_ASSET


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



class Members(list):
    """One JSON object's ``(key, value)`` members in text order; a key may repeat."""


class Raw(str):
    """Text that goes into a document as it is: a bare token or an escape."""


def as_members(value):
    if isinstance(value, dict):
        return Members((key, as_members(item)) for key, item in value.items())
    if isinstance(value, list):
        return [as_members(item) for item in value]
    return value


def write(value, string=json.dumps) -> str:
    """JSON text of ``value``, each string (key or value) written by ``string``."""
    if isinstance(value, Members):
        return "{" + ", ".join(f"{string(k)}: {write(v, string)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(write(item, string) for item in value) + "]"
    if isinstance(value, Raw):
        return value
    return string(value) if isinstance(value, str) else json.dumps(value)


def member(obj: Members, key: str):
    return next(value for k, value in obj if k == key)


def put(obj: Members, key: str, value) -> None:
    """Set the first ``key`` member of ``obj``, or add one at the end."""
    for position, (k, _) in enumerate(obj):
        if k == key:
            obj[position] = (key, value)
            return
    obj.append((key, value))


def objects_in(value):
    """Every object in ``value``, outer first."""
    if isinstance(value, Members):
        yield value
        value = [item for _, item in value]
    if isinstance(value, list):
        for item in value:
            yield from objects_in(item)


#: Each object level of a document, and its objects.
LEVELS = {
    "root": lambda doc: [doc],
    "asset": lambda doc: [member(doc, "asset")],
    "node": lambda doc: member(doc, "nodes"),
    "edge": lambda doc: member(doc, "edges"),
    "judgements": lambda doc: [member(doc, "judgements")],
    "judgement": lambda doc: [value for _, value in member(doc, "judgements")],
    "weights": lambda doc: [w] if isinstance(w := member(doc, "weights"), Members) else [],
}
#: Problems a document may have besides a repeated key.
PROBLEMS = (None, "syntax", "nan", "surrogate", "version", "unknown")


def spoil(doc: Members, problem: str | None, target: Members) -> None:
    """Give ``doc`` a problem; an unknown field goes into ``target``."""
    if problem == "nan":
        put(doc, "display_precision", Raw("NaN"))
    elif problem == "surrogate":
        put(doc, "assessor", Raw('"\\ud800"'))
    elif problem == "version":
        put(doc, "schema_version", "2.0")
    elif problem == "unknown":
        target.append(("extra", 1))


def with_colons(doc: dict) -> dict:
    """``doc`` with a colon in every node id, label, description and
    evidence ref; every node then has each optional field."""
    name = "src:{}".format
    for node in doc["nodes"]:
        node["id"] = name(node["id"])
        node["label"] += ": see notes"
        node["description"] = "origin: " + node.get("description", "unknown")
        refs = node.get("evidence_refs", ["notes"])
        node["evidence_refs"] = [f"https://example.org/{ref}" for ref in refs]
    doc["edges"] = [{"from": name(e["from"]), "to": name(e["to"])} for e in doc["edges"]]
    doc["judgements"] = {name(k): v for k, v in doc["judgements"].items()}
    if isinstance(doc["weights"], dict):
        doc["weights"] = {name(k): v for k, v in doc["weights"].items()}
    return doc


def outcome(data, lenient: bool = False):
    """The assessment ``data`` parses to, or its error's class and fields."""
    try:
        return parse_document(data, lenient=lenient)
    except DocumentError as exc:
        return type(exc), exc.violations, getattr(exc, "line", 0), getattr(exc, "column", 0)


def hooked_outcome(data, lenient: bool = False):
    """``outcome`` with every decode using the duplicate-key hook."""
    load = ingest._load_json

    def hooked(source, hook):
        return load(source, ingest._reject_duplicate_keys)

    with mock.patch.object(ingest, "_load_json", hooked):
        return outcome(data, lenient)


def hook_calls(data) -> int:
    """How many objects of ``data`` the duplicate-key hook saw while parsing it."""
    hook = ingest._reject_duplicate_keys
    calls = []

    def spy(pairs):
        calls.append(pairs)
        return hook(pairs)

    with mock.patch.object(ingest, "_reject_duplicate_keys", spy):
        outcome(data)
    return len(calls)


def decodes(data, lenient: bool = False) -> list[bool]:
    """For each JSON decode while parsing ``data``, whether it had the hook."""
    load = ingest._load_json
    hooks = []

    def spy(source, hook):
        hooks.append(hook is not None)
        return load(source, hook)

    with mock.patch.object(ingest, "_load_json", spy):
        outcome(data, lenient)
    return hooks


@st.composite
def repeat_documents(draw):
    """``(data, lenient)``: a document that may repeat a key at any level,
    and may have a later problem, colons, colon escapes and an escaped
    backslash before ``u003a``.

    A balanced repeat comes first, so it is the member dropped, and the kept
    asset version ends in as many colon escapes as the dropped member has
    colons, separators and raw string colons alike; every other colon is raw.
    Only the escape count tells such a document from one without a repeat.
    """
    doc = json.loads(ingest.document_text(draw(tricky_assessments())))
    if draw(st.booleans()):
        doc = with_colons(doc)
    doc = as_members(doc)
    balanced = draw(st.booleans())
    level = draw(st.sampled_from([*LEVELS] if balanced else [None, *LEVELS]))
    if level == "weights" and not LEVELS["weights"](doc):
        ids = [nid for nid, _ in member(doc, "judgements")]
        put(doc, "weights", Members((nid, 1 / len(ids)) for nid in ids))
    if level is not None:
        objects = LEVELS[level](doc)
        obj = objects[draw(st.integers(0, len(objects) - 1))]
        position = draw(st.integers(0, len(obj) - 1))
        key, value = obj[position]
        if draw(st.booleans()):
            value = as_members(draw(st.sampled_from(ODD_VALUES)))
        if not balanced:
            position = draw(st.integers(0, len(obj)))
        obj.insert(position, (key, copy.deepcopy(value)))
    problem = draw(st.sampled_from(PROBLEMS))
    every = list(objects_in(doc))
    spoil(doc, problem, every[draw(st.integers(0, len(every) - 1))])
    if draw(st.booleans()):
        put(doc, "assessor", "\\u003a")  # an escaped backslash: no colon
    escapes = ["\\u003a", "\\u003A"]
    escape = draw(st.sampled_from(escapes if balanced else [None, *escapes]))
    # Every string colon, or only the first few: a repeat whose dropped
    # colons the kept escapes make up for matches the count only with them.
    escaped = 0 if balanced else draw(st.sampled_from([-1, 1, 2, 3]))
    ascii_only = draw(st.booleans())

    def string(value: str) -> str:
        text = json.dumps(value, ensure_ascii=ascii_only)
        return text.replace(":", "\0") if escape else text  # dumps writes no NUL

    if balanced:
        colons = write(Members([obj[position]])).count(":")
        asset = [value for key, value in doc if key == "asset"][-1]
        at = [i for i, (key, _) in enumerate(asset) if key == "version"][-1]
        version = json.dumps(asset[at][1], ensure_ascii=ascii_only)
        asset[at] = ("version", Raw(version[:-1] + escape * colons + '"'))
    text = write(doc, string)
    if escape:
        text = text.replace("\0", escape, escaped).replace("\0", ":")
    if problem == "syntax":
        text = draw(st.sampled_from([text[:-1], text + "x", text[:-1] + ","]))
    data = text.encode("utf-8") if draw(st.booleans()) else text
    return data, draw(st.booleans())


#: A repeated ``assessor`` whose dropped separator the escaped colon in the
#: kept one makes up for: only the escape count tells the two apart.
ESCAPED_REPEAT = dumps(valid_doc()).replace(
    '"assessor": "internal-audit"', '"assessor": "a", "assessor": "internal\\u003a audit"'
)


class TestHooklessDecode:
    """A strict parse decodes without the duplicate-key hook when the colon
    count proves that no key repeated, and parses as the hooked decode does."""

    @given(repeat_documents())
    @example((ESCAPED_REPEAT, False))
    def test_hookless_and_hooked_parses_agree(self, case):
        data, lenient = case
        assert outcome(data, lenient) == hooked_outcome(data, lenient)

    @pytest.mark.parametrize("problem", PROBLEMS)
    @pytest.mark.parametrize("level", LEVELS)
    def test_a_repeated_key_at_each_level(self, level, problem):
        doc = as_members(with_colons(valid_doc()))
        put(doc, "weights", Members((f"src:{n}", 1 / 3) for n in ("DS", "H1", "H2")))
        obj = LEVELS[level](doc)[0]
        key, value = obj[-1]  # repeated as it is: only the hook tells the two apart
        obj.append((key, copy.deepcopy(value)))
        spoil(doc, problem, doc)
        text = write(doc)
        if problem == "syntax":
            text = text[:-1]
        found = outcome(text)
        assert found == hooked_outcome(text)
        if problem is None:
            assert found == (SchemaViolationError, (f"duplicate key: {key}",), 0, 0)
        assert found[0] in (SchemaViolationError, MalformedSyntaxError)

    def test_golden_samples_skip_the_hook(self, samples_dir):
        paths = sorted(samples_dir.glob("*.json"))
        assert len(paths) == 4
        for path in paths:
            blob = path.read_bytes()
            assert hook_calls(blob) == 0, path.name
            assert hook_calls(blob.decode("utf-8")) == 0, path.name
            assert outcome(blob) == hooked_outcome(blob), path.name
        # Its URLs put colons in strings: the count reads them too.
        assert b'"https://' in (samples_dir / "third_party_documented.json").read_bytes()

    @pytest.mark.parametrize("weights", [None, (0.5, 0.25, 0.25)], ids=["equal", "explicit"])
    def test_colon_ids_skip_the_hook(self, weights):
        assessment = weighted(*weights) if weights else helpers.later_assessment()
        doc = with_colons(json.loads(serialize_document(assessment)))
        blob = dumps(doc).encode("utf-8")
        assert hook_calls(blob) == 0
        parsed = parse_document(blob)
        assert "src:DS" in parsed.judgements
        assert parsed == hooked_outcome(blob)

    @pytest.mark.parametrize("escape", ["\\u003a", "\\u003A"])
    def test_a_colon_escape_skips_the_hook(self, escape):
        doc = valid_doc()
        doc["nodes"][0]["label"] = "see: notes"
        text = dumps(doc).replace("see:", "see" + escape)
        assert "see:" not in text
        assert hook_calls(text) == 0
        assessment = parse_document(text)
        assert assessment.graph.nodes[0].label == "see: notes"

    def test_an_escaped_colon_cannot_hide_a_repeated_key(self):
        # The escape's colon, which the text does not show, makes up for the
        # separator the repeat took away: only the escape check tells.
        doc = as_members(valid_doc())
        put(doc, "assessor", Raw('"internal\\u003a audit"'))
        doc.append(("display_precision", 2))
        text = write(doc)
        assert text.count(":") == sum(map(len, objects_in(doc)))  # separators only
        assert outcome(text) == (
            SchemaViolationError, ("duplicate key: display_precision",), 0, 0
        )

    def test_each_path_decodes_at_most_twice(self):
        text = dumps(valid_doc())
        repeat = text.replace('"assessor"', '"assessor": "a", "assessor"')
        unknown = text.replace('"assessor"', '"extra": 1, "assessor"')
        escape = text.replace('"internal-audit"', '"internal\\u003a audit"')
        # An escaped backslash: the text shows "\u003a", the string no colon.
        no_escape = text.replace('"internal-audit"', '"internal\\\\u003a audit"')
        assert decodes(text) == [False]
        assert decodes(text, lenient=True) == [True]
        assert decodes(escape) == [False]
        # A repeat, a failed read, or a count whose text side is larger
        # without a repeat, decodes again with the hook.
        assert decodes(repeat) == [False, True]
        assert decodes(unknown) == [False, True]
        assert decodes(text[:-2]) == [False, True]
        assert decodes(no_escape) == [False, True]
        assert outcome(unknown) == (
            SchemaViolationError, ("unknown field: extra",), 0, 0
        )
        assert parse_document(no_escape).assessor == "internal\\u003a audit"
        repeated = no_escape.replace('"assessor"', '"assessor": "a", "assessor"')
        assert decodes(repeated) == [False, True]
        assert outcome(repeated) == (
            SchemaViolationError, ("duplicate key: assessor",), 0, 0
        )

    def test_str_and_bytes_take_one_proof(self):
        # The proof counts the decoded text: a raw colon and a colon escape in
        # a non-ASCII label, and each route past them, read the same from the
        # document's str and its UTF-8 bytes.
        doc = valid_doc()
        doc["nodes"][0]["label"] = "Köln: Daten: über"
        text = json.dumps(doc, ensure_ascii=False).replace("Köln:", "Köln\\u003a")
        assert "Köln\\u003a Daten: über" in text
        repeat = text.replace('"assessor"', '"assessor": "ä:", "assessor"')
        escaped_repeat = text.replace('"assessor"', '"assessor": "é\\u003a", "assessor"')
        no_escape = text.replace("Köln\\u003a", "Köln\\\\u003a")
        cases = {
            text: [False], repeat: [False, True], escaped_repeat: [False, True],
            no_escape: [False, True], text[:-2]: [False, True],
        }
        for case, routes in cases.items():
            blob = case.encode("utf-8")
            assert decodes(case) == decodes(blob) == routes, case
            assert outcome(case) == outcome(blob), case
        assert parse_document(text).graph.nodes[0].label == "Köln: Daten: über"
        assert outcome(repeat)[:2] == (SchemaViolationError, ("duplicate key: assessor",))

    def test_a_failed_read_reports_the_hooked_error_alone(self):
        # The repeat comes before the unknown field, which a hookless read
        # meets first: the repeat's error is raised, with no chained one.
        text = dumps(valid_doc()).replace(
            '"assessor"', '"asset": {"name": "x", "version": "1"}, "extra": 1, "assessor"'
        )
        with pytest.raises(SchemaViolationError, match="duplicate key: asset") as info:
            parse_document(text)
        assert info.value.__suppress_context__

    def test_a_repeated_key_takes_the_hook(self):
        blob = dumps(valid_doc()).replace(
            '"assessor": "internal-audit"',
            '"assessor": "internal-audit", "assessor": "internal-audit"',
        )
        assert hook_calls(blob) > 0
        assert outcome(blob) == (
            SchemaViolationError, ("duplicate key: assessor",), 0, 0
        )
