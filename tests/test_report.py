"""Rendering: display convention, tables, series, machine documents."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from datetime import date

import jsonschema
import pytest

import helpers
from pipevis import (
    EmptyInputError,
    MixedAssetError,
    RankEntry,
    WeightScheme,
    derived_asset_visibility,
    format_fixed,
    format_value,
    overall_visibility,
    parse_document,
    rank,
    render_comparison,
    render_machine,
    render_rubric,
    render_sensitivity,
    render_series,
    render_table,
    sensitivity,
)

SQRT6 = 2.449489742783178


class TestFormatValue:
    @pytest.mark.parametrize(
        ("value", "precision", "expected"),
        [
            (SQRT6, 2, "2.45"),
            (helpers.VIS_DS_LATER, 2, "2.71"),
            (helpers.OVERALL_FIRST_PARTY_LATER, 2, "2.90"),
            (helpers.OVERALL_THIRD_PARTY_MINIMAL, 2, "1.19"),
            (1.4142135623730951, 2, "1.41"),
            (helpers.OVERALL_THIRD_PARTY_DOCUMENTED, 2, "3.46"),
            (helpers.DERIVED_LD_LATER, 2, "2.86"),
            (3.0, 2, "3"),
            (4.0, 2, "4"),
            (2.875, 2, "2.88"),  # half away from zero, not banker's
            (-2.875, 2, "-2.88"),
            (2.999, 2, "3"),
            (-0.0000001, 2, "0"),
            (2.5, 0, "3"),
            (SQRT6, 4, "2.4495"),
            (2.1, 3, "2.100"),
        ],
    )
    def test_rounding(self, value, precision, expected):
        assert format_value(value, precision) == expected

    @pytest.mark.parametrize(
        ("value", "precision", "expected"),
        [
            (4.0, 2, "4.00"),
            (0.0, 2, "0.00"),
            (-1.0963979963901553, 2, "-1.10"),
            (-0.0000001, 2, "0.00"),
            (2.7686448086636277, 2, "2.77"),
        ],
    )
    def test_fixed_keeps_decimals(self, value, precision, expected):
        assert format_fixed(value, precision) == expected


class TestRenderTable:
    def test_first_party_later_golden_body(self, first_party_later):
        report = overall_visibility(first_party_later)
        rendered = render_table(report, first_party_later.judgements)
        assert rendered.body == (
            "Node | Quantity | Freshness | Accuracy | VISQuality | VIS\n"
            "DS | 3 | 3 | 2 | 2.45 | 2.71\n"
            "H1 | 3 | 3 | 3 | 3 | 3\n"
            "H2 | 3 | 3 | 3 | 3 | 3\n"
            "Overall VIS for model | 2.90\n"
        )

    def test_first_party_golden_body(self, first_party):
        report = overall_visibility(first_party)
        rendered = render_table(report, first_party.judgements)
        assert rendered.body == (
            "Node | Quantity | Freshness | Accuracy | VISQuality | VIS\n"
            "DS | 4 | 4 | 4 | 4 | 4\n"
            "H1 | 4 | 4 | 4 | 4 | 4\n"
            "H2 | 4 | 4 | 4 | 4 | 4\n"
            "Overall VIS for model | 4\n"
        )

    def test_third_party_bodies(self, third_party_minimal, third_party_documented):
        minimal = render_table(
            overall_visibility(third_party_minimal), third_party_minimal.judgements
        )
        assert "DS | 1 | 1 | 2 | 1.41 | 1.19" in minimal.body
        assert minimal.body.endswith("Overall VIS for model | 1.19\n")
        documented = render_table(
            overall_visibility(third_party_documented),
            third_party_documented.judgements,
        )
        assert "DS | 4 | 3 | 3 | 3 | 3.46" in documented.body
        assert documented.body.endswith("Overall VIS for model | 3.46\n")

    def test_single_leaf_table(self):
        graph = helpers.PipelineGraph(
            nodes=(
                helpers.ContributionNode(
                    id="S", kind=helpers.NodeKind.DATA_SOURCE, label="s"
                ),
                helpers.ContributionNode(
                    id="M", kind=helpers.NodeKind.OUTPUT_ASSET, label="m"
                ),
            ),
            edges=(("S", "M"),),
        )
        a = helpers.example_assessment(
            judgements={"S": helpers.FIRST_PARTY_LATER_DS}, graph=graph
        )
        body = render_table(overall_visibility(a), a.judgements).body
        assert body.splitlines() == [
            "Node | Quantity | Freshness | Accuracy | VISQuality | VIS",
            "S | 3 | 3 | 2 | 2.45 | 2.71",
            "Overall VIS for model | 2.71",
        ]

    def test_derived_report_takes_the_full_judgements(self, first_party_later):
        report = derived_asset_visibility(first_party_later, "LD")
        body = render_table(report, first_party_later.judgements).body
        assert [line.split(" | ")[0] for line in body.splitlines()] == [
            "Node",
            "DS",
            "H1",
            "Overall VIS for model",
        ]

    def test_precision_override(self, first_party_later):
        report = overall_visibility(first_party_later)
        rendered = render_table(report, first_party_later.judgements, precision=4)
        assert "Overall VIS for model | 2.9036" in rendered.body

    def test_every_numeral_matches_full_precision_value(self):
        rng = random.Random(800)
        for _ in range(25):
            a = helpers.random_assessment(rng)
            report = overall_visibility(a)
            body = render_table(report, a.judgements).body
            lines = body.splitlines()
            for row in report.per_node:
                judgement = a.judgements[row.node_id]
                expected = " | ".join(
                    (
                        row.node_id,
                        str(judgement.quantity),
                        str(judgement.freshness),
                        str(judgement.accuracy),
                        format_value(row.quality_index, a.display_precision),
                        format_value(row.visibility_index, a.display_precision),
                    )
                )
                assert expected in lines
            assert lines[-1] == (
                "Overall VIS for model | "
                + format_value(report.overall, a.display_precision)
            )

    def test_rendering_is_deterministic(self, first_party_later):
        report = overall_visibility(first_party_later)
        first = render_table(report, first_party_later.judgements)
        second = render_table(report, first_party_later.judgements)
        assert first.body == second.body


class TestRenderComparison:
    def test_scenario_ordering(
        self, first_party_later, third_party_minimal, third_party_documented
    ):
        ranked = rank([first_party_later, third_party_minimal, third_party_documented])
        body = render_comparison(ranked).body
        assert body == (
            "Asset | Version | VIS\n"
            "vendor-ner-pro | 4.1.0 | 3.46\n"
            "example-classifier | 1.0.0 | 2.90\n"
            "marketplace-sentiment | 0.9.2 | 1.19\n"
        )

    def test_single_entry(self):
        body = render_comparison([RankEntry("solo", "1.0", 2.5)]).body
        assert body == "Asset | Version | VIS\nsolo | 1.0 | 2.50\n"

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInputError):
            render_comparison([])


class TestRenderSeries:
    def test_degradation_series(self, first_party, first_party_later):
        rendered = render_series([first_party_later, first_party])
        assert rendered.body == (
            "Date | VIS\n"
            "2019-06-03 | 4.00\n"
            "2025-02-17 | 2.90\n"
            "Net change | -1.10\n"
        )

    def test_single_entry_has_zero_net_change(self, first_party):
        body = render_series([first_party]).body
        assert body.endswith("Net change | 0.00\n")

    def test_rows_are_date_sorted_regardless_of_input_order(self):
        entries = [
            helpers.later_assessment(assessed_at=date(2024, 5, 1)),
            helpers.example_assessment(assessed_at=date(2020, 1, 1)),
            helpers.later_assessment(assessed_at=date(2022, 9, 9)),
        ]
        rng = random.Random(801)
        rng.shuffle(entries)
        body = render_series(entries).body
        dates = [line.split(" | ")[0] for line in body.splitlines()[1:-1]]
        assert dates == ["2020-01-01", "2022-09-09", "2024-05-01"]

    def test_mixed_assets_rejected(self, first_party, third_party_minimal):
        with pytest.raises(MixedAssetError, match="mixed assets"):
            render_series([first_party, third_party_minimal])

    def test_empty_series_rejected(self):
        with pytest.raises(EmptyInputError):
            render_series([])


class TestRenderMachine:
    def test_results_block(self, first_party_later, result_schema):
        report = overall_visibility(first_party_later)
        rendered = render_machine(report, first_party_later)
        doc = json.loads(rendered.body)
        jsonschema.validate(doc, result_schema)
        results = doc["results"]
        assert results["scope"] == "overall"
        assert results["leaf_count"] == 3
        assert results["overall_visibility"] == pytest.approx(
            helpers.OVERALL_FIRST_PARTY_LATER, rel=1e-14
        )
        by_node = {row["node"]: row for row in results["per_node"]}
        assert by_node["DS"]["visibility_index"] == pytest.approx(
            helpers.VIS_DS_LATER, rel=1e-14
        )

    def test_scoped_machine_document(self, first_party_later, result_schema):
        report = derived_asset_visibility(first_party_later, "LD")
        rendered = render_machine(report, first_party_later, scope_node="LD")
        doc = json.loads(rendered.body)
        jsonschema.validate(doc, result_schema)
        assert doc["results"]["scope"] == "LD"
        assert doc["results"]["leaf_count"] == 2
        assert {row["node"] for row in doc["results"]["per_node"]} == {"DS", "H1"}

    def test_document_echoes_input(self, first_party_later):
        report = overall_visibility(first_party_later)
        doc = json.loads(render_machine(report, first_party_later).body)
        assert doc["asset"] == {"name": "example-classifier", "version": "1.0.0"}
        assert doc["judgements"]["DS"] == {
            "quantity": 3,
            "accuracy": 2,
            "freshness": 3,
        }

    def test_signed_zero_weights_keep_their_sign(self):
        # 0.0 and -0.0 are equal floats; the weight column must not merge them.
        for order in ((0.0, -0.0), (-0.0, 0.0)):
            weights = {"DS": 1.0, "H1": order[0], "H2": order[1]}
            assessment = helpers.later_assessment(
                weights=helpers.WeightScheme.explicit(weights)
            )
            body = render_machine(overall_visibility(assessment), assessment).body
            results = body[body.index('"results"'):]
            assert [
                line.strip() for line in results.splitlines() if '"weight"' in line
            ] == ['"weight": 1.0', f'"weight": {order[0]!r}', f'"weight": {order[1]!r}']


class TestRenderRubric:
    def test_exact_body(self):
        assert render_rubric().body == (
            "Score | Quantity | Freshness | Accuracy\n"
            "1 | Sparse or insufficient information | Never updated | "
            "Demonstrably inaccurate\n"
            "2 | Some information missing | Out-of-date | "
            "Believed to be inaccurate\n"
            "3 | Sufficient to gain confidence | Updated when changed | "
            "Believed to be accurate\n"
            "4 | Sufficient to validate | Real-time validation | "
            "Evidenced and verifiable\n"
        )


class TestRenderSensitivity:
    def test_degradation_delta(self, first_party):
        result = sensitivity(
            first_party,
            {
                "DS": helpers.FIRST_PARTY_LATER_DS,
                "H1": helpers.THREES,
                "H2": helpers.THREES,
            },
        )
        assert render_sensitivity(result).body == (
            "Baseline | 4.00\nModified | 2.90\nDelta | -1.10\n"
        )

    def test_no_change_delta_is_zero(self, first_party_later):
        body = render_sensitivity(sensitivity(first_party_later)).body
        assert body.endswith("Delta | 0.00\n")

    def test_reweighting(self, first_party_later):
        result = sensitivity(
            first_party_later,
            weights=WeightScheme.explicit({"DS": 0.8, "H1": 0.1, "H2": 0.1}),
        )
        assert "Modified | 2.77" in render_sensitivity(result).body


class TestBodyEnding:
    @pytest.mark.parametrize("precision", [0, 2, 12])
    def test_every_body_ends_with_exactly_one_newline(self, samples_dir, precision):
        samples = {
            path.stem: replace(
                parse_document(path.read_bytes()), display_precision=precision
            )
            for path in sorted(samples_dir.glob("*.json"))
        }
        later = samples["first_party_later"]
        bodies = [render_rubric().body]
        for assessment in samples.values():
            overall = overall_visibility(assessment)
            derived = derived_asset_visibility(assessment, "LD")
            bodies += [
                render_table(overall, assessment.judgements).body,
                render_table(derived, assessment.judgements).body,
                render_machine(overall, assessment).body,
                render_machine(derived, assessment, "LD").body,
                render_sensitivity(
                    sensitivity(assessment, {"DS": helpers.THREES})
                ).body,
            ]
        bodies += [
            render_comparison(rank(list(samples.values())), precision).body,
            render_series([samples["first_party"], later]).body,
        ]
        assert len(bodies) == 23
        for body in bodies:
            assert body.endswith("\n") and not body.endswith("\n\n"), body
