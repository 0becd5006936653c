"""Rendering: display convention, tables, series, machine documents."""

from __future__ import annotations

import json
import math
import random
import copy
import pickle
import re
import sys
from dataclasses import replace
from datetime import date

import jsonschema
import pytest

import helpers
from pipevis import (
    Assessment,
    DocumentError,
    EmptyInputError,
    Judgement,
    MixedAssetError,
    NodeVisibility,
    RankEntry,
    ReportError,
    SensitivityResult,
    VisibilityReport,
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
    serialize_document,
)
from pipevis import metrics

SQRT6 = 2.449489742783178


def reference_table(report, judgements, precision=None):
    """The per-row join ``render_table`` replaced, kept as its reference."""
    if precision is None:
        precision = report.display_precision
    lines = ["Node | Quantity | Freshness | Accuracy | VISQuality | VIS"]
    for row in report.per_node:
        judgement = judgements[row.node_id]
        lines.append(
            " | ".join(
                (
                    row.node_id,
                    str(judgement.quantity),
                    str(judgement.freshness),
                    str(judgement.accuracy),
                    format_value(row.quality_index, precision),
                    format_value(row.visibility_index, precision),
                )
            )
        )
    lines.append(f"Overall VIS for model | {format_value(report.overall, precision)}")
    return "\n".join(lines) + "\n"


class Level(int):
    """A plain int subclass: equal to and hashed as its int."""


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


class TestFixedPoint:
    """Every finite float prints in fixed point at 0 to 12 decimals."""

    #: No value is a tie at any precision, so each rounds as ``%f`` does.
    VALUES = [1e-9, -1e-9, 1.5e-7, -3.3e-8, 1.2345678e-13, 5e-324, 1e16, -1e22,
              1e26, 1e300, sys.float_info.max, -sys.float_info.max, SQRT6]

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_each_precision_rounds_as_percent_f(self, value):
        for precision in range(13):
            expected = f"{value:.{precision}f}"
            if not float(expected):
                expected = expected.lstrip("-")
            assert format_fixed(value, precision) == expected
            whole, _, fraction = expected.partition(".")
            bare = expected if fraction.strip("0") else whole
            assert format_value(value, precision) == bare

    def test_a_huge_overall_ranks_in_fixed_point(self):
        body = render_comparison([RankEntry("a", "1", 1e300)]).body
        assert body.splitlines()[1] == f"a | 1 | {int(1e300)}"

    @pytest.mark.parametrize(
        "value",
        [math.inf, -math.inf, math.nan, 10**400, -(10**400), 10**5000],
        ids=["inf", "-inf", "nan", "10**400", "-10**400", "10**5000"],
    )
    def test_a_non_finite_value_is_a_report_error(self, value):
        # An int past the float range used to raise decimal.InvalidOperation.
        for formatter in (format_value, format_fixed):
            with pytest.raises(ReportError, match="^cannot format a non-finite"):
                formatter(value, 12)
        with pytest.raises(ReportError, match="^cannot format a non-finite"):
            render_comparison([RankEntry("a", "1", value)])


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

    def test_a_row_without_a_judgement_is_a_report_error(self, first_party_later):
        # It used to raise KeyError.
        report = overall_visibility(first_party_later)
        with pytest.raises(ReportError, match="^no judgement for node DS$"):
            render_table(report, {})

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

    def test_matches_the_reference_on_random_reports(self):
        rng = random.Random(802)
        for _ in range(40):
            a = helpers.random_assessment(rng)
            reports = [overall_visibility(a)]
            reports += [
                derived_asset_visibility(a, node.id)
                for node in a.graph.nodes
                if node.kind is helpers.NodeKind.DERIVED_ASSET
            ]
            for report in reports:
                for precision in (None, 0, 1, 2, 5, 12):
                    assert render_table(report, a.judgements, precision).body == (
                        reference_table(report, a.judgements, precision)
                    )

    def test_matches_the_reference_on_hand_built_rows(self):
        # Rows whose levels repeat with other indices, signed-zero and int
        # indices, and int-subclass levels equal to the plain ones.
        judgements = {
            "A": Judgement(2, 3, 4),
            "B": Judgement(2, 3, 4),
            "C": Judgement(Level(2), Level(3), Level(4)),
            "D": Judgement(1, 1, 1),
            "E": Judgement(1, 1, 1),
        }
        rows = (
            NodeVisibility("A", 2.0, 3.4641016151377544, 2.6321480259049848, 0.2),
            NodeVisibility("B", 2.0, 1.25, -1.125, 0.2),
            NodeVisibility("C", 2.0, 3.4641016151377544, 2.6321480259049848, 0.2),
            NodeVisibility("D", 1.0, 0.0, -0.0, 0.2),
            NodeVisibility("E", 1.0, -0.0, -0.004, 0.2),
        )
        rng = random.Random(803)
        for _ in range(30):
            shuffled = rng.sample(rows, len(rows))
            report = VisibilityReport(tuple(shuffled), 2.5, len(rows), rng.randint(0, 12))
            body = render_table(report, judgements).body
            assert body == reference_table(report, judgements)
        report = VisibilityReport(rows, 2.5, len(rows))
        assert render_table(report, judgements).body.splitlines()[1:-1] == [
            "A | 2 | 4 | 3 | 3.46 | 2.63",
            "B | 2 | 4 | 3 | 1.25 | -1.13",
            "C | 2 | 4 | 3 | 3.46 | 2.63",
            "D | 1 | 1 | 1 | 0 | 0",
            "E | 1 | 1 | 1 | 0 | 0",
        ]
        pool = [0.0, -0.0, 1, 1.0, 2.345, 2.355, -1.005, 3.999999, 4.0]
        levels = [1, 2, Level(2), 4]
        for _ in range(30):
            judgements = {}
            rows = []
            for k in range(rng.randint(1, 12)):
                judgements[f"N{k}"] = Judgement(*rng.choices(levels, k=3))
                rows.append(NodeVisibility(f"N{k}", 1.0, *rng.choices(pool, k=2), 0.1))
            report = VisibilityReport(tuple(rows), rng.choice(pool), len(rows))
            for precision in (0, 2, 3):
                assert render_table(report, judgements, precision).body == (
                    reference_table(report, judgements, precision)
                )


class TestPrecisionBound:
    """Every renderer takes 0 to 12 decimals and rejects anything else."""

    BAD = [-1, -2, 13, 40, True, False, 2.0, "2"]

    @staticmethod
    def rejects(precision):
        return pytest.raises(
            ReportError,
            match="^precision must be an integer between 0 and 12, got "
            + re.escape(repr(precision))
            + "$",
        )

    @pytest.mark.parametrize("precision", BAD, ids=repr)
    def test_formatters(self, precision):
        for formatter in (format_value, format_fixed):
            with self.rejects(precision):
                formatter(2.5, precision)

    @pytest.mark.parametrize("precision", BAD, ids=repr)
    def test_table(self, first_party_later, precision):
        report = overall_visibility(first_party_later)
        with self.rejects(precision):
            render_table(report, first_party_later.judgements, precision)
        hand_built = replace(report, display_precision=precision)
        with self.rejects(precision):
            render_table(hand_built, first_party_later.judgements)

    @pytest.mark.parametrize("precision", BAD, ids=repr)
    def test_comparison_and_series(self, first_party, first_party_later, precision):
        with self.rejects(precision):
            render_comparison(rank([first_party_later]), precision=precision)
        with self.rejects(precision):
            render_series([first_party, first_party_later], precision)

    @pytest.mark.parametrize("precision", BAD, ids=repr)
    def test_sensitivity(self, first_party_later, precision):
        result = sensitivity(first_party_later)
        with self.rejects(precision):
            render_sensitivity(result, precision)
        hand_built = replace(
            result, baseline=replace(result.baseline, display_precision=precision)
        )
        with self.rejects(precision):
            render_sensitivity(hand_built)

    @pytest.mark.parametrize(
        "precision", [-1, 0, 12, 13, True, False, 3.0, "2", None, 10**20], ids=repr
    )
    def test_the_three_owners_agree(self, precision):
        """The constructor, the parser and the formatters refuse the same values."""
        try:
            helpers.example_assessment(display_precision=precision)
        except ValueError:
            built = False
        else:
            built = True
        document = json.loads(serialize_document(helpers.example_assessment()))
        document["display_precision"] = precision
        try:
            parse_document(json.dumps(document))
        except DocumentError as error:
            parsed = not any(
                violation.startswith("display_precision: must be ")
                for violation in error.violations
            )
        else:
            parsed = True
        try:
            format_fixed(1.0, precision)
        except ReportError:
            formatted = False
        else:
            formatted = True
        assert built == parsed == formatted

    @pytest.mark.parametrize("precision", [0, 12])
    def test_the_bounds_themselves_render(self, first_party_later, precision):
        report = overall_visibility(first_party_later)
        body = render_table(report, first_party_later.judgements, precision).body
        assert body.endswith(
            f"Overall VIS for model | {format_value(report.overall, precision)}\n"
        )
        assert format_fixed(0.5, precision) == ("1" if precision == 0 else "0.500000000000")


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
        with pytest.raises(EmptyInputError):
            render_comparison(iter([]))

    def test_an_iterator_is_taken_once(
        self, first_party_later, third_party_minimal
    ):
        ranked = rank([first_party_later, third_party_minimal])
        body = render_comparison(iter(ranked)).body
        assert body == render_comparison(ranked).body
        assert body.count("\n") == 3


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
        with pytest.raises(EmptyInputError):
            render_series(x for x in [])

    def test_a_generator_is_taken_once(self, first_party, first_party_later):
        body = render_series(x for x in [first_party_later, first_party]).body
        assert body == render_series([first_party_later, first_party]).body


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

    @pytest.mark.parametrize("signs", [(0.0, -0.0), (-0.0, 0.0)], ids=["+-", "-+"])
    @pytest.mark.parametrize("column", [1, 2, 3, 4])
    def test_signed_zero_indices_keep_their_sign(self, first_party_later, column, signs):
        # Rows equal but for a signed zero index used to share one written tail.
        rows = []
        for node_id, zero in zip(("DS", "H1"), signs):
            values = [2.0, 2.0, 2.0, 0.5]
            values[column - 1] = zero
            rows.append(NodeVisibility(node_id, *values))
        report = VisibilityReport(per_node=tuple(rows), overall=2.0, leaf_count=2)
        doc = json.loads(render_machine(report, first_party_later).body)
        field = NodeVisibility._fields[column]
        read = [row[field] for row in doc["results"]["per_node"]]
        assert [math.copysign(1.0, value) for value in read] == [
            math.copysign(1.0, zero) for zero in signs
        ]


def hand_built(report: VisibilityReport) -> VisibilityReport:
    """A plain report of ``report``'s rows, which builds them if unread."""
    return VisibilityReport(
        per_node=report.per_node,
        overall=report.overall,
        leaf_count=report.leaf_count,
        display_precision=report.display_precision,
    )


class TestRowFreeRendering:
    """The renderers and ``rank`` read a scored report without building its
    rows, and read a hand-built one, from its rows, to the same text."""

    @pytest.fixture
    def assessments(self, samples_dir) -> list[Assessment]:
        found = [
            parse_document(path.read_bytes())
            for path in sorted(samples_dir.glob("*.json"))
        ]
        found.append(helpers.shared_ancestor_assessment(random.Random(2203), 30, 240))
        assert len(found[-1].judgements) == 240
        return found

    def test_render_machine_and_table(self, assessments):
        for assessment in assessments:
            name = assessment.asset_name
            report = overall_visibility(assessment)
            machine = render_machine(report, assessment).body
            table = render_table(report, assessment.judgements).body
            assert "per_node" not in vars(report), name
            plain = hand_built(report)
            assert "per_node" in vars(report), name
            assert machine == render_machine(plain, assessment).body, name
            assert table == render_table(plain, assessment.judgements).body, name

    def test_rank(self, assessments, monkeypatch):
        scored = []

        def score(assessment):
            scored.append(overall_visibility(assessment))
            return scored[-1]

        # Equal overalls, so the minimum visibility decides their order.
        balanced = helpers.uniform_assessment(helpers.THREES, asset_name="balanced")
        lopsided = helpers.example_assessment(
            judgements={
                "DS": helpers.THREES,
                "H1": helpers.THREES,
                "H2": Judgement(1, 1, 1),
            },
            weights=WeightScheme.explicit({"DS": 0.5, "H1": 0.5, "H2": 0.0}),
            asset_name="lopsided",
        )
        assessments += [lopsided, balanced]
        monkeypatch.setattr(metrics, "overall_visibility", score)
        ranking = rank(assessments)
        assert len(scored) == len(assessments)
        assert not any("per_node" in vars(report) for report in scored)
        names = [entry.asset_name for entry in ranking]
        assert names.index("balanced") + 1 == names.index("lopsided")

        monkeypatch.setattr(
            metrics, "overall_visibility", lambda a: hand_built(overall_visibility(a))
        )
        assert rank(assessments) == ranking


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


class TestRefusedInputs:
    @pytest.mark.parametrize(
        ("render", "message"),
        [
            (lambda report, a: render_series([5]), "item 0 is not an Assessment: 5"),
            (lambda report, a: render_comparison([5]), "item 0 is not a RankEntry: 5"),
            (
                lambda report, a: render_machine(report, a, scope_node=5),
                "scope_node must be a string, got 5",
            ),
            (
                lambda report, a: render_table(report, {**a.judgements, "DS": 5}),
                "judgement for node DS is not a Judgement: 5",
            ),
            (
                lambda report, a: render_table(5, {}),
                "report must be a VisibilityReport, got 5",
            ),
            (
                lambda report, a: render_table(report, 5),
                "judgements must be a mapping, got 5",
            ),
            (
                lambda report, a: render_machine(report, 5),
                "assessment must be an Assessment, got 5",
            ),
            (
                lambda report, a: render_machine(5, a),
                "report must be a VisibilityReport, got 5",
            ),
            (
                lambda report, a: render_sensitivity(5),
                "result must be a SensitivityResult, got 5",
            ),
            (
                lambda report, a: render_comparison([RankEntry(5, "1", 1.0)]),
                "item 0 has a name or version that is not a string: "
                "RankEntry(asset_name=5, asset_version='1', overall=1.0)",
            ),
            (
                lambda report, a: render_comparison([RankEntry("a", "1", "x")]),
                "cannot format a value that is not a number: 'x'",
            ),
            (
                lambda report, a: render_comparison(5),
                "ranked must be iterable, got int",
            ),
            (
                lambda report, a: render_series(5),
                "assessments must be iterable, got int",
            ),
        ],
        ids=[
            "series", "comparison", "machine-scope",
            "table-judgement", "table-report", "table-judgements", "machine-assessment",
            "machine-report", "sensitivity", "comparison-name", "comparison-overall",
            "comparison-not-iterable", "series-not-iterable",
        ],
    )
    def test_a_wrong_type_is_a_report_error(self, first_party, render, message):
        # Each used to raise AttributeError, TypeError or ValueError.
        report = overall_visibility(first_party)
        with pytest.raises(ReportError, match=f"^{re.escape(message)}$"):
            render(report, first_party)


ROW = NodeVisibility("DS", 3.0, 2.449489742783178, 2.710806010829534, 1.0)


class TestReportFieldTypes:
    """A report or what-if result built with a field of the wrong type is
    refused by its constructor, before a renderer reads it."""

    @pytest.mark.parametrize(
        ("build", "message"),
        [
            (
                lambda report: VisibilityReport(per_node=5, overall=1.0, leaf_count=0),
                "report per_node must be a tuple, got int",
            ),
            (
                lambda report: VisibilityReport([ROW], 1.0, 1),
                "report per_node must be a tuple, got list",
            ),
            (
                lambda report: VisibilityReport((tuple(ROW),), 1.0, 1),
                "report row must be a NodeVisibility of a string id and four "
                "numbers, got ('DS', 3.0, 2.449489742783178, 2.710806010829534, 1.0)",
            ),
            (
                lambda report: VisibilityReport((ROW._replace(node_id=5),), 1.0, 1),
                "report row must be a NodeVisibility of a string id and four "
                "numbers, got NodeVisibility(node_id=5, quantity_index=3.0, "
                "quality_index=2.449489742783178, visibility_index=2.710806010829534, "
                "weight=1.0)",
            ),
            (
                lambda report: VisibilityReport((ROW._replace(weight="1"),), 1.0, 1),
                "report row must be a NodeVisibility of a string id and four "
                "numbers, got NodeVisibility(node_id='DS', quantity_index=3.0, "
                "quality_index=2.449489742783178, visibility_index=2.710806010829534, "
                "weight='1')",
            ),
            (
                lambda report: VisibilityReport((ROW, ROW._replace(weight=True)), 1.0, 2),
                "report row must be a NodeVisibility of a string id and four "
                "numbers, got NodeVisibility(node_id='DS', quantity_index=3.0, "
                "quality_index=2.449489742783178, visibility_index=2.710806010829534, "
                "weight=True)",
            ),
            (
                lambda report: VisibilityReport((), "x", 0),
                "report overall must be a number, got 'x'",
            ),
            (
                lambda report: VisibilityReport((), True, 0),
                "report overall must be a number, got True",
            ),
            (
                lambda report: VisibilityReport(per_node=(), overall=1.0, leaf_count="x"),
                "report leaf_count must be an integer, got 'x'",
            ),
            (
                lambda report: VisibilityReport((), 1.0, 0.0),
                "report leaf_count must be an integer, got 0.0",
            ),
            (
                lambda report: replace(report, overall=None),
                "report overall must be a number, got None",
            ),
            (
                lambda report: SensitivityResult(5, report, 0.0),
                "sensitivity baseline must be a VisibilityReport, got 5",
            ),
            (
                lambda report: SensitivityResult(report, None, 0.0),
                "sensitivity modified must be a VisibilityReport, got None",
            ),
            (
                lambda report: SensitivityResult(report, report, "0"),
                "sensitivity overall_delta must be a number, got '0'",
            ),
        ],
        ids=[
            "per_node-int", "per_node-list", "row-tuple", "row-id", "row-weight", "row-bool",
            "overall-str", "overall-bool", "leaf_count-str", "leaf_count-float",
            "replace", "baseline", "modified", "delta",
        ],
    )
    def test_a_wrong_type_is_refused_at_construction(self, first_party, build, message):
        report = overall_visibility(first_party)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(report)

    def test_the_renderer_repros_fail_at_construction(self, first_party):
        # These escaped the renderers as TypeError, TypeError and AttributeError.
        report = overall_visibility(first_party)
        with pytest.raises(ValueError, match="^report per_node must be a tuple"):
            render_table(VisibilityReport(per_node=5, overall=1.0, leaf_count=0), {})
        with pytest.raises(ValueError, match="^report leaf_count must be an integer"):
            render_machine(
                VisibilityReport(per_node=(), overall=1.0, leaf_count="x"), first_party
            )
        with pytest.raises(ValueError, match="^sensitivity baseline must be a"):
            render_sensitivity(SensitivityResult(5, report, 0.0))

    def test_well_typed_fields_are_kept(self):
        report = VisibilityReport((ROW, ROW._replace(weight=0)), 1, 2, display_precision="2")
        assert report.per_node == (ROW, ROW._replace(weight=0))
        assert (report.overall, report.leaf_count, report.display_precision) == (1, 2, "2")

    def test_subclassed_row_fields_are_kept(self):
        # Not the exact types the constructor's C-level passes accept: the
        # row-by-row check decides.
        class Row(NodeVisibility):
            pass

        class Id(str):
            pass

        rows = (ROW, Row(*ROW), ROW._replace(node_id=Id("H1"), weight=math.pi))
        assert VisibilityReport(rows, 1.0, 3).per_node == rows

    @pytest.mark.parametrize(
        "duplicate",
        [replace, copy.copy, copy.deepcopy]
        + [
            lambda result, p=p: pickle.loads(pickle.dumps(result, p))
            for p in range(pickle.HIGHEST_PROTOCOL + 1)
        ],
        ids=["replace", "copy", "deepcopy"]
        + [f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    )
    def test_scored_results_still_copy(self, first_party, first_party_later, duplicate):
        result = sensitivity(first_party, {"DS": helpers.FIRST_PARTY_LATER_DS})
        twin = duplicate(result)
        assert twin == result
        assert render_sensitivity(twin).body == render_sensitivity(result).body
        for report in (result.baseline, overall_visibility(first_party_later)):
            assert duplicate(report) == report


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
