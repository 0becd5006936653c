"""Metric engine: formulas, aggregation, derived assets, ranking, what-ifs."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from decimal import Decimal, getcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from pipevis import (
    DegenerateWeightsError,
    InvalidAssessmentError,
    InvalidWeightsError,
    Judgement,
    LeafNodeError,
    PipelineGraph,
    UnknownNodeError,
    WeightScheme,
    derived_asset_visibility,
    node_visibility,
    overall_visibility,
    quality_index,
    quantity_index,
    rank,
    sensitivity,
    parse_document,
    serialize_document,
    visibility_index,
)
from pipevis import model

scores = st.integers(min_value=1, max_value=4)


def decimal_visibility(q: int, a: int, f: int) -> float:
    """Independent oracle: sqrt(q * sqrt(a*f)) computed in 50-digit decimal."""
    getcontext().prec = 50
    return float((Decimal(q) * (Decimal(a) * Decimal(f)).sqrt()).sqrt())


class TestIndices:
    def test_quantity_index_is_the_score(self):
        assert quantity_index(Judgement(3, 1, 1)) == 3.0

    def test_quality_index_golden(self):
        assert quality_index(helpers.FIRST_PARTY_LATER_DS) == pytest.approx(
            math.sqrt(6), abs=0
        )
        assert quality_index(helpers.THIRD_PARTY_MINIMAL) == math.sqrt(2)
        assert quality_index(helpers.THIRD_PARTY_DOCUMENTED) == 3.0

    def test_visibility_index_golden(self):
        assert visibility_index(helpers.FIRST_PARTY_LATER_DS) == pytest.approx(
            helpers.VIS_DS_LATER, rel=1e-15
        )
        assert visibility_index(helpers.THIRD_PARTY_MINIMAL) == pytest.approx(
            helpers.OVERALL_THIRD_PARTY_MINIMAL, rel=1e-15
        )
        assert visibility_index(helpers.THIRD_PARTY_DOCUMENTED) == pytest.approx(
            helpers.OVERALL_THIRD_PARTY_DOCUMENTED, rel=1e-15
        )

    def test_all_four_is_exactly_four(self):
        assert visibility_index(helpers.ALL_FOUR) == 4.0

    def test_all_64_triples_match_decimal_oracle(self):
        for q, a, f in itertools.product(range(1, 5), repeat=3):
            computed = visibility_index(Judgement(q, a, f))
            expected = decimal_visibility(q, a, f)
            assert computed == pytest.approx(expected, rel=1e-12), (q, a, f)

    @given(scores, scores, scores)
    def test_index_stays_in_range(self, q, a, f):
        assert 1.0 <= visibility_index(Judgement(q, a, f)) <= 4.0

    @given(scores, scores)
    def test_quality_index_is_symmetric(self, a, f):
        assert quality_index(Judgement(1, a, f)) == quality_index(Judgement(1, f, a))

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_quality_index_equal_pair_is_exact(self, level):
        # sqrt of a perfect square is exact in IEEE 754, so no tolerance.
        assert quality_index(Judgement(1, level, level)) == float(level)

    def test_visibility_squares_to_quantity_times_quality(self):
        for q, a, f in itertools.product(range(1, 5), repeat=3):
            j = Judgement(q, a, f)
            vis = visibility_index(j)
            assert vis * vis == pytest.approx(
                quantity_index(j) * quality_index(j), rel=1e-12
            ), (q, a, f)

    @given(scores, scores, scores)
    def test_monotone_in_each_score(self, q, a, f):
        base = visibility_index(Judgement(q, a, f))
        if q < 4:
            assert visibility_index(Judgement(q + 1, a, f)) > base
        if a < 4:
            assert visibility_index(Judgement(q, a + 1, f)) > base
        if f < 4:
            assert visibility_index(Judgement(q, a, f + 1)) > base

    def test_node_visibility_bundles_all_indices(self):
        row = node_visibility("DS", helpers.FIRST_PARTY_LATER_DS, weight=0.25)
        assert row.node_id == "DS"
        assert row.quantity_index == 3.0
        assert row.quality_index == pytest.approx(math.sqrt(6), abs=0)
        assert row.visibility_index == pytest.approx(helpers.VIS_DS_LATER, rel=1e-15)
        assert row.weight == 0.25


class TestOverallVisibility:
    def test_first_party_golden(self, first_party):
        report = overall_visibility(first_party)
        assert report.overall == 4.0
        assert report.leaf_count == 3
        assert [row.visibility_index for row in report.per_node] == [4.0, 4.0, 4.0]

    def test_first_party_later_golden(self, first_party_later):
        report = overall_visibility(first_party_later)
        assert report.overall == pytest.approx(
            helpers.OVERALL_FIRST_PARTY_LATER, abs=1e-9
        )
        assert [row.node_id for row in report.per_node] == ["DS", "H1", "H2"]
        assert report.per_node[0].weight == pytest.approx(1 / 3, abs=0)

    def test_third_party_goldens(self, third_party_minimal, third_party_documented):
        assert overall_visibility(third_party_minimal).overall == pytest.approx(
            helpers.OVERALL_THIRD_PARTY_MINIMAL, abs=1e-9
        )
        assert overall_visibility(third_party_documented).overall == pytest.approx(
            helpers.OVERALL_THIRD_PARTY_DOCUMENTED, abs=1e-9
        )

    def test_equal_weights_match_explicit_reciprocal_bitwise(self):
        rng = random.Random(520)
        for _ in range(100):
            a = helpers.random_assessment(rng)
            equal = replace(a, weights=WeightScheme.equal())
            leaf_ids = a.graph.leaf_ids()
            explicit = replace(
                a,
                weights=WeightScheme.explicit(
                    {nid: 1.0 / len(leaf_ids) for nid in leaf_ids}
                ),
            )
            assert overall_visibility(equal).overall == overall_visibility(
                explicit
            ).overall

    def test_permutation_invariance_is_exact(self):
        rng = random.Random(521)
        for _ in range(50):
            a = helpers.random_assessment(rng)
            nodes = list(a.graph.nodes)
            edges = list(a.graph.edges)
            rng.shuffle(nodes)
            rng.shuffle(edges)
            ids = list(a.judgements)
            rng.shuffle(ids)
            shuffled = replace(
                a,
                graph=PipelineGraph(nodes=tuple(nodes), edges=tuple(edges)),
                judgements={nid: a.judgements[nid] for nid in ids},
            )
            assert (
                overall_visibility(shuffled).overall
                == overall_visibility(a).overall
            )

    def test_overall_stays_in_range(self):
        rng = random.Random(522)
        for _ in range(200):
            report = overall_visibility(helpers.random_assessment(rng))
            assert 1.0 - 1e-12 <= report.overall <= 4.0 + 1e-12

    def test_equal_judgements_are_a_fixpoint(self):
        rng = random.Random(523)
        for _ in range(50):
            judgement = helpers.random_judgement(rng)
            a = helpers.uniform_assessment(judgement)
            assert overall_visibility(a).overall == pytest.approx(
                visibility_index(judgement), rel=1e-12
            )

    def test_uniform_judgements_ignore_weight_split(self):
        a = helpers.uniform_assessment(
            helpers.THIRD_PARTY_DOCUMENTED,
            weights=WeightScheme.explicit({"DS": 0.5, "H1": 0.25, "H2": 0.25}),
        )
        # Halves and quarters multiply exactly, so this holds bitwise.
        assert overall_visibility(a).overall == visibility_index(
            helpers.THIRD_PARTY_DOCUMENTED
        )
        assert overall_visibility(a).overall == pytest.approx(
            helpers.OVERALL_THIRD_PARTY_DOCUMENTED, abs=1e-9
        )

    def test_single_leaf_pipeline(self):
        graph = PipelineGraph(
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
        assert overall_visibility(a).overall == visibility_index(
            helpers.FIRST_PARTY_LATER_DS
        )

    def test_invalid_assessment_raises_with_violations(self):
        a = helpers.example_assessment(judgements={"DS": helpers.ALL_FOUR})
        with pytest.raises(InvalidAssessmentError) as excinfo:
            overall_visibility(a)
        assert "missing judgement for H1" in excinfo.value.violations
        assert "missing judgement for H2" in excinfo.value.violations

    def test_report_node_lookup(self, first_party_later):
        report = overall_visibility(first_party_later)
        assert report.node("DS").visibility_index == pytest.approx(
            helpers.VIS_DS_LATER, rel=1e-15
        )
        with pytest.raises(UnknownNodeError):
            report.node("nope")


class TestDerivedAssetVisibility:
    def test_labelled_data_golden(self, first_party_later):
        report = derived_asset_visibility(first_party_later, "LD")
        assert [row.node_id for row in report.per_node] == ["DS", "H1"]
        assert report.overall == pytest.approx(helpers.DERIVED_LD_LATER, rel=1e-12)
        assert all(row.weight == 0.5 for row in report.per_node)

    def test_output_node_matches_overall(self, first_party_later):
        scoped = derived_asset_visibility(first_party_later, "M")
        assert scoped.overall == overall_visibility(first_party_later).overall
        assert scoped.leaf_count == 3

    def test_explicit_weights_are_renormalised(self, first_party_later):
        weighted = replace(
            first_party_later,
            weights=WeightScheme.explicit({"DS": 0.8, "H1": 0.1, "H2": 0.1}),
        )
        report = derived_asset_visibility(weighted, "LD")
        total = 0.8 + 0.1
        expected = math.fsum(
            (
                visibility_index(helpers.FIRST_PARTY_LATER_DS) * (0.8 / total),
                visibility_index(helpers.THREES) * (0.1 / total),
            )
        )
        assert report.overall == pytest.approx(expected, rel=1e-12)
        assert not report.weight_scheme.is_equal

    def test_single_ancestor_reduces_to_leaf_visibility(self):
        graph = PipelineGraph(
            nodes=(
                helpers.ContributionNode(
                    id="DS", kind=helpers.NodeKind.DATA_SOURCE, label="source"
                ),
                helpers.ContributionNode(
                    id="H1", kind=helpers.NodeKind.HUMAN_CONTRIBUTOR, label="labeller"
                ),
                helpers.ContributionNode(
                    id="LD", kind=helpers.NodeKind.DERIVED_ASSET, label="labelled data"
                ),
                helpers.ContributionNode(
                    id="M", kind=helpers.NodeKind.OUTPUT_ASSET, label="model"
                ),
            ),
            edges=(("DS", "LD"), ("LD", "M"), ("H1", "M")),
        )
        a = helpers.example_assessment(
            judgements={"DS": helpers.FIRST_PARTY_LATER_DS, "H1": helpers.THREES},
            graph=graph,
        )
        report = derived_asset_visibility(a, "LD")
        assert [row.node_id for row in report.per_node] == ["DS"]
        assert report.per_node[0].weight == 1.0
        assert report.overall == visibility_index(helpers.FIRST_PARTY_LATER_DS)

    def test_unknown_node(self, first_party_later):
        with pytest.raises(UnknownNodeError, match="unknown node: XX"):
            derived_asset_visibility(first_party_later, "XX")

    def test_leaf_node_rejected(self, first_party_later):
        with pytest.raises(LeafNodeError, match="requires a DerivedAsset"):
            derived_asset_visibility(first_party_later, "DS")

    def test_degenerate_weights(self, first_party_later):
        weighted = replace(
            first_party_later,
            weights=WeightScheme.explicit({"DS": 0.0, "H1": 0.0, "H2": 1.0}),
        )
        with pytest.raises(DegenerateWeightsError, match="sum to 0"):
            derived_asset_visibility(weighted, "LD")


class TestRank:
    def test_scenario_ordering(
        self, first_party_later, third_party_minimal, third_party_documented
    ):
        ranked = rank([third_party_minimal, first_party_later, third_party_documented])
        assert [entry.asset_name for entry in ranked] == [
            "vendor-ner-pro",
            "example-classifier",
            "marketplace-sentiment",
        ]
        assert ranked[0].overall == pytest.approx(
            helpers.OVERALL_THIRD_PARTY_DOCUMENTED, abs=1e-9
        )

    def test_tie_breaks_on_minimum_node_visibility(self):
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
        assert overall_visibility(balanced).overall == 3.0
        assert overall_visibility(lopsided).overall == 3.0
        ranked = rank([lopsided, balanced])
        assert [entry.asset_name for entry in ranked] == ["balanced", "lopsided"]

    def test_tie_breaks_lexicographically(self):
        a = helpers.uniform_assessment(helpers.THREES, asset_name="beta")
        b = helpers.uniform_assessment(helpers.THREES, asset_name="alpha")
        c = helpers.uniform_assessment(
            helpers.THREES, asset_name="alpha", asset_version="0.9.0"
        )
        ranked = rank([a, b, c])
        assert [(e.asset_name, e.asset_version) for e in ranked] == [
            ("alpha", "0.9.0"),
            ("alpha", "1.0.0"),
            ("beta", "1.0.0"),
        ]

    def test_input_order_does_not_matter(self):
        rng = random.Random(524)
        assessments = [helpers.random_assessment(rng) for _ in range(20)]
        shuffled = list(assessments)
        rng.shuffle(shuffled)
        assert rank(assessments) == rank(shuffled)

    def test_matches_independent_sort_of_overalls(self):
        rng = random.Random(525)
        assessments = [helpers.random_assessment(rng) for _ in range(10)]
        expected = sorted(
            (overall_visibility(a).overall for a in assessments), reverse=True
        )
        assert [entry.overall for entry in rank(assessments)] == expected

    def test_structural_difference_does_not_break_name_tie(self):
        solo_graph = PipelineGraph(
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
        solo = helpers.example_assessment(
            judgements={"S": helpers.THREES}, graph=solo_graph, asset_name="solo"
        )
        trio = helpers.uniform_assessment(helpers.THREES, asset_name="trio")
        assert overall_visibility(solo).overall == 3.0
        assert overall_visibility(trio).overall == 3.0
        assert [e.asset_name for e in rank([trio, solo])] == ["solo", "trio"]

    def test_invalid_input_names_the_assessment(self):
        bad = helpers.example_assessment(
            judgements={"DS": helpers.ALL_FOUR}, asset_name="broken-model"
        )
        with pytest.raises(InvalidAssessmentError, match="broken-model"):
            rank([bad])


class TestSensitivity:
    def test_no_changes_is_identity(self, first_party_later):
        result = sensitivity(first_party_later)
        assert result.overall_delta == 0.0
        assert set(result.node_deltas) == {"DS", "H1", "H2"}
        assert all(delta == 0.0 for delta in result.node_deltas.values())
        assert result.modified.overall == result.baseline.overall

    def test_degradation_scenario(self, first_party):
        result = sensitivity(
            first_party,
            {
                "DS": helpers.FIRST_PARTY_LATER_DS,
                "H1": helpers.THREES,
                "H2": helpers.THREES,
            },
        )
        assert result.baseline.overall == 4.0
        assert result.modified.overall == pytest.approx(
            helpers.OVERALL_FIRST_PARTY_LATER, abs=1e-9
        )
        assert result.overall_delta == pytest.approx(
            helpers.OVERALL_FIRST_PARTY_LATER - 4.0, abs=1e-9
        )

    def test_changes_accepted_as_pairs(self, first_party):
        from_mapping = sensitivity(first_party, {"DS": helpers.THREES})
        from_pairs = sensitivity(first_party, [("DS", helpers.THREES)])
        assert from_mapping.overall_delta == from_pairs.overall_delta

    def test_single_change_delta_follows_mean_law(self):
        rng = random.Random(525)
        for _ in range(50):
            a = helpers.random_assessment(rng)
            if not a.weights.is_equal:
                a = replace(a, weights=WeightScheme.equal())
            leaf = rng.choice(a.graph.leaf_ids())
            new = helpers.random_judgement(rng)
            result = sensitivity(a, {leaf: new})
            m = len(a.graph.leaf_ids())
            expected = (
                visibility_index(new) - visibility_index(a.judgements[leaf])
            ) / m
            assert result.overall_delta == pytest.approx(expected, abs=1e-12)

    def test_weights_only_change(self, first_party_later):
        result = sensitivity(
            first_party_later,
            weights=WeightScheme.explicit({"DS": 0.8, "H1": 0.1, "H2": 0.1}),
        )
        assert result.baseline.overall == pytest.approx(
            helpers.OVERALL_FIRST_PARTY_LATER, abs=1e-9
        )
        assert result.modified.overall == pytest.approx(2.7686448086636277, abs=1e-9)
        assert all(delta == 0.0 for delta in result.node_deltas.values())

    def test_unknown_node_rejected(self, first_party):
        with pytest.raises(UnknownNodeError, match="unknown node: ZZ"):
            sensitivity(first_party, {"ZZ": helpers.THREES})

    def test_non_leaf_rejected(self, first_party):
        with pytest.raises(UnknownNodeError, match="not a leaf"):
            sensitivity(first_party, {"LD": helpers.THREES})

    def test_invalid_replacement_weights_rejected(self, first_party):
        with pytest.raises(InvalidWeightsError) as excinfo:
            sensitivity(
                first_party,
                weights=WeightScheme.explicit({"DS": 0.5, "H1": 0.2, "H2": 0.2}),
            )
        assert any("weights sum" in v for v in excinfo.value.violations)

    def test_baseline_assessment_is_untouched(self, first_party):
        before = dict(first_party.judgements)
        sensitivity(first_party, {"DS": helpers.THIRD_PARTY_MINIMAL})
        assert first_party.judgements == before


class TestOneWalkPerGraph:
    def test_review_walks_the_graph_once(self, samples_dir, monkeypatch):
        calls = []
        walk = model._cyclic_components

        def counted(graph):
            calls.append(graph)
            return walk(graph)

        monkeypatch.setattr(model, "_cyclic_components", counted)
        data = (samples_dir / "first_party_later.json").read_bytes()
        assessment = parse_document(data)
        overall_visibility(assessment)
        derived = [
            n.id
            for n in assessment.graph.nodes
            if n.kind is model.NodeKind.DERIVED_ASSET
        ]
        assert derived
        for node_id in derived:
            derived_asset_visibility(assessment, node_id)
        sensitivity(assessment, {"DS": helpers.THREES})
        assert serialize_document(assessment) == data
        assert len(calls) == 1
