"""Metric engine: formulas, aggregation, derived assets, ranking, what-ifs."""

from __future__ import annotations

import copy
import itertools
import math
import operator
import pickle
import random
import sys
from dataclasses import replace
from decimal import Decimal, getcontext
from functools import partial
from pathlib import Path

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
    overall_visibility,
    quality_index,
    rank,
    render_machine,
    render_table,
    sensitivity,
    parse_document,
    serialize_document,
    validate_assessment,
    visibility_index,
)
from pipevis import metrics, model

scores = st.integers(min_value=1, max_value=4)


def decimal_visibility(q: int, a: int, f: int) -> float:
    """Independent oracle: sqrt(q * sqrt(a*f)) computed in 50-digit decimal."""
    getcontext().prec = 50
    return float((Decimal(q) * (Decimal(a) * Decimal(f)).sqrt()).sqrt())


class TestIndices:
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
                j.quantity * quality_index(j), rel=1e-12
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

    def test_node_visibility_bundles_all_indices(self, first_party_later):
        weighted = replace(
            first_party_later,
            weights=WeightScheme.explicit({"DS": 0.25, "H1": 0.5, "H2": 0.25}),
        )
        row = overall_visibility(weighted).per_node[0]
        assert row.node_id == "DS"
        assert row.quantity_index == 3.0
        assert row.quality_index == pytest.approx(math.sqrt(6), abs=0)
        assert row.visibility_index == pytest.approx(helpers.VIS_DS_LATER, rel=1e-15)
        assert row.weight == 0.25

    def test_every_state_is_tabled_by_the_formula(self):
        assert len(model._JUDGEMENTS) == 64
        for (q, a, f), judgement in model._JUDGEMENTS.items():
            quality = math.sqrt(a * f)
            assert judgement._indices == (float(q), quality, math.sqrt(q * quality))
            assert quality_index(judgement) == quality
            assert visibility_index(judgement) == math.sqrt(q * quality)

    def test_hand_built_judgements_score_as_the_parsed_ones(self):
        class Tagged(Judgement):
            """Equal fields, another class: not equal to the shared one."""

        class Level(int):
            """A plain int subclass: equal to and hashed as its int."""

        def outputs(assessment):
            report = overall_visibility(assessment)
            return (
                report,
                render_table(report, assessment.judgements).body,
                render_machine(report, assessment).body,
                serialize_document(assessment),
            )

        parsed = parse_document(serialize_document(helpers.uniform_assessment(
            Judgement(2, 3, 4)
        )))
        shared = parsed.judgements["DS"]
        assert shared is model._JUDGEMENTS[2, 3, 4]
        levels = (Level(2), Level(3), Level(4))
        for hand_built in (
            Judgement(2, 3, 4), Tagged(2, 3, 4), Judgement(*levels), Tagged(*levels)
        ):
            assert hand_built is not shared
            rebuilt = replace(
                parsed, judgements=dict.fromkeys(parsed.judgements, hand_built)
            )
            assert outputs(rebuilt) == outputs(parsed)
            indices = (
                float(hand_built.quantity),
                quality_index(hand_built),
                visibility_index(hand_built),
            )
            assert indices == (2.0, math.sqrt(3 * 4), math.sqrt(2 * math.sqrt(3 * 4)))

    @pytest.mark.parametrize("index", [quality_index, visibility_index])
    @pytest.mark.parametrize("value", [5, None], ids=repr)
    def test_a_non_judgement_is_refused(self, index, value):
        # Each used to raise AttributeError: no attribute '_indices'.
        with pytest.raises(InvalidAssessmentError) as excinfo:
            index(value)
        message = f"judgement must be a Judgement, got {value}"
        assert excinfo.value.violations == (message,)


class TestNodeVisibility:
    def test_is_a_read_only_tuple_of_the_five_fields(self):
        row = metrics.NodeVisibility("DS", 3.0, 3.0, math.sqrt(3 * 3.0), 0.25)
        assert row._fields == (
            "node_id", "quantity_index", "quality_index", "visibility_index", "weight"
        )
        with pytest.raises(AttributeError):
            row.weight = 0.5  # type: ignore[misc]
        node_id, quantity, quality, vis, weight = row
        assert row == (node_id, 3.0, quality, vis, 0.25)
        assert row._replace(weight=0.5).weight == 0.5


def resolved_weights(assessment, leaf_ids):
    """The weights a report on ``leaf_ids`` carries, renormalised as documented."""
    weights = list(assessment.weights.resolve(leaf_ids).values())
    if not assessment.weights.is_equal and len(leaf_ids) < len(
        assessment.graph.leaf_ids()
    ):
        total = math.fsum(weights)
        weights = [weight / total for weight in weights]
    return weights


def eager_report(assessment, leaf_ids):
    """The report built row by row from each judgement's own indices."""
    weights = resolved_weights(assessment, leaf_ids)
    rows = tuple(
        metrics.NodeVisibility(node_id, *assessment.judgements[node_id]._indices, weight)
        for node_id, weight in zip(leaf_ids, weights)
    )
    return metrics.VisibilityReport(
        per_node=rows,
        overall=math.fsum(row.visibility_index * row.weight for row in rows),
        leaf_count=len(rows),
        display_precision=assessment.display_precision,
    )


SCORED_KINDS = (model.NodeKind.DERIVED_ASSET, model.NodeKind.OUTPUT_ASSET)


def scored_reports(samples_dir):
    """``(label, score, expected)`` for each report of the row contract.

    ``score()`` returns a new, unread report; ``expected`` is its eager twin.
    Each golden sample is scored as it is (equal weights) and with uneven
    explicit weights, so derived reports also take renormalised weights.
    """
    for path in sorted(samples_dir.glob("*.json")):
        sample = parse_document(path.read_bytes())
        leaves = sample.graph.leaf_ids()
        uneven = {leaf: (k + 1) / (len(leaves) * (len(leaves) + 1) / 2)
                  for k, leaf in enumerate(leaves)}
        explicit = replace(sample, weights=WeightScheme.explicit(uneven))
        for label, a in ((path.stem, sample), (f"{path.stem}-explicit", explicit)):
            for node in a.graph.nodes:
                if node.kind in SCORED_KINDS:
                    yield (
                        f"{label}:{node.id}",
                        partial(derived_asset_visibility, a, node.id),
                        eager_report(a, helpers.leaf_ids_of(a.graph, node.id)),
                    )
            yield (
                f"{label}:baseline",
                lambda a=a: sensitivity(a).baseline,
                eager_report(a, leaves),
            )
            change = {leaves[0]: Judgement(1, 1, 1)}
            yield (
                f"{label}:modified",
                lambda a=a, change=change: sensitivity(a, change).modified,
                eager_report(replace(a, judgements={**a.judgements, **change}), leaves),
            )


class TestRowsOnFirstRead:
    """A scored report builds ``per_node`` when it is first read, and only then."""

    FIELDS = {"per_node", "overall", "leaf_count", "display_precision"}

    @pytest.fixture
    def cases(self, samples_dir):
        cases = list(scored_reports(samples_dir))
        assert len(cases) == 4 * 2 * 4  # M, LD, baseline and modified per variant
        return cases

    def test_scoring_leaves_the_rows_unbuilt(self, cases):
        for label, score, expected in cases:
            report = score()
            assert "per_node" not in vars(report), label
            assert report.overall == expected.overall, label
            assert report.leaf_count == expected.leaf_count, label
            assert report.display_precision == expected.display_precision, label
            assert "per_node" not in vars(report), label

    def test_the_first_read_builds_the_eager_rows_once(self, cases):
        for label, score, expected in cases:
            report = score()
            rows = report.per_node
            assert "per_node" in vars(report), label
            assert report.per_node is rows, label
            assert rows == expected.per_node, label
            assert all(type(row) is metrics.NodeVisibility for row in rows), label
            assert vars(report).keys() == self.FIELDS, label

    @pytest.mark.parametrize("first", ["==", "reversed ==", "hash", "repr"])
    def test_equality_hash_and_repr_match_a_hand_built_report(self, cases, first):
        reads = {
            "==": lambda report, expected: report == expected,
            "reversed ==": lambda report, expected: expected == report,
            "hash": lambda report, expected: hash(report) == hash(expected),
            "repr": lambda report, expected: repr(report) == repr(expected),
        }
        for label, score, expected in cases:
            report = score()
            assert reads[first](report, expected), label
            for read in reads.values():
                assert read(report, expected), label

    @pytest.mark.parametrize(
        "duplicate",
        [replace, copy.copy, copy.deepcopy]
        + [
            partial(lambda report, p: pickle.loads(pickle.dumps(report, p)), p=p)
            for p in range(pickle.HIGHEST_PROTOCOL + 1)
        ],
        ids=["replace", "copy", "deepcopy"]
        + [f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    )
    def test_a_copy_of_an_unread_report_is_a_plain_report(self, cases, duplicate):
        for label, score, expected in cases:
            twin = duplicate(score())
            assert type(twin) is metrics.VisibilityReport, label
            assert vars(twin).keys() == self.FIELDS, label
            assert twin == expected, label
            assert twin.per_node == expected.per_node, label

    def test_a_missing_attribute_still_raises(self, cases):
        for label, score, _ in cases:
            report = score()
            with pytest.raises(AttributeError, match="no attribute 'missing'"):
                report.missing
            assert "per_node" not in vars(report), label
            report.per_node
            with pytest.raises(AttributeError, match="no attribute '_columns'"):
                report._columns
        with pytest.raises(AttributeError, match="no attribute 'per_node'"):
            object.__new__(metrics.VisibilityReport).per_node


class TestOverallVisibility:
    @pytest.mark.parametrize(
        "call",
        [
            overall_visibility,
            partial(derived_asset_visibility, node_id="LD"),
            sensitivity,
            serialize_document,
        ],
        ids=["overall", "derived", "sensitivity", "serialize"],
    )
    def test_an_object_of_another_type_is_an_invalid_assessment(self, call):
        # Each used to raise AttributeError: '_violations'.
        with pytest.raises(InvalidAssessmentError) as excinfo:
            call(5)
        assert excinfo.value.violations == ("not an Assessment: 5",)

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

    def test_output_node_report_is_the_overall_report(self, first_party_later):
        # Weights that sum to 1 only within the tolerance: renormalising them
        # would move the last digits of every row and of the overall index.
        weighted = replace(
            first_party_later,
            weights=WeightScheme.explicit({"DS": 0.5, "H1": 0.25, "H2": 0.25 + 4e-10}),
        )
        assert validate_assessment(weighted).ok
        for a in (first_party_later, weighted):
            assert derived_asset_visibility(a, "M") == overall_visibility(a)

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
        assert [row.weight for row in report.per_node] == [0.8 / total, 0.1 / total]

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

    @pytest.mark.parametrize("node_id", [["LD"], 5, None], ids=repr)
    def test_a_node_id_that_is_not_a_string_is_unknown(self, first_party, node_id):
        # A list used to raise TypeError: unhashable type: 'list'.
        with pytest.raises(UnknownNodeError, match=r"^unknown node: "):
            derived_asset_visibility(first_party, node_id)

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


def bits(weights):
    """Each weight's exact bits; ``-0.0`` and ``0.0`` differ."""
    return [weight.hex() for weight in weights]


def weights_by_hand(scheme, leaf_ids):
    """``1/m`` for each of m leaves, or each leaf's explicit weight, in order."""
    if scheme.is_equal:
        return [1.0 / len(leaf_ids)] * len(leaf_ids)
    return [scheme.weights[nid] for nid in leaf_ids]


class TestWeightColumn:
    """Scoring reads the weight column, which ``resolve`` keys by id: the same
    floats, bit for bit, as the weights written out by hand, for equal,
    explicit and renormalised weights."""

    def test_column_is_resolve_bit_for_bit(self):
        rng = random.Random(3303)
        signed = helpers.example_assessment(
            weights=WeightScheme({"DS": 1.0, "H1": -0.0, "H2": 0.0})
        )
        assessments = [signed] + [helpers.random_assessment(rng) for _ in range(200)]
        # Leaf sets that are sorted tuples of ranks, and bitsets past them.
        for group in (1, 2):
            grouped = helpers.grouped_assessment(rng, 130, group)
            assessments += [grouped, replace(grouped, weights=WeightScheme.equal())]
        seen = set()
        for assessment in assessments:
            scheme, graph = assessment.weights, assessment.graph
            scored = [nid for nid, kind in graph._index.by_id.items() if kind in (
                model.NodeKind.DERIVED_ASSET, model.NodeKind.OUTPUT_ASSET)]
            for node_id in scored:
                leaf_ids = helpers.leaf_ids_of(graph, node_id)
                column = scheme._column(leaf_ids)
                assert bits(column) == bits(weights_by_hand(scheme, leaf_ids))
                assert bits(column) == bits(scheme.resolve(leaf_ids).values())
                assert list(scheme.resolve(leaf_ids)) == list(leaf_ids)
                report = derived_asset_visibility(assessment, node_id)
                weights = list(map(operator.itemgetter(4), report._cells()))
                assert bits(weights) == bits(resolved_weights(assessment, leaf_ids))
                whole = len(leaf_ids) == len(graph._index.leaves)
                seen.add("equal" if scheme.is_equal else
                         "explicit" if whole else "renormalised")
            report = overall_visibility(assessment)
            weights = map(operator.itemgetter(4), report._cells())
            assert bits(weights) == bits(weights_by_hand(scheme, graph._index.leaves))
        assert seen == {"equal", "explicit", "renormalised"}
        ld = derived_asset_visibility(signed, "LD")
        assert bits(map(operator.itemgetter(4), ld._cells())) == bits([1.0, -0.0])

    def test_a_missing_explicit_weight_is_a_key_error(self):
        with pytest.raises(KeyError, match="'b'"):
            WeightScheme({"a": 1.0})._column(["a", "b"])


class TestRank:
    def test_every_item_is_typed_before_any_is_validated(self):
        broken = helpers.example_assessment(judgements={})
        with pytest.raises(InvalidAssessmentError) as excinfo:
            rank([broken, 5])
        assert excinfo.value.violations == ("item 1 is not an Assessment: 5",)

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

    @pytest.mark.parametrize(
        ("items", "violation"),
        [
            ([5], "item 0 is not an Assessment: 5"),
            ([None], "item 0 is not an Assessment: None"),
            ([helpers.later_assessment(), "M"], "item 1 is not an Assessment: 'M'"),
        ],
        ids=["int", "None", "str-after-an-assessment"],
    )
    def test_an_item_that_is_not_an_assessment_is_named_by_position(
        self, items, violation
    ):
        # Each used to raise AttributeError.
        with pytest.raises(InvalidAssessmentError) as excinfo:
            rank(items)
        assert excinfo.value.violations == (violation,)
        assert str(excinfo.value) == f"invalid assessment: {violation}"

    @pytest.mark.parametrize("value", [5, None], ids=["int", "None"])
    def test_an_argument_that_is_not_iterable_is_named_by_type(self, value):
        # Each used to raise TypeError.
        violation = f"assessments must be iterable, got {type(value).__name__}"
        with pytest.raises(InvalidAssessmentError) as excinfo:
            rank(value)
        assert excinfo.value.violations == (violation,)


class TestSensitivity:
    def test_no_changes_is_identity(self, first_party_later):
        result = sensitivity(first_party_later)
        assert result.overall_delta == 0.0
        assert result.modified.per_node == result.baseline.per_node
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
        assert [row.visibility_index for row in result.modified.per_node] == [
            row.visibility_index for row in result.baseline.per_node
        ]

    def test_unknown_node_rejected(self, first_party):
        with pytest.raises(UnknownNodeError, match="unknown node: ZZ"):
            sensitivity(first_party, {"ZZ": helpers.THREES})

    def test_non_leaf_rejected(self, first_party):
        with pytest.raises(UnknownNodeError, match="not a leaf"):
            sensitivity(first_party, {"LD": helpers.THREES})

    @pytest.mark.parametrize("node_id", [["DS"], 5, None], ids=repr)
    def test_a_node_id_that_is_not_a_string_is_unknown(self, first_party, node_id):
        # A list used to raise TypeError: unhashable type: 'list'.
        with pytest.raises(UnknownNodeError, match=r"^unknown node: "):
            sensitivity(first_party, [(node_id, Judgement(1, 1, 1))])

    @pytest.mark.parametrize(
        "changes, message",
        [
            (5, "changes must be iterable, got int"),
            (None, "changes must be iterable, got NoneType"),
            # A string is not a pair: it used to read as the node "D".
            (["DS"], "item 0 is not a (node id, judgement) pair: 'DS'"),
            (
                [("DS", helpers.THREES, 1)],
                "item 0 is not a (node id, judgement) pair: "
                f"('DS', {helpers.THREES!r}, 1)",
            ),
            ({"DS": 5}, "judgement for DS must be a Judgement, got 5"),
        ],
        ids=["int", "None", "string", "triple", "not-a-judgement"],
    )
    def test_changes_of_the_wrong_shape_are_refused(self, first_party, changes, message):
        with pytest.raises(InvalidAssessmentError) as excinfo:
            sensitivity(first_party, changes)
        assert excinfo.value.violations == (message,)

    def test_weights_that_are_not_a_scheme_are_refused(self, first_party):
        with pytest.raises(InvalidAssessmentError) as excinfo:
            sensitivity(first_party, (), weights=5)
        assert excinfo.value.violations == ("weights must be a WeightScheme, got 5",)

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
        walk = model._depth_first

        def counted(reverse, output):
            calls.append(reverse)
            return walk(reverse, output)

        monkeypatch.setattr(model, "_depth_first", counted)
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

    def test_scoring_every_derived_node_walks_the_reverse_map_once(
        self, monkeypatch
    ):
        class Walked(dict):
            """A dict that counts the walks over its keys."""

            walks = 0

            def __iter__(self):
                self.walks += 1
                return super().__iter__()

        # Each dict the model module builds by calling dict(), the graph's
        # reverse map among them, is a Walked.
        monkeypatch.setattr(model, "dict", Walked, raising=False)
        data = serialize_document(helpers.shared_ancestor_assessment(random.Random(42), 40))
        assessment = parse_document(data)
        for i in range(40):
            derived_asset_visibility(assessment, f"D{i:02d}")
        derived_asset_visibility(assessment, "OUT")
        reverse = assessment.graph._index.reverse
        assert type(reverse) is Walked
        assert len(reverse) == 41
        assert reverse.walks == 1


class TestOneCheckPerAssessment:
    def test_review_checks_each_assessment_once(self, samples_dir, monkeypatch):
        checked = []
        check = model._assessment_violations

        def counted(assessment):
            checked.append(assessment)
            return check(assessment)

        monkeypatch.setattr(model, "_assessment_violations", counted)
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
        assert len(checked) == 2
        assert checked[0] is assessment
        assert checked[1].judgements["DS"] == helpers.THREES


def flooded(reverse: dict[str, list[str]], node_id: str) -> set[str]:
    """``node_id`` and every node with a path to it, by a flood of ``reverse``."""
    reached = {node_id}
    frontier = [node_id]
    while frontier:
        for source in reverse.get(frontier.pop(), ()):
            if source not in reached:
                reached.add(source)
                frontier.append(source)
    return reached


def flooded_report(
    assessment: model.Assessment, node_id: str
) -> metrics.VisibilityReport:
    """Derived-asset scoring as a flood of the reverse map from ``node_id``,
    keeping the graph's leaves it reached."""
    graph = assessment.graph
    reached = flooded(graph._index.reverse, node_id)
    all_leaves = graph.leaf_ids()
    leaf_ids = [nid for nid in all_leaves if nid in reached]
    weights = assessment.weights.resolve(leaf_ids)
    if not assessment.weights.is_equal and len(leaf_ids) < len(all_leaves):
        total = math.fsum(weights.values())
        weights = {nid: value / total for nid, value in weights.items()}
    rows = []
    for nid, weight in weights.items():
        judgement = assessment.judgements[nid]
        rows.append(
            metrics.NodeVisibility(
                nid,
                float(judgement.quantity),
                quality_index(judgement),
                visibility_index(judgement),
                weight,
            )
        )
    return metrics.VisibilityReport(
        per_node=tuple(rows),
        overall=math.fsum(row.visibility_index * row.weight for row in rows),
        leaf_count=len(rows),
        display_precision=assessment.display_precision,
    )


def scored_ids(graph: PipelineGraph) -> list[str]:
    return [nid for nid, kind in graph._index.by_id.items() if kind in SCORED_KINDS]


def assert_every_scored_node_matches_a_flood(explicit: model.Assessment) -> None:
    """Each derived and output report equals a flood's, exactly, under the
    assessment's explicit weights and under equal weights."""
    equal = replace(explicit, weights=WeightScheme.equal())
    for assessment in (explicit, equal):
        for node_id in scored_ids(assessment.graph):
            expected = flooded_report(assessment, node_id)
            assert derived_asset_visibility(assessment, node_id) == expected, node_id


#: Leaf counts around the first four sizes of the bitset rule, ``len(leaves)
#: // 60``: with 59 leaves every set is a bitset, with 60 a single leaf is a
#: tuple, with 120 two, and with 1,000 sixteen.
LEAF_COUNTS = [59, 60, 61, 63, 64, 65, 119, 120, 121, 130, 1000]


#: Shapes whose derived nodes hold few leaves, and their leaf counts.
SMALL_SETS = [(shape, leaves) for shape in ("pairs", "one-per-leaf")
              for leaves in (59, 130, 1000)] + [("chain", 300)]


def small_set_assessment(shape: str, leaves: int) -> model.Assessment:
    rng = random.Random(f"{shape}:{leaves}")
    if shape == "chain":
        return helpers.chain_assessment(rng, leaves)
    return helpers.grouped_assessment(rng, leaves, 2 if shape == "pairs" else 1)


#: Member counts about ``model._SHIFTS``, the most ranks a merge sets by shifts.
MERGE_SIZES = [63, 64, 65]


def merge_assessment(members: int) -> model.Assessment:
    """400 leaves, so each leaf's set is the tuple of its rank and a set of
    more than 6 is a bitset, and merges of ``members`` ranks: ``T`` of that
    many leaves; ``X`` of ``B``, a bitset of 100 leaves, and that many leaves,
    some of them ``B``'s too; ``Y`` of ``B`` and tuple-held derived nodes
    ``S*`` of up to 6 leaves each, that many ranks with repeats among them;
    ``Z`` of the ``S*`` alone. Every node also feeds ``OUT``."""
    rng = random.Random(f"merge:{members}")
    leaf_ids = [f"L{i:03d}" for i in range(400)]
    chunks = [6] * (members // 6) + [members % 6] * bool(members % 6)
    shared = [f"S{k:02d}" for k in range(len(chunks))]
    edges = [(leaf, "B") for leaf in leaf_ids[:100]]
    edges += [(leaf, "T") for leaf in rng.sample(leaf_ids, members)]
    edges += [(leaf, "X") for leaf in rng.sample(leaf_ids[50:], members)]
    for sid, size in zip(shared, chunks):
        edges += [(leaf, sid) for leaf in rng.sample(leaf_ids[:40], size)]
        edges += [(sid, "Y"), (sid, "Z")]
    edges += [("B", "X"), ("B", "Y")]
    derived = ["B", "T", "X", "Y", "Z", *shared]
    edges += [(nid, "OUT") for nid in leaf_ids + derived]
    return helpers.leaf_assessment(rng, leaf_ids, derived, edges)


class TestSharedAncestors:
    def test_every_scored_node_matches_a_flood(self):
        rng = random.Random(1717)
        shared = 0
        for k in range(60):
            depth = 40 if k % 4 == 0 else rng.randint(1, 39)
            explicit = helpers.shared_ancestor_assessment(rng, depth)
            graph = explicit.graph
            sources = [src for src, _ in graph.edges]
            shared += any(sources.count(src) > 1 for src in graph.leaf_ids())
            shared += any(sources.count(f"D{i:02d}") > 1 for i in range(depth))
            assert_every_scored_node_matches_a_flood(explicit)
        # Leaves and derived nodes feeding several nodes, in most graphs.
        assert shared > 60

    @pytest.mark.parametrize("leaves", LEAF_COUNTS)
    def test_leaf_counts_on_both_sides_of_the_bitset_rule(self, leaves):
        rng = random.Random(3410 + leaves)
        for depth in (1, 12):
            explicit = helpers.shared_ancestor_assessment(rng, depth, leaves)
            assert_every_scored_node_matches_a_flood(explicit)
            kinds = set(map(type, explicit.graph._leaf_sets.values()))
            assert kinds == ({int} if leaves < 60 else {tuple, int})

    @pytest.mark.parametrize("shape, leaves", SMALL_SETS, ids=str)
    def test_small_set_shapes(self, shape, leaves):
        explicit = small_set_assessment(shape, leaves)
        assert_every_scored_node_matches_a_flood(explicit)
        graph = explicit.graph
        kinds = {type(graph._leaf_sets[nid]) for nid in scored_ids(graph)}
        assert kinds == ({int} if leaves < 60 else {tuple, int})

    @pytest.mark.parametrize("members", MERGE_SIZES)
    def test_merges_about_the_shift_rule(self, members):
        explicit = merge_assessment(members)
        assert_every_scored_node_matches_a_flood(explicit)
        sets = explicit.graph._leaf_sets
        assert {type(sets[nid]) for nid in "BTXYZ"} == {int}
        assert type(sets["S00"]) is tuple
        assert len(helpers.leaf_ranks(explicit.graph, "T")) == members


def leaf_set_graphs():
    """Graphs of every shape the leaf-set tests read, bitsets and tuples."""
    rng = random.Random(1717)
    for k in range(60):
        depth = 40 if k % 4 == 0 else rng.randint(1, 39)
        yield helpers.shared_ancestor_assessment(rng, depth).graph
    for leaves in LEAF_COUNTS:
        yield helpers.shared_ancestor_assessment(random.Random(leaves), 12, leaves).graph
    for shape, leaves in SMALL_SETS:
        yield small_set_assessment(shape, leaves).graph
    for members in MERGE_SIZES:
        yield merge_assessment(members).graph


class TestLeafSetsAreSortedTuples:
    """Each node's stored leaf set names its leaf ancestors, sorted, without
    repeats: a small set as a sorted tuple of ranks, a larger one as a bitset."""

    def test_every_node_has_its_leaf_ancestors_sorted_without_repeats(self):
        for graph in leaf_set_graphs():
            reverse = graph._index.reverse
            leaf_sets = graph._leaf_sets
            assert leaf_sets.keys() == graph._index.by_id.keys()
            for node_id, members in leaf_sets.items():
                leaf_ids = helpers.leaf_ids_of(graph, node_id)
                assert leaf_ids == sorted(set(leaf_ids))
                if type(members) is tuple:
                    assert list(members) == sorted(set(members))
                else:
                    assert type(members) is int
                    assert 0 < members < 1 << len(graph.leaf_ids())
                reached = flooded(reverse, node_id)
                assert set(leaf_ids) == reached.difference(reverse)
                sources = reverse.get(node_id, ())
                if len(sources) == 1:
                    assert members is leaf_sets[sources[0]]


class TestLeafSetSizes:
    """A set is a sorted tuple of its ranks up to ``len(leaves) // 60``
    members and a bitset past them, and by ``sys.getsizeof`` no set is bigger
    than the tuple of its ranks plus ``SLACK`` bytes."""

    SLACK = 0

    def test_each_set_is_no_bigger_than_its_tuple(self):
        bitsets = 0
        for graph in leaf_set_graphs():
            dense = len(graph.leaf_ids()) // 60
            for node_id, members in graph._leaf_sets.items():
                ranks = tuple(helpers.leaf_ranks(graph, node_id))
                assert (type(members) is tuple) == (len(ranks) <= dense), node_id
                assert sys.getsizeof(members) <= sys.getsizeof(ranks) + self.SLACK
                bitsets += type(members) is int and len(ranks) > 1
        assert bitsets > 1000


class TestLeafSetsOncePerGraph:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = model._leaf_sets_of

        def counted(index):
            calls.append(index)
            return build(index)

        monkeypatch.setattr(model, "_leaf_sets_of", counted)
        return calls

    def test_scoring_every_derived_node_builds_them_once(self, builds):
        assessment = helpers.shared_ancestor_assessment(random.Random(40), 40)
        sensitivity(assessment, weights=WeightScheme.equal())
        for i in range(40):
            derived_asset_visibility(assessment, f"D{i:02d}")
        equal = replace(assessment, weights=WeightScheme.equal())
        derived_asset_visibility(equal, "OUT")
        assert builds == [assessment.graph._index]

    def test_scoring_a_whole_document_never_builds_them(self, builds):
        data = serialize_document(helpers.shared_ancestor_assessment(random.Random(41), 40))
        assessment = parse_document(data)
        report = overall_visibility(assessment)
        render_machine(report, assessment)
        render_table(report, assessment.judgements)
        assert builds == []


def review_pool(seed: int) -> list:
    """The documents of the benchmark's ``review_deep`` pool."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        import generate
    finally:
        del sys.path[0]
    return generate.review_pool(seed)


class TestDerivedScoresGatherLess:
    """A derived score gathers its leaves' visibility indices, and their
    weights when explicit; its report gathers their ids and indices once, at
    the first read of its rows or cells."""

    @pytest.fixture
    def gathered(self, monkeypatch):
        """The number of columns each gather takes, in call order."""
        calls = []
        gather = model._gather

        def counted(members, columns):
            calls.append(len(columns))
            return gather(members, columns)

        monkeypatch.setattr(metrics, "_gather", counted)
        return calls

    @pytest.mark.parametrize("first", ["_cells", "per_node"])
    def test_one_column_under_equal_weights_and_two_under_explicit(
        self, gathered, first
    ):
        explicit = merge_assessment(64)
        equal = replace(explicit, weights=WeightScheme.equal())
        for assessment, columns in ((equal, 1), (explicit, 2)):
            for node_id in scored_ids(assessment.graph):
                del gathered[:]
                report = derived_asset_visibility(assessment, node_id)
                assert gathered == [columns], node_id
                expected = flooded_report(assessment, node_id).per_node
                if first == "per_node":
                    assert report.per_node == expected, node_id
                else:
                    assert tuple(report._cells()) == expected, node_id
                assert gathered == [columns, 2], node_id
                assert tuple(report._cells()) == report.per_node == expected
                render_table(report, assessment.judgements)
                render_machine(report, assessment, scope_node=node_id)
                assert gathered == [columns, 2], node_id

    def test_the_overall_gathers_nothing_and_derives_no_column(self, gathered):
        for assessment in (merge_assessment(65), helpers.later_assessment()):
            report = overall_visibility(assessment)
            render_machine(report, assessment)
            rank([assessment])
            assert report.per_node
            assert gathered == []
            assert "_visibilities" not in vars(assessment)

    def test_unread_reports_of_the_review_pool_match_eager_ones(self):
        scored = 0
        for doc in review_pool(1):
            if doc.violations:
                continue
            assessment = parse_document(doc.data)
            for node_id in scored_ids(assessment.graph):
                report = derived_asset_visibility(assessment, node_id)
                leaf_ids = helpers.leaf_ids_of(assessment.graph, node_id)
                expected = eager_report(assessment, leaf_ids)
                assert report.overall.hex() == expected.overall.hex(), node_id
                assert report.leaf_count == expected.leaf_count, node_id
                assert "per_node" not in vars(report), node_id
                assert report._columns[0] is not None  # not yet gathered
                scored += 1
        assert scored > 700

    @pytest.mark.parametrize("node_id", ["S00", "T"])
    def test_degenerate_weights_name_the_leaves(self, node_id):
        assessment = merge_assessment(65)
        zero = set(helpers.leaf_ids_of(assessment.graph, node_id))
        others = [leaf for leaf in assessment.graph.leaf_ids() if leaf not in zero]
        weights = {leaf: 0.0 for leaf in zero}
        weights.update(dict.fromkeys(others, 1 / len(others)))
        weighted = replace(assessment, weights=WeightScheme.explicit(weights))
        with pytest.raises(DegenerateWeightsError) as excinfo:
            derived_asset_visibility(weighted, node_id)
        assert excinfo.value.leaf_ids == tuple(sorted(zero))
