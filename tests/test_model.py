"""Domain model: construction rules, graph validation, rubric."""

from __future__ import annotations

import pickle
import random
from dataclasses import replace
from datetime import date, datetime

import networkx as nx
import pytest

import helpers
from pipevis import (
    Assessment,
    ContributionNode,
    Criterion,
    InvalidGraphError,
    Judgement,
    NodeKind,
    PipelineGraph,
    RUBRIC,
    WeightScheme,
    leaf_nodes,
    rubric_text,
    validate_assessment,
    validate_graph,
)
from pipevis.model import check_score_level


def node(node_id: str, kind: NodeKind = NodeKind.DATA_SOURCE) -> ContributionNode:
    return ContributionNode(id=node_id, kind=kind, label=node_id.lower())


class TestScoreLevels:
    @pytest.mark.parametrize("value", [1, 2, 3, 4])
    def test_accepts_valid_levels(self, value):
        assert check_score_level(value) == value

    @pytest.mark.parametrize("value", [0, 5, -1, 100])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError, match="between 1 and 4"):
            check_score_level(value)

    @pytest.mark.parametrize("value", [True, False, 3.0, "3", None])
    def test_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match="must be an integer"):
            check_score_level(value)

    def test_judgement_validates_each_field(self):
        with pytest.raises(ValueError, match="freshness"):
            Judgement(quantity=1, accuracy=1, freshness=9)

    def test_judgement_equality(self):
        assert Judgement(3, 2, 3) == Judgement(quantity=3, accuracy=2, freshness=3)


class TestContributionNode:
    def test_kind_coerced_from_string(self):
        n = ContributionNode(id="DS", kind="DataSource", label="x")
        assert n.kind is NodeKind.DATA_SOURCE

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            ContributionNode(id="DS", kind="Wizard", label="x")

    def test_evidence_refs_coerced_to_tuple(self):
        n = ContributionNode(
            id="DS", kind=NodeKind.DATA_SOURCE, label="x", evidence_refs=["a", "b"]
        )
        assert n.evidence_refs == ("a", "b")


class TestPipelineGraph:
    def test_nodes_and_edges_are_canonicalised(self):
        a = PipelineGraph(
            nodes=(node("B"), node("A")), edges=(("B", "A"), ("B", "A"))
        )
        b = PipelineGraph(nodes=(node("A"), node("B")), edges=(("B", "A"),))
        assert a == b
        assert [n.id for n in a.nodes] == ["A", "B"]
        assert a.edges == (("B", "A"),)

    def test_fig1_leaves(self, example_graph):
        assert example_graph.leaf_ids() == ["DS", "H1", "H2"]
        assert example_graph.in_degree() == {
            "DS": 0,
            "H1": 0,
            "H2": 0,
            "LD": 2,
            "M": 2,
        }

    def test_node_by_id(self, example_graph):
        assert example_graph.node_by_id("LD").kind is NodeKind.DERIVED_ASSET
        assert example_graph.node_by_id("nope") is None

    def test_random_graphs_agree_with_networkx(self):
        rng = random.Random(2202)
        for _ in range(50):
            graph = helpers.random_assessment(rng).graph
            dg = nx.DiGraph()
            dg.add_nodes_from(graph.node_ids())
            dg.add_edges_from(graph.edges)
            assert nx.is_directed_acyclic_graph(dg)
            expected = sorted(n for n, deg in dg.in_degree() if deg == 0)
            assert graph.leaf_ids() == expected
            assert validate_graph(graph).ok

    def test_random_cyclic_graphs_agree_with_networkx(self):
        rng = random.Random(3303)
        for _ in range(100):
            ids = [f"N{i}" for i in range(rng.randint(2, 12))]
            loop = rng.sample(ids, rng.randint(2, len(ids)))
            edges = set(zip(loop, loop[1:] + loop[:1]))
            edges |= {
                (rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 20))
            }
            graph = PipelineGraph(nodes=tuple(node(i) for i in ids), edges=edges)
            dg = nx.DiGraph()
            dg.add_nodes_from(ids)
            dg.add_edges_from(edges)
            expected = sorted(
                sorted(c) for c in nx.strongly_connected_components(dg) if len(c) > 1
            )
            found = [
                v.removeprefix("cycle detected: ").split(",")
                for v in validate_graph(graph).violations
                if v.startswith("cycle detected: ")
            ]
            assert expected
            assert found == expected

    def test_derived_structure_is_invisible(self, example_graph):
        def fresh():
            return PipelineGraph(nodes=example_graph.nodes, edges=example_graph.edges)

        def observe(graph):
            return graph, hash(graph), repr(graph), pickle.dumps(graph)

        before = observe(example_graph)
        assert before == observe(fresh())
        assert pickle.loads(before[3]) == example_graph
        validate_graph(example_graph)
        example_graph.in_degree()
        assert example_graph.leaf_ids() == ["DS", "H1", "H2"]
        after = observe(example_graph)
        assert after == before == observe(fresh())
        copy = pickle.loads(after[3])
        assert copy == example_graph
        assert validate_graph(copy) == validate_graph(example_graph)

    def test_replace_derives_its_own_violations(self, example_graph):
        assert validate_graph(example_graph).ok
        cyclic = replace(example_graph, edges=example_graph.edges + (("M", "LD"),))
        assert "cycle detected: LD,M" in validate_graph(cyclic).violations
        assert validate_graph(example_graph).ok


class TestValidateGraph:
    def test_valid_graph(self, example_graph):
        result = validate_graph(example_graph)
        assert result.ok
        assert result.violations == ()

    def test_duplicate_node_id(self):
        graph = PipelineGraph(
            nodes=(node("A"), node("A"), node("M", NodeKind.OUTPUT_ASSET)),
            edges=(("A", "M"),),
        )
        assert "duplicate node id: A" in validate_graph(graph).violations

    def test_edge_referencing_unknown_node(self):
        graph = PipelineGraph(
            nodes=(node("A"), node("M", NodeKind.OUTPUT_ASSET)),
            edges=(("A", "M"), ("ghost", "M")),
        )
        assert (
            "edge ghost->M references unknown node ghost"
            in validate_graph(graph).violations
        )

    def test_self_edge(self):
        graph = PipelineGraph(
            nodes=(node("A"), node("M", NodeKind.OUTPUT_ASSET)),
            edges=(("A", "M"), ("A", "A")),
        )
        assert "self-edge on A" in validate_graph(graph).violations

    def test_missing_output(self):
        graph = PipelineGraph(nodes=(node("A"),), edges=())
        assert "graph has no OutputAsset node" in validate_graph(graph).violations

    def test_multiple_outputs(self):
        graph = PipelineGraph(
            nodes=(
                node("A"),
                node("M1", NodeKind.OUTPUT_ASSET),
                node("M2", NodeKind.OUTPUT_ASSET),
            ),
            edges=(("A", "M1"), ("A", "M2")),
        )
        assert "multiple OutputAsset nodes: M1,M2" in validate_graph(graph).violations

    def test_output_with_no_incoming_edge(self):
        graph = PipelineGraph(nodes=(node("M", NodeKind.OUTPUT_ASSET),), edges=())
        assert "output node M has no incoming edge" in validate_graph(graph).violations

    def test_derived_with_no_incoming_edge(self):
        graph = PipelineGraph(
            nodes=(
                node("A"),
                node("LD", NodeKind.DERIVED_ASSET),
                node("M", NodeKind.OUTPUT_ASSET),
            ),
            edges=(("A", "M"), ("LD", "M")),
        )
        assert (
            "derived node LD has no incoming edge" in validate_graph(graph).violations
        )

    def test_two_node_cycle(self):
        graph = PipelineGraph(
            nodes=(
                node("A", NodeKind.DERIVED_ASSET),
                node("B", NodeKind.DERIVED_ASSET),
                node("S"),
                node("M", NodeKind.OUTPUT_ASSET),
            ),
            edges=(("S", "A"), ("A", "B"), ("B", "A"), ("B", "M")),
        )
        assert "cycle detected: A,B" in validate_graph(graph).violations

    def test_three_node_cycle_lists_sorted_members(self):
        graph = PipelineGraph(
            nodes=(
                node("X", NodeKind.DERIVED_ASSET),
                node("Y", NodeKind.DERIVED_ASSET),
                node("Z", NodeKind.DERIVED_ASSET),
                node("S"),
                node("M", NodeKind.OUTPUT_ASSET),
            ),
            edges=(("S", "Z"), ("Z", "Y"), ("Y", "X"), ("X", "Z"), ("X", "M")),
        )
        assert "cycle detected: X,Y,Z" in validate_graph(graph).violations

    def test_node_without_path_to_output(self):
        graph = PipelineGraph(
            nodes=(node("A"), node("B"), node("M", NodeKind.OUTPUT_ASSET)),
            edges=(("A", "M"),),
        )
        assert (
            "node B has no path to the output" in validate_graph(graph).violations
        )

    def test_violations_are_deterministic(self):
        nodes = [
            node("B", NodeKind.DERIVED_ASSET),
            node("A", NodeKind.DERIVED_ASSET),
            node("Q"),
        ]
        edges = [("A", "B"), ("B", "A")]
        first = validate_graph(PipelineGraph(nodes=tuple(nodes), edges=tuple(edges)))
        second = validate_graph(
            PipelineGraph(
                nodes=tuple(reversed(nodes)), edges=tuple(reversed(edges))
            )
        )
        assert first.violations == second.violations
        assert not first.ok


class TestLeafNodes:
    def test_returns_sorted_leaf_nodes(self, example_graph):
        leaves = leaf_nodes(example_graph)
        assert [n.id for n in leaves] == ["DS", "H1", "H2"]
        assert all(
            n.kind in (NodeKind.DATA_SOURCE, NodeKind.HUMAN_CONTRIBUTOR)
            for n in leaves
        )

    def test_raises_on_invalid_graph(self):
        graph = PipelineGraph(nodes=(node("A"),), edges=())
        with pytest.raises(InvalidGraphError) as excinfo:
            leaf_nodes(graph)
        assert "graph has no OutputAsset node" in excinfo.value.violations


class TestValidateAssessment:
    def test_valid(self, first_party_later):
        assert validate_assessment(first_party_later).ok

    def test_missing_judgement(self):
        a = helpers.example_assessment(
            judgements={"DS": helpers.ALL_FOUR, "H1": helpers.ALL_FOUR}
        )
        assert "missing judgement for H2" in validate_assessment(a).violations

    def test_judgement_on_non_leaf(self):
        a = helpers.example_assessment(
            judgements={
                "DS": helpers.ALL_FOUR,
                "H1": helpers.ALL_FOUR,
                "H2": helpers.ALL_FOUR,
                "LD": helpers.ALL_FOUR,
            }
        )
        assert "judgement on non-leaf node LD" in validate_assessment(a).violations

    def test_judgement_for_unknown_node(self):
        a = helpers.example_assessment(
            judgements={
                "DS": helpers.ALL_FOUR,
                "H1": helpers.ALL_FOUR,
                "H2": helpers.ALL_FOUR,
                "XX": helpers.ALL_FOUR,
            }
        )
        assert "judgement for unknown node XX" in validate_assessment(a).violations

    def test_missing_weight(self):
        a = helpers.example_assessment(
            weights=WeightScheme.explicit({"DS": 0.5, "H1": 0.5})
        )
        violations = validate_assessment(a).violations
        assert "missing weight for H2" in violations
        assert "weights sum 1.0 but key set incomplete" in violations

    def test_weight_on_non_leaf(self):
        a = helpers.example_assessment(
            weights=WeightScheme.explicit(
                {"DS": 0.25, "H1": 0.25, "H2": 0.25, "LD": 0.25}
            )
        )
        assert "weight on non-leaf node LD" in validate_assessment(a).violations

    def test_weight_for_unknown_node(self):
        a = helpers.example_assessment(
            weights=WeightScheme.explicit(
                {"DS": 0.25, "H1": 0.25, "H2": 0.25, "ZZ": 0.25}
            )
        )
        assert "weight for unknown node ZZ" in validate_assessment(a).violations

    def test_negative_weight(self):
        a = helpers.example_assessment(
            weights=WeightScheme.explicit({"DS": -0.5, "H1": 0.75, "H2": 0.75})
        )
        assert "negative weight for DS" in validate_assessment(a).violations

    def test_non_finite_weight(self):
        a = helpers.example_assessment(
            weights=WeightScheme.explicit(
                {"DS": float("inf"), "H1": 0.5, "H2": 0.5}
            )
        )
        assert "non-finite weight for DS" in validate_assessment(a).violations

    def test_weights_must_sum_to_one(self):
        a = helpers.example_assessment(
            weights=WeightScheme.explicit({"DS": 0.5, "H1": 0.2, "H2": 0.2})
        )
        violations = validate_assessment(a).violations
        assert any(
            v.startswith("weights sum") and "expected 1 within 1e-9" in v
            for v in violations
        )

    def test_sum_tolerance_accepts_tiny_drift(self):
        a = helpers.example_assessment(
            weights=WeightScheme.explicit(
                {"DS": 1 / 3, "H1": 1 / 3, "H2": 1 / 3 + 1e-12}
            )
        )
        assert validate_assessment(a).ok

    def test_collects_graph_and_judgement_violations_together(self):
        graph = PipelineGraph(
            nodes=(node("A"), node("M", NodeKind.OUTPUT_ASSET)), edges=()
        )
        a = Assessment(
            graph=graph,
            judgements={},
            weights=WeightScheme.equal(),
            asset_name="x",
            asset_version="1",
            assessed_at=date(2024, 1, 1),
            assessor="t",
        )
        violations = validate_assessment(a).violations
        assert "output node M has no incoming edge" in violations
        assert "missing judgement for A" in violations


class TestAssessment:
    def test_rejects_datetime(self):
        with pytest.raises(ValueError, match="calendar date"):
            helpers.example_assessment(assessed_at=datetime(2024, 1, 1, 12, 0))

    @pytest.mark.parametrize("precision", [-1, 13, True, 2.0])
    def test_rejects_bad_precision(self, precision):
        with pytest.raises(ValueError, match="display_precision"):
            helpers.example_assessment(display_precision=precision)

    def test_judgements_are_copied(self):
        judgements = {
            "DS": helpers.ALL_FOUR,
            "H1": helpers.ALL_FOUR,
            "H2": helpers.ALL_FOUR,
        }
        a = helpers.example_assessment(judgements=judgements)
        judgements["DS"] = helpers.THIRD_PARTY_MINIMAL
        assert a.judgements["DS"] == helpers.ALL_FOUR


class TestWeightScheme:
    def test_equal_resolves_to_reciprocal_shares(self):
        resolved = WeightScheme.equal().resolve(["a", "b", "c", "d"])
        assert resolved == {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25}

    def test_explicit_resolves_as_given(self):
        scheme = WeightScheme.explicit({"a": 0.75, "b": 0.25})
        assert scheme.resolve(["a", "b"]) == {"a": 0.75, "b": 0.25}
        assert not scheme.is_equal

    def test_equal_is_marked(self):
        assert WeightScheme.equal().is_equal


class TestRubric:
    def test_all_twelve_cells_present(self):
        assert len(RUBRIC) == 12
        assert all(text for text in RUBRIC.values())

    @pytest.mark.parametrize(
        ("criterion", "level", "expected"),
        [
            (Criterion.QUANTITY, 4, "Sufficient to validate"),
            (Criterion.QUANTITY, 1, "Sparse or insufficient information"),
            (Criterion.FRESHNESS, 1, "Never updated"),
            (Criterion.FRESHNESS, 4, "Real-time validation"),
            (Criterion.ACCURACY, 3, "Believed to be accurate"),
            (Criterion.ACCURACY, 4, "Evidenced and verifiable"),
        ],
    )
    def test_cell_text(self, criterion, level, expected):
        assert rubric_text(criterion, level) == expected

    def test_accepts_string_criterion(self):
        assert rubric_text("quantity", 2) == "Some information missing"

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            rubric_text(Criterion.QUANTITY, 0)
