"""Domain model: construction rules, graph validation, rubric."""

from __future__ import annotations

import copy
import inspect
import json
import math
import pickle
import random
import re
from dataclasses import MISSING, fields, replace
from datetime import date, datetime
from fractions import Fraction
from itertools import chain

import jsonschema
import networkx as nx
import pytest

import helpers
from pipevis import (
    Assessment,
    ContributionNode,
    Criterion,
    DocumentError,
    Judgement,
    NodeKind,
    PipelineGraph,
    RUBRIC,
    WeightScheme,
    parse_document,
    serialize_document,
    validate_assessment,
    validate_graph,
)
from pipevis import model


class Label(str):
    """A plain str subclass: an edge end that ``str()`` turns into a str."""


def node(node_id: str, kind: NodeKind = NodeKind.DATA_SOURCE) -> ContributionNode:
    return ContributionNode(id=node_id, kind=kind, label=node_id.lower())


LEVELS = ("quantity", "accuracy", "freshness")


def judgement_with(name, value):
    """A judgement with ``value`` as its ``name`` level and 1 as the others."""
    return Judgement(**{**dict.fromkeys(LEVELS, 1), name: value})


class TestScoreLevels:
    @pytest.mark.parametrize("value", [1, 2, 3, 4])
    def test_accepts_valid_levels(self, value):
        for name in LEVELS:
            assert getattr(judgement_with(name, value), name) == value

    @pytest.mark.parametrize("value", [0, 5, -1, 100])
    def test_rejects_out_of_range(self, value):
        for name in LEVELS:
            with pytest.raises(
                ValueError, match=f"^{name} must be between 1 and 4, got {value}$"
            ):
                judgement_with(name, value)

    @pytest.mark.parametrize("value", [True, False, 3.0, "3", None])
    def test_rejects_non_integers(self, value):
        for name in LEVELS:
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                judgement_with(name, value)

    def test_a_boolean_level_is_refused_in_full(self):
        with pytest.raises(ValueError) as excinfo:
            Judgement(quantity=True, accuracy=1, freshness=1)
        assert str(excinfo.value) == "quantity must be an integer, got True"

    def test_judgement_validates_each_field(self):
        with pytest.raises(ValueError, match="freshness"):
            Judgement(quantity=1, accuracy=1, freshness=9)

    def test_judgement_equality(self):
        assert Judgement(3, 2, 3) == Judgement(quantity=3, accuracy=2, freshness=3)

    @pytest.mark.parametrize("value", [-1, 0, 1, 4, 5, True], ids=repr)
    def test_the_owners_agree(self, samples_dir, assessment_schema, value):
        """The constructor, the parser, the schema and ``whatif --set`` refuse
        the same levels, and each range refusal reads ``between 1 and 4``.
        (``2.0`` is left out: the schema takes it as an integer.)"""
        refusals = []
        try:
            Judgement(value, 2, 3)
        except ValueError as error:
            refusals.append(str(error))
        built = not refusals
        sample = samples_dir / "first_party_later.json"
        document = json.loads(sample.read_bytes())
        document["judgements"]["DS"]["quantity"] = value
        try:
            parse_document(json.dumps(document))
        except DocumentError as error:
            found = [
                violation for violation in error.violations
                if violation.startswith("judgements.DS.quantity: must be ")
            ]
        else:
            found = []
        parsed = not found
        refusals += found
        validator = jsonschema.Draft202012Validator(assessment_schema)
        schema_valid = all(
            list(error.absolute_path) != ["judgements", "DS", "quantity"]
            for error in validator.iter_errors(document)
        )
        assert built == parsed == schema_valid
        if value is True:
            return
        result = helpers.run_cli(["whatif", str(sample), "--set", f"DS:{value},2,3"])
        assert (result.exit_code != 2) == built
        if not built:
            refusals.append(result.stderr.splitlines()[-1])
            assert len(refusals) == 3
            for refusal in refusals:
                assert refusal.endswith(f" must be between 1 and 4, got {value}")


#: ``pickle.dumps(Judgement(2, 3, 4))`` as made before judgements carried their
#: indices: its state holds the three levels only.
OLD_PICKLE = (
    b"\x80\x04\x95O\x00\x00\x00\x00\x00\x00\x00\x8c\rpipevis.model\x94\x8c\t"
    b"Judgement\x94\x93\x94)\x81\x94}\x94(\x8c\x08quantity\x94K\x02\x8c\x08"
    b"accuracy\x94K\x03\x8c\tfreshness\x94K\x04ub."
)


def written_out_indices(q, a, f):
    return (float(q), math.sqrt(a * f), math.sqrt(q * math.sqrt(a * f)))


class TestJudgementIndices:
    def test_each_shared_judgement_carries_the_formula(self):
        assert len(model._JUDGEMENTS) == 64
        for levels, judgement in model._JUDGEMENTS.items():
            assert judgement._indices == written_out_indices(*levels)
            assert judgement._indices is judgement._indices

    def test_every_way_of_making_a_judgement_derives_them(self):
        class Tagged(Judgement):
            pass

        class Level(int):
            pass

        expected = written_out_indices(2, 3, 4)
        shared = model._JUDGEMENTS[2, 3, 4]
        assert shared._indices == expected  # computed before it is copied
        made = {
            "hand-built": Judgement(2, 3, 4),
            "subclass": Tagged(2, 3, 4),
            "int-subclass levels": Judgement(Level(2), Level(3), Level(4)),
            "copy": copy.copy(shared),
            "deepcopy": copy.deepcopy(shared),
            "replace": replace(Judgement(1, 1, 1), quantity=2, accuracy=3, freshness=4),
            "replace of a copy": replace(copy.copy(shared), quantity=1),
            "old pickle": pickle.loads(OLD_PICKLE),
            "pickle": pickle.loads(pickle.dumps(shared)),
        }
        for how, judgement in made.items():
            levels = (judgement.quantity, judgement.accuracy, judgement.freshness)
            assert judgement._indices == written_out_indices(*levels), how
            assert all(type(index) is float for index in judgement._indices), how
        assert made["old pickle"] == shared
        assert "_indices" not in pickle.loads(OLD_PICKLE).__dict__
        assert made["replace of a copy"]._indices == written_out_indices(1, 3, 4)


class TestContributionNode:
    def test_kind_coerced_from_string(self):
        n = ContributionNode(id="DS", kind="DataSource", label="x")
        assert n.kind is NodeKind.DATA_SOURCE

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            ContributionNode(id="DS", kind="Wizard", label="x")

    def test_a_bad_kind_is_refused_in_the_kind_rule_wording(self):
        with pytest.raises(ValueError) as excinfo:
            ContributionNode("x", "Nope", "l")
        assert str(excinfo.value) == (
            "node kind must be one of DataSource, DerivedAsset, HumanContributor,"
            " OutputAsset, got 'Nope'"
        )

    @pytest.mark.parametrize(
        "value",
        ["DataSource", NodeKind.OUTPUT_ASSET, "Nope", "datasource", "", 5, None],
        ids=repr,
    )
    def test_the_kind_rule_owners_agree(self, samples_dir, assessment_schema, value):
        """The constructor, the parser and the schema refuse the same kinds, and
        each refusal reads the one wording of the kind rule."""
        refusals = []
        try:
            ContributionNode("X", value, "x")
        except ValueError as error:
            refusals.append(str(error))
        built = not refusals
        document = json.loads((samples_dir / "first_party_later.json").read_bytes())
        document["nodes"][0]["kind"] = value
        try:
            parse_document(json.dumps(document))
        except DocumentError as error:
            found = [
                violation for violation in error.violations
                if violation.startswith("nodes[0].kind: must be ")
            ]
        else:
            found = []
        parsed = not found
        refusals += found
        validator = jsonschema.Draft202012Validator(assessment_schema)
        schema_valid = all(
            list(error.absolute_path) != ["nodes", 0, "kind"]
            for error in validator.iter_errors(document)
        )
        assert built == parsed == schema_valid
        assert len(refusals) == (0 if built else 2)
        for refusal in refusals:
            assert refusal.endswith(
                " must be one of DataSource, DerivedAsset, HumanContributor,"
                f" OutputAsset, got {value!r}"
            )

    @pytest.mark.parametrize("node_id", [1, None, b"DS"], ids=repr)
    def test_non_string_id_rejected(self, node_id):
        # A graph sorts its nodes by id, so one int id among strings would
        # make it fail there instead.
        with pytest.raises(ValueError, match="^node id must be a string, got "):
            ContributionNode(id=node_id, kind=NodeKind.DATA_SOURCE, label="x")

    def test_a_string_as_evidence_refs_is_refused(self):
        # It used to be split into one ref per character.
        message = "^node evidence_refs must be strings, got one: 'doc.pdf'$"
        with pytest.raises(ValueError, match=message):
            ContributionNode("DS", "DataSource", "x", evidence_refs="doc.pdf")
        with pytest.raises(ValueError, match=message):
            replace(node("DS"), evidence_refs="doc.pdf")

    def test_non_iterable_evidence_refs_are_refused_as_a_ref(self):
        # tuple() raises TypeError here; the constructor raises ValueError.
        message = "^node evidence ref must be a string, got 5$"
        with pytest.raises(ValueError, match=message):
            ContributionNode(id="DS", kind="DataSource", label="x", evidence_refs=5)

    def test_evidence_refs_coerced_to_tuple(self):
        n = ContributionNode(
            id="DS", kind=NodeKind.DATA_SOURCE, label="x", evidence_refs=["a", "b"]
        )
        assert n.evidence_refs == ("a", "b")

    def test_typed_kind_and_refs_are_kept_as_given(self):
        refs = ("a", "b")
        n = ContributionNode(
            id="DS", kind=NodeKind.DATA_SOURCE, label="x", evidence_refs=refs
        )
        assert n.evidence_refs is refs

    def test_slotted_and_frozen(self):
        n = node("DS")
        assert not hasattr(n, "__dict__")
        with pytest.raises(AttributeError):
            n.label = "y"  # type: ignore[misc]
        # A name that is no field: CPython's frozen slotted dataclasses raise
        # TypeError (3.10-3.13), as the class has no __dict__ to take it.
        with pytest.raises((AttributeError, TypeError)):
            n.note = "y"  # type: ignore[attr-defined]

    def test_survives_pickle_deepcopy_and_replace(self):
        n = ContributionNode(
            id="DS", kind=NodeKind.DATA_SOURCE, label="x", description="d",
            evidence_refs=("a",),
        )
        for twin in (pickle.loads(pickle.dumps(n)), copy.deepcopy(n), copy.copy(n)):
            assert twin == n
            assert twin.kind is NodeKind.DATA_SOURCE
        changed = replace(n, label="y")
        assert (changed.id, changed.label, changed.evidence_refs) == ("DS", "y", ("a",))
        assert n.label == "x"

    def test_signature_and_match_args_follow_the_fields(self):
        expected = [
            (
                field.name,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.empty if field.default is MISSING else field.default,
            )
            for field in fields(ContributionNode)
        ]
        parameters = inspect.signature(ContributionNode).parameters.values()
        assert [(p.name, p.kind, p.default) for p in parameters] == expected
        assert ContributionNode.__match_args__ == tuple(name for name, _, _ in expected)

    def test_positional_and_keyword_construction_agree(self):
        positional = ContributionNode("DS", "DataSource", "x", "d", ["a"])
        keyword = ContributionNode(
            evidence_refs=["a"], description="d", label="x", kind="DataSource", id="DS"
        )
        assert positional == keyword
        match positional:
            case ContributionNode(node_id, kind, label, description, refs):
                assert (node_id, kind, label, description, refs) == (
                    "DS", NodeKind.DATA_SOURCE, "x", "d", ("a",)
                )
        assert ContributionNode("DS", NodeKind.DATA_SOURCE, "x") == ContributionNode(
            "DS", NodeKind.DATA_SOURCE, "x", None, ()
        )
        # Copies and unpickling rebuild a node through the constructor.
        assert positional.__reduce__() == (
            ContributionNode, ("DS", NodeKind.DATA_SOURCE, "x", "d", ("a",))
        )

    def test_replace_coerces_and_checks_again(self):
        n = node("A")
        derived = replace(n, kind="DerivedAsset")
        assert derived.kind is NodeKind.DERIVED_ASSET
        assert replace(n, evidence_refs=["r"]).evidence_refs == ("r",)
        with pytest.raises(ValueError):
            replace(n, kind="Wizard")
        with pytest.raises(ValueError, match="^node id must be a string, got 1$"):
            replace(n, id=1)

    def test_subclass_builds_and_compares(self):
        class Tagged(ContributionNode):
            __slots__ = ()

        tagged = Tagged("A", "DataSource", "a", evidence_refs=["r"])
        assert type(tagged) is Tagged
        assert (tagged.kind, tagged.evidence_refs) == (NodeKind.DATA_SOURCE, ("r",))
        assert tagged == Tagged("A", NodeKind.DATA_SOURCE, "a", None, ("r",))
        assert tagged != ContributionNode("A", NodeKind.DATA_SOURCE, "a", None, ("r",))
        for twin in (copy.copy(tagged), copy.deepcopy(tagged), replace(tagged)):
            assert type(twin) is Tagged and twin == tagged
        with pytest.raises(ValueError, match="^node id must be a string"):
            Tagged(None, "DataSource", "a")
        graph = PipelineGraph(
            nodes=(tagged, node("M", NodeKind.OUTPUT_ASSET)), edges=(("A", "M"),)
        )
        assert validate_graph(graph).ok and graph.leaf_ids() == ["A"]


class TestPipelineGraph:
    def test_nodes_and_edges_are_canonicalised(self):
        a = PipelineGraph(
            nodes=(node("B"), node("A")), edges=(("B", "A"), ("B", "A"))
        )
        b = PipelineGraph(nodes=(node("A"), node("B")), edges=(("B", "A"),))
        assert a == b
        assert [n.id for n in a.nodes] == ["A", "B"]
        assert a.edges == (("B", "A"),)
        coerced = PipelineGraph(nodes=(node("1"), node("A")), edges=((1, "A"),))
        assert coerced.edges == (("1", "A"),)

    @pytest.mark.parametrize(
        ("nodes", "message"),
        [
            (("x", "y"), r"^node must be a ContributionNode, got 'x'$"),
            ((node("A"), None), r"^node must be a ContributionNode, got None$"),
        ],
        ids=["strings", "None-after-a-node"],
    )
    def test_rejects_a_node_of_another_type(self, nodes, message):
        # It used to fail in the sort key with AttributeError.
        with pytest.raises(ValueError, match=message):
            PipelineGraph(nodes=nodes, edges=())

    @pytest.mark.parametrize(
        ("nodes", "edges", "message"),
        [
            (5, (), r"^nodes must be an iterable of ContributionNode: 'int' object"),
            ((), None, r"^edges must be an iterable of pairs: 'NoneType' object"),
            ((), [5], r"^edges must be an iterable of pairs: cannot unpack"),
            # A two-character string unpacked into an edge: A->M, B->M.
            (
                (node("A"), node("B"), node("M", NodeKind.OUTPUT_ASSET)),
                ["AM", "BM"],
                r"^edges must be an iterable of pairs: a string is not a pair: 'AM'$",
            ),
            # "DM" became D->M, refused only for its unknown end D.
            (
                helpers.example_graph().nodes,
                [*helpers.example_graph().edges, "DM"],
                r"^edges must be an iterable of pairs: a string is not a pair: 'DM'$",
            ),
        ],
        ids=["nodes-int", "edges-None", "edges-int-item", "edges-str", "edges-str-last"],
    )
    def test_rejects_nodes_or_edges_of_the_wrong_shape(self, nodes, edges, message):
        # Each of the first three used to raise TypeError.
        with pytest.raises(ValueError, match=message):
            PipelineGraph(nodes=nodes, edges=edges)

    def test_sort_matches_the_reference_on_random_graphs(self):
        # The sort keys are C-level; the reference sorts by each node's id and
        # by comparing the str() pairs, as the graph once did.
        rng = random.Random(2525)
        ends = ["A", "B", "b", "AB", "", 1, 2.5, None, Label("A")]
        for _ in range(500):
            nodes = [
                node(rng.choice(["A", "B", "b", "AB", "M"]), rng.choice(list(NodeKind)))
                for _ in range(rng.randrange(8))
            ]
            edges = []
            for _ in range(rng.randrange(12)):
                pair = (rng.choice(ends), rng.choice(ends))
                if rng.random() < 0.5:
                    pair = tuple(map(str, pair))
                edges.append(list(pair) if rng.random() < 0.2 else pair)
                if rng.random() < 0.2:
                    edges.append(edges[-1])
            graph = PipelineGraph(nodes=nodes, edges=edges)
            expected = sorted(nodes, key=lambda node: node.id)
            assert list(map(id, graph.nodes)) == list(map(id, expected))
            pairs = sorted((str(src), str(dst)) for src, dst in edges)
            assert graph.edges == tuple(dict.fromkeys(pairs))
            assert set(map(type, chain.from_iterable(graph.edges))) <= {str}

    def test_fig1_leaves(self, example_graph):
        assert example_graph.leaf_ids() == ["DS", "H1", "H2"]

    def test_node_by_id(self, example_graph):
        assert example_graph.node_by_id("LD").kind is NodeKind.DERIVED_ASSET
        assert example_graph.node_by_id("nope") is None

    def test_random_graphs_agree_with_networkx(self):
        rng = random.Random(2202)
        for _ in range(50):
            graph = helpers.random_assessment(rng).graph
            dg = nx.DiGraph()
            dg.add_nodes_from(n.id for n in graph.nodes)
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

    @staticmethod
    def cycle_components(graph):
        return [
            v.removeprefix("cycle detected: ").split(",")
            for v in validate_graph(graph).violations
            if v.startswith("cycle detected: ")
        ]

    def test_cycles_fed_by_leaves_agree_with_networkx(self):
        rng = random.Random(3304)
        for trial in range(60):
            size = rng.randint(2, 6)
            derived = [f"D{i}" for i in range(size)]
            loop = rng.sample(derived, rng.randint(2, size))
            edges = set(zip(loop, loop[1:] + loop[:1])) | {(derived[0], "M")}
            if trial % 2:  # every derived node fed by many leaves
                leaves = [f"L{i}" for i in range(rng.randint(size, 60))]
                edges |= {(leaf, rng.choice(derived)) for leaf in leaves}
                edges |= {(leaf, d) for leaf, d in zip(leaves, derived)}
            else:  # one leaf is the cycle's only way in
                leaves = ["L0"]
                edges.add(("L0", rng.choice(loop)))
            nodes = [node(i) for i in leaves] + [
                node(i, NodeKind.DERIVED_ASSET) for i in derived
            ] + [node("M", NodeKind.OUTPUT_ASSET)]
            graph = PipelineGraph(nodes=tuple(nodes), edges=edges)
            dg = nx.DiGraph(list(edges))
            expected = sorted(
                sorted(c) for c in nx.strongly_connected_components(dg) if len(c) > 1
            )
            assert expected
            assert self.cycle_components(graph) == expected

    @staticmethod
    def ring(size=100_000):
        return [(f"N{i}", f"N{(i + 1) % size}") for i in range(size)]

    @staticmethod
    def pairs_chained_by_paths(pairs=300, path=200):
        edges = []
        for p in range(pairs):
            a, b = f"A{p}", f"B{p}"
            edges += [(a, b), (b, a)]
            hops = [b, *(f"P{p}_{i}" for i in range(path)), f"A{p + 1}"]
            edges += zip(hops, hops[1:])
        return edges

    @staticmethod
    def cycle_fed_by_leaves(leaves=10_000):
        edges = [(f"L{i}", f"D{i % 3}") for i in range(leaves)]
        return edges + [("D0", "D1"), ("D1", "D2"), ("D2", "D0"), ("D0", "M")]

    @pytest.mark.parametrize(
        "shape", ["ring", "pairs_chained_by_paths", "cycle_fed_by_leaves"]
    )
    def test_cycle_search_at_scale_agrees_with_networkx(self, shape):
        """A deep ring must not hit the recursion limit, and a chain of small
        cycles must not take quadratic time.

        The reverse map is built as the graph index builds it, without
        indexing a whole graph, so the test stays fast.
        """
        edges = getattr(self, shape)()
        reverse = {}
        for src, dst in edges:
            reverse.setdefault(dst, []).append(src)
        expected = sorted(
            sorted(c)
            for c in nx.strongly_connected_components(nx.DiGraph(edges))
            if len(c) > 1
        )
        assert expected
        output = edges[-1][1]
        components, order, entered = model._depth_first(reverse, output)
        assert components == expected
        assert sorted(order) == sorted(reverse)
        ancestors = nx.ancestors(nx.DiGraph(edges), output) | {output}
        assert sorted(entered) == sorted(ancestors.intersection(reverse))

    def test_cycle_search_enters_only_nodes_with_an_incoming_edge(self):
        class Entered(dict):
            """The reverse map, noting each node whose upstream ids are read."""

            def __init__(self, reverse):
                super().__init__(reverse)
                self.entered = set()

            def __getitem__(self, node_id):
                self.entered.add(node_id)
                return super().__getitem__(node_id)

            def get(self, node_id, default=None):
                self.entered.add(node_id)
                return super().get(node_id, default)

        derived = [node(f"D{i:02d}", NodeKind.DERIVED_ASSET) for i in range(20)]
        leaves = [node(f"L{i:04d}") for i in range(2000)]
        edges = [(leaf.id, derived[i % 20].id) for i, leaf in enumerate(leaves)]
        edges += [(d.id, "M") for d in derived]
        graph = PipelineGraph(
            nodes=(*leaves, *derived, node("M", NodeKind.OUTPUT_ASSET)), edges=edges
        )
        reverse = Entered(graph._index.reverse)
        components, order, entered = model._depth_first(reverse, "M")
        assert (components, order) == ([], graph._index.order)
        assert reverse.entered == set(reverse) == {d.id for d in derived} | {"M"}
        assert sorted(entered) == sorted(reverse)
        assert reverse.entered.isdisjoint(graph.leaf_ids())

    def test_id_index_is_invisible(self, example_graph):
        def observe(graph):
            return graph, hash(graph), repr(graph), pickle.dumps(graph)

        before = observe(example_graph)
        assert example_graph.node_by_id("LD") is example_graph.nodes[3]
        assert "_index" in vars(example_graph)
        assert observe(example_graph) == before
        copy = pickle.loads(before[3])
        assert "_index" not in vars(copy)
        assert copy.node_by_id("LD") == example_graph.node_by_id("LD")

        grown = replace(example_graph, nodes=example_graph.nodes + (node("X"),))
        assert grown.node_by_id("X") == node("X")
        assert example_graph.node_by_id("X") is None

    def test_copies_and_unpickles_through_the_constructor(
        self, example_graph, monkeypatch
    ):
        validate_graph(example_graph)
        built = []
        init = PipelineGraph.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(PipelineGraph, "__init__", counted)
        for twin in (
            pickle.loads(pickle.dumps(example_graph)),
            copy.copy(example_graph),
            copy.deepcopy(example_graph),
        ):
            assert twin == example_graph
            assert "_index" not in vars(twin)
        assert built == [(example_graph.nodes, example_graph.edges)] * 3

    def test_node_by_id_returns_the_first_of_repeated_ids(self):
        first = node("A")
        second = ContributionNode(id="A", kind=NodeKind.DERIVED_ASSET, label="again")
        graph = PipelineGraph(nodes=(first, second), edges=())
        assert graph.node_by_id("A") is graph.nodes[0] == first

    def test_derived_structure_is_invisible(self, example_graph):
        def fresh():
            return PipelineGraph(nodes=example_graph.nodes, edges=example_graph.edges)

        def observe(graph):
            return graph, hash(graph), repr(graph), pickle.dumps(graph)

        before = observe(example_graph)
        assert before == observe(fresh())
        assert pickle.loads(before[3]) == example_graph
        validate_graph(example_graph)
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

    def test_empty_node_id(self):
        graph = PipelineGraph(
            nodes=(node(""), node("M", NodeKind.OUTPUT_ASSET)), edges=(("", "M"),)
        )
        assert validate_graph(graph).violations == ("empty node id",)

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

    def test_leaf_feeding_a_derived_node_cut_off_from_the_output(self):
        graph = PipelineGraph(
            nodes=(
                node("A"),
                node("B"),
                node("D", NodeKind.DERIVED_ASSET),
                node("M", NodeKind.OUTPUT_ASSET),
            ),
            edges=(("A", "D"), ("B", "M")),
        )
        assert validate_graph(graph).violations == (
            "node A has no path to the output",
            "node D has no path to the output",
        )

    def test_leaf_whose_only_edge_names_an_unknown_node(self):
        graph = PipelineGraph(
            nodes=(node("A"), node("B"), node("M", NodeKind.OUTPUT_ASSET)),
            edges=(("A", "ghost"), ("B", "M")),
        )
        assert validate_graph(graph).violations == (
            "edge A->ghost references unknown node ghost",
            "node A has no path to the output",
        )
        assert graph.leaf_ids() == ["A", "B"]

    @pytest.mark.parametrize("feeds_output", [True, False], ids=["fed", "cut-off"])
    def test_cycle_of_derived_nodes_fed_by_500_leaves(self, feeds_output):
        leaves = [f"L{i:03d}" for i in range(500)]
        derived = ["D0", "D1", "D2"]
        edges = [(leaf, derived[i % 3]) for i, leaf in enumerate(leaves)]
        edges += [("D0", "D1"), ("D1", "D2"), ("D2", "D0"), ("S", "M")]
        if feeds_output:
            edges.append(("D1", "M"))
        graph = PipelineGraph(
            nodes=(
                *map(node, leaves),
                *(node(d, NodeKind.DERIVED_ASSET) for d in derived),
                node("S"),
                node("M", NodeKind.OUTPUT_ASSET),
            ),
            edges=edges,
        )
        cut_off = () if feeds_output else tuple(
            f"node {nid} has no path to the output" for nid in [*derived, *leaves]
        )
        assert validate_graph(graph).violations == (
            "cycle detected: D0,D1,D2",
            *cut_off,
        )

    def test_path_rule_on_random_broken_graphs_agrees_with_networkx(self):
        """On graphs with one output and cycles, self-edges, unknown edge ends,
        repeated ids and nodes cut off from the output, exactly the nodes
        outside the output's ancestors are named, in node order."""
        rng = random.Random(2424)
        kinds = [kind for kind in NodeKind if kind is not NodeKind.OUTPUT_ASSET]
        seen = {"cycle": 0, "self": 0, "unknown": 0, "repeat": 0, "cut": 0}
        for _ in range(400):
            ids = [f"N{i:02d}" for i in range(rng.randint(1, 25))]
            repeats = rng.choices(ids, k=rng.randint(0, 2))
            nodes = [node(nid, rng.choice(kinds)) for nid in ids + repeats]
            nodes.append(node("M", NodeKind.OUTPUT_ASSET))
            ends = [*ids, "M", "ghost"]
            edges = [tuple(rng.choices(ends, k=2)) for _ in range(rng.randint(0, 40))]
            graph = PipelineGraph(nodes=tuple(nodes), edges=edges)

            known = nx.DiGraph()
            known.add_nodes_from([*ids, "M"])
            known.add_edges_from(e for e in graph.edges if "ghost" not in e)
            reached = nx.ancestors(known, "M") | {"M"}
            expected = [
                f"node {n.id} has no path to the output"
                for n in graph.nodes
                if n.id not in reached
            ]
            violations = validate_graph(graph).violations
            unreached = [v for v in violations if v.endswith("path to the output")]
            assert unreached == expected

            components = nx.strongly_connected_components(known)
            seen["cycle"] += any(len(component) > 1 for component in components)
            seen["self"] += any(src == dst for src, dst in graph.edges)
            seen["unknown"] += any("ghost" in edge for edge in graph.edges)
            seen["repeat"] += bool(repeats)
            seen["cut"] += bool(expected)
        assert min(seen.values()) > 50, seen

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


#: Nodes and edges that break every graph rule but the output rules at once:
#: two empty ids, repeated ids (the second ``B`` is a derived node without an
#: incoming edge), a self-edge, unknown ends, and the cycle X, Y.
_BROKEN_NODES = (
    node(""), node("A"), node("A", NodeKind.DERIVED_ASSET), node("B"), node(""),
    node("B", NodeKind.DERIVED_ASSET), node("D", NodeKind.DERIVED_ASSET),
    node("X", NodeKind.DERIVED_ASSET), node("Y", NodeKind.DERIVED_ASSET), node("X"),
)
_BROKEN_EDGES = (
    ("", "X"), ("A", "A"), ("A", "phantom"), ("ghost", "Y"),
    ("X", "Y"), ("Y", "X"), ("B", "Y"), ("void", "void"),
)
_BROKEN_HEAD = (
    "empty node id",
    "empty node id",
    "duplicate node id: A",
    "duplicate node id: B",
    "duplicate node id: X",
    "self-edge on A",
    "edge A->phantom references unknown node phantom",
    "edge ghost->Y references unknown node ghost",
)
_VOID_EDGE = (
    "edge void->void references unknown node void",
    "edge void->void references unknown node void",
    "self-edge on void",
)


class TestViolationsAtOnce:
    """The whole of ``validate_graph``'s output, text and order, when every
    rule fires at once."""

    def test_two_outputs(self):
        graph = PipelineGraph(
            nodes=_BROKEN_NODES
            + (node("M2", NodeKind.OUTPUT_ASSET), node("M1", NodeKind.OUTPUT_ASSET)),
            edges=_BROKEN_EDGES + (("Y", "M2"),),
        )
        assert validate_graph(graph).violations == (
            *_BROKEN_HEAD,
            *_VOID_EDGE,
            "multiple OutputAsset nodes: M1,M2",
            "derived node B has no incoming edge",
            "derived node D has no incoming edge",
            "output node M1 has no incoming edge",
            "cycle detected: X,Y",
        )
        assert graph.leaf_ids() == ["", "B", "D", "M1"]

    def test_one_output_and_unreached_nodes(self):
        graph = PipelineGraph(
            nodes=_BROKEN_NODES + (node("U"), node("M", NodeKind.OUTPUT_ASSET)),
            edges=_BROKEN_EDGES + (("nowhere", "M"),),
        )
        assert validate_graph(graph).violations == (
            *_BROKEN_HEAD,
            "edge nowhere->M references unknown node nowhere",
            *_VOID_EDGE,
            "derived node B has no incoming edge",
            "derived node D has no incoming edge",
            "output node M has no incoming edge",
            "cycle detected: X,Y",
            "node  has no path to the output",
            "node  has no path to the output",
            "node A has no path to the output",
            "node A has no path to the output",
            "node B has no path to the output",
            "node B has no path to the output",
            "node D has no path to the output",
            "node U has no path to the output",
            "node X has no path to the output",
            "node X has no path to the output",
            "node Y has no path to the output",
        )
        assert graph.leaf_ids() == ["", "B", "D", "M", "U"]

    def test_reached_output_and_an_unreached_cycle(self):
        graph = PipelineGraph(
            nodes=(
                node("S"), node("T"), node("P"), node("D", NodeKind.DERIVED_ASSET),
                node("Q", NodeKind.DERIVED_ASSET), node("R", NodeKind.DERIVED_ASSET),
                node("M", NodeKind.OUTPUT_ASSET),
            ),
            edges=(("S", "D"), ("D", "M"), ("P", "Q"), ("Q", "R"), ("R", "Q")),
        )
        assert validate_graph(graph).violations == (
            "cycle detected: Q,R",
            "node P has no path to the output",
            "node Q has no path to the output",
            "node R has no path to the output",
            "node T has no path to the output",
        )
        assert graph.leaf_ids() == ["P", "S", "T"]


class TestAssessmentViolationsAtOnce:
    """The whole of ``validate_assessment``'s output on a valid graph, text
    and order, when every judgement and weight rule fires at once."""

    def test_sum_off(self):
        a = helpers.example_assessment(
            judgements={
                "AA": helpers.ALL_FOUR,
                "DS": helpers.ALL_FOUR,
                "H1": helpers.ALL_FOUR,
                "LD": helpers.ALL_FOUR,
                "ZZ": helpers.ALL_FOUR,
            },
            weights=WeightScheme(
                {"AA": 0.25, "H1": float("inf"), "H2": -0.5, "LD": 0.25, "ZZ": 0.25}
            ),
        )
        assert validate_assessment(a).violations == (
            "missing judgement for H2",
            "judgement for unknown node AA",
            "judgement on non-leaf node LD",
            "judgement for unknown node ZZ",
            "missing weight for DS",
            "weight for unknown node AA",
            "weight on non-leaf node LD",
            "weight for unknown node ZZ",
            "non-finite weight for H1",
            "negative weight for H2",
            "weights sum inf, expected 1 within 1e-9",
        )

    def test_sum_one_and_key_set_incomplete(self):
        a = helpers.example_assessment(
            weights=WeightScheme({"DS": 0.5, "H1": 0.25, "LD": 0.125, "ZZ": 0.125})
        )
        assert validate_assessment(a).violations == (
            "missing weight for H2",
            "weight on non-leaf node LD",
            "weight for unknown node ZZ",
            "weights sum 1.0 but key set incomplete",
        )


class TestValidateAssessment:
    def test_valid(self, first_party_later):
        assert validate_assessment(first_party_later).ok

    @pytest.mark.parametrize(
        ("validate", "violation"),
        [
            (validate_assessment, "not an Assessment: 5"),
            (validate_graph, "not a PipelineGraph: 5"),
        ],
        ids=["assessment", "graph"],
    )
    def test_an_object_of_another_type_fails_by_name(self, validate, violation):
        # Each used to raise AttributeError.
        assert validate(5).violations == (violation,)
        assert not validate(5).ok

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

    @pytest.mark.parametrize(
        ("weights", "total"),
        [
            ({"DS": 1e308, "H1": 1e308, "H2": 0.0}, "inf"),
            ({"DS": float("inf"), "H1": float("-inf"), "H2": 0.0}, "nan"),
        ],
        ids=["overflow", "opposite-infinities"],
    )
    def test_sum_past_what_fsum_takes_is_off(self, weights, total):
        a = helpers.example_assessment(weights=WeightScheme(weights))
        violations = validate_assessment(a).violations
        assert violations[-1] == f"weights sum {total}, expected 1 within 1e-9"

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

    def test_a_datetime_is_refused_in_full(self):
        with pytest.raises(ValueError) as excinfo:
            helpers.example_assessment(assessed_at=datetime(2024, 1, 1, 12, 0))
        assert str(excinfo.value) == (
            "assessed_at must be a calendar date, got "
            "datetime.datetime(2024, 1, 1, 12, 0)"
        )

    @pytest.mark.parametrize("precision", [13, True])
    def test_a_bad_precision_is_refused_in_full(self, precision):
        with pytest.raises(ValueError) as excinfo:
            helpers.example_assessment(display_precision=precision)
        assert str(excinfo.value) == (
            f"display_precision must be an integer between 0 and 12, got {precision!r}"
        )

    @pytest.mark.parametrize("precision", [-1, 13, True, 2.0])
    def test_rejects_bad_precision(self, precision):
        with pytest.raises(ValueError, match="display_precision"):
            helpers.example_assessment(display_precision=precision)

    # Each would serialize to a document the parser rejects.
    @pytest.mark.parametrize("name", [5, "", None, b"x"])
    def test_rejects_bad_asset_name(self, name):
        with pytest.raises(ValueError, match="asset_name must be a non-empty string"):
            helpers.example_assessment(asset_name=name)

    @pytest.mark.parametrize("version", [1, None, 1.0])
    def test_rejects_bad_asset_version(self, version):
        with pytest.raises(ValueError, match="asset_version must be a string"):
            helpers.example_assessment(asset_version=version)

    @pytest.mark.parametrize("assessor", [None, 7, ["audit"]])
    def test_rejects_bad_assessor(self, assessor):
        with pytest.raises(ValueError, match="assessor must be a string"):
            helpers.example_assessment(assessor=assessor)

    def test_empty_version_and_assessor_are_accepted(self):
        a = helpers.example_assessment(asset_version="", assessor="")
        assert parse_document(serialize_document(a)) == a

    def test_rejects_a_judgement_of_another_type(self):
        a = helpers.example_assessment()
        with pytest.raises(
            ValueError, match=r"^judgement for DS must be a Judgement, got \(3, 2, 3\)$"
        ):
            replace(a, judgements={**a.judgements, "DS": (3, 2, 3)})
        # Its coverage check would fail sorting an int key among strings.
        with pytest.raises(ValueError, match=r"^judgement key must be a string, got 1$"):
            replace(
                a, judgements={**a.judgements, 1: helpers.THREES, "Z": helpers.THREES}
            )

    @pytest.mark.parametrize("judgements", [None, 5], ids=repr)
    def test_rejects_judgements_that_are_not_a_mapping(self, judgements):
        # ``dict(...)`` used to raise TypeError.
        with pytest.raises(
            ValueError, match=rf"^judgements must be a mapping, got {judgements}$"
        ):
            replace(helpers.example_assessment(), judgements=judgements)

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("graph", (1, 2), r"^graph must be a PipelineGraph, got \(1, 2\)$"),
            ("weights", {"DS": 0.5}, r"^weights must be a WeightScheme, got \{"),
            ("weights", None, r"^weights must be a WeightScheme, got None$"),
        ],
        ids=["graph-tuple", "weights-dict", "weights-None"],
    )
    def test_rejects_a_graph_or_weights_of_another_type(self, field, value, message):
        # Each used to pass here and fail later, in validation or scoring.
        a = helpers.later_assessment()
        with pytest.raises(ValueError, match=message):
            replace(a, **{field: value})

    def test_judgements_are_copied(self):
        judgements = {
            "DS": helpers.ALL_FOUR,
            "H1": helpers.ALL_FOUR,
            "H2": helpers.ALL_FOUR,
        }
        a = helpers.example_assessment(judgements=judgements)
        judgements["DS"] = helpers.THIRD_PARTY_MINIMAL
        assert a.judgements["DS"] == helpers.ALL_FOUR

    def test_judgements_are_read_only(self):
        a = helpers.example_assessment()
        with pytest.raises(TypeError):
            a.judgements["DS"] = helpers.THREES  # type: ignore[index]

    def test_verdict_is_invisible_and_copies_check_anew(self):
        a = helpers.example_assessment(
            weights=WeightScheme.explicit({"DS": 0.5, "H1": 0.25, "H2": 0.25})
        )
        before = repr(a)
        assert validate_assessment(a).ok
        assert "_violations" in vars(a)
        assert repr(a) == before
        for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
            assert twin == a
            assert "_violations" not in vars(twin)
            assert validate_assessment(twin).ok
            with pytest.raises(TypeError):
                twin.judgements["DS"] = helpers.THREES  # type: ignore[index]

    def test_replace_checks_anew(self):
        a = helpers.example_assessment()
        assert validate_assessment(a).ok
        partial = replace(
            a, judgements={"DS": helpers.ALL_FOUR, "H1": helpers.ALL_FOUR}
        )
        assert validate_assessment(partial).violations == ("missing judgement for H2",)
        assert validate_assessment(a).ok


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

    def test_explicit_weights_are_a_read_only_copy(self):
        weights = {"a": 0.75, "b": 0.25}
        scheme = WeightScheme(weights)
        weights["a"] = 0.5
        assert scheme.weights == {"a": 0.75, "b": 0.25}
        with pytest.raises(TypeError):
            scheme.weights["a"] = 0.5  # type: ignore[index]
        assert pickle.loads(pickle.dumps(scheme)) == scheme
        assert copy.deepcopy(scheme) == scheme
        assert copy.deepcopy(WeightScheme.equal()).is_equal

    @pytest.mark.parametrize("weight", ["0.5", True, None], ids=repr)
    def test_direct_construction_takes_numbers_only(self, weight):
        # The document's rule: a number, and not a boolean.
        with pytest.raises(ValueError, match="weight for DS must be a number"):
            WeightScheme({"DS": weight, "H1": 0.25, "H2": 0.25})

    def test_direct_construction_takes_string_keys_only(self):
        # The weight check would fail sorting an int key among strings.
        with pytest.raises(ValueError, match="^weight key must be a string, got 1$"):
            WeightScheme({"DS": 0.5, 1: 0.25, "Z": 0.25})

    @pytest.mark.parametrize("sign", [1, -1])
    def test_weights_are_floats_and_a_huge_integer_is_infinite(self, sign):
        scheme = WeightScheme({"DS": sign * 10**400, "H1": 1, "H2": 0.25})
        infinity = sign * float("inf")
        assert dict(scheme.weights) == {"DS": infinity, "H1": 1.0, "H2": 0.25}
        assert all(type(value) is float for value in scheme.weights.values())
        a = helpers.example_assessment(weights=scheme)
        assert validate_assessment(a).violations[0] == "non-finite weight for DS"

    def test_explicit_rejects_keys_that_convert_to_one_id(self):
        # str() used to merge them silently, keeping the last weight.
        with pytest.raises(ValueError, match=r"^repeated id '1' in weights$"):
            WeightScheme.explicit({1: 0.5, "1": 0.5})

    def test_explicit_still_converts_to_float(self):
        scheme = WeightScheme.explicit({"DS": "0.5", "H1": 1, 2: 0.25})
        assert dict(scheme.weights) == {"DS": 0.5, "H1": 1.0, "2": 0.25}
        assert all(type(value) is float for value in scheme.weights.values())

    @pytest.mark.parametrize("sign", [1, -1])
    def test_explicit_reads_a_huge_integer_as_the_constructor_does(self, sign):
        # float() used to raise OverflowError here.
        weights = {"DS": sign * 10**400, "H1": 1, "H2": 0.25}
        scheme = WeightScheme.explicit(weights)
        assert scheme == WeightScheme(weights)
        assert scheme.weights["DS"] == sign * float("inf")

    @pytest.mark.parametrize("sign", [1, -1])
    def test_explicit_reads_an_overflowing_value_as_infinite(self, sign):
        # float() used to raise OverflowError here.
        weights = {"DS": Fraction(sign * 10**400), "H1": 1, "H2": 0.25}
        scheme = WeightScheme.explicit(weights)
        assert dict(scheme.weights) == {"DS": sign * math.inf, "H1": 1.0, "H2": 0.25}
        a = helpers.example_assessment(weights=scheme)
        assert validate_assessment(a).violations[0] == "non-finite weight for DS"

    @pytest.mark.parametrize("weight", [None, [1]], ids=repr)
    def test_explicit_refuses_a_weight_float_cannot_take_by_id(self, weight):
        # float() used to raise TypeError here.
        message = f"^weight for DS must be a number, got {re.escape(repr(weight))}$"
        with pytest.raises(ValueError, match=message):
            WeightScheme.explicit({"DS": weight, "H1": 0.5})

    @pytest.mark.parametrize("build", [WeightScheme, WeightScheme.explicit])
    def test_weights_that_are_not_a_mapping_are_refused(self, build):
        # Both used to raise AttributeError on .items().
        with pytest.raises(ValueError, match="^weights must be a mapping, got 5$"):
            build(5)


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
        assert RUBRIC[(criterion, level)] == expected
