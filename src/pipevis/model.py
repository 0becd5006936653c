"""Domain model for pipeline transparency assessments.

A produced asset (an ML model or a generated data set) is described by a
DAG of contribution nodes: data sources and human contributors feed derived
assets, which ultimately feed the single output asset. Assessors judge the
documentation available for each *leaf* contribution on three 1-4 criteria
(quantity, accuracy, freshness -- see ``RUBRIC``), and those judgements,
bound to the graph, a weight scheme, a date and an assessor, form an
:class:`Assessment`.

Validation here is collecting, not fail-fast: :func:`validate_graph` and
:func:`validate_assessment` report *every* violation they find, in a
deterministic order, so a document author can fix them in one pass.

A :class:`PipelineGraph` is immutable, so one index -- its id map, reverse
adjacency, leaf ids and violations -- is derived once per graph, on first use,
by one function. An :class:`Assessment` is immutable too (its judgements and
explicit weights are read-only mappings), so its violations are computed once
per assessment.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Container, Mapping, Sequence
from dataclasses import dataclass, fields
from datetime import date, datetime
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import NamedTuple

__all__ = [
    "Assessment",
    "ContributionNode",
    "Criterion",
    "InvalidAssessmentError",
    "Judgement",
    "NodeKind",
    "PipelineGraph",
    "RUBRIC",
    "ValidationResult",
    "WeightScheme",
    "validate_assessment",
    "validate_graph",
]

SCORE_MIN = 1
SCORE_MAX = 4
PRECISION_MAX = 12

WEIGHT_SUM_TOLERANCE = 1e-9


def _is_integer(value: object) -> bool:
    """The one integer rule: not ``True``, not ``3.0``; both scales are discrete."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    """The one weight-number rule: an int or a float, and not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_score_level(value: object, name: str = "score") -> int:
    """Validate a 1-4 rubric level, rejecting bools, floats and out-of-range ints."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not SCORE_MIN <= value <= SCORE_MAX:
        raise ValueError(
            f"{name} must be between {SCORE_MIN} and {SCORE_MAX}, got {value}"
        )
    return value


class Criterion(str, enum.Enum):
    """The three judgement criteria applied to each leaf contribution."""

    QUANTITY = "quantity"
    ACCURACY = "accuracy"
    FRESHNESS = "freshness"


class NodeKind(str, enum.Enum):
    """Role of a node in the production pipeline."""

    DATA_SOURCE = "DataSource"
    HUMAN_CONTRIBUTOR = "HumanContributor"
    DERIVED_ASSET = "DerivedAsset"
    OUTPUT_ASSET = "OutputAsset"


@dataclass(frozen=True)
class Judgement:
    """Scores for one leaf contribution: quantity, accuracy, freshness.

    All three fields are required 1-4 integers; there are no partial
    judgements. Construction rejects anything else.
    """

    quantity: int
    accuracy: int
    freshness: int

    def __post_init__(self) -> None:
        check_score_level(self.quantity, "quantity")
        check_score_level(self.accuracy, "accuracy")
        check_score_level(self.freshness, "freshness")


#: The 4**3 valid judgements, keyed by (quantity, accuracy, freshness). The
#: parser hands out these instances and scoring keeps a table over them.
_JUDGEMENTS: dict[tuple[int, int, int], Judgement] = {
    levels: Judgement(*levels)
    for levels in product(range(SCORE_MIN, SCORE_MAX + 1), repeat=3)
}


@dataclass(frozen=True, slots=True)
class ContributionNode:
    """One contribution to the pipeline: a source, a person, or an asset.

    A graph holds one per node, so the class keeps no ``__dict__``, and
    ``kind`` and ``evidence_refs`` are coerced only when they are not already
    a ``NodeKind`` and a ``tuple``.
    """

    id: str
    kind: NodeKind
    label: str
    description: str | None = None
    evidence_refs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.id, str):
            raise ValueError(f"node id must be a string, got {self.id!r}")
        if type(self.kind) is not NodeKind:
            object.__setattr__(self, "kind", NodeKind(self.kind))
        if type(self.evidence_refs) is not tuple:
            object.__setattr__(self, "evidence_refs", tuple(self.evidence_refs))


def _node_id(node: object) -> str:
    if not isinstance(node, ContributionNode):
        raise ValueError(f"node must be a ContributionNode, got {node!r}")
    return node.id


@dataclass(frozen=True)
class PipelineGraph:
    """DAG of contribution nodes and directed "contributes to" edges.

    Nodes and edges are normalised to a canonical sorted order at
    construction, so two graphs built from the same node/edge *sets* compare
    equal regardless of insertion order. Each node must be a
    :class:`ContributionNode`, as the sort key checks; every other
    structural invariant is checked by :func:`validate_graph`.

    Its index (:class:`_GraphIndex`) is derived once, on first use, and kept
    on the instance outside equality, hashing, repr and pickling;
    :func:`dataclasses.replace` yields a graph that derives anew.
    """

    nodes: tuple[ContributionNode, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes, key=_node_id)))
        pairs = sorted((str(src), str(dst)) for src, dst in self.edges)
        object.__setattr__(self, "edges", tuple(dict.fromkeys(pairs)))

    def __getstate__(self) -> dict[str, object]:
        return {"nodes": self.nodes, "edges": self.edges}

    @cached_property
    def _index(self) -> _GraphIndex:
        return _index_graph(self)

    def node_by_id(self, node_id: str) -> ContributionNode | None:
        return self._index.by_id.get(node_id)

    def leaf_ids(self) -> list[str]:
        """Ids of zero-in-degree nodes, sorted. No validity check."""
        return list(self._index.leaves)


def _init_args(instance: object) -> tuple[object, ...]:
    """Field values to rebuild ``instance`` through ``__init__``.

    Read-only mappings are passed as dicts: a ``MappingProxyType`` can be
    neither pickled nor deep-copied.
    """
    values = (getattr(instance, field.name) for field in fields(instance))
    return tuple(
        dict(value) if isinstance(value, MappingProxyType) else value
        for value in values
    )


@dataclass(frozen=True)
class WeightScheme:
    """Per-leaf weighting for the overall index: equal, or an explicit map.

    Equal weighting is semantically an explicit ``1/M`` vector over the M
    leaves; :meth:`resolve` produces exactly those floats so both schemes
    share one arithmetic path. Explicit weights are kept as floats in a
    read-only mapping over a private copy; an integer past the float range
    reads as ``±inf``, as ``1e400`` does.
    """

    weights: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.weights is not None:
            weights: dict[str, float] = {}
            for node_id, weight in self.weights.items():
                if not isinstance(node_id, str):
                    raise ValueError(f"weight key must be a string, got {node_id!r}")
                if not _is_number(weight):
                    raise ValueError(
                        f"weight for {node_id} must be a number, got {weight!r}"
                    )
                try:
                    weights[node_id] = float(weight)
                except OverflowError:
                    weights[node_id] = math.inf if weight > 0 else -math.inf
            object.__setattr__(self, "weights", MappingProxyType(weights))

    def __reduce__(self) -> tuple[object, ...]:
        return type(self), _init_args(self)

    @classmethod
    def equal(cls) -> WeightScheme:
        return cls(None)

    @classmethod
    def explicit(cls, weights: Mapping[str, float]) -> WeightScheme:
        converted: dict[str, float] = {}
        for key, value in weights.items():
            if (node_id := str(key)) in converted:
                raise ValueError(f"repeated id {node_id!r} in weights")
            converted[node_id] = float(value)
        return cls(converted)

    @property
    def is_equal(self) -> bool:
        return self.weights is None

    def resolve(self, leaf_ids: Sequence[str]) -> dict[str, float]:
        """Weight per leaf id; raises KeyError if an explicit map lacks one."""
        if self.weights is None:
            share = 1.0 / len(leaf_ids)
            return {leaf_id: share for leaf_id in leaf_ids}
        return {leaf_id: self.weights[leaf_id] for leaf_id in leaf_ids}


@dataclass(frozen=True)
class Assessment:
    """A dated, attributed binding of a graph, its judgements and weights.

    Judgements are kept in a read-only mapping over a private copy. The
    violations are derived once, on first use, and kept on the instance
    outside equality, repr and pickling; :func:`dataclasses.replace` yields
    an assessment that is checked anew.
    """

    graph: PipelineGraph
    judgements: Mapping[str, Judgement]
    weights: WeightScheme
    asset_name: str
    asset_version: str
    assessed_at: date
    assessor: str
    display_precision: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.graph, PipelineGraph):
            raise ValueError(f"graph must be a PipelineGraph, got {self.graph!r}")
        if not isinstance(self.weights, WeightScheme):
            raise ValueError(f"weights must be a WeightScheme, got {self.weights!r}")
        judgements = dict(self.judgements)
        for node_id, judgement in judgements.items():
            if not isinstance(node_id, str):
                raise ValueError(f"judgement key must be a string, got {node_id!r}")
            if not isinstance(judgement, Judgement):
                raise ValueError(
                    f"judgement for {node_id} must be a Judgement, got {judgement!r}"
                )
        object.__setattr__(self, "judgements", MappingProxyType(judgements))
        # The document's rules: other values would serialize to a rejected document.
        name = self.asset_name
        if not isinstance(name, str) or not name:
            raise ValueError(f"asset_name must be a non-empty string, got {name!r}")
        for field in ("asset_version", "assessor"):
            if not isinstance(value := getattr(self, field), str):
                raise ValueError(f"{field} must be a string, got {value!r}")
        if isinstance(self.assessed_at, datetime) or not isinstance(
            self.assessed_at, date
        ):
            raise ValueError(
                f"assessed_at must be a calendar date, got {self.assessed_at!r}"
            )
        precision = self.display_precision
        if not _is_integer(precision) or not 0 <= precision <= PRECISION_MAX:
            raise ValueError(
                f"display_precision must be an integer between 0 and {PRECISION_MAX}, "
                f"got {precision!r}"
            )

    def __reduce__(self) -> tuple[object, ...]:
        return type(self), _init_args(self)

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        return validate_graph(self.graph).violations + _assessment_violations(self)


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a structural check: ok, or every violation found."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


class InvalidAssessmentError(ValueError):
    """An operation requiring a valid assessment received an invalid one."""

    def __init__(self, violations: Sequence[str], subject: str | None = None):
        self.violations = tuple(violations)
        self.subject = subject
        prefix = f"invalid assessment {subject}" if subject else "invalid assessment"
        super().__init__(f"{prefix}: " + "; ".join(self.violations))


def validate_graph(graph: PipelineGraph) -> ValidationResult:
    """Check every PipelineGraph invariant, reporting all violations.

    Violations are data, not failures: the result lists each problem with
    the node/edge identifiers involved, in a deterministic order. They are
    computed with the graph's index, on its first use, and reused after it.
    """
    return ValidationResult(graph._index.violations)


class _GraphIndex(NamedTuple):
    """What a graph's readers and its check need, derived together."""

    #: The first node with each id, in id order; later duplicates are violations.
    by_id: dict[str, ContributionNode]
    #: Upstream ids per node with an incoming edge between known nodes.
    reverse: dict[str, list[str]]
    #: Ids without an incoming edge between known nodes, sorted.
    leaves: tuple[str, ...]
    violations: tuple[str, ...]


def _index_graph(graph: PipelineGraph) -> _GraphIndex:
    """Index ``graph`` and check every invariant.

    Two walks over the nodes, one over the edges and a third walk, over
    ``by_id``, for the leaves. The nodes are in id order, so ``by_id`` and
    the leaves are too.
    """
    violations: list[str] = []

    by_id: dict[str, ContributionNode] = {}
    duplicates: set[str] = set()
    outputs: list[str] = []
    for node in graph.nodes:
        nid = node.id
        if not nid:
            violations.append("empty node id")
        if nid not in by_id:
            by_id[nid] = node
        elif nid:
            duplicates.add(nid)
        if node.kind is NodeKind.OUTPUT_ASSET:
            outputs.append(nid)
    violations.extend(f"duplicate node id: {nid}" for nid in sorted(duplicates))

    reverse: dict[str, list[str]] = {}
    for src, dst in graph.edges:
        if src in by_id and dst in by_id:
            reverse.setdefault(dst, []).append(src)
        else:
            if src not in by_id:
                violations.append(f"edge {src}->{dst} references unknown node {src}")
            if dst not in by_id:
                violations.append(f"edge {src}->{dst} references unknown node {dst}")
        if src == dst:
            violations.append(f"self-edge on {src}")

    if not outputs:
        violations.append("graph has no OutputAsset node")
    elif len(outputs) > 1:
        violations.append("multiple OutputAsset nodes: " + ",".join(outputs))

    # The path rule needs a single output; without one, every node counts as
    # reached.
    reached: Container[str] = by_id
    if len(outputs) == 1:
        reached = set()
        _flood(reverse, outputs[0], reached)
    unreached: list[str] = []
    for node in graph.nodes:
        if node.id not in reverse:
            if node.kind is NodeKind.DERIVED_ASSET:
                violations.append(f"derived node {node.id} has no incoming edge")
            elif node.kind is NodeKind.OUTPUT_ASSET:
                violations.append(f"output node {node.id} has no incoming edge")
        if node.id not in reached:
            unreached.append(f"node {node.id} has no path to the output")

    for component in _cyclic_components(reverse):
        violations.append("cycle detected: " + ",".join(component))
    violations.extend(unreached)

    leaves = tuple(nid for nid in by_id if nid not in reverse)
    return _GraphIndex(by_id, reverse, leaves, tuple(violations))


def validate_assessment(assessment: Assessment) -> ValidationResult:
    """Check graph validity, judgement coverage and the weight scheme.

    Judgements must be keyed by exactly the leaf-node ids (derived assets
    inherit their rating from their contributors, so giving them one would
    double count). Explicit weights must cover exactly the leaves and sum
    to 1 within ``WEIGHT_SUM_TOLERANCE``. Violations are computed on the
    first call for an assessment and reused after it.
    """
    return ValidationResult(assessment._violations)


def _assessment_violations(assessment: Assessment) -> tuple[str, ...]:
    """Judgement coverage and weight checks, reported after the graph's."""
    index = assessment.graph._index
    leaves = set(index.leaves)
    violations = _coverage("judgement", set(assessment.judgements), leaves, index.by_id)

    weights = assessment.weights.weights
    if weights is not None:
        uncovered = _coverage("weight", set(weights), leaves, index.by_id)
        violations.extend(uncovered)
        for nid in sorted(weights):
            value = weights[nid]
            if not math.isfinite(value):
                violations.append(f"non-finite weight for {nid}")
            elif value < 0:
                violations.append(f"negative weight for {nid}")
        try:
            total = math.fsum(weights.values())
        except (OverflowError, ValueError):  # a finite overflow, or inf + -inf
            total = sum(weights.values())
        if not math.isfinite(total) or abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            violations.append(f"weights sum {total!r}, expected 1 within 1e-9")
        elif uncovered:
            violations.append(f"weights sum {total!r} but key set incomplete")

    return tuple(violations)


def _coverage(
    what: str, keys: set[str], leaves: set[str], known: Mapping[str, object]
) -> list[str]:
    """Where ``keys`` miss a leaf or name a non-leaf or an unknown node."""
    lines = [f"missing {what} for {nid}" for nid in sorted(leaves - keys)]
    for nid in sorted(keys - leaves):
        if nid in known:
            lines.append(f"{what} on non-leaf node {nid}")
        else:
            lines.append(f"{what} for unknown node {nid}")
    return lines


def _cyclic_components(reverse: Mapping[str, list[str]]) -> list[list[str]]:
    """Strongly connected components with more than one node, sorted.

    Kosaraju over the reverse adjacency, whose components are the same. Only
    nodes with an incoming edge can be in one, so an iterative depth-first
    walk upstream lists those nodes in finish order and never enters a node
    without one (a leaf, in a valid graph). Then :func:`_flood` downstream
    among them, started from each node not yet flooded, latest-finished
    first, adds exactly one component per start. Single-node self-loops are
    excluded because the self-edge check reports them.
    """
    finished: list[str] = []
    entered: set[str] = set()
    for root in reverse:
        if root in entered:
            continue
        entered.add(root)
        walk = [(root, iter(reverse[root]))]
        while walk:
            node, upstream = walk[-1]
            for source in upstream:
                if source in reverse and source not in entered:
                    entered.add(source)
                    walk.append((source, iter(reverse[source])))
                    break
            else:
                walk.pop()
                finished.append(node)

    forward: dict[str, list[str]] = {}
    for node, upstream in reverse.items():
        for source in upstream:
            if source in reverse:
                forward.setdefault(source, []).append(node)

    flooded: set[str] = set()
    components: list[list[str]] = []
    for root in reversed(finished):
        if root not in flooded:
            component = _flood(forward, root, flooded)
            if len(component) > 1:
                components.append(sorted(component))
    return sorted(components)


def _flood(edges: Mapping[str, list[str]], start: str, seen: set[str]) -> list[str]:
    """Add to ``seen`` ``start`` and each node ``edges`` leads to from it
    without passing a node already in ``seen``; return the nodes added.

    The graph's one flood. Over the reverse map from a node it fills ``seen``
    with the node's ancestors and itself, for the path-to-output rule and
    derived-asset scoring; over a forward map it collects one component for
    :func:`_cyclic_components`.
    """
    seen.add(start)
    added = [start]
    frontier = [start]
    while frontier:
        for node in edges.get(frontier.pop(), ()):
            if node not in seen:
                seen.add(node)
                added.append(node)
                frontier.append(node)
    return added


#: Canonical 1-4 scale descriptions for judging documentation on each
#: contribution, keyed by (criterion, level).
RUBRIC: dict[tuple[Criterion, int], str] = {
    (Criterion.QUANTITY, 1): "Sparse or insufficient information",
    (Criterion.QUANTITY, 2): "Some information missing",
    (Criterion.QUANTITY, 3): "Sufficient to gain confidence",
    (Criterion.QUANTITY, 4): "Sufficient to validate",
    (Criterion.FRESHNESS, 1): "Never updated",
    (Criterion.FRESHNESS, 2): "Out-of-date",
    (Criterion.FRESHNESS, 3): "Updated when changed",
    (Criterion.FRESHNESS, 4): "Real-time validation",
    (Criterion.ACCURACY, 1): "Demonstrably inaccurate",
    (Criterion.ACCURACY, 2): "Believed to be inaccurate",
    (Criterion.ACCURACY, 3): "Believed to be accurate",
    (Criterion.ACCURACY, 4): "Evidenced and verifiable",
}
