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

A :class:`PipelineGraph` is immutable, so its structure (reverse adjacency,
leaf ids) and its violations are computed once per graph, on first use.
Assessment checks are not cached: ``judgements`` and explicit ``weights``
are plain mutable mappings, so :func:`validate_assessment` re-reads them.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from datetime import date, datetime
from functools import cached_property

SCORE_MIN = 1
SCORE_MAX = 4

WEIGHT_SUM_TOLERANCE = 1e-9


def check_score_level(value: object, name: str = "score") -> int:
    """Validate a 1-4 rubric level, rejecting bools, floats and out-of-range ints."""
    if isinstance(value, bool) or not isinstance(value, int):
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


#: Kinds a zero-in-degree (judged) node may have.
LEAF_KINDS = frozenset({NodeKind.DATA_SOURCE, NodeKind.HUMAN_CONTRIBUTOR})


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


@dataclass(frozen=True)
class ContributionNode:
    """One contribution to the pipeline: a source, a person, or an asset."""

    id: str
    kind: NodeKind
    label: str
    description: str | None = None
    evidence_refs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", NodeKind(self.kind))
        object.__setattr__(self, "evidence_refs", tuple(self.evidence_refs))


@dataclass(frozen=True)
class PipelineGraph:
    """DAG of contribution nodes and directed "contributes to" edges.

    Nodes and edges are normalised to a canonical sorted order at
    construction, so two graphs built from the same node/edge *sets* compare
    equal regardless of insertion order. Construction is permissive;
    structural invariants are checked by :func:`validate_graph`.

    The reverse adjacency, leaf ids and violations are derived once, on
    first use, and kept on the instance outside equality, hashing, repr and
    pickling; :func:`dataclasses.replace` yields a graph that derives anew.
    """

    nodes: tuple[ContributionNode, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "nodes", tuple(sorted(self.nodes, key=lambda n: n.id))
        )
        object.__setattr__(
            self,
            "edges",
            tuple(sorted({(str(src), str(dst)) for src, dst in self.edges})),
        )

    def __getstate__(self) -> dict[str, object]:
        return {"nodes": self.nodes, "edges": self.edges}

    @cached_property
    def _reverse(self) -> dict[str, list[str]]:
        """Upstream ids per node with an incoming edge between known nodes."""
        known = self.node_ids()
        reverse: dict[str, list[str]] = {}
        for src, dst in self.edges:
            if src in known and dst in known:
                reverse.setdefault(dst, []).append(src)
        return reverse

    @cached_property
    def _leaves(self) -> tuple[str, ...]:
        return tuple(sorted(self.node_ids() - self._reverse.keys()))

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        return _graph_violations(self)

    def node_ids(self) -> set[str]:
        return {node.id for node in self.nodes}

    def node_by_id(self, node_id: str) -> ContributionNode | None:
        for node in self.nodes:
            if node.id == node_id:
                return node
        return None

    def in_degree(self) -> dict[str, int]:
        """Incoming-edge count per node, over edges with known endpoints."""
        return {nid: len(self._reverse.get(nid, ())) for nid in self.node_ids()}

    def leaf_ids(self) -> list[str]:
        """Ids of zero-in-degree nodes, sorted. No validity check."""
        return list(self._leaves)


@dataclass(frozen=True)
class WeightScheme:
    """Per-leaf weighting for the overall index: equal, or an explicit map.

    Equal weighting is semantically an explicit ``1/M`` vector over the M
    leaves; :meth:`resolve` produces exactly those floats so both schemes
    share one arithmetic path.
    """

    weights: Mapping[str, float] | None = None

    @classmethod
    def equal(cls) -> WeightScheme:
        return cls(None)

    @classmethod
    def explicit(cls, weights: Mapping[str, float]) -> WeightScheme:
        return cls({str(k): float(v) for k, v in weights.items()})

    @property
    def is_equal(self) -> bool:
        return self.weights is None

    def resolve(self, leaf_ids: Sequence[str]) -> dict[str, float]:
        """Weight per leaf id; raises KeyError if an explicit map lacks one."""
        if self.weights is None:
            share = 1.0 / len(leaf_ids)
            return {leaf_id: share for leaf_id in leaf_ids}
        return {leaf_id: float(self.weights[leaf_id]) for leaf_id in leaf_ids}


@dataclass(frozen=True)
class Assessment:
    """A dated, attributed binding of a graph, its judgements and weights."""

    graph: PipelineGraph
    judgements: Mapping[str, Judgement]
    weights: WeightScheme
    asset_name: str
    asset_version: str
    assessed_at: date
    assessor: str
    display_precision: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "judgements", dict(self.judgements))
        if isinstance(self.assessed_at, datetime) or not isinstance(
            self.assessed_at, date
        ):
            raise ValueError(
                f"assessed_at must be a calendar date, got {self.assessed_at!r}"
            )
        if (
            isinstance(self.display_precision, bool)
            or not isinstance(self.display_precision, int)
            or not 0 <= self.display_precision <= 12
        ):
            raise ValueError(
                "display_precision must be an integer between 0 and 12, "
                f"got {self.display_precision!r}"
            )


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a structural check: ok, or every violation found."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


class InvalidGraphError(ValueError):
    """A graph operation was called on a structurally invalid graph."""

    def __init__(self, violations: Sequence[str]):
        self.violations = tuple(violations)
        super().__init__("invalid pipeline graph: " + "; ".join(self.violations))


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
    computed on the first call for a graph and reused after it.
    """
    return ValidationResult(graph._violations)


def _graph_violations(graph: PipelineGraph) -> tuple[str, ...]:
    violations: list[str] = []

    ids_seen: set[str] = set()
    duplicates: set[str] = set()
    for node in graph.nodes:
        if not node.id:
            violations.append("empty node id")
        elif node.id in ids_seen:
            duplicates.add(node.id)
        else:
            ids_seen.add(node.id)
    violations.extend(f"duplicate node id: {nid}" for nid in sorted(duplicates))

    known = graph.node_ids()
    for src, dst in graph.edges:
        if src not in known:
            violations.append(f"edge {src}->{dst} references unknown node {src}")
        if dst not in known:
            violations.append(f"edge {src}->{dst} references unknown node {dst}")
        if src == dst:
            violations.append(f"self-edge on {src}")

    outputs = sorted(n.id for n in graph.nodes if n.kind is NodeKind.OUTPUT_ASSET)
    if not outputs:
        violations.append("graph has no OutputAsset node")
    elif len(outputs) > 1:
        violations.append("multiple OutputAsset nodes: " + ",".join(outputs))

    reverse = graph._reverse
    for node in graph.nodes:
        if node.id not in reverse:
            if node.kind is NodeKind.DERIVED_ASSET:
                violations.append(f"derived node {node.id} has no incoming edge")
            elif node.kind is NodeKind.OUTPUT_ASSET:
                violations.append(f"output node {node.id} has no incoming edge")

    for component in _cyclic_components(graph):
        violations.append("cycle detected: " + ",".join(component))

    if len(outputs) == 1:
        reachable = _reaching_set(graph, outputs[0])
        violations.extend(
            f"node {node.id} has no path to the output"
            for node in graph.nodes
            if node.id not in reachable
        )

    return tuple(violations)


def leaf_nodes(graph: PipelineGraph) -> list[ContributionNode]:
    """The judged entities: nodes with no incoming edges, sorted by id.

    Raises :class:`InvalidGraphError` if the graph fails validation.
    """
    result = validate_graph(graph)
    if not result.ok:
        raise InvalidGraphError(result.violations)
    leaves = set(graph.leaf_ids())
    return [node for node in graph.nodes if node.id in leaves]


def validate_assessment(assessment: Assessment) -> ValidationResult:
    """Check graph validity, judgement coverage and the weight scheme.

    Judgements must be keyed by exactly the leaf-node ids (derived assets
    inherit their rating from their contributors, so giving them one would
    double count). Explicit weights must cover exactly the leaves and sum
    to 1 within ``WEIGHT_SUM_TOLERANCE``.
    """
    graph = assessment.graph
    violations = list(validate_graph(graph).violations)

    known = graph.node_ids()
    leaf_ids = set(graph.leaf_ids())

    judged = set(assessment.judgements)
    violations.extend(
        f"missing judgement for {nid}" for nid in sorted(leaf_ids - judged)
    )
    for nid in sorted(judged - leaf_ids):
        if nid in known:
            violations.append(f"judgement on non-leaf node {nid}")
        else:
            violations.append(f"judgement for unknown node {nid}")

    scheme = assessment.weights
    if not scheme.is_equal:
        assert scheme.weights is not None
        weighted = set(scheme.weights)
        missing = sorted(leaf_ids - weighted)
        extra = sorted(weighted - leaf_ids)
        violations.extend(f"missing weight for {nid}" for nid in missing)
        for nid in extra:
            if nid in known:
                violations.append(f"weight on non-leaf node {nid}")
            else:
                violations.append(f"weight for unknown node {nid}")
        for nid in sorted(weighted):
            value = scheme.weights[nid]
            if not math.isfinite(value):
                violations.append(f"non-finite weight for {nid}")
            elif value < 0:
                violations.append(f"negative weight for {nid}")
        total = math.fsum(scheme.weights.values())
        if not math.isfinite(total) or abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            violations.append(f"weights sum {total!r}, expected 1 within 1e-9")
        elif missing or extra:
            violations.append(f"weights sum {total!r} but key set incomplete")

    return ValidationResult(tuple(violations))


def _cyclic_components(graph: PipelineGraph) -> list[list[str]]:
    """Strongly connected components with more than one node, sorted.

    Iterative Tarjan over the reverse adjacency, whose components are the
    same; only nodes with an incoming edge can be in one. Single-node
    self-loops are excluded because the self-edge check reports them.
    """
    reverse = graph._reverse
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    components: list[list[str]] = []

    for root in reverse:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_pos = work.pop()
            if child_pos == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = reverse.get(node, ())
            while child_pos < len(children):
                child = children[child_pos]
                child_pos += 1
                if child not in index:
                    work.append((node, child_pos))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    components.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sorted(components)


def _reaching_set(graph: PipelineGraph, target: str) -> set[str]:
    """Ids of nodes with a directed path to ``target`` (including itself)."""
    reverse = graph._reverse
    seen = {target}
    frontier = [target]
    while frontier:
        for upstream in reverse.get(frontier.pop(), ()):
            if upstream not in seen:
                seen.add(upstream)
                frontier.append(upstream)
    return seen


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


def rubric_text(criterion: Criterion | str, level: int) -> str:
    """Canonical description for one criterion at one score level."""
    if isinstance(criterion, str):
        criterion = Criterion(criterion.lower())
    check_score_level(level, "level")
    return RUBRIC[(criterion, level)]
