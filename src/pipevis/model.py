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

A :class:`PipelineGraph` keeps its node fields as columns; a parsed one builds
its nodes only when ``nodes`` is first read. A graph is immutable, so one index
-- its id map, reverse adjacency, leaf ids, violations and the order in which
its one depth-first walk closes nodes -- is derived once per graph, on first
use, by one function. That walk, Tarjan's search from the output, also finds
the cycles and the nodes with a path to the output. The leaf ancestors of its
nodes are derived from that order on the first derived-asset score, each as
the leaves' ranks in id order: a sorted tuple when small, an ``int`` bitset
when dense. An :class:`Assessment` is immutable too (its judgements and
explicit weights are read-only mappings), so its violations and its leaf
columns are computed once per assessment, and each :class:`Judgement` derives
its indices once.

A :class:`ContributionNode`, a :class:`Judgement` and a :class:`WeightScheme`
each check their own fields' types in their constructor, so a value built by
hand, by :func:`dataclasses.replace`, by copying or by the parser meets them.
The library's argument rules (:func:`_require`, :func:`_items`) live here too.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from collections import defaultdict, deque
from collections.abc import Callable, Mapping, Sequence
from contextlib import suppress
from dataclasses import dataclass, fields
from datetime import date, datetime
from functools import cached_property
from itertools import chain, compress, filterfalse, product, repeat
from operator import attrgetter, getitem, itemgetter
from types import MappingProxyType
from typing import Any, NamedTuple

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
#: What a judgement level must be, in every refusal of one.
_LEVEL = f"between {SCORE_MIN} and {SCORE_MAX}"
PRECISION_MAX = 12
#: What a display precision must be, in every refusal of one.
_PRECISION = f"an integer between 0 and {PRECISION_MAX}"

WEIGHT_SUM_TOLERANCE = 1e-9
#: Values that a sequence argument would split into characters or ints.
_UNSPLIT = (str, bytes, bytearray, memoryview)


def _is_integer(value: object) -> bool:
    """The one integer rule: not ``True``, not ``3.0``; both scales are discrete."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_level(value: object) -> bool:
    """The one level rule: an integer from ``SCORE_MIN`` to ``SCORE_MAX``."""
    return _is_integer(value) and SCORE_MIN <= value <= SCORE_MAX


def _is_precision(value: object) -> bool:
    """The one display-precision rule: an integer from 0 to ``PRECISION_MAX``."""
    return _is_integer(value) and 0 <= value <= PRECISION_MAX


def _is_number(value: object) -> bool:
    """The one weight-number rule: an int or a float, and not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_nonempty_str(value: object) -> bool:
    return isinstance(value, str) and bool(value)


def _is_calendar_date(value: object) -> bool:
    return isinstance(value, date) and not isinstance(value, datetime)


def _passes(value: object, kind: type | Callable[[Any], bool]) -> bool:
    """Whether ``value`` is a ``kind``, or passes it when it is a test."""
    return isinstance(value, kind) if isinstance(kind, type) else kind(value)


def _require(name: str, value: object, kind: type | Callable[[Any], bool], what: str,
             error: Callable[[str], Exception] = ValueError) -> None:
    """Refuse ``value`` unless it passes ``kind``: the one wording of a refused
    argument, raised through ``error``, an exception class or factory."""
    if not _passes(value, kind):
        raise error(f"{name} must be {what}, got {value!r}")


def _items(name: str, items: object, kind: type | Callable[[Any], bool], what: str,
           error: Callable[[str], Exception]) -> list[Any]:
    """``items`` as one list; refuse a non-iterable, or an item that does not
    pass ``kind``, by position, as :func:`_require` does."""
    try:
        iterator = iter(items)
    except TypeError:
        raise error(f"{name} must be iterable, got {type(items).__name__}") from None
    listed = list(iterator)
    for position, item in enumerate(listed):
        if not _passes(item, kind):
            raise error(f"item {position} is not {what}: {item!r}")
    return listed


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


#: Each kind by its value, and what a node kind must be, in every refusal of one.
_KINDS = {kind.value: kind for kind in NodeKind}
_KIND = "one of " + ", ".join(sorted(_KINDS))


def _is_kind(value: object) -> bool:
    """The one node-kind rule: a ``str`` that is a kind's value."""
    return isinstance(value, str) and value in _KINDS


@dataclass(frozen=True)
class Judgement:
    """Scores for one leaf contribution: quantity, accuracy, freshness.

    All three fields are required 1-4 integers; there are no partial
    judgements. Construction rejects anything else. ``_indices``, the three
    indices, is derived on first read, so a copied or unpickled one has it too.
    """

    quantity: int
    accuracy: int
    freshness: int

    def __post_init__(self) -> None:
        for name in ("quantity", "accuracy", "freshness"):
            value = getattr(self, name)
            _require(name, value, _is_integer, "an integer")
            if not _is_level(value):
                raise ValueError(f"{name} must be {_LEVEL}, got {value}")

    @cached_property
    def _indices(self) -> tuple[float, float, float]:
        quality = math.sqrt(self.accuracy * self.freshness)
        return float(self.quantity), quality, math.sqrt(self.quantity * quality)


#: The 4**3 valid judgements, keyed by (quantity, accuracy, freshness). The
#: parser hands out these instances, so each derives its indices once.
_JUDGEMENTS: dict[tuple[int, int, int], Judgement] = {
    levels: Judgement(*levels)
    for levels in product(range(SCORE_MIN, SCORE_MAX + 1), repeat=3)
}


def _init_args(instance: object) -> tuple[type, tuple[object, ...]]:
    """``instance``'s class and field values, which rebuild it through
    ``__init__``: the ``__reduce__`` of each class that copies and unpickles
    through its constructor.

    Read-only mappings are passed as dicts: a ``MappingProxyType`` can be
    neither pickled nor deep-copied.
    """
    values = (getattr(instance, field.name) for field in fields(instance))
    return type(instance), tuple(
        dict(value) if isinstance(value, MappingProxyType) else value
        for value in values
    )


@dataclass(frozen=True, slots=True)
class ContributionNode:
    """One contribution to the pipeline: a source, a person, or an asset.

    A graph holds one per node, so the class keeps no ``__dict__``. The
    parser, :func:`dataclasses.replace`, copying and unpickling all build a
    node through its constructor. It raises ``ValueError``, naming the field,
    unless ``id``, ``label`` and each evidence ref are ``str``, ``kind`` is a
    ``NodeKind`` or its value and ``description`` is ``None`` or a ``str``, or
    if ``evidence_refs`` is a set or a mapping, whose order is not the
    caller's. It looks ``kind`` up and makes ``evidence_refs`` a tuple only
    when they are not already so.
    """

    id: str
    kind: NodeKind
    label: str
    description: str | None = None
    evidence_refs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _require("node id", self.id, str, "a string")
        if type(self.kind) is not NodeKind:
            _require("node kind", self.kind, _is_kind, _KIND)
            object.__setattr__(self, "kind", _KINDS[self.kind])
        _require("node label", self.label, str, "a string")
        if self.description is not None:
            _require("node description", self.description, str, "a string")
        refs = self.evidence_refs
        if type(refs) is not tuple:
            if isinstance(refs, _UNSPLIT):
                raise ValueError(f"node evidence_refs must be strings, got one: "
                                 f"{refs!r}")
            if isinstance(refs, (set, frozenset, Mapping)):  # no fixed order
                raise ValueError(f"node evidence_refs must be in order, got a "
                                 f"{type(refs).__name__}")
            try:
                refs = tuple(refs)
            except TypeError:  # not iterable: refused below, as one ref
                refs = (refs,)
            object.__setattr__(self, "evidence_refs", refs)
        for ref in refs:
            _require("node evidence ref", ref, str, "a string")

    __reduce__ = _init_args


#: The getters of a node's fields, in field order: a graph's columns.
_FIELDS = tuple(map(attrgetter, ContributionNode.__match_args__))


@dataclass(frozen=True)
class PipelineGraph:
    """DAG of contribution nodes and directed "contributes to" edges.

    Nodes and edges are normalised to a canonical sorted order at
    construction, so two graphs built from the same node/edge *sets* compare
    equal regardless of insertion order. Each node must be a
    :class:`ContributionNode`, checked in one C-level pass, and each edge a
    pair, whose ends are converted with ``str()``; a string, bytes and a
    mapping are not pairs, and other shapes raise ``ValueError``. Nodes are
    sorted on their id and edges on each end in turn, with C-level keys and
    stable sorts: the order of comparing the pairs. Every other structural
    invariant is checked by :func:`validate_graph`.

    Its node fields are kept as columns in id order (``_columns``: ids, kinds,
    labels, descriptions, evidence refs), taken from the given nodes, which are
    kept; a parsed graph (:func:`_graph_of`) builds ``nodes`` on first read.
    The columns give its index (:class:`_GraphIndex`) and the leaf ancestors
    (:func:`_leaf_sets_of`: per node, the ranks of its leaves in the index's
    leaf order, as a sorted tuple or a bitset), each derived once, on first
    use, and kept outside equality, hashing and repr. Those read ``nodes``,
    and so do copying, unpickling and :func:`dataclasses.replace`, which
    yield a graph that derives anew.
    """

    nodes: tuple[ContributionNode, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        try:
            nodes = list(self.nodes)
        except TypeError as error:
            raise ValueError(
                f"nodes must be an iterable of ContributionNode: {error}"
            ) from None
        if not all(map(isinstance, nodes, repeat(ContributionNode))):
            for node in nodes:
                _require("node", node, ContributionNode, "a ContributionNode")
        nodes.sort(key=attrgetter("id"))
        object.__setattr__(self, "nodes", tuple(nodes))
        columns = tuple(list(map(get, nodes)) for get in _FIELDS)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "edges", _pairs(self.edges))

    def __getattr__(self, name: str) -> object:
        # Runs only for a name the instance lacks: the nodes of a parsed graph.
        if name != "nodes":
            return object.__getattribute__(self, name)  # raises AttributeError
        nodes = tuple(map(ContributionNode, *self._columns))
        # A thread that built them first wins, so every read sees one tuple.
        return vars(self).setdefault("nodes", nodes)

    __reduce__ = _init_args

    @cached_property
    def _index(self) -> _GraphIndex:
        return _index_graph(self)

    @cached_property
    def _leaf_sets(self) -> dict[str, tuple[int, ...] | int]:
        return _leaf_sets_of(self._index)

    def node_by_id(self, node_id: str) -> ContributionNode | None:
        """The node with this id; ``None`` for an unknown id or a non-string."""
        if self._kind_of(node_id) is None:
            return None
        return self.nodes[bisect_left(self._columns[0], node_id)]  # the first, by id

    def _kind_of(self, node_id: object) -> NodeKind | None:
        """The kind of the node with this id, or ``None``; no node is built."""
        return self._index.by_id.get(node_id) if isinstance(node_id, str) else None

    def leaf_ids(self) -> list[str]:
        """Ids of zero-in-degree nodes, sorted. No validity check."""
        return list(self._index.leaves)


def _pairs(edges: object) -> tuple[tuple[str, str], ...]:
    """``edges`` as sorted ``(str, str)`` pairs without repeats, or a ValueError."""
    try:
        edges = list(edges)  # a string, bytes or a mapping would unpack
        unpaired = (*_UNSPLIT, Mapping)
        if any(issubclass(kind, unpaired) for kind in set(map(type, edges))):
            item = next(edge for edge in edges if isinstance(edge, unpaired))
            what = "a string" if isinstance(item, str) else type(item).__name__
            raise ValueError(f"{what} is not a pair: {item!r}")
        edges = [(str(src), str(dst)) for src, dst in edges]
    except (TypeError, ValueError) as error:
        raise ValueError(f"edges must be an iterable of pairs: {error}") from None
    edges.sort(key=itemgetter(1))
    edges.sort(key=itemgetter(0))
    return tuple(dict.fromkeys(edges))


def _graph_of(columns: tuple[list[Any], ...], edges: object) -> PipelineGraph:
    """A graph of node columns in id order that hold what the node
    constructor keeps as given; its nodes are built on first read."""
    graph = object.__new__(PipelineGraph)
    vars(graph).update(_columns=columns, edges=_pairs(edges))
    return graph


@dataclass(frozen=True)
class WeightScheme:
    """Per-leaf weighting for the overall index: equal, or an explicit map.

    Equal weighting is semantically an explicit ``1/M`` vector over the M leaves:
    one rule (``_column``) gives either scheme's weights in leaf order, which
    scoring reads and :meth:`resolve` keys by id. Explicit weights are kept as
    floats in a read-only mapping over a private copy; a value past the float range,
    such as a huge integer, reads as ``±inf``, as ``1e400`` does. :meth:`explicit`
    converts each key with ``str()``, and each weight other than an ``int`` or
    ``float`` with ``float()``. Weights that are not a mapping raise ``ValueError``.
    """

    weights: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.weights is not None:
            _require("weights", self.weights, Mapping, "a mapping")
            weights: dict[str, float] = {}
            for node_id, weight in self.weights.items():
                if not isinstance(node_id, str):
                    raise ValueError(f"weight key must be a string, got {node_id!r}")
                if not _is_number(weight):
                    raise ValueError(
                        f"weight for {node_id} must be a number, got {weight!r}"
                    )
                weights[node_id] = _as_float(weight)
            object.__setattr__(self, "weights", MappingProxyType(weights))

    __reduce__ = _init_args

    @classmethod
    def equal(cls) -> WeightScheme:
        return cls(None)

    @classmethod
    def explicit(cls, weights: Mapping[str, float]) -> WeightScheme:
        _require("weights", weights, Mapping, "a mapping")
        converted: dict[str, float] = {}
        for key, value in weights.items():
            if (node_id := str(key)) in converted:
                raise ValueError(f"repeated id {node_id!r} in weights")
            if not _is_number(value):
                with suppress(TypeError):  # kept for the constructor to refuse
                    value = _as_float(value)
            converted[node_id] = value
        return cls(converted)

    @property
    def is_equal(self) -> bool:
        return self.weights is None

    def resolve(self, leaf_ids: Sequence[str]) -> dict[str, float]:
        """Weight per leaf id, in order: ``1/M`` each of M leaves, or each
        explicit weight. No leaves resolve to ``{}`` under either scheme.
        Raises ``KeyError`` if an explicit map lacks one of the leaves."""
        return dict(zip(leaf_ids, self._column(leaf_ids)))

    def _column(self, leaf_ids: Sequence[str]) -> Sequence[float]:
        """The weights of ``leaf_ids``, in order, as :meth:`resolve` keys them."""
        if self.weights is None:
            return (1.0 / len(leaf_ids),) * len(leaf_ids) if leaf_ids else ()
        return list(map(getitem, repeat(self.weights), leaf_ids))


def _as_float(value: object) -> float:
    """``float(value)``, reading a value past the float range as ``±inf``."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class Assessment:
    """A dated, attributed binding of a graph, its judgements and weights.

    Judgements are kept in a read-only mapping over a private copy;
    judgements that are not a mapping raise ``ValueError``. The
    violations, and once they are none the leaf columns, are derived once, on
    first use, and kept on the instance outside equality, repr and pickling;
    :func:`dataclasses.replace` yields an assessment that is checked anew.
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
        _require("graph", self.graph, PipelineGraph, "a PipelineGraph")
        _require("weights", self.weights, WeightScheme, "a WeightScheme")
        _require("judgements", self.judgements, Mapping, "a mapping")
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
        _require("asset_name", self.asset_name, _is_nonempty_str, "a non-empty string")
        for field in ("asset_version", "assessor"):
            _require(field, getattr(self, field), str, "a string")
        _require("assessed_at", self.assessed_at, _is_calendar_date, "a calendar date")
        _require("display_precision", self.display_precision, _is_precision, _PRECISION)

    __reduce__ = _init_args

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        return validate_graph(self.graph).violations + _assessment_violations(self)

    @cached_property
    def _leaf_columns(
        self,
    ) -> tuple[tuple[str, ...], list[tuple[float, float, float]], Sequence[float]]:
        """The leaf ids in id order, their judgements' indices and their
        weights: what scoring gathers from, read once the assessment is valid."""
        leaves = self.graph._index.leaves
        judged = map(getitem, repeat(self.judgements), leaves)
        indices = list(map(attrgetter("_indices"), judged))
        return leaves, indices, self.weights._column(leaves)

    @cached_property
    def _visibilities(self) -> list[float]:
        """The leaves' visibility indices in id order, for derived scores."""
        return list(map(itemgetter(2), self._leaf_columns[1]))


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
    Anything but a graph fails, with one violation that names it.
    """
    if not isinstance(graph, PipelineGraph):
        return ValidationResult((f"not a PipelineGraph: {graph!r}",))
    return ValidationResult(graph._index.violations)


class _GraphIndex(NamedTuple):
    """What a graph's readers and its check need, derived together."""

    #: The kind of the first node with each id, in id order; repeats are violations.
    by_id: dict[str, NodeKind]
    #: Upstream ids per node with an incoming edge between known nodes.
    reverse: dict[str, list[str]]
    #: Ids without an incoming edge between known nodes, sorted.
    leaves: tuple[str, ...]
    #: The ids in ``reverse``, in the order the depth-first walk closed them.
    order: list[str]
    violations: tuple[str, ...]


def _index_graph(graph: PipelineGraph) -> _GraphIndex:
    """Index ``graph`` and check every invariant.

    It reads the id and kind columns in C-level passes: they are in id order,
    so ``by_id`` and the leaves are too, and a repeated id is a run. Then one
    walk over the edges and one depth-first walk, which starts at the single
    output. The nodes it entered from there, and their sources, leaves among
    them, are the reach. The incoming-edge rule is checked over the derived
    and output nodes, and the ids are walked again for the path rule only
    when the reach missed one.
    """
    derived, output = NodeKind.DERIVED_ASSET, NodeKind.OUTPUT_ASSET
    ids, kinds = graph._columns[:2]
    violations = ["empty node id"] * ids.count("")
    by_id = dict(zip(ids, kinds))
    if len(by_id) < len(ids):  # each repeated id keeps its first node's kind
        by_id.update(zip(reversed(ids), reversed(kinds)))
        repeats = dict.fromkeys(nid for nid, after in zip(ids, ids[1:]) if nid == after)
        violations.extend(f"duplicate node id: {nid}" for nid in repeats if nid)
    scoped = list(compress(zip(ids, kinds), map({derived, output}.__contains__, kinds)))
    outputs = [nid for nid, kind in scoped if kind is output]

    upstream: defaultdict[str, list[str]] = defaultdict(list)
    for src, dst in graph.edges:
        if src in by_id and dst in by_id:
            upstream[dst].append(src)
        else:
            if src not in by_id:
                violations.append(f"edge {src}->{dst} references unknown node {src}")
            if dst not in by_id:
                violations.append(f"edge {src}->{dst} references unknown node {dst}")
        if src == dst:
            violations.append(f"self-edge on {src}")
    reverse = dict(upstream)

    if not outputs:
        violations.append("graph has no OutputAsset node")
    elif len(outputs) > 1:
        violations.append("multiple OutputAsset nodes: " + ",".join(outputs))

    for nid, kind in scoped:
        if nid not in reverse:
            role = "output" if kind is output else "derived"
            violations.append(f"{role} node {nid} has no incoming edge")

    # The path rule needs a single output; without one, every node counts as
    # reached. The reach holds only known ids, so its size tells whether it
    # missed one.
    single = outputs[0] if len(outputs) == 1 else None
    cycles, order, entered = _depth_first(reverse, single)
    violations.extend("cycle detected: " + ",".join(cycle) for cycle in cycles)
    if single is not None:
        reached = {single, *chain.from_iterable(map(reverse.__getitem__, entered))}
        if len(reached) < len(by_id):
            missed = filterfalse(reached.__contains__, ids)
            violations.extend(f"node {nid} has no path to the output" for nid in missed)

    leaves = tuple(filterfalse(reverse.__contains__, by_id))
    return _GraphIndex(by_id, reverse, leaves, order, tuple(violations))


def validate_assessment(assessment: Assessment) -> ValidationResult:
    """Check graph validity, judgement coverage and the weight scheme.

    Judgements must be keyed by exactly the leaf-node ids (derived assets
    inherit their rating from their contributors, so giving them one would
    double count). Explicit weights must cover exactly the leaves and sum
    to 1 within ``WEIGHT_SUM_TOLERANCE``. Violations are computed on the
    first call for an assessment and reused after it. Anything but an
    assessment fails, with one violation that names it.
    """
    if not isinstance(assessment, Assessment):
        return ValidationResult((f"not an Assessment: {assessment!r}",))
    return ValidationResult(assessment._violations)


def _assessment_violations(assessment: Assessment) -> tuple[str, ...]:
    """Judgement coverage and weight checks, reported after the graph's."""
    index = assessment.graph._index
    violations = _coverage("judgement", assessment.judgements, index)

    weights = assessment.weights.weights
    if weights is not None:
        uncovered = _coverage("weight", weights, index)
        violations.extend(uncovered)
        values = weights.values()
        if not all(map(math.isfinite, values)) or min(values, default=0.0) < 0:
            for nid in sorted(weights):
                value = weights[nid]
                if not math.isfinite(value):
                    violations.append(f"non-finite weight for {nid}")
                elif value < 0:
                    violations.append(f"negative weight for {nid}")
        try:
            total = math.fsum(values)
        except (OverflowError, ValueError):  # a finite overflow, or inf + -inf
            total = sum(values)
        if not math.isfinite(total) or abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            violations.append(f"weights sum {total!r}, expected 1 within 1e-9")
        elif uncovered:
            violations.append(f"weights sum {total!r} but key set incomplete")

    return tuple(violations)


def _coverage(what: str, keys: Mapping[str, object], index: _GraphIndex) -> list[str]:
    """Where ``keys`` miss a leaf or name a non-leaf or an unknown node; as
    many keys as leaves, with each leaf among them, prove none in one C pass."""
    if len(keys) == len(index.leaves) and all(map(keys.__contains__, index.leaves)):
        return []
    given, leaves = set(keys), set(index.leaves)
    lines = [f"missing {what} for {nid}" for nid in sorted(leaves - given)]
    for nid in sorted(given - leaves):
        if nid in index.by_id:
            lines.append(f"{what} on non-leaf node {nid}")
        else:
            lines.append(f"{what} for unknown node {nid}")
    return lines


def _depth_first(
    reverse: Mapping[str, list[str]], output: str | None
) -> tuple[list[list[str]], list[str], list[str]]:
    """The graph's one depth-first walk: Tarjan's search upstream over the
    reverse map, from ``output`` first and then from each node not entered.

    It enters only nodes with an incoming edge, as only they can be in a
    component or lead on; ``filter`` drops the leaf sources in C. It returns
    the strongly connected components of more than one node, sorted (the
    reverse map's components are the graph's; single-node self-loops are left
    to the self-edge check); the order in which it closes nodes, which on an
    acyclic graph puts each node after its sources that have an incoming
    edge; and the nodes it entered from ``output``, closed first.
    """
    inner = reverse.__contains__
    # Each entered node's low link: the lowest stack position it is known to
    # reach, starting at its own; past any position once its component closes.
    low: dict[str, int] = {}
    closed = len(reverse)
    stack: list[str] = []
    order: list[str] = []
    components: list[list[str]] = []
    from_output = 0
    for root in chain((output,), reverse):
        if root in low or not inner(root):
            continue
        low[root] = 0
        stack.append(root)
        walk = [(root, filter(inner, reverse[root]), 0)]
        while walk:
            node, upstream, position = walk[-1]
            for source in upstream:
                if source not in low:
                    low[source] = len(stack)
                    walk.append((source, filter(inner, reverse[source]), len(stack)))
                    stack.append(source)
                    break
                if low[source] < low[node]:
                    low[node] = low[source]
            else:
                walk.pop()
                order.append(node)
                if low[node] == position:  # the first node of a component
                    component = stack[position:]
                    del stack[position:]
                    low.update(zip(component, repeat(closed)))
                    if len(component) > 1:
                        components.append(sorted(component))
                elif low[node] < low[walk[-1][0]]:
                    low[walk[-1][0]] = low[node]
        if root == output:
            from_output = len(order)
    return sorted(components), order, order[:from_output]


#: A leaf set of more than ``len(leaves) // _DENSE`` members is a bitset: an
#: int spends 4 bytes on each 30 bits and a tuple 8 bytes on each member, so
#: past that many the bitset is no bigger.
_DENSE = 60
#: A merge sets up to this many ranks by shifts, more by flags: shifts won at
#: every size measured to 64 (8 of 226 leaves: 1.1 vs 4.2 us; 64 of 20,000: 14 vs 50).
_SHIFTS = 64


def _leaf_sets_of(index: _GraphIndex) -> dict[str, tuple[int, ...] | int]:
    """The leaf ancestors of each node of a valid graph, as a set of *ranks*,
    positions in ``index.leaves``; a leaf is its own.

    A set of at most ``len(leaves) // _DENSE`` members is a sorted tuple of
    its ranks, without repeats; a larger one is an ``int`` with bit ``rank``
    set for each member. One pass over the index's finish order, which is
    upstream-first: a node with one source shares its set, so a one-source
    chain holds one, and any other ORs its sources' bitsets and adds their
    tuples' ranks: up to ``_SHIFTS`` by shifts, each costing the set's width,
    and more as one ``bytearray`` of flags over every leaf that ``int`` reads
    in C. So no node is walked again and no score sorts.
    On a cyclic graph it raises ``KeyError``, so derived-asset scoring asks
    only after the check.
    """
    leaves, reverse = index.leaves, index.reverse
    dense = len(leaves) // _DENSE
    ranks = range(len(leaves))
    sets: dict[str, tuple[int, ...] | int] = dict(
        zip(leaves, zip(ranks) if dense else map((1).__lshift__, ranks))
    )
    for node in index.order:
        sources = reverse[node]
        if len(sources) == 1:
            sets[node] = sets[sources[0]]
            continue
        bits, members = 0, []
        for source_set in map(sets.__getitem__, sources):
            if type(source_set) is int:
                bits |= source_set
            else:
                members += source_set
        if not bits:
            members = set(members)
            if len(members) <= dense:
                sets[node] = tuple(sorted(members))
                continue
        if len(members) <= _SHIFTS:  # a few: each shift costs the set's width
            for rank in members:
                bits |= 1 << rank
        else:  # one flag per leaf, read in C as the bitset's binary digits
            flags = bytearray(b"0") * len(leaves)
            deque(map(flags.__setitem__, members, repeat(ord("1"))), 0)
            bits |= int(flags[::-1], 2)
        sets[node] = bits
    return sets


#: Bytes ``0`` and ``1`` to the flags 0 and 1 that ``compress`` reads.
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _gather(
    members: tuple[int, ...] | int, columns: Sequence[Sequence[Any]]
) -> list[list[Any]]:
    """Each of ``columns``, which are in leaf order, at the ranks of one set
    of :func:`_leaf_sets_of`: by rank for a tuple, and for a bitset by
    ``compress`` over its bits as flags, lowest first, in C."""
    if type(members) is int:
        flags = bin(members).encode()[:1:-1].translate(_FLAGS)
        return [list(compress(column, flags)) for column in columns]
    return [list(map(column.__getitem__, members)) for column in columns]


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
