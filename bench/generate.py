"""Seeded assessment documents for the benchmark.

Every generator takes a ``random.Random`` and returns a :class:`Doc`: the
document bytes pipevis receives, the JSON object they encode, and what the
generator knows about it (derived ids, expected violations, the what-if plan
of a review, shape statistics). The same seed gives the same bytes.

Three shapes:

* wide -- many leaves, each feeding one of a few hundred derived assets that
  all feed the output (``score_large``);
* deep -- a derived chain ``D00 -> D01 -> ... -> M`` with skip edges and the
  leaves spread along it (``review_deep``);
* small -- at most 30 leaves and up to four derived assets, one of them
  ``LD`` as in the golden samples (``cli_samples``).

A deep or small document may carry one planted defect, a cycle or a missing
judgement, and then lists the exact semantic violation pipevis must report.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

LEAF_KINDS = ("DataSource", "HumanContributor")
OUTPUT_ID = "M"

#: Leaf and depth ranges of the ``review_deep`` pool. Sizes are evenly
#: spaced and paired in a fixed order, so every seed draws the same set of
#: shapes and only the documents differ; run-to-run spread then reflects the
#: program, not the luck of the draw.
DEEP_LEAVES = (50, 400)
DEEP_DEPTH = (5, 40)
#: Leaf counts of the valid and of the broken ``cli_samples`` documents.
SMALL_VALID_LEAVES = (4, 11, 19, 28)
SMALL_BROKEN_LEAVES = (8, 15, 23, 30)


@dataclass
class Doc:
    data: bytes
    document: dict
    derived: list[str]
    violations: tuple[str, ...] = ()
    #: Re-judgements ``[(leaf id, (q, a, f)), ...]`` and replacement weights
    #: (``None`` for equal) that a review applies; empty for other shapes.
    changes: list[tuple[str, tuple[int, int, int]]] = field(default_factory=list)
    new_weights: dict[str, float] | None = None
    stats: dict = field(default_factory=dict)

    @property
    def leaves(self) -> int:
        return self.stats["leaves"]


def _judgement(rng: random.Random) -> tuple[int, int, int]:
    return rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)


def _explicit_weights(rng: random.Random, leaf_ids: list[str]) -> dict[str, float]:
    raw = [rng.randint(1, 9) for _ in leaf_ids]
    total = sum(raw)
    return {leaf_id: r / total for leaf_id, r in zip(leaf_ids, raw)}


def _leaves(rng: random.Random, count: int, width: int) -> list[tuple[str, str]]:
    leaves = []
    for i in range(count):
        kind = rng.choice(LEAF_KINDS)
        prefix = "S" if kind == "DataSource" else "H"
        leaves.append((f"{prefix}{i:0{width}d}", kind))
    return leaves


def _max_depth(edges: list[tuple[str, str]]) -> int:
    """Edges on the longest path of an acyclic edge list."""
    forward: dict[str, list[str]] = {}
    indegree: dict[str, int] = {}
    for src, dst in edges:
        forward.setdefault(src, []).append(dst)
        indegree[dst] = indegree.get(dst, 0) + 1
        indegree.setdefault(src, 0)
    depth = {nid: 0 for nid in indegree}
    ready = [nid for nid, deg in indegree.items() if deg == 0]
    while ready:
        nid = ready.pop()
        for nxt in forward.get(nid, ()):
            depth[nxt] = max(depth[nxt], depth[nid] + 1)
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return max(depth.values())


def _document(
    rng: random.Random,
    name: str,
    leaves: list[tuple[str, str]],
    derived: list[str],
    edges: list[tuple[str, str]],
    explicit: bool,
    evidence: float = 0.25,
) -> dict:
    nodes = []
    for leaf_id, kind in leaves:
        node = {"id": leaf_id, "kind": kind, "label": f"Leaf {leaf_id}"}
        if rng.random() < evidence:
            node["evidence_refs"] = [f"registry/{leaf_id.lower()}"]
        nodes.append(node)
    for derived_id in derived:
        nodes.append(
            {"id": derived_id, "kind": "DerivedAsset", "label": f"Asset {derived_id}"}
        )
    nodes.append(
        {"id": OUTPUT_ID, "kind": "OutputAsset", "label": "Model",
         "description": f"Output of {name}"}
    )
    rng.shuffle(nodes)
    leaf_ids = [leaf_id for leaf_id, _ in leaves]
    judgements = {}
    for leaf_id in leaf_ids:
        q, a, f = _judgement(rng)
        judgements[leaf_id] = {"quantity": q, "accuracy": a, "freshness": f}
    return {
        "schema_version": "1.0",
        "asset": {"name": name, "version": f"{rng.randint(0, 9)}.{rng.randint(0, 99)}"},
        "assessed_at": f"20{rng.randint(10, 29)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
        "assessor": "bench-generator",
        "nodes": nodes,
        "edges": [{"from": src, "to": dst} for src, dst in edges],
        "judgements": judgements,
        "weights": _explicit_weights(rng, leaf_ids) if explicit else "equal",
        "display_precision": rng.randint(2, 4),
    }


def _finish(
    document: dict,
    leaves: int,
    derived: list[str],
    depth: int,
    violations: tuple[str, ...] = (),
    **extra: object,
) -> Doc:
    data = (json.dumps(document, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
    stats = {
        "leaves": leaves,
        "derived": len(derived),
        "max_depth": depth,
        "bytes": len(data),
    }
    return Doc(data, document, derived, violations, stats=stats, **extra)


def _plant(
    rng: random.Random,
    document: dict,
    defect: str | None,
    cycle: tuple[str, str] | None,
    cycle_members: list[str],
) -> tuple[str, ...]:
    """Apply ``defect`` to ``document``; return the violations it causes."""
    if defect is None:
        return ()
    if defect == "cycle":
        src, dst = cycle
        document["edges"].append({"from": src, "to": dst})
        return ("cycle detected: " + ",".join(sorted(cycle_members)),)
    if defect == "missing":
        victim = rng.choice(sorted(document["judgements"]))
        del document["judgements"][victim]
        return (f"missing judgement for {victim}",)
    raise ValueError(f"unknown defect: {defect}")


def wide_document(
    rng: random.Random, leaves: int = 20_000, derived: int = 200, name: str = "wide"
) -> Doc:
    """Leaves spread evenly over ``derived`` assets, which all feed the output."""
    leaf_list = _leaves(rng, leaves, 5)
    derived_ids = [f"D{j:03d}" for j in range(derived)]
    order = list(range(leaves))
    rng.shuffle(order)
    edges = [(leaf_list[i][0], derived_ids[k % derived]) for k, i in enumerate(order)]
    edges += [(derived_id, OUTPUT_ID) for derived_id in derived_ids]
    document = _document(rng, name, leaf_list, derived_ids, edges, explicit=False,
                         evidence=0.0)
    return _finish(document, leaves, derived_ids, _max_depth(edges))


def deep_document(
    rng: random.Random, leaves: int, depth: int, defect: str | None = None,
    name: str = "deep",
) -> Doc:
    """A derived chain ``depth`` long, with skip edges and a review plan."""
    leaf_list = _leaves(rng, leaves, 3)
    chain = [f"D{j:02d}" for j in range(depth)]
    edges = [(leaf_list[0][0], chain[0])]
    for leaf_id, _ in leaf_list[1:]:
        if rng.random() < 0.05:
            edges.append((leaf_id, OUTPUT_ID))
        else:
            edges.append((leaf_id, rng.choice(chain)))
    for j in range(1, depth):
        edges.append((chain[j - 1], chain[j]))
        if j >= 2 and rng.random() < 0.3:
            edges.append((chain[j - 2], chain[j]))
    edges.append((chain[-1], OUTPUT_ID))
    explicit = rng.random() < 0.5
    document = _document(rng, name, leaf_list, chain, edges, explicit)
    max_depth = _max_depth(edges)

    i = rng.randrange(depth - 1)
    j = rng.randrange(i + 1, depth)
    violations = _plant(rng, document, defect, (chain[j], chain[i]), chain[i:j + 1])

    leaf_ids = [leaf_id for leaf_id, _ in leaf_list]
    changes = [(leaf_id, _judgement(rng)) for leaf_id in rng.sample(leaf_ids, 2)]
    new_weights = None if explicit else _explicit_weights(rng, leaf_ids)
    return _finish(document, leaves, chain, max_depth, violations,
                   changes=changes, new_weights=new_weights)


def small_document(
    rng: random.Random, leaves: int, defect: str | None = None, name: str = "small"
) -> Doc:
    """Up to 30 leaves over ``LD`` and up to three more derived assets."""
    leaf_list = _leaves(rng, leaves, 2)
    derived_ids = ["LD"] + [f"D{j}" for j in range(1, rng.randint(2, 4))]
    edges = [(leaf_list[0][0], "LD")]
    for leaf_id, _ in leaf_list[1:]:
        edges.append((leaf_id, rng.choice(derived_ids + [OUTPUT_ID])))
    for derived_id in derived_ids[1:]:
        if not any(dst == derived_id for _, dst in edges):
            edges.append((leaf_list[0][0], derived_id))
    edges += [(derived_id, OUTPUT_ID) for derived_id in derived_ids]
    edges.append(("LD", "D1"))
    explicit = rng.random() < 0.3
    document = _document(rng, name, leaf_list, derived_ids, edges, explicit)
    max_depth = _max_depth(edges)
    violations = _plant(rng, document, defect, ("D1", "LD"), ["D1", "LD"])
    leaf_ids = [leaf_id for leaf_id, _ in leaf_list]
    changes = [(leaf_id, _judgement(rng)) for leaf_id in rng.sample(leaf_ids, 2)]
    return _finish(document, leaves, derived_ids, max_depth, violations,
                   changes=changes)


def _spaced(low: int, high: int, count: int) -> list[int]:
    return [low + (high - low) * k // (count - 1) for k in range(count)]


def review_pool(seed: int, size: int = 40) -> list[Doc]:
    """Deep documents for ``review_deep``, in seeded order; one in ten is invalid."""
    rng = random.Random(f"review_deep:{seed}")
    leaf_counts = _spaced(*DEEP_LEAVES, size)
    depths = _spaced(*DEEP_DEPTH, size)
    pool = []
    for k in range(size):
        defect = ("cycle", "missing")[k // 10 % 2] if k % 10 == 3 else None
        depth = depths[k * 13 % size]  # 13 is prime to 40: a fixed shuffle
        pool.append(deep_document(rng, leaf_counts[k], depth, defect,
                                  name=f"deep-{k:02d}"))
    rng.shuffle(pool)
    return pool


def cli_pool(seed: int) -> tuple[list[Doc], list[Doc]]:
    """Valid and broken small documents for ``cli_samples``."""
    rng = random.Random(f"cli_samples:{seed}")
    valid = [small_document(rng, n, name=f"small-{k}")
             for k, n in enumerate(SMALL_VALID_LEAVES)]
    broken = [small_document(rng, n, ("cycle", "missing")[k % 2], name=f"broken-{k}")
              for k, n in enumerate(SMALL_BROKEN_LEAVES)]
    return valid, broken


def large_document(seed: int) -> Doc:
    """The 20,000-leaf document of ``score_large``."""
    return wide_document(random.Random(f"score_large:{seed}"))
