"""Shared builders for the test suite: the Fig-1 style pipeline from the
worked examples, a seeded random-assessment generator used by the
property and round-trip suites, and an in-process runner for the CLI."""

from __future__ import annotations

import copy
import io
import json
import random
import sys
from datetime import date, timedelta
from typing import NamedTuple

from pipevis import (
    Assessment,
    ContributionNode,
    Judgement,
    NodeKind,
    PipelineGraph,
    WeightScheme,
)
from pipevis.cli import main

# Worked-example judgement sets (quantity, accuracy, freshness).
ALL_FOUR = Judgement(quantity=4, accuracy=4, freshness=4)
FIRST_PARTY_LATER_DS = Judgement(quantity=3, accuracy=2, freshness=3)
THREES = Judgement(quantity=3, accuracy=3, freshness=3)
THIRD_PARTY_MINIMAL = Judgement(quantity=1, accuracy=2, freshness=1)
THIRD_PARTY_DOCUMENTED = Judgement(quantity=4, accuracy=3, freshness=3)

# Unrounded expected values for the worked examples.
OVERALL_FIRST_PARTY_LATER = 2.9036020036098447
OVERALL_THIRD_PARTY_MINIMAL = 1.189207115002721
OVERALL_THIRD_PARTY_DOCUMENTED = 3.4641016151377544
VIS_DS_LATER = 2.7108060108295344
DERIVED_LD_LATER = 2.855403005414767


def example_graph() -> PipelineGraph:
    """Two sources feeding a labelled data set feeding the model, plus a
    second human contributor straight into the model."""
    return PipelineGraph(
        nodes=(
            ContributionNode(id="DS", kind=NodeKind.DATA_SOURCE, label="Data source"),
            ContributionNode(
                id="H1", kind=NodeKind.HUMAN_CONTRIBUTOR, label="Labeller"
            ),
            ContributionNode(
                id="H2", kind=NodeKind.HUMAN_CONTRIBUTOR, label="Engineer"
            ),
            ContributionNode(
                id="LD", kind=NodeKind.DERIVED_ASSET, label="Labelled data"
            ),
            ContributionNode(id="M", kind=NodeKind.OUTPUT_ASSET, label="Model"),
        ),
        edges=(("DS", "LD"), ("H1", "LD"), ("LD", "M"), ("H2", "M")),
    )


def example_assessment(
    judgements: dict[str, Judgement] | None = None,
    weights: WeightScheme | None = None,
    **overrides: object,
) -> Assessment:
    if judgements is None:
        judgements = {"DS": ALL_FOUR, "H1": ALL_FOUR, "H2": ALL_FOUR}
    fields: dict[str, object] = dict(
        graph=example_graph(),
        judgements=judgements,
        weights=weights if weights is not None else WeightScheme.equal(),
        asset_name="example-classifier",
        asset_version="1.0.0",
        assessed_at=date(2019, 6, 3),
        assessor="ml-platform-team",
    )
    fields.update(overrides)
    return Assessment(**fields)  # type: ignore[arg-type]


def later_assessment(**overrides: object) -> Assessment:
    """The same pipeline re-judged years later (the 2.90 scenario)."""
    fields: dict[str, object] = dict(
        judgements={"DS": FIRST_PARTY_LATER_DS, "H1": THREES, "H2": THREES},
        assessed_at=date(2025, 2, 17),
        assessor="internal-audit",
    )
    fields.update(overrides)
    return example_assessment(**fields)  # type: ignore[arg-type]


def uniform_assessment(judgement: Judgement, **overrides: object) -> Assessment:
    return example_assessment(
        judgements={"DS": judgement, "H1": judgement, "H2": judgement}, **overrides
    )


def random_judgement(rng: random.Random) -> Judgement:
    return Judgement(
        quantity=rng.randint(1, 4),
        accuracy=rng.randint(1, 4),
        freshness=rng.randint(1, 4),
    )


def random_assessment(rng: random.Random, max_leaves: int = 12) -> Assessment:
    """A valid assessment over a random DAG with 1-12 leaves.

    Node order, edge order and judgement insertion order are shuffled so the
    generator also exercises canonicalisation. Explicit weights, when
    chosen, are strictly positive and normalised.
    """
    leaf_count = rng.randint(1, max_leaves)
    leaf_ids = [f"L{i}" for i in range(leaf_count)]
    derived_ids = [f"D{i}" for i in range(rng.randint(0, 3))]

    nodes = [
        ContributionNode(
            id=leaf_id,
            kind=rng.choice((NodeKind.DATA_SOURCE, NodeKind.HUMAN_CONTRIBUTOR)),
            label=f"leaf {leaf_id}",
            description=rng.choice((None, f"origin of {leaf_id}")),
            evidence_refs=tuple(
                f"refs/{leaf_id}/{j}" for j in range(rng.randint(0, 2))
            ),
        )
        for leaf_id in leaf_ids
    ]
    nodes.extend(
        ContributionNode(id=did, kind=NodeKind.DERIVED_ASSET, label=f"derived {did}")
        for did in derived_ids
    )
    nodes.append(ContributionNode(id="OUT", kind=NodeKind.OUTPUT_ASSET, label="output"))

    # Leaves feed a derived node or the output; derived nodes feed strictly
    # later derived nodes or the output, so the graph is acyclic by layering.
    edges: list[tuple[str, str]] = []
    for leaf_id in leaf_ids:
        edges.append((leaf_id, rng.choice(derived_ids + ["OUT"])))
    for i, did in enumerate(derived_ids):
        edges.append((did, rng.choice(derived_ids[i + 1 :] + ["OUT"])))
        if not any(dst == did for _, dst in edges):
            edges.append((rng.choice(leaf_ids), did))

    judgements = {leaf_id: random_judgement(rng) for leaf_id in leaf_ids}

    if rng.random() < 0.5:
        weights = WeightScheme.equal()
    else:
        raw = {leaf_id: rng.uniform(0.05, 1.0) for leaf_id in leaf_ids}
        total = sum(raw.values())
        weights = WeightScheme.explicit(
            {leaf_id: value / total for leaf_id, value in raw.items()}
        )

    rng.shuffle(nodes)
    rng.shuffle(edges)
    shuffled_ids = list(judgements)
    rng.shuffle(shuffled_ids)

    return Assessment(
        graph=PipelineGraph(nodes=tuple(nodes), edges=tuple(edges)),
        judgements={leaf_id: judgements[leaf_id] for leaf_id in shuffled_ids},
        weights=weights,
        asset_name=f"asset-{rng.randrange(10**6)}",
        asset_version=f"{rng.randint(0, 9)}.{rng.randint(0, 9)}.{rng.randint(0, 9)}",
        assessed_at=date(2019, 1, 1) + timedelta(days=rng.randint(0, 2600)),
        assessor=rng.choice(("audit", "platform", "procurement")),
        display_precision=rng.choice((2, 2, 2, 3, 4)),
    )


def slots(doc):
    """Every (container, key) pair of a decoded JSON document, depth first."""
    stack = [doc]
    while stack:
        container = stack.pop()
        keys = range(len(container)) if isinstance(container, list) else container
        for key in list(keys):
            yield container, key
            if isinstance(container[key], (dict, list)):
                stack.append(container[key])


def with_bare_token(doc: dict, field: str, token: str) -> str:
    """``doc`` as JSON text with the unquoted ``token`` (such as ``NaN``) as
    its ``schema_version``, or, for ``weights``, as the weight of node DS."""
    doc = copy.deepcopy(doc)
    doc[field] = {"DS": "@token"} if field == "weights" else "@token"
    return json.dumps(doc).replace('"@token"', token)


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(args, input: str | bytes | None = None) -> CliResult:
    """Run ``pipevis ARGS`` in this process, with ``input`` (text as UTF-8, or
    bytes) on standard input; the output streams are decoded as UTF-8."""
    if isinstance(input, str):
        input = input.encode("utf-8")
    stdin, stdout, stderr = (
        io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        for data in (input or b"", b"", b"")
    )
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = stdin, stdout, stderr
    try:
        main(args=list(args), prog_name="pipevis")
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    stdout.flush()
    stderr.flush()
    return CliResult(
        code,
        stdout.buffer.getvalue().decode("utf-8"),
        stderr.buffer.getvalue().decode("utf-8"),
    )
