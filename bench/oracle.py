"""Expected values for the benchmark, computed independently of pipevis.

Everything here starts from the document's JSON object (the generator's own
dict, or ``json.loads`` of a golden sample) and the scoring rule as the
paper states it: ``VISQuality = sqrt(accuracy * freshness)``,
``VIS = sqrt(quantity * VISQuality)``, and the overall index is the weighted
sum of leaf VIS (equal weights ``1/M`` unless explicit). Square roots and
sums are taken in ``Decimal`` at 40 significant digits, so the oracle is
exact to far below the float tolerance it checks against.

Display strings follow the documented rule: round half away from zero to
the precision; score tables print an exact integer bare (``4``), trend
lines always keep the decimals. A value within ``TIE_BAND`` of a rounding
boundary may legitimately round either way in float, so both neighbours are
accepted there.

Every ``check_*`` function returns a list of failure messages; an empty list
means the output is correct.
"""

from __future__ import annotations

import json
from decimal import ROUND_HALF_UP, Context, Decimal

_CTX = Context(prec=40)
#: Largest accepted |pipevis float - exact value|; the machine output keeps
#: 15 significant digits, so its own rounding is below 5e-15.
TOLERANCE = Decimal("1e-12")
TIE_BAND = Decimal("1e-9")

#: Overall VIS of the golden samples, from the paper's worked tables.
GOLDEN_OVERALL = {
    "first_party.json": 4.0,
    "first_party_later.json": 2.9036020036098447,
    "third_party_minimal.json": 1.189207115002721,
    "third_party_documented.json": 3.4641016151377544,
}

RUBRIC_LINES = (
    "Score | Quantity | Freshness | Accuracy",
    "1 | Sparse or insufficient information | Never updated | Demonstrably inaccurate",
    "2 | Some information missing | Out-of-date | Believed to be inaccurate",
    "3 | Sufficient to gain confidence | Updated when changed | Believed to be accurate",
    "4 | Sufficient to validate | Real-time validation | Evidenced and verifiable",
)

_VIS: dict[tuple[int, int, int], tuple[Decimal, Decimal]] = {}


def vis(q: int, a: int, f: int) -> tuple[Decimal, Decimal]:
    """``(VISQuality, VIS)`` of one judgement, exact to 40 digits."""
    key = (q, a, f)
    if key not in _VIS:
        quality = _CTX.sqrt(Decimal(a * f))
        _VIS[key] = quality, _CTX.sqrt(_CTX.multiply(Decimal(q), quality))
    return _VIS[key]


def _triple(judgement: dict) -> tuple[int, int, int]:
    return judgement["quantity"], judgement["accuracy"], judgement["freshness"]


class Expect:
    """Expected scores of one assessment document."""

    def __init__(self, document: dict):
        self.document = document
        self.precision = document.get("display_precision", 2)
        self.judgements = {
            nid: _triple(j) for nid, j in document["judgements"].items()
        }
        weights = document["weights"]
        self.weights = None if weights == "equal" else dict(weights)
        self.reverse: dict[str, list[str]] = {}
        targets = set()
        for edge in document["edges"]:
            self.reverse.setdefault(edge["to"], []).append(edge["from"])
            targets.add(edge["to"])
        self.leaves = sorted(
            node["id"] for node in document["nodes"] if node["id"] not in targets
        )

    def ancestors(self, node_id: str) -> set[str]:
        seen: set[str] = set()
        frontier = list(self.reverse.get(node_id, ()))
        while frontier:
            nid = frontier.pop()
            if nid not in seen:
                seen.add(nid)
                frontier.extend(self.reverse.get(nid, ()))
        return seen

    def scope(self, node_id: str | None = None) -> list[str]:
        """Leaf ids scored for ``node_id`` (the whole pipeline for ``None``)."""
        if node_id is None:
            return self.leaves
        ancestors = self.ancestors(node_id)
        return [nid for nid in self.leaves if nid in ancestors]

    def overall(
        self,
        node_id: str | None = None,
        judgements: dict[str, tuple[int, int, int]] | None = None,
        weights: dict[str, float] | None | str = "document",
    ) -> Decimal:
        """Weighted VIS over the scope; a derived scope renormalises the weights."""
        judgements = self.judgements if judgements is None else judgements
        weights = self.weights if weights == "document" else weights
        leaves = self.scope(node_id)
        if weights is None:
            share = {nid: _CTX.divide(Decimal(1), Decimal(len(leaves))) for nid in leaves}
        elif node_id is None:
            share = {nid: Decimal(weights[nid]) for nid in leaves}
        else:
            total = sum((Decimal(weights[nid]) for nid in leaves), Decimal(0))
            share = {nid: _CTX.divide(Decimal(weights[nid]), total) for nid in leaves}
        terms = (_CTX.multiply(vis(*judgements[nid])[1], share[nid]) for nid in leaves)
        return _CTX.plus(sum(terms, Decimal(0)))


def close(actual: float, expected: Decimal) -> bool:
    return abs(Decimal(actual) - expected) <= TOLERANCE


def shown(value: Decimal, precision: int, fixed: bool = False) -> set[str]:
    """Accepted display strings of ``value`` at ``precision`` decimals."""
    step = Decimal(1).scaleb(-precision)
    strings = set()
    for near in (value - TIE_BAND, value + TIE_BAND):
        q = near.quantize(step, rounding=ROUND_HALF_UP)
        if not q:
            q = abs(q)
        if not fixed and q == q.to_integral_value():
            strings.add(str(q.to_integral_value()))
        else:
            strings.add(str(q))
    return strings


def _line(line: str, prefix: str, value: Decimal, precision: int, fixed: bool) -> bool:
    return line.startswith(prefix) and line[len(prefix):] in shown(value, precision, fixed)


def check_table(
    body: str, expect: Expect, node_id: str | None = None, precision: int | None = None
) -> list[str]:
    """A ``score`` table: header, one row per scoped leaf, the overall row."""
    precision = expect.precision if precision is None else precision
    lines = body.split("\n")
    leaves = expect.scope(node_id)
    if lines[-1] != "" or len(lines) != len(leaves) + 3:
        return [f"table has {len(lines) - 1} lines, expected {len(leaves) + 2}"]
    if lines[0] != "Node | Quantity | Freshness | Accuracy | VISQuality | VIS":
        return [f"table header {lines[0]!r}"]
    failures = []
    for line, nid in zip(lines[1:], leaves):
        q, a, f = expect.judgements[nid]
        quality, value = vis(q, a, f)
        head, _, tail = line.rpartition(" | ")
        if not (
            _line(head, f"{nid} | {q} | {f} | {a} | ", quality, precision, False)
            and tail in shown(value, precision)
        ):
            failures.append(f"table row {line!r} for {nid}")
    overall = expect.overall(node_id)
    if not _line(lines[-2], "Overall VIS for model | ", overall, precision, False):
        failures.append(f"overall row {lines[-2]!r}, expected {overall:.15f}")
    return failures


def check_machine(body: str, expect: Expect, node_id: str | None = None) -> list[str]:
    """A ``score --format machine`` document: echo plus results block."""
    document = json.loads(body)
    failures = []
    if document.get("judgements") != expect.document["judgements"]:
        failures.append("machine output does not echo the judgements")
    results = document.get("results", {})
    leaves = expect.scope(node_id)
    if results.get("scope") != (node_id or "overall"):
        failures.append(f"machine scope {results.get('scope')!r}")
    if results.get("leaf_count") != len(leaves):
        failures.append(f"machine leaf_count {results.get('leaf_count')!r}")
    rows = results.get("per_node", [])
    if [row.get("node") for row in rows] != leaves:
        failures.append("machine per_node ids differ from the leaves")
    else:
        for row in rows:
            if not close(row["visibility_index"], vis(*expect.judgements[row["node"]])[1]):
                failures.append(f"machine VIS of {row['node']}: {row['visibility_index']!r}")
                break
    expected = expect.overall(node_id)
    actual = results.get("overall_visibility")
    if not isinstance(actual, float) or not close(actual, expected):
        failures.append(f"machine overall {actual!r}, expected {expected:.15f}")
    return failures


def check_trend(body: str, values: list[tuple[str, Decimal]], precision: int) -> list[str]:
    """Fixed-decimal ``label | value`` lines (``whatif`` output)."""
    lines = body.split("\n")
    if lines[-1] != "" or len(lines) != len(values) + 1:
        return [f"trend output has {len(lines) - 1} lines, expected {len(values)}"]
    return [
        f"line {line!r}, expected {label} {value:.15f}"
        for line, (label, value) in zip(lines, values)
        if not _line(line, f"{label} | ", value, precision, True)
    ]


def whatif_values(
    expect: Expect,
    changes: list[tuple[str, tuple[int, int, int]]],
    weights: dict[str, float] | None | str = "document",
) -> list[tuple[str, Decimal]]:
    """Baseline, modified and delta overall of a what-if."""
    judgements = dict(expect.judgements)
    judgements.update(changes)
    baseline = expect.overall()
    modified = expect.overall(judgements=judgements, weights=weights)
    return [("Baseline", baseline), ("Modified", modified),
            ("Delta", _CTX.subtract(modified, baseline))]


def check_compare(body: str, expects: list[Expect]) -> list[str]:
    """A ``compare`` ranking: best overall first, ties on the worst leaf."""
    precision = max(e.precision for e in expects)

    def key(e: Expect):
        worst = min(vis(*e.judgements[nid])[1] for nid in e.leaves)
        asset = e.document["asset"]
        return (-e.overall(), -worst, asset["name"], asset["version"])

    lines = body.split("\n")
    ranked = sorted(expects, key=key)
    if lines[-1] != "" or len(lines) != len(ranked) + 2 or lines[0] != "Asset | Version | VIS":
        return [f"compare output {body!r}"]
    return [
        f"compare row {line!r}, expected {e.document['asset']['name']}"
        for line, e in zip(lines[1:], ranked)
        if not _line(
            line,
            f"{e.document['asset']['name']} | {e.document['asset']['version']} | ",
            e.overall(), precision, False,
        )
    ]


def check_rubric(body: str) -> list[str]:
    return [] if body == "\n".join(RUBRIC_LINES) + "\n" else ["rubric text differs"]


def check_serialized(data: bytes, document: dict, judgements: dict, weights) -> list[str]:
    """Serialized modified assessment: same graph, the new judgements and weights."""
    out = json.loads(data)
    failures = []
    expected_judgements = {
        nid: {"quantity": q, "accuracy": a, "freshness": f}
        for nid, (q, a, f) in judgements.items()
    }
    if out.get("judgements") != expected_judgements:
        failures.append("serialized judgements differ")
    if out.get("weights") != ("equal" if weights is None else weights):
        failures.append("serialized weights differ")
    if sorted(n["id"] for n in out.get("nodes", ())) != sorted(
        n["id"] for n in document["nodes"]
    ):
        failures.append("serialized nodes differ")
    edges = {(e["from"], e["to"]) for e in document["edges"]}
    if {(e["from"], e["to"]) for e in out.get("edges", ())} != edges:
        failures.append("serialized edges differ")
    return failures


def check_golden_oracle(samples: dict[str, dict]) -> list[str]:
    """The oracle itself must reproduce the golden overalls."""
    return [
        f"oracle overall of {name} is {Expect(doc).overall()}, golden {GOLDEN_OVERALL[name]!r}"
        for name, doc in samples.items()
        if not close(GOLDEN_OVERALL[name], Expect(doc).overall())
    ]
