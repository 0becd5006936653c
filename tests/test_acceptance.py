"""Acceptance gate: the nine published criteria, one test each.

Each test prints a machine-greppable ``acceptance criterion N: PASS/FAIL``
line (run with ``pytest tests/test_acceptance.py -s`` to see them live).
Criteria with stated runtime budgets assert them with ``time.perf_counter``.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from contextlib import contextmanager
from dataclasses import replace
from decimal import Decimal, getcontext

import helpers
from pipevis import (
    DocumentError,
    Judgement,
    PipelineGraph,
    WeightScheme,
    derived_asset_visibility,
    format_value,
    overall_visibility,
    parse_document,
    quality_index,
    render_table,
    serialize_document,
    visibility_index,
)
from test_cli import invoke


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"acceptance criterion {number}: FAIL ({description})")
        raise
    print(f"acceptance criterion {number}: PASS ({description})")


def test_criterion_1_golden_first_party():
    with criterion(1, "all-4 judgements yield node and overall VIS of exactly 4"):
        start = time.perf_counter()
        report = overall_visibility(helpers.example_assessment())
        assert all(row.visibility_index == 4.0 for row in report.per_node)
        assert report.overall == 4.0  # exact, no tolerance
        assert time.perf_counter() - start < 1.0


def test_criterion_2_golden_first_party_later():
    with criterion(2, "aged first-party scenario displays 2.45/2.71 and 2.90"):
        assessment = helpers.later_assessment()
        report = overall_visibility(assessment)
        body = render_table(report, assessment.judgements).body
        assert "DS | 3 | 3 | 2 | 2.45 | 2.71" in body
        assert "H1 | 3 | 3 | 3 | 3 | 3" in body
        assert "H2 | 3 | 3 | 3 | 3 | 3" in body
        assert body.endswith("Overall VIS for model | 2.90\n")
        assert abs(report.overall - 2.9036020036098447) < 1e-9


def test_criterion_3_golden_third_party_minimal():
    with criterion(3, "minimal third-party scenario displays 1.41/1.19"):
        assessment = helpers.uniform_assessment(helpers.THIRD_PARTY_MINIMAL)
        report = overall_visibility(assessment)
        body = render_table(report, assessment.judgements).body
        for node_id in ("DS", "H1", "H2"):
            assert f"{node_id} | 1 | 1 | 2 | 1.41 | 1.19" in body
        assert body.endswith("Overall VIS for model | 1.19\n")
        assert format_value(report.overall, 2) == "1.19"
        assert abs(report.overall - 1.189207115002721) < 1e-9


def test_criterion_4_golden_third_party_documented():
    with criterion(4, "documented third-party scenario displays 3/3.46"):
        assessment = helpers.uniform_assessment(helpers.THIRD_PARTY_DOCUMENTED)
        report = overall_visibility(assessment)
        body = render_table(report, assessment.judgements).body
        for node_id in ("DS", "H1", "H2"):
            assert f"{node_id} | 4 | 3 | 3 | 3 | 3.46" in body
        assert body.endswith("Overall VIS for model | 3.46\n")
        assert abs(report.overall - 3.4641016151377544) < 1e-9


def test_criterion_5_exhaustive_formula_oracle():
    with criterion(5, "all 64 triples match an independent oracle to 1e-12"):
        getcontext().prec = 50
        for q, a, f in itertools.product(range(1, 5), repeat=3):
            computed = visibility_index(Judgement(q, a, f))
            expected = float((Decimal(q) * (Decimal(a) * Decimal(f)).sqrt()).sqrt())
            assert abs(computed - expected) <= 1e-12 * expected, (q, a, f)


def test_criterion_6_property_suite():
    with criterion(6, "1000-assessment property suite under 30 s"):
        start = time.perf_counter()
        rng = random.Random(6001)

        for a, f in itertools.product(range(1, 5), repeat=2):
            assert quality_index(Judgement(1, a, f)) == quality_index(Judgement(1, f, a))

        for _ in range(1000):
            assessment = helpers.random_assessment(rng)
            report = overall_visibility(assessment)

            # Range bounds.
            assert 1.0 - 1e-12 <= report.overall <= 4.0 * (1 + 1e-12)

            # Monotonicity under a single-field increment.
            leaf = rng.choice(assessment.graph.leaf_ids())
            judgement = assessment.judgements[leaf]
            field = rng.choice(("quantity", "accuracy", "freshness"))
            value = getattr(judgement, field)
            if value < 4:
                bumped = replace(
                    assessment,
                    judgements={
                        **assessment.judgements,
                        leaf: replace(judgement, **{field: value + 1}),
                    },
                )
                assert overall_visibility(bumped).overall > report.overall

            # Equal-score fixpoint.
            uniform = helpers.random_judgement(rng)
            fixpoint = replace(
                assessment,
                judgements={
                    nid: uniform for nid in assessment.graph.leaf_ids()
                },
                weights=WeightScheme.equal(),
            )
            expected = visibility_index(uniform)
            assert (
                abs(overall_visibility(fixpoint).overall - expected)
                <= 1e-12 * expected
            )

            # Equal weighting is bitwise an explicit 1/M vector.
            leaf_ids = assessment.graph.leaf_ids()
            explicit = replace(
                assessment,
                weights=WeightScheme.explicit(
                    {nid: 1.0 / len(leaf_ids) for nid in leaf_ids}
                ),
            )
            equalised = replace(assessment, weights=WeightScheme.equal())
            assert (
                overall_visibility(equalised).overall
                == overall_visibility(explicit).overall
            )

            # Permutation invariance.
            nodes = list(assessment.graph.nodes)
            edges = list(assessment.graph.edges)
            rng.shuffle(nodes)
            rng.shuffle(edges)
            ids = list(assessment.judgements)
            rng.shuffle(ids)
            shuffled = replace(
                assessment,
                graph=PipelineGraph(nodes=tuple(nodes), edges=tuple(edges)),
                judgements={nid: assessment.judgements[nid] for nid in ids},
            )
            assert (
                abs(overall_visibility(shuffled).overall - report.overall)
                <= 1e-12 * report.overall
            )

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"property suite took {elapsed:.1f} s"


def test_criterion_7_round_trip_and_fuzz():
    with criterion(7, "500 round-trips and 10000 fuzz inputs under 60 s"):
        start = time.perf_counter()
        rng = random.Random(7001)

        pool = []
        for _ in range(500):
            assessment = helpers.random_assessment(rng)
            blob = serialize_document(assessment)
            assert parse_document(blob) == assessment
            pool.append(blob)

        for i in range(10_000):
            style = rng.random()
            if style < 0.25:
                blob: bytes | str = bytes(
                    rng.randrange(256) for _ in range(rng.randrange(120))
                )
            elif style < 0.45:
                blob = "".join(
                    chr(rng.randrange(32, 2000)) for _ in range(rng.randrange(120))
                )
            elif style < 0.6:
                blob = json.dumps(
                    {
                        "schema_version": rng.choice(["1.0", "2.0", 1, None]),
                        "nodes": rng.choice([[], {}, None, 17]),
                        "weights": rng.choice(["equal", {}, [], -1]),
                    }
                )
            else:
                base = bytearray(rng.choice(pool))
                for _ in range(rng.randrange(1, 8)):
                    base[rng.randrange(len(base))] = rng.randrange(256)
                blob = bytes(base[: rng.randrange(1, len(base) + 1)])
            try:
                parsed = parse_document(blob)
            except DocumentError:
                continue  # classified, as required
            assert parsed.graph.nodes, f"fuzz case {i} produced an empty assessment"

        # Further input classes, one per case in turn, planted at a random
        # place in a pooled document: deep nesting, integers around the
        # 4300-digit limit, lone and paired surrogates in keys and values,
        # and explicit nulls.
        marker = "@planted@"
        planted = json.dumps(marker)
        surrogates = ["\ud800", "x\udfff", "\ud83d\ude00"]
        for i in range(2_000):
            doc = json.loads(rng.choice(pool))
            container, key = rng.choice(list(helpers.slots(doc)))
            style = i % 4
            if style == 2 and isinstance(container, dict) and rng.random() < 0.5:
                container[rng.choice(surrogates)] = container.pop(key)
            else:
                container[key] = [marker, marker, rng.choice(surrogates), None][style]
            blob = json.dumps(doc, ensure_ascii=rng.random() < 0.5)
            if style == 0:
                depth = rng.choice([2, 50, 999, 5000, 100_000])
                blob = blob.replace(planted, "[" * depth + "]" * depth)
            elif style == 1:
                digits = "9" * rng.choice([4299, 4300, 4301, 6000])
                blob = blob.replace(planted, rng.choice(["", "-"]) + digits)
            try:
                parsed = parse_document(blob)
            except DocumentError:
                continue  # classified, as required
            assert parse_document(serialize_document(parsed)) == parsed, i

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"round-trip suite took {elapsed:.1f} s"


def test_criterion_8_cli_conformance(samples_dir, tmp_path):
    with criterion(8, "CLI reproduces goldens, ranking and the exit-code map"):
        golden = {
            "first_party.json": "4",
            "first_party_later.json": "2.90",
            "third_party_minimal.json": "1.19",
            "third_party_documented.json": "3.46",
        }
        for name, displayed in golden.items():
            result = invoke(["score", str(samples_dir / name)])
            assert result.exit_code == 0, name
            assert result.stdout.splitlines()[-1] == (
                f"Overall VIS for model | {displayed}"
            ), name

        result = invoke(
            [
                "compare",
                str(samples_dir / "third_party_minimal.json"),
                str(samples_dir / "first_party_later.json"),
                str(samples_dir / "third_party_documented.json"),
            ]
        )
        assert result.exit_code == 0
        values = [
            line.rsplit(" | ", 1)[1] for line in result.stdout.splitlines()[1:]
        ]
        assert values == ["3.46", "2.90", "1.19"]

        later = str(samples_dir / "first_party_later.json")
        mangled = tmp_path / "mangled.json"
        mangled.write_text("{oops")
        out_of_range = tmp_path / "range.json"
        doc = json.loads((samples_dir / "first_party.json").read_text("utf-8"))
        doc["judgements"]["DS"]["quantity"] = 5
        out_of_range.write_text(json.dumps(doc))
        unknown_field = tmp_path / "unknown.json"
        doc = json.loads((samples_dir / "first_party.json").read_text("utf-8"))
        doc["vendor_extra"] = 1
        unknown_field.write_text(json.dumps(doc))

        matrix: list[tuple[list[str], bytes | None, int]] = [
            (["validate", "/no/such/path.json"], None, 2),
            (["validate", str(mangled)], None, 1),
            (["validate", str(out_of_range)], None, 1),
            (["validate", str(unknown_field)], None, 1),
            (["validate", "-"], b"", 1),
            (["score", later, "--node", "XX"], None, 2),
            (["score", later, "--node", "DS"], None, 2),
            (["score", later, "--precision", "-1"], None, 2),
            (["whatif", later, "--set", "DS"], None, 2),
            (["whatif", later, "--set", "ZZ:1,1,1"], None, 2),
            (["whatif", later, "--weights", "bogus"], None, 2),
            (["whatif", later, "--weights", "DS=0.5,H1=0.2,H2=0.2"], None, 2),
            (["compare"], None, 2),
            (["compare", later, str(out_of_range)], None, 1),
        ]
        assert len(matrix) >= 10
        for args, stdin, expected in matrix:
            result = invoke(args, input=stdin)
            assert result.exit_code == expected, (args, result.exit_code)


def test_criterion_9_derived_asset_scoring(samples_dir):
    with criterion(9, "score --node LD prints 2.86, the mean of 2.71... and 3"):
        result = invoke(
            ["score", str(samples_dir / "first_party_later.json"), "--node", "LD"]
        )
        assert result.exit_code == 0
        assert result.stdout.splitlines()[-1] == "Overall VIS for model | 2.86"

        assessment = helpers.later_assessment()
        report = derived_asset_visibility(assessment, "LD")
        hand_oracle = (
            visibility_index(helpers.FIRST_PARTY_LATER_DS)
            + visibility_index(helpers.THREES)
        ) / 2
        assert abs(report.overall - hand_oracle) <= 1e-12
        assert format_value(hand_oracle, 2) == "2.86"
