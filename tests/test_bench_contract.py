"""The pipevis names the benchmark in ``bench/`` calls and wraps still exist,
and its oracle accepts what pipevis writes.

The benchmark reports a wrapped name that was renamed or moved only as a
missing per-layer metric of a traced run, and an output drift only as failed
operations of a long run; these tests fail at once instead. They import
``bench/tracing.py``, ``bench/run.py``, ``bench/generate.py`` and
``bench/oracle.py`` and change nothing there.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import pipevis

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_modules(*names: str) -> tuple:
    sys.path.insert(0, str(BENCH))
    try:
        return tuple(importlib.import_module(name) for name in names)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def bench():
    return _bench_modules("tracing", "run")


def test_every_traced_target_resolves(bench):
    tracing, _ = bench
    targets = tracing.INNER_TARGETS + tracing.CLI_TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _span in targets
        if getattr(importlib.import_module(module), attr, None) is None
    ]
    assert targets
    assert missing == []


def test_main_runs_as_the_traced_child_calls_it(capsys):
    # ``bench/cli_child.py`` calls ``main`` this way and reads the exit code
    # from ``SystemExit``, or 0 when ``main`` returns.
    import pipevis.cli

    try:
        pipevis.cli.main(args=["rubric"], prog_name="pipevis")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    assert capsys.readouterr().out == pipevis.render_rubric().body


def test_every_in_process_api_name_is_exported(bench):
    _, run = bench
    names = run.ScoreLarge.API + run.ReviewDeep.API
    assert names
    assert [name for name in names if not hasattr(pipevis, name)] == []


def test_oracle_accepts_a_scored_wide_document():
    # What one ``score_large`` operation writes, on a tenth of its leaves.
    generate, oracle = _bench_modules("generate", "oracle")
    doc = generate.wide_document(random.Random(1), leaves=2000, derived=20)
    expect = oracle.Expect(doc.document)
    assessment = pipevis.parse_document(doc.data)
    report = pipevis.overall_visibility(assessment)
    machine = pipevis.render_machine(report, assessment).body
    table = pipevis.render_table(report, assessment.judgements).body
    assert report.leaf_count == 2000
    assert oracle.check_machine(machine, expect) == []
    assert oracle.check_table(table, expect) == []


def test_oracle_accepts_reviewed_deep_documents():
    # What ``review_deep`` operations do, on the three smallest valid documents
    # of its pool and on its first cycle and missing-judgement documents.
    generate, oracle = _bench_modules("generate", "oracle")
    pool = generate.review_pool(1)
    valid = sorted((d for d in pool if not d.violations), key=lambda d: d.leaves)
    invalid = {d.violations[0].split()[0]: d for d in reversed(pool) if d.violations}
    assert sorted(invalid) == ["cycle", "missing"]
    for doc in valid[:3]:
        expect = oracle.Expect(doc.document)
        changes = [(nid, pipevis.Judgement(*levels)) for nid, levels in doc.changes]
        weights = (
            pipevis.WeightScheme.equal()
            if doc.new_weights is None
            else pipevis.WeightScheme.explicit(doc.new_weights)
        )
        assessment = pipevis.parse_document(doc.data)
        result = pipevis.sensitivity(assessment, changes, weights=weights)
        values = oracle.whatif_values(expect, doc.changes, doc.new_weights)
        actuals = (result.baseline.overall, result.modified.overall, result.overall_delta)
        assert [
            label
            for (label, expected), actual in zip(values, actuals)
            if not oracle.close(actual, expected)
        ] == []
        assert doc.derived
        for nid in doc.derived:
            report = pipevis.derived_asset_visibility(assessment, nid)
            assert report.leaf_count == len(expect.scope(nid))
            assert oracle.close(report.overall, expect.overall(nid))
        modified = replace(
            assessment,
            judgements={**assessment.judgements, **dict(changes)},
            weights=weights,
        )
        data = pipevis.serialize_document(modified)
        judgements = {**expect.judgements, **dict(doc.changes)}
        assert oracle.check_serialized(data, doc.document, judgements, doc.new_weights) == []
        text = pipevis.render_sensitivity(result).body
        assert oracle.check_trend(text, values, expect.precision) == []
    for doc in invalid.values():
        with pytest.raises(pipevis.SemanticViolationError) as excinfo:
            pipevis.parse_document(doc.data)
        assert tuple(excinfo.value.violations) == doc.violations
