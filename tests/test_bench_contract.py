"""The pipevis names the benchmark in ``bench/`` calls and wraps still exist.

The benchmark reports a wrapped name that was renamed or moved only as a
missing per-layer metric of a traced run; these tests fail at once instead.
They import ``bench/tracing.py`` and ``bench/run.py`` and change nothing there.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import pipevis

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracing"), importlib.import_module("run")
    finally:
        sys.path.remove(str(BENCH))


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


def test_every_in_process_api_name_is_exported(bench):
    _, run = bench
    names = run.ScoreLarge.API + run.ReviewDeep.API
    assert names
    assert [name for name in names if not hasattr(pipevis, name)] == []
