"""The names ``pipevis`` exports: which, in what order, and from where.

Third parties import these names, so the list is pinned here as it stands
and each name is checked to be the object its submodule defines.
"""

from __future__ import annotations

import importlib

import pytest

import pipevis

#: The public names of each submodule, in the order ``pipevis.__all__`` gives.
EXPORTS = {
    "model": [
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
    ],
    "metrics": [
        "DegenerateWeightsError",
        "InvalidWeightsError",
        "LeafNodeError",
        "NodeVisibility",
        "RankEntry",
        "SensitivityResult",
        "UnknownNodeError",
        "VisibilityReport",
        "derived_asset_visibility",
        "overall_visibility",
        "quality_index",
        "rank",
        "sensitivity",
        "visibility_index",
    ],
    "ingest": [
        "DocumentError",
        "MalformedSyntaxError",
        "SchemaViolationError",
        "SemanticViolationError",
        "UnknownSchemaVersionError",
        "parse_document",
        "serialize_document",
    ],
    "report": [
        "EmptyInputError",
        "MixedAssetError",
        "RenderedReport",
        "ReportError",
        "format_fixed",
        "format_value",
        "render_comparison",
        "render_machine",
        "render_rubric",
        "render_sensitivity",
        "render_series",
        "render_table",
    ],
}

EXPECTED = ["__version__", *(name for names in EXPORTS.values() for name in names)]


def test_all_is_pinned_in_order():
    assert len(EXPECTED) == 46
    assert pipevis.__all__ == EXPECTED


def test_star_import_binds_exactly_the_exports():
    namespace: dict[str, object] = {}
    exec("from pipevis import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(EXPECTED)
    assert namespace["__version__"] == "0.1.0"


@pytest.mark.parametrize("submodule", list(EXPORTS))
def test_each_name_is_its_submodules_object(submodule):
    module = importlib.import_module(f"pipevis.{submodule}")
    for name in EXPORTS[submodule]:
        value = getattr(module, name)
        assert getattr(pipevis, name) is value, name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_each_name_is_declared_once():
    # A name in two submodule lists would be shadowed by the later star import.
    declared = [
        name
        for submodule in EXPORTS
        for name in importlib.import_module(f"pipevis.{submodule}").__all__
    ]
    assert len(declared) == len(set(declared))
    assert len(pipevis.__all__) == len(set(pipevis.__all__))
