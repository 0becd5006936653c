from __future__ import annotations

import json
import warnings
from contextlib import suppress
from pathlib import Path

import pytest

import helpers

REPO_ROOT = Path(__file__).resolve().parent.parent

# A failing @given test makes the hypothesis plugin import this module, whose
# libcst import warns that mypy_extensions.TypedDict is deprecated; under
# filterwarnings = ["error"] the run would end in INTERNALERROR with no
# falsifying example. libcst is not a test dependency, so it may be missing.
with suppress(ImportError), warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(scope="session")
def samples_dir() -> Path:
    return REPO_ROOT / "samples"


@pytest.fixture(scope="session")
def schema_dir() -> Path:
    return REPO_ROOT / "schema"


@pytest.fixture(scope="session")
def assessment_schema(schema_dir: Path) -> dict:
    return json.loads((schema_dir / "assessment-1.0.json").read_text("utf-8"))


@pytest.fixture(scope="session")
def result_schema(schema_dir: Path) -> dict:
    return json.loads((schema_dir / "result-1.0.json").read_text("utf-8"))


@pytest.fixture
def example_graph():
    return helpers.example_graph()


@pytest.fixture
def first_party():
    """All-4 judgements: the optimistic day-one assessment."""
    return helpers.example_assessment()


@pytest.fixture
def first_party_later():
    """The 2.90 scenario: same pipeline, documentation aged."""
    return helpers.later_assessment()


@pytest.fixture
def third_party_minimal():
    return helpers.uniform_assessment(
        helpers.THIRD_PARTY_MINIMAL,
        asset_name="marketplace-sentiment",
        asset_version="0.9.2",
    )


@pytest.fixture
def third_party_documented():
    return helpers.uniform_assessment(
        helpers.THIRD_PARTY_DOCUMENTED,
        asset_name="vendor-ner-pro",
        asset_version="4.1.0",
    )
