"""Total library objects: one property over the public constructors.

Each field is drawn from a well-typed value or from a pool of wrong ones.
Construction either succeeds or raises ``ValueError``; a refused object is
replaced by a wrong value, so what is built on it meets one too. Every public
function, given what was built, returns or raises a documented error class.
"""

from __future__ import annotations

import math
from datetime import date

from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from pipevis import (
    Assessment,
    ContributionNode,
    DegenerateWeightsError,
    DocumentError,
    InvalidAssessmentError,
    InvalidWeightsError,
    Judgement,
    LeafNodeError,
    NodeVisibility,
    PipelineGraph,
    ReportError,
    SensitivityResult,
    UnknownNodeError,
    ValidationResult,
    VisibilityReport,
    WeightScheme,
    derived_asset_visibility,
    format_fixed,
    format_value,
    overall_visibility,
    rank,
    render_comparison,
    render_machine,
    render_sensitivity,
    render_series,
    render_table,
    sensitivity,
    serialize_document,
    validate_assessment,
    validate_graph,
)


class Label(str):
    """A plain str subclass."""


#: Values of the wrong type for most fields, and a few of the right type that
#: a field's rule refuses: an int, a float, NaN, a boolean, None, bytes, a
#: tuple, a list, a dict, a str subclass, a lone surrogate, an empty string.
WRONG = (
    5, -1, 2.5, math.nan, True, None, b"DS", (), ("DS",), [], {}, {"DS": 1},
    Label("DS"), "\ud800", "", object(),
)
wrong = st.sampled_from(WRONG)
texts = st.text(max_size=4)

#: What the public functions document that they raise.
DOCUMENTED = (
    InvalidAssessmentError, UnknownNodeError, LeafNodeError, DegenerateWeightsError,
    InvalidWeightsError, ReportError, DocumentError,
)
CONSTRUCTORS = (
    "Judgement", "ContributionNode", "PipelineGraph", "WeightScheme", "explicit",
    "Assessment", "VisibilityReport", "SensitivityResult",
)
EXAMPLE = helpers.example_graph()


def documented(call, *args, **kwargs):
    """``call``'s result, or None when it raised a documented class."""
    try:
        return call(*args, **kwargs)
    except DOCUMENTED:
        return None


@settings(deadline=None)
@given(st.data())
def test_constructors_refuse_with_value_error_and_functions_stay_documented(data):
    draw = data.draw
    spoiled = draw(st.sampled_from((None, *CONSTRUCTORS)))

    def build(name, make, fields, spoil=True):
        """``make(**fields)``; when ``name`` is the spoiled constructor, a drawn
        set of fields is wrong. A refusal must be a ``ValueError``."""
        if spoil and name == spoiled:
            names = draw(st.sets(st.sampled_from(sorted(fields)), min_size=1))
            fields = {**fields, **{field: draw(wrong) for field in sorted(names)}}
        try:
            return make(**fields)
        except ValueError:
            return draw(wrong)

    levels = st.integers(1, 4)
    judgement = build("Judgement", Judgement, dict(
        quantity=draw(levels), accuracy=draw(levels), freshness=draw(levels)
    ))
    hit = draw(st.sampled_from(EXAMPLE.nodes))
    nodes = tuple(
        build("ContributionNode", ContributionNode, dict(
            id=node.id,
            kind=draw(st.sampled_from([node.kind, node.kind.value])),
            label=draw(texts),
            description=draw(st.none() | texts),
            evidence_refs=draw(st.lists(texts, max_size=2)),
        ), spoil=node is hit)
        for node in EXAMPLE.nodes
    )
    edges = EXAMPLE.edges
    graph = build("PipelineGraph", PipelineGraph, dict(nodes=nodes, edges=edges))
    split = {"DS": 0.5, "H1": 0.25, "H2": 0.25}
    scheme = build("WeightScheme", WeightScheme, dict(
        weights=draw(st.sampled_from([None, split]))
    ))
    numbers = st.floats() | st.integers(-2, 2) | st.fractions()
    explicit = build("explicit", WeightScheme.explicit, dict(
        weights=draw(st.sampled_from([split, {}]) | st.dictionaries(texts, numbers))
    ))
    judgements = {"DS": judgement, "H1": helpers.THREES, "H2": helpers.ALL_FOUR}
    assessment = build("Assessment", Assessment, dict(
        graph=graph,
        judgements=judgements,
        weights=draw(st.sampled_from([scheme, explicit])),
        asset_name=draw(st.text(min_size=1, max_size=4)),
        asset_version=draw(texts),
        assessed_at=date(2025, 2, 17),
        assessor=draw(texts),
        display_precision=draw(st.integers(0, 12)),
    ))

    assert isinstance(validate_graph(graph), ValidationResult)
    assert isinstance(validate_assessment(assessment), ValidationResult)
    scored = documented(overall_visibility, assessment)
    for node_id in ("DS", "LD", "M", draw(wrong)):
        documented(derived_asset_visibility, assessment, node_id)
    def either(*good):
        return draw(st.sampled_from(good) | wrong)

    changes = either({}, {"DS": judgement}, [("DS", judgement)])
    what_if = documented(
        sensitivity, assessment, changes, weights=either(None, scheme, explicit)
    )

    rows = (NodeVisibility("DS", 3.0, 2.5, 2.7, 1.0),)
    report = build("VisibilityReport", VisibilityReport, dict(
        per_node=scored.per_node if scored else rows,
        overall=scored.overall if scored else 2.7,
        leaf_count=scored.leaf_count if scored else 1,
        display_precision=draw(st.integers(0, 12)),
    ))
    result = build("SensitivityResult", SensitivityResult, dict(
        baseline=what_if.baseline if what_if else report,
        modified=what_if.modified if what_if else report,
        overall_delta=what_if.overall_delta if what_if else 0.0,
    ))

    precision = either(None, 2)
    table = getattr(assessment, "judgements", judgements)
    documented(render_table, report, either(table), precision)
    documented(render_machine, report, assessment, either(None, "M"))
    documented(render_sensitivity, result, precision)
    ranked = documented(rank, either([assessment], (assessment,)))
    documented(render_comparison, either(ranked) if ranked else draw(wrong), either(2))
    documented(render_series, either([assessment]), precision)
    for formatter in (format_value, format_fixed):
        documented(formatter, draw(numbers | wrong), either(2))
    documented(serialize_document, assessment)
