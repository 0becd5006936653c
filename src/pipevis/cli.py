"""Command-line front door: validate, score, compare, whatif, rubric.

Exit codes: 0 success, 1 document problems (syntax, schema, semantics),
2 usage errors (bad paths or flags), 3 internal errors. Reports go to
standard output only; every diagnostic goes to standard error, violations
one per line with a machine-greppable ``violation:`` prefix.

Documents are read from file paths or standard input (``-``).
"""

from __future__ import annotations

import functools
import logging
import sys
from collections.abc import Iterable
from typing import IO, BinaryIO, Callable, TypeVar

import click

from . import __version__
from .ingest import DocumentError, parse_document
from .metrics import (
    DegenerateWeightsError,
    InvalidWeightsError,
    LeafNodeError,
    UnknownNodeError,
    derived_asset_visibility,
    overall_visibility,
    rank,
    sensitivity,
)
from .model import PRECISION_MAX, Assessment, Judgement, WeightScheme
from .report import (
    render_comparison,
    render_machine,
    render_rubric,
    render_sensitivity,
    render_table,
)

F = TypeVar("F", bound=Callable[..., object])
T = TypeVar("T")

_lenient_option = click.option(
    "--lenient",
    is_flag=True,
    help="Warn about unknown document fields instead of rejecting them.",
)
_precision_option = click.option(
    "--precision",
    type=click.IntRange(0, PRECISION_MAX),
    default=None,
    help="Display precision in decimals (default: the document's).",
)


def _guarded(func: F) -> F:
    """Map unexpected exceptions to exit code 3; pass the mapped ones through."""

    @functools.wraps(func)
    def wrapper(*args: object, **kwargs: object) -> object:
        try:
            return func(*args, **kwargs)
        except (click.ClickException, click.Abort, SystemExit):
            raise
        except Exception as exc:  # pragma: no cover - defensive catch-all
            click.echo(f"error: internal error: {exc}", err=True)
            sys.exit(3)

    return wrapper  # type: ignore[return-value]


def _load(stream: IO[bytes], *, lenient: bool, label: str | None = None) -> Assessment:
    """Parse one document or exit 1, printing every violation."""
    try:
        return parse_document(stream.read(), lenient=lenient)
    except DocumentError as exc:
        prefix = f"{label}: " if label else ""
        for violation in exc.violations:
            click.echo(f"violation: {prefix}{violation}", err=True)
        sys.exit(1)


def _parse_set_spec(spec: str) -> tuple[str, Judgement]:
    node_id, sep, scores = spec.rpartition(":")
    if not sep or not node_id:
        raise click.UsageError(f"malformed --set {spec!r}: expected ID:Q,A,F")
    parts = scores.split(",")
    if len(parts) != 3:
        raise click.UsageError(
            f"malformed --set {spec!r}: expected three scores Q,A,F"
        )
    try:
        quantity, accuracy, freshness = (int(part) for part in parts)
        judgement = Judgement(
            quantity=quantity, accuracy=accuracy, freshness=freshness
        )
    except ValueError as exc:
        raise click.UsageError(f"malformed --set {spec!r}: {exc}") from None
    return node_id, judgement


def _parse_weight_item(item: str) -> tuple[str, float]:
    key, sep, value = item.rpartition("=")
    if not sep or not key:
        raise click.UsageError(
            f"malformed --weights entry {item!r}: expected id=number"
        )
    try:
        return key, float(value)
    except ValueError:
        raise click.UsageError(
            f"malformed --weights entry {item!r}: {value!r} is not a number"
        ) from None


def _by_id(pairs: Iterable[tuple[str, T]], option: str) -> dict[str, T]:
    """Collect ``(id, value)`` pairs; an id given twice is a usage error."""
    collected: dict[str, T] = {}
    for key, value in pairs:
        if key in collected:
            raise click.UsageError(f"repeated id {key!r} in {option}")
        collected[key] = value
    return collected


def _parse_weights_spec(spec: str) -> WeightScheme:
    if spec == "equal":
        return WeightScheme.equal()
    items = map(_parse_weight_item, spec.split(","))
    return WeightScheme.explicit(_by_id(items, "--weights"))


def _configure_logging() -> None:
    # Rebind on every invocation: sys.stderr may be swapped between runs.
    logger = logging.getLogger("pipevis")
    logger.handlers.clear()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)


@click.group()
@click.version_option(version=__version__, prog_name="pipevis")
def main() -> None:
    """Transparency ratings for ML production pipelines.

    Computes visibility (VIS) scores from bill-of-materials style
    assessment documents; see `pipevis rubric` for the judgement scale.
    """
    _configure_logging()


@main.command()
@click.argument("path", type=click.File("rb"))
@_lenient_option
@_guarded
def validate(path: BinaryIO, lenient: bool) -> None:
    """Check a document; exit 0 iff fully valid, listing all violations."""
    _load(path, lenient=lenient)


@main.command()
@click.argument("path", type=click.File("rb"))
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "machine"]),
    default="table",
    help="Output style (default: table).",
)
@click.option(
    "--node",
    default=None,
    help="Score this derived asset instead of the whole pipeline.",
)
@_precision_option
@_lenient_option
@_guarded
def score(
    path: BinaryIO, fmt: str, node: str | None, precision: int | None, lenient: bool
) -> None:
    """Compute and print visibility scores for a document."""
    assessment = _load(path, lenient=lenient)
    try:
        if node is None:
            report = overall_visibility(assessment)
        else:
            report = derived_asset_visibility(assessment, node)
    except (UnknownNodeError, LeafNodeError) as exc:
        raise click.UsageError(str(exc)) from None
    except DegenerateWeightsError as exc:
        click.echo(f"violation: {exc}", err=True)
        sys.exit(1)
    if fmt == "machine":
        rendered = render_machine(report, assessment, scope_node=node)
    else:
        rendered = render_table(report, assessment.judgements, precision=precision)
    click.echo(rendered.body, nl=False)


@main.command()
@click.argument("paths", type=click.File("rb"), nargs=-1, required=True)
@_precision_option
@_lenient_option
@_guarded
def compare(paths: tuple[BinaryIO, ...], precision: int | None, lenient: bool) -> None:
    """Rank documents by overall VIS, most transparent first."""
    assessments = [
        _load(stream, lenient=lenient, label=stream.name) for stream in paths
    ]
    ranked = rank(assessments)
    if precision is None:
        precision = max(a.display_precision for a in assessments)
    click.echo(render_comparison(ranked, precision).body, nl=False)


@main.command()
@click.argument("path", type=click.File("rb"))
@click.option(
    "--set",
    "set_specs",
    multiple=True,
    metavar="ID:Q,A,F",
    help="Replace one leaf judgement (repeatable).",
)
@click.option(
    "--weights",
    "weights_spec",
    default=None,
    metavar="SPEC",
    help='Replace the weighting: "equal" or "id=w,id=w,...".',
)
@_precision_option
@_lenient_option
@_guarded
def whatif(
    path: BinaryIO,
    set_specs: tuple[str, ...],
    weights_spec: str | None,
    precision: int | None,
    lenient: bool,
) -> None:
    """Re-score under hypothetical judgements or weights and show the delta."""
    assessment = _load(path, lenient=lenient)
    changes = _by_id(map(_parse_set_spec, set_specs), "--set")
    weights = _parse_weights_spec(weights_spec) if weights_spec is not None else None
    try:
        result = sensitivity(assessment, changes, weights=weights)
    except UnknownNodeError as exc:
        raise click.UsageError(str(exc)) from None
    except InvalidWeightsError as exc:
        # The weights came from the command line, so this is a usage error.
        for violation in exc.violations:
            click.echo(f"violation: {violation}", err=True)
        raise click.UsageError("modified assessment is invalid") from None
    click.echo(render_sensitivity(result, precision).body, nl=False)


@main.command()
@_guarded
def rubric() -> None:
    """Print the 1-4 judgement scale for quantity, freshness and accuracy."""
    click.echo(render_rubric().body, nl=False)


if __name__ == "__main__":
    main()
