"""Command-line front door: validate, score, compare, whatif, rubric.

Exit codes: 0 success, 1 document problems (syntax, schema, semantics),
2 usage errors (bad paths or flags), 3 internal errors. Reports go to
standard output only; every diagnostic goes to standard error, violations
one per line with a machine-greppable ``violation:`` prefix. Both streams
are written as UTF-8, whatever their own encoding.

Documents are read from file paths or standard input (``-``, given at most
once); every path is opened before any document is read. Options are parsed
by :mod:`argparse` and never abbreviated. :mod:`logging` is imported only
under ``--lenient``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from contextlib import ExitStack
from typing import IO, Callable, TextIO, TypeVar

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

T = TypeVar("T")

_DESCRIPTION = "Transparency ratings (VIS) for ML production pipelines."
_LENIENT = "Warn about unknown document fields instead of rejecting them."


class _UsageError(Exception):
    """A bad path or flag value, found after parsing: exit 2."""


def _write(stream: TextIO, text: str) -> None:
    """Write ``text`` to ``stream`` as UTF-8, whatever the stream's encoding."""
    stream.flush()
    # Command-line bytes that are not UTF-8 are written back as given.
    stream.buffer.write(text.encode("utf-8", "surrogateescape"))


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message: str, file: TextIO | None = None) -> None:
        # argparse writes help, version, usage and errors through this method.
        if message:
            _write(file or sys.stderr, message)


def _violations(lines: Iterable[str], prefix: str = "") -> None:
    _write(sys.stderr, "".join(f"violation: {prefix}{line}\n" for line in lines))


def _load(stream: IO[bytes], lenient: bool, label: str | None = None) -> Assessment:
    """Parse one document or exit 1, printing every violation."""
    try:
        return parse_document(stream.read(), lenient=lenient)
    except DocumentError as exc:
        _violations(exc.violations, f"{label}: " if label else "")
        sys.exit(1)


def _parse_set_spec(spec: str) -> tuple[str, Judgement]:
    node_id, sep, scores = spec.rpartition(":")
    if not sep or not node_id:
        raise _UsageError(f"malformed --set {spec!r}: expected ID:Q,A,F")
    parts = scores.split(",")
    if len(parts) != 3:
        raise _UsageError(f"malformed --set {spec!r}: expected three scores Q,A,F")
    try:
        judgement = Judgement(*map(int, parts))  # quantity, accuracy, freshness
    except ValueError as exc:
        raise _UsageError(f"malformed --set {spec!r}: {exc}") from None
    return node_id, judgement


def _parse_weight_item(item: str) -> tuple[str, float]:
    key, sep, value = item.rpartition("=")
    if not sep or not key:
        raise _UsageError(f"malformed --weights entry {item!r}: expected id=number")
    try:
        return key, float(value)
    except ValueError:
        raise _UsageError(
            f"malformed --weights entry {item!r}: {value!r} is not a number"
        ) from None


def _by_id(pairs: Iterable[tuple[str, T]], option: str) -> dict[str, T]:
    """Collect ``(id, value)`` pairs; an id given twice is a usage error."""
    collected: dict[str, T] = {}
    for key, value in pairs:
        if key in collected:
            raise _UsageError(f"repeated id {key!r} in {option}")
        collected[key] = value
    return collected


def _parse_weights_spec(spec: str) -> WeightScheme:
    if spec == "equal":
        return WeightScheme.equal()
    items = map(_parse_weight_item, spec.split(","))
    return WeightScheme.explicit(_by_id(items, "--weights"))


def _configure_logging() -> None:
    import logging  # here only, as no other path logs

    class Handler(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            # Through _write, as every other stderr line; sys.stderr is read
            # when the warning is written, as it may be swapped between runs.
            _write(sys.stderr, self.format(record) + "\n")

    handler = Handler()
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    logger = logging.getLogger("pipevis")
    logger.handlers[:] = [handler]
    logger.setLevel(logging.WARNING)


def _open(path: str, stack: ExitStack) -> IO[bytes]:
    if path == "-":
        return sys.stdin.buffer
    try:
        return stack.enter_context(open(path, "rb"))
    except OSError as exc:
        raise _UsageError(f"cannot open {path!r}: {exc.strerror}") from None


def validate(options: argparse.Namespace) -> None:
    """Check a document; exit 0 iff fully valid, listing all violations."""
    _load(options.streams[0], options.lenient)


def score(options: argparse.Namespace) -> None:
    """Compute and print visibility scores for a document."""
    assessment = _load(options.streams[0], options.lenient)
    node = options.node
    try:
        if node is None:
            report = overall_visibility(assessment)
        else:
            report = derived_asset_visibility(assessment, node)
    except (UnknownNodeError, LeafNodeError) as exc:
        raise _UsageError(str(exc)) from None
    except DegenerateWeightsError as exc:
        _violations([str(exc)])
        sys.exit(1)
    if options.format == "machine":
        rendered = render_machine(report, assessment, scope_node=node)
    else:
        rendered = render_table(report, assessment.judgements, options.precision)
    _write(sys.stdout, rendered.body)


def compare(options: argparse.Namespace) -> None:
    """Rank documents by overall VIS, most transparent first."""
    assessments = [
        _load(stream, options.lenient, label=getattr(stream, "name", "<stdin>"))
        for stream in options.streams
    ]
    ranked = rank(assessments)
    precision = options.precision
    if precision is None:
        precision = max(a.display_precision for a in assessments)
    _write(sys.stdout, render_comparison(ranked, precision).body)


def whatif(options: argparse.Namespace) -> None:
    """Re-score with new judgements (--set, repeatable) or weights; show the delta."""
    assessment = _load(options.streams[0], options.lenient)
    changes = _by_id(map(_parse_set_spec, options.set_specs), "--set")
    spec = options.weights_spec
    weights = _parse_weights_spec(spec) if spec is not None else None
    try:
        result = sensitivity(assessment, changes, weights=weights)
    except UnknownNodeError as exc:
        raise _UsageError(str(exc)) from None
    except InvalidWeightsError as exc:
        # The weights came from the command line, so this is a usage error.
        _violations(exc.violations)
        raise _UsageError("modified assessment is invalid") from None
    _write(sys.stdout, render_sensitivity(result, options.precision).body)


def rubric(options: argparse.Namespace) -> None:
    """Print the 1-4 judgement scale for quantity, freshness and accuracy."""
    _write(sys.stdout, render_rubric().body)


def _parser(prog: str) -> _Parser:
    parser = _Parser(prog, description=_DESCRIPTION, allow_abbrev=False)
    version = f"pipevis, version {__version__}"
    parser.add_argument("--version", action="version", version=version)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    # The options of the commands that read documents, and of those that also
    # print a VIS.
    reads = _Parser(add_help=False)
    reads.add_argument("--lenient", action="store_true", help=_LENIENT)
    prints = _Parser(add_help=False, parents=[reads])
    prints.add_argument(
        "--precision", type=int, choices=range(PRECISION_MAX + 1), metavar="DECIMALS"
    )

    def command(run: Callable, nargs: int | str, *parents: _Parser) -> _Parser:
        """The parser of ``run``, which reads ``nargs`` documents."""
        doc = run.__doc__
        sub = commands.add_parser(
            run.__name__, parents=parents, help=doc, description=doc, allow_abbrev=False
        )
        sub.set_defaults(run=run, parser=sub, paths=[], lenient=False)
        if nargs:
            sub.add_argument("paths", nargs=nargs, metavar="PATH")
        return sub

    command(validate, 1, reads)
    sub = command(score, 1, prints)
    sub.add_argument("--format", choices=("table", "machine"), default="table")
    sub.add_argument("--node", help="Score this derived asset, not the whole pipeline.")
    command(compare, "+", prints)
    sub = command(whatif, 1, prints)
    sub.add_argument(
        "--set", action="append", default=[], dest="set_specs", metavar="ID:Q,A,F"
    )
    sub.add_argument("--weights", dest="weights_spec", metavar="equal|ID=W,...")
    command(rubric, 0)
    return parser


def main(args: list[str] | None = None, prog_name: str = "pipevis") -> None:
    """Run one command; return on success, else raise ``SystemExit``."""
    options = _parser(prog_name).parse_args(args)
    if options.lenient:
        _configure_logging()
    try:
        if options.paths.count("-") > 1:
            raise _UsageError("standard input ('-') can be read only once")
        with ExitStack() as stack:
            options.streams = [_open(path, stack) for path in options.paths]
            options.run(options)
    except _UsageError as exc:
        options.parser.error(str(exc))
    except Exception as exc:  # pragma: no cover - defensive catch-all
        _write(sys.stderr, f"error: internal error: {exc}\n")
        sys.exit(3)


if __name__ == "__main__":
    main()
