"""Traced stand-in for ``python -m pipevis.cli``, used by traced cli_samples cycles.

Usage: ``python bench/cli_child.py FD ARGS...`` with ``src`` on PYTHONPATH.
Imports ``pipevis.cli`` inside a ``cli.import`` span, wraps the names the
CLI calls into other layers, runs ``main`` with ARGS inside a ``cli.main``
span and exits with the CLI's exit code. Before exiting it writes one JSON
object to file descriptor FD: the span summary and the missing targets.
"""

import os
import sys

import tracing


def run() -> int:
    fd = int(sys.argv[1])
    tracer = tracing.Tracer()
    code = 0
    with tracer:
        span = tracer.open("cli.import")
        import pipevis.cli

        tracer.close(span)
        tracer.patch(tracing.INNER_TARGETS + tracing.CLI_TARGETS)
        span = tracer.open("cli.main")
        try:
            pipevis.cli.main(args=sys.argv[2:], prog_name="pipevis")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            tracer.close(span)
    import json  # only now, so that the import span alone pays for json

    report = {"summary": tracer.summary(), "missing": tracer.missing}
    with os.fdopen(fd, "w") as out:
        json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(run())
