"""The CLI as a separate process: edge cases of parsing, streams and imports.

Each test starts ``python -m pipevis.cli`` (or a bare import) in a fresh
interpreter, so what it checks does not depend on the in-process runner of
``tests/helpers.py`` or on what the test process has already imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLE = REPO_ROOT / "samples" / "first_party.json"


def environment(**changes: str | None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH")))
    )
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def run(*args: str, input: bytes | None = None, env: dict | None = None):
    return subprocess.run(
        [sys.executable, "-m", "pipevis.cli", *args],
        input=input,
        capture_output=True,
        env=env or environment(),
        cwd=REPO_ROOT,
        timeout=60,
    )


@pytest.mark.parametrize(
    ("args", "code"),
    [
        ((), 2),
        (("--help",), 0),
        (("nosuch",), 2),
        (("score", str(SAMPLE), "--prec", "4"), 2),
        (("score", str(SAMPLE), "--precision", "13"), 2),
    ],
    ids=["no-arguments", "help", "unknown-command", "abbreviated-option",
         "precision-past-max"],
)
def test_exit_code(args, code):
    assert run(*args).returncode == code


def test_version_prints_one_line():
    proc = run("--version")
    assert proc.returncode == 0
    assert proc.stdout == b"pipevis, version 0.1.0\n"


def test_missing_file_is_a_usage_error_before_any_document_is_read():
    proc = run("compare", str(SAMPLE), "/no/such.json")
    assert proc.returncode == 2
    assert proc.stdout == b""


def test_score_reads_bytes_from_standard_input():
    from_path = run("score", str(SAMPLE))
    from_stdin = run("score", "-", input=SAMPLE.read_bytes())
    assert from_stdin.returncode == from_path.returncode == 0
    assert from_stdin.stdout == from_path.stdout
    assert from_stdin.stdout.endswith(b"Overall VIS for model | 4\n")


@pytest.mark.parametrize(
    "changes",
    [
        {"PYTHONIOENCODING": "ascii", "PYTHONUTF8": None},
        {"LC_ALL": "C", "PYTHONIOENCODING": None, "PYTHONUTF8": None},
    ],
    ids=["PYTHONIOENCODING=ascii", "LC_ALL=C"],
)
def test_non_ascii_node_id_is_written_as_utf8(tmp_path, changes):
    path = tmp_path / "accented.json"
    path.write_bytes(SAMPLE.read_bytes().replace(b'"H1"', '"Hé"'.encode("utf-8")))
    proc = run("score", str(path), env=environment(**changes))
    assert proc.returncode == 0, proc.stderr
    assert "\nHé | 4 | 4 | 4 | 4 | 4\n".encode("utf-8") in proc.stdout


def test_lenient_warns_about_an_unknown_field(tmp_path):
    doc = json.loads(SAMPLE.read_bytes())
    doc["vendor_extra"] = 1
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = run("validate", "--lenient", str(path))
    assert proc.returncode == 0
    assert proc.stderr == b"warning: ignoring unknown field: vendor_extra\n"


def test_import_loads_neither_click_nor_logging():
    code = "import sys, pipevis.cli; print({'click', 'logging'} & set(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=environment(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"set()\n"
