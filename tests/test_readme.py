"""The README's examples: each ``$ pipevis`` line prints the lines after it."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

import helpers

REPO_ROOT = Path(__file__).resolve().parent.parent
README = (REPO_ROOT / "README.md").read_text("utf-8")


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def console_examples() -> list[tuple[str, str]]:
    """``(command, stdout)`` of each ``$ pipevis`` line of a console block.

    A line ending in ``\\`` continues on the next; the output runs to the
    next ``$`` line or the end of the block.
    """
    examples = []
    for block in blocks("console"):
        lines = block.replace("\\\n", " ").splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ pipevis "):
                continue
            output = []
            for following in lines[i + 1:]:
                if following.startswith("$ "):
                    break
                output.append(following + "\n")
            examples.append((line.removeprefix("$ "), "".join(output)))
    return examples


CONSOLE = console_examples()


def test_every_console_example_is_found():
    assert [shlex.split(command)[1] for command, _ in CONSOLE] == [
        "score", "compare", "whatif", "score"
    ]


@pytest.mark.parametrize(
    "command, stdout", CONSOLE, ids=[" ".join(command.split()) for command, _ in CONSOLE]
)
def test_console_example_prints_what_the_readme_shows(command, stdout, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    result = helpers.run_cli(shlex.split(command)[1:])
    assert result.exit_code == 0, result.stderr
    assert result.stdout == stdout


def test_library_example_prints_its_value(capsys):
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "2.86\n"
