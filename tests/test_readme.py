"""The README's examples run: every ``snakefact`` line of the command-line
block exits 0 through ``cli.main``, and the library example executes.  Every
public name of the package appears in it."""

import re
import shlex
from pathlib import Path

import pytest

import snakefact
from snakefact.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """Body of the first ``language`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in _block("Command line", "sh").splitlines()
    if line.startswith("snakefact ")
]


def test_command_block_found():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_example_exits_0(capsys, argv):
    assert main(argv) == 0, capsys.readouterr().err


def test_library_example_runs():
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})


@pytest.mark.parametrize("name", snakefact.__all__)
def test_public_name_documented(name):
    assert re.search(rf"\b{name}\b", README)
