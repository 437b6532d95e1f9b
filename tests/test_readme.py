"""The README's examples run: every ``snakefact`` line of the command-line
block exits 0 through ``cli.main``, and the library example executes.  Every
public name of the package appears in it, and its contract table and the
refusal table ``refusals.ROWS`` name each other row for row."""

import re
import shlex
from pathlib import Path

import pytest

import snakefact
from refusals import ROWS
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


def _section(heading: str) -> str:
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


# (Where, Contract) of each row of the contract table, its header skipped
CONTRACTS = [tuple(line[2:].split(" | ")[:2]) for line in _section("Numerical contracts").splitlines()
             if line.startswith("| ")][1:]


def _named(key: str) -> list:
    """The contract rows whose Where and Contract begin as the "<Where> | <Contract>" prefixes of ``key``."""
    where, _, contract = key.partition(" | ")
    return [row for row in CONTRACTS if row[0].startswith(where) and row[1].startswith(contract)]


def test_contract_table_found():
    assert len(CONTRACTS) >= 40


def test_each_refusal_names_one_contract_row():
    assert [row.site for row in ROWS if len(_named(row.readme)) != 1] == []


def test_each_contract_row_has_a_refusal():
    covered = {contract for row in ROWS for contract in _named(row.readme)}
    assert [contract for contract in CONTRACTS if contract not in covered] == []
