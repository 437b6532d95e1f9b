"""Every public output replayed bit for bit against the corpus of ``tools/replay.py``.

The tool names each entry, draws its seeded inputs and wrote
``golden/replay.json`` and the ``golden/verify-*`` files; each test here
recomputes one entry with the same call and compares it with its record.
The tool's docstring lists the entries and says when the corpus may be
regenerated.
"""

import json
import sys
from pathlib import Path

import pytest

from helpers import count_eig_calls
from test_lazy_imports import loaded_after

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
import replay  # noqa: E402

CORPUS = json.loads(replay.CORPUS.read_text())
SECTIONS = replay.sections()
ENTRIES = [(section, name) for section, entries in SECTIONS.items() for name in entries]


def test_the_corpus_has_no_other_section():
    assert list(CORPUS) == list(SECTIONS)


@pytest.mark.parametrize("section", SECTIONS)
def test_the_corpus_holds_every_entry(section):
    assert list(CORPUS[section]) == [name for name in SECTIONS[section] if not name.startswith("verify-")]


@pytest.mark.parametrize("section, name", ENTRIES, ids=[name for _, name in ENTRIES])
def test_output_is_unchanged(monkeypatch, section, name):
    calls = count_eig_calls(monkeypatch)
    assert replay.stored(name, SECTIONS[section][name]()) == replay.recorded(CORPUS, section, name)
    if name.startswith("pencil/"):
        assert calls == []  # the Cayley pencil pass gave the rule


def test_the_pure_section_loads_no_numpy():
    code = (f"import sys\nsys.path.insert(0, {str(TOOLS)!r})\nimport replay\n"
            "assert {name: replay.stored(name, output()) for name, output in "
            f"replay.pure_entries().items()}} == {CORPUS['pure']!r}")
    assert loaded_after(code, ["numpy"]) == {"numpy": False}
