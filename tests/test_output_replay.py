"""The expansion and the moment oracle replayed bit for bit against ``golden/outputs.json``.

``tools/replay_outputs.py`` draws the inputs and wrote the file; each test
recomputes one recorded output with the same functions and compares its
digest.  The ``expand`` and ``oracle`` digests pin every bit, so a NumPy
or LAPACK build that rounds differently changes them; regenerate the file
with that tool when that, and nothing else, is the change.  The ``entry``
digests involve no NumPy.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import replay_outputs  # noqa: E402

GOLDEN = json.loads(replay_outputs.GOLDEN.read_text())
EXPAND = [(n, k) for n in replay_outputs.EXPAND_SIZES for k in replay_outputs.SHAPES]


def test_the_golden_file_holds_every_case():
    assert list(GOLDEN["expand"]) == [f"n={n} {k}" for n, k in EXPAND]
    assert list(GOLDEN["oracle"]) == list(replay_outputs.FAMILIES)
    assert list(GOLDEN["entry"]) == list(replay_outputs.SHAPES)


@pytest.mark.parametrize("n, kind", EXPAND, ids=[f"n={n}-{k}" for n, k in EXPAND])
def test_expansion_is_unchanged(n, kind):
    assert replay_outputs.expand_digest(n, kind) == GOLDEN["expand"][f"n={n} {kind}"]


@pytest.mark.parametrize("family", replay_outputs.FAMILIES)
def test_oracle_outputs_are_unchanged(family):
    assert replay_outputs.oracle_digests(family) == GOLDEN["oracle"][family]


@pytest.mark.parametrize("kind", replay_outputs.SHAPES)
def test_entries_are_unchanged(kind):
    assert replay_outputs.entry_digest(kind) == GOLDEN["entry"][kind]
