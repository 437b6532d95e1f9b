"""Szego rules replayed bit for bit against ``golden/rules.json``.

``tools/replay_rules.py`` draws the inputs and wrote the file; each test
recomputes one recorded output with the same functions and compares its
digest or message.  The digests pin every bit, so a NumPy or LAPACK build
that rounds differently changes them; regenerate the file with that tool
when that, and nothing else, is the change.
"""

import json
import sys
from pathlib import Path

import pytest

from helpers import count_eig_calls

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import replay_rules  # noqa: E402

GOLDEN = json.loads(replay_rules.GOLDEN.read_text())
PENCIL = [(n, f) for n in replay_rules.PENCIL_SIZES for f in replay_rules.FAMILIES]


def test_the_golden_file_holds_every_case():
    assert list(GOLDEN["pencil"]) == [f"n={n} {f}" for n, f in PENCIL]
    assert list(GOLDEN["general"]) == [f"n={n}" for n in replay_rules.GENERAL_SIZES]


@pytest.mark.parametrize("n, family", PENCIL, ids=[f"n={n}-{f}" for n, f in PENCIL])
def test_pencil_rule_is_unchanged(monkeypatch, n, family):
    calls = count_eig_calls(monkeypatch)
    assert replay_rules.pencil_digest(n, family) == GOLDEN["pencil"][f"n={n} {family}"]
    assert calls == []  # the Cayley pencil pass gave the rule


@pytest.mark.parametrize("n", replay_rules.GENERAL_SIZES)
def test_general_pairs_are_unchanged(n):
    assert replay_rules.general_digest(n) == GOLDEN["general"][f"n={n}"]


def test_refusal_message_is_unchanged():
    assert replay_rules.refusal_message() == GOLDEN["refusal"]
