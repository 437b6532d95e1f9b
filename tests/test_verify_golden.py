"""``verify`` output for each suite at the default seed, byte for byte.

The files under ``golden/`` hold the text and ``--format json`` output of
``snakefact verify --suite <name>`` with ``SNAKE_SEED`` unset, written by the
command line before the suites' record moved into ``errors``.  They pin the
record's fields and their order, every case name and every defect.  The
defects are roundoff-level, so a NumPy or LAPACK build that rounds
differently changes their last digits; regenerate the files with that
command when that, and nothing else, is the change.
"""

from pathlib import Path

import pytest

from snakefact.cli import main
from snakefact.errors import SUITE_NAMES

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("suffix, flags", [("txt", []), ("json", ["--format", "json"])],
                         ids=["text", "json"])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_output_is_unchanged(capsys, monkeypatch, suite, suffix, flags):
    monkeypatch.delenv("SNAKE_SEED", raising=False)
    assert main(["verify", "--suite", suite, *flags]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"verify-{suite}.{suffix}").read_text()
