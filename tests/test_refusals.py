"""Every case of the refusal table ``refusals.ROWS`` that runs under no earlier test id.

Each case is one row and one of its bad inputs, checked by
``refusals.refused``.  The cases named in ``refusal_ids.json`` run under
those ids instead, from the modules that hold them; the last test here
checks that each of those ids is a test.
"""

import importlib

import pytest

from refusals import CASES, EARLIER, ROWS, refused

TAKEN = set(EARLIER.values())
OWN = {case_id: case for case_id, case in CASES.items() if case_id not in TAKEN}


@pytest.mark.parametrize("case", OWN.values(), ids=OWN)
def test_refusal(monkeypatch, capsys, case):
    refused(monkeypatch, capsys, *case)


def test_sites_are_unique():
    assert len({row.site for row in ROWS}) == len(ROWS)


def test_every_earlier_id_is_a_test():
    for test_id in EARLIER:
        path, *names = test_id.split("[")[0].split("::")
        test = importlib.import_module(path.removesuffix(".py"))
        for name in names:
            test = getattr(test, name)
        assert callable(test) and test.__name__ == names[-1], test_id
