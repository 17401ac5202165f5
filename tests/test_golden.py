"""The program's outputs on fixed inputs match golden_outputs.json, entry by
entry (see golden_outputs.py for what each entry covers and how to rewrite
the file after an intended change)."""

import pytest

import golden_outputs

GOLDEN = golden_outputs.load()


@pytest.fixture(scope="module")
def computed():
    return golden_outputs.compute()


@pytest.mark.parametrize("part", sorted(GOLDEN))
def test_golden_outputs(computed, part):
    want, got = GOLDEN[part], computed[part]
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        assert [k for k in want if got[k] != want[k]] == []
    else:
        assert got == want
