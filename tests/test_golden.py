"""Golden outputs: every row of tests/golden.py's table gives the same
files at each of its worker counts, and the same files as when
tests/golden.json was made.  A change that moves a row regenerates the
file (``python tests/golden.py``) and says which rows moved and why."""

import json

import pytest

from golden import GOLDEN, TABLE, row_digests, versions


@pytest.fixture(scope="module")
def outputs():
    """Each row's digests at each of its worker counts, by row name."""
    return {row.name: row_digests(row) for row in TABLE}


def test_row_names_are_distinct():
    assert len({row.name for row in TABLE}) == len(TABLE)


def test_every_worker_count_gives_the_same_digests(outputs):
    split = [f"{row.name} at workers {row.workers}" for row in TABLE
             if any(d != outputs[row.name][0] for d in outputs[row.name][1:])]
    assert not split, "worker counts disagree:\n" + "\n".join(split)


def test_digests_match_golden_json(outputs):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    made_with = {key: golden[key] for key in versions()}
    assert made_with == versions(), (
        f"golden.json was made with {made_with}, this run has {versions()}: "
        f"regenerate it with python tests/golden.py and compare")
    moved = [f"moved: {name}" for name, by_workers in outputs.items()
             if any(d != golden["rows"].get(name) for d in by_workers)]
    stale = [f"in golden.json, not in the table: {name}"
             for name in sorted(set(golden["rows"]) - set(outputs))]
    assert not moved + stale, "\n".join(moved + stale)
