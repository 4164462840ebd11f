"""Every golden run reproduces its committed digest (see ``golden.py``)."""

from __future__ import annotations

import pytest

import golden


@pytest.mark.parametrize("group", golden.GROUPS)
def test_runs_match_golden_digests(group):
    moved = golden.differences(golden.load()[group], golden.compute(group))
    assert not moved, (
        f"{len(moved)} run(s) changed behaviour: {golden.describe(moved)}; \"outcome\" "
        f"means the verdict or policy moved, \"work\" that only the trace or the "
        f"solver traffic did; if that is intended, regenerate with "
        f"`python tests/golden.py --write`")
