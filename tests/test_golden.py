"""Every golden run reproduces its committed digest (see ``golden.py``)."""

from __future__ import annotations

import pytest

import golden


@pytest.mark.parametrize("group", golden.GROUPS)
def test_runs_match_golden_digests(group):
    changed = golden.differences(golden.load()[group], golden.compute(group))
    assert not changed, (
        f"{len(changed)} run(s) changed behaviour: {', '.join(changed)}; if that is "
        f"intended, regenerate with `python tests/golden.py --write`")
