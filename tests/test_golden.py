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
        f"`python tests/golden.py --write`, which rewrites work digests only "
        f"(add `--outcome` to move an outcome)")



def test_write_moves_an_outcome_only_when_asked(monkeypatch, tmp_path, capsys):
    """Plain ``--write`` rewrites work digests and refuses, naming the run,
    when an outcome moved; ``--write --outcome`` writes that too."""
    path = tmp_path / "digests.json"
    monkeypatch.setattr(golden, "DIGESTS", path)
    monkeypatch.setattr(golden, "load", lambda: {group: {f"{group}-1": ("work", "outcome")}
                                                 for group in golden.GROUPS})

    monkeypatch.setattr(golden, "compute", lambda group: {f"{group}-1": ("work 2", "outcome")})
    assert golden.main(["--write"]) == 0
    assert '"work 2"' in path.read_text()

    path.unlink()
    moved = lambda group: "outcome 3" if group == "smtlib" else "outcome"
    monkeypatch.setattr(golden, "compute", lambda group: {f"{group}-1": ("work 3", moved(group))})
    assert golden.main(["--write"]) == 1
    assert not path.exists()
    assert "refusing to write: the outcome of 1 run(s) moved: smtlib-1;" in capsys.readouterr().out
    assert golden.main(["--write", "--outcome"]) == 0
    assert '"outcome 3"' in path.read_text()
