"""The demos run to the end and still print the counts they are known for."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo, pinned", [
    ("pickup_walkthrough.py", ["solver calls: 5, plans checked: 3",
                               "blocked prefix at horizon 1: [pick_left]"]),
    ("kitchen_navigation.py", ["candidate plans actually checked: 8",
                               "  k=5:   4 checks,  1 sat,  1 blocks"]),
])
def test_demo_runs_and_prints_pinned_counts(demo, pinned):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for line in pinned:
        assert line in lines
