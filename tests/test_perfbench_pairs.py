"""``scripts/perfbench_pairs.py`` refuses what it cannot finish before it
starts: the report passes each side's run files to ``perfbench/run.py
--compare`` as one comma-joined list, so a comma in ``--out`` would only fail
once every pair had run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.tier1

ROOT = Path(__file__).resolve().parent.parent


def _worktrees() -> str:
    return subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def test_an_out_path_with_a_comma_is_refused_before_any_pair_runs(tmp_path):
    out = tmp_path / "a,b"
    before = _worktrees()
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "perfbench_pairs.py"),
         "--parent", "HEAD", "--workload", "steady-skewed", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert f"--out must not contain a comma: {out}" in result.stderr
    assert result.stdout == ""
    assert not out.exists()
    assert _worktrees() == before
