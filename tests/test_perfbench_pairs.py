"""``scripts/perfbench_pairs.py`` refuses what it cannot finish before it
starts: the report passes each side's run files to ``perfbench/run.py
--compare`` as one comma-joined list, so a comma in ``--out`` would only fail
once every pair had run.  And a run killed from outside leaves nothing
running, and nothing registered once the next run has swept."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import time
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


def _pairs_worktree(under: Path):
    """The perfbench-pairs worktree registered under ``under``, or None."""
    for line in _worktrees().splitlines():
        if line.startswith("worktree ") and line[len("worktree "):].startswith(str(under)):
            return Path(line[len("worktree "):])
    return None


def _live_children(pid: int):
    """PIDs of the running (not zombie) processes whose parent is ``pid`` and
    that run ``perfbench/run.py``."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z" and b"perfbench/run.py" in cmdline:
            children.append(int(entry.name))
    return children


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="parent-death signals and /proc are Linux's")
def test_a_killed_run_leaves_no_child_and_the_next_sweep_removes_its_worktree(tmp_path):
    """SIGKILL skips the script's ``finally``: its ``perfbench/run.py`` child
    still dies with it, and the stale-worktree sweep of the next run removes
    the worktree it left registered."""
    script = ROOT / "scripts" / "perfbench_pairs.py"
    proc = subprocess.Popen(
        [sys.executable, str(script), "--parent", "HEAD", "--workload", "steady-skewed",
         "--pairs", "1"],
        cwd=ROOT, env={**os.environ, "TMPDIR": str(tmp_path)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    worktree, children = None, []
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not (worktree and children):
            time.sleep(0.05)
            worktree = worktree or _pairs_worktree(tmp_path)
            children = _live_children(proc.pid)
        assert worktree is not None and children, "the script never started a pair"
    finally:
        proc.kill()
        proc.wait()
    try:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(map(_running, children)):
            time.sleep(0.05)
        assert not any(map(_running, children))
        assert (worktree.parent / "pid").read_text() == str(proc.pid)
        assert f"worktree {worktree}\n" in _worktrees()
        spec = importlib.util.spec_from_file_location("perfbench_pairs", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert worktree in module.sweep_stale_worktrees()
        assert str(worktree) not in _worktrees()
        assert not worktree.parent.exists()
    finally:
        if str(worktree) in _worktrees():
            subprocess.run(["git", "worktree", "remove", "--force", str(worktree)],
                           cwd=ROOT, check=False)
