"""``repro campaign`` refuses a kill point it could never reach with a
one-line message and exit code 2, before any campaign work starts."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.mark.parametrize(
    "flag, point",
    [("--kill-at", "open:x"), ("--kill-at", "open:"),
     ("--kill-before", "open:-1")],
)
def test_bad_kill_point_exits_2_without_traceback(flag, point, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign",
         "--dir", str(tmp_path / "campaign"), flag, point],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "kill point" in proc.stdout
    assert not (tmp_path / "campaign").exists()
