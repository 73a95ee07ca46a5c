"""Process-level crash/restart: the coordinator actually dies (exit code
42 from ``python -m repro campaign --kill-at``) and a fresh process
resumes from the journal.  Out of tier-1 (``make chaos``) because each
cell spawns full interpreter processes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import CRASH_EXIT_CODE
from repro.durability.campaign import PHASES

pytestmark = pytest.mark.chaos

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _campaign(directory, *extra):
    return subprocess.run(
        [
            sys.executable, "-m", "repro", "campaign",
            "--dir", str(directory),
            "--num-queries", "2", "--people", "8", "--seed", "7",
            *extra,
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
        timeout=600,
    )


def _digest(directory) -> str:
    payload = json.loads((Path(directory) / "results.json").read_text("utf-8"))
    return payload["digest"]


@pytest.fixture(scope="module")
def oracle_digest(tmp_path_factory):
    directory = tmp_path_factory.mktemp("oracle")
    proc = _campaign(directory)
    assert proc.returncode == 0, proc.stderr
    return _digest(directory)


class TestProcessKillRestart:
    @pytest.mark.parametrize("phase", PHASES)
    def test_kill_restart_matrix(self, phase, oracle_digest, tmp_path):
        killed = _campaign(tmp_path, "--kill-at", f"{phase}:1")
        assert killed.returncode == CRASH_EXIT_CODE, killed.stdout
        assert "resumable" in killed.stdout
        resumed = _campaign(tmp_path, "--resume")
        assert resumed.returncode == 0, resumed.stderr
        assert _digest(tmp_path) == oracle_digest

    @pytest.mark.parametrize("phase", PHASES)
    def test_kill_before_commit_restart(self, phase, oracle_digest, tmp_path):
        killed = _campaign(tmp_path, "--kill-before", f"{phase}:1")
        assert killed.returncode == CRASH_EXIT_CODE
        resumed = _campaign(tmp_path, "--resume")
        assert resumed.returncode == 0, resumed.stderr
        assert _digest(tmp_path) == oracle_digest

    def test_repeated_process_kills(self, oracle_digest, tmp_path):
        assert _campaign(
            tmp_path, "--kill-at", "charge:0"
        ).returncode == CRASH_EXIT_CODE
        assert _campaign(
            tmp_path, "--resume", "--kill-at", "open:1"
        ).returncode == CRASH_EXIT_CODE
        final = _campaign(tmp_path, "--resume")
        assert final.returncode == 0, final.stderr
        assert _digest(tmp_path) == oracle_digest
