"""The benchmark's quick mode runs in Tier-1, so a change to a name that
``perfbench/`` reads fails here rather than only when the benchmark runs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_mode_is_correct():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
