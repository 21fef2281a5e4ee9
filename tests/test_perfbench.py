"""The benchmark harness still runs every workload against this source tree."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_passes_every_check():
    # each workload once at a tiny size, untraced and traced, with its
    # output checks on
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    results = [json.loads(line) for line in result.stdout.splitlines() if line.startswith("{")]
    assert results and results[-1]["failed"] == 0
    assert all(r["correct"] and r["failed"] == 0 for r in results)
