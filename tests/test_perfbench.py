"""The benchmark harness still runs every workload against this source tree."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import _synth

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


def test_the_rule_corpus_generator_gives_the_same_sentences():
    # every workload's input comes from this generator: the same seed must
    # give the same ids, texts and tags, as records whose length is the text's
    pairs = _synth.build_rule_corpus(np.random.default_rng(7), 200, "s")
    joined = "\n".join(f"{s.id}\t{s.text}\t{' '.join(t.tags)}" for s, t in pairs)
    assert len(joined) == 16351
    assert hashlib.sha256(joined.encode()).hexdigest() == \
        "05c3327e3b28a69b97fb724c02e4ade9bdc1349e6bbb35491855f7023a61470a"
    assert all(len(s) == len(s.text) and type(s.chars) is tuple and type(t.tags) is tuple
               for s, t in pairs)
