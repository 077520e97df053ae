"""The verdicts, justifications and witnesses of the first 5,000 queries
of the ``decide`` benchmark workload at seed 1 hash to the committed
digest (``scripts/verdict_digest.py``; ``--check`` covers seeds 1 to 3)."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verdict_digest.py"


def test_decide_verdicts_match_the_committed_digest(monkeypatch):
    spec = importlib.util.spec_from_file_location("verdict_digest", SCRIPT)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds perfbench/
    assert digest.verdict_digest(1) == digest.DIGESTS[1]
