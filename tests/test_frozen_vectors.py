"""tests/vectors.py is exactly what tools/freeze_vectors.py prints."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_vectors_match_the_generator():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "freeze_vectors.py")],
        capture_output=True, check=True, timeout=60,
    ).stdout
    assert out == (ROOT / "tests" / "vectors.py").read_bytes()
