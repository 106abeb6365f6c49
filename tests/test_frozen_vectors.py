"""Frozen constants are exactly what the tools that made them print:
tests/vectors.py from tools/freeze_vectors.py, and the demo profile's
primes from tools/gen_demo_params.py."""

import re
import subprocess
import sys
from pathlib import Path

import gen_demo_params
from ibetrust import ibe
from ibetrust.curve import Curve

ROOT = Path(__file__).resolve().parents[1]


def test_vectors_match_the_generator():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "freeze_vectors.py")],
        capture_output=True, check=True, timeout=60,
    ).stdout
    assert out == (ROOT / "tests" / "vectors.py").read_bytes()


def test_demo_profile_matches_the_search():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_demo_params.py")],
        capture_output=True, check=True, text=True, timeout=60,
    ).stdout
    found = {name: int(value, 16)
             for name, value in re.findall(r"^([pq]) = (0x[0-9a-f]+)$", out, re.M)}
    demo = ibe.PROFILES["demo"]
    assert found == {"p": demo["p"], "q": demo["q"]}


def test_demo_search_reproduces_the_profile():
    q, p = gen_demo_params.search()
    demo = ibe.PROFILES["demo"]
    assert (p, q) == (demo["p"], demo["q"])
    cofactor = (p + 1) // q
    assert cofactor % 3 == 0 and cofactor == Curve(p, q).cofactor
