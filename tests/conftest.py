import sys
from pathlib import Path

# make ibetrust importable from a checkout without an install, and
# oracles.py / vectors.py and the tools from any invocation directory
HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE.parent / "tools", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
