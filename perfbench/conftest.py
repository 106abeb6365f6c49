import sys
from pathlib import Path

# the benchmark's modules import each other flat and ibetrust from src/
HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
