"""Report digests under every CPython the project supports.

    python3 tools/digests.py

Finds the CPython interpreters under $PYENV_ROOT/versions (by default
~/.pyenv/versions) that meet pyproject.toml's requires-python floor.
Each one runs, from this checkout's src/, the bundled demo and attacks
scenarios and one repeat of each perfbench workload at seed 211, and
hands back the sha256 of every report.  The script prints each run's
sha256 with the interpreters that produced it, and exits 1 when a run's
digests differ, when a workload fails perfbench's checks, or when an
interpreter fails.  Standard library only, so the interpreters need no
pytest; about 3 s per interpreter.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SEED = 211


def interpreters() -> dict[str, Path]:
    """Version -> python3 of each CPython that meets requires-python."""
    floor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    minimum = tuple(map(int, floor.groups()))
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = {}
    for d in sorted(versions.glob("*")) if versions.is_dir() else ():
        numbers = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", d.name)
        python = d / "bin" / "python3"
        if numbers and tuple(map(int, numbers.groups()[:2])) >= minimum and python.exists():
            found[d.name] = python
    return found or {".".join(map(str, sys.version_info[:3])): Path(sys.executable)}


def child() -> None:
    """Print {run: sha256} as JSON; a workload that fails its checks
    prints its problems in place of a digest."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from ibetrust import sim
    import measure
    import workloads

    digests = {}
    for name in ("demo", "attacks"):
        text = sim.run(sim.load_scenario(name)).to_json()
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    for name in workloads.GENERATORS:
        rep = measure.run_repeat(workloads.generate(name, SEED))
        digests[f"{name}@{SEED}"] = "; ".join(rep.problems) or rep.digest
    print(json.dumps(digests))


def main() -> int:
    by_run: dict[str, dict[str, list[str]]] = {}
    failed = False
    for version, python in interpreters().items():
        proc = subprocess.run([str(python), __file__, "--child"], capture_output=True,
                              text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{version}: exit {proc.returncode}\n{proc.stderr.strip()}")
            failed = True
            continue
        for run, digest in json.loads(proc.stdout).items():
            by_run.setdefault(run, {}).setdefault(digest, []).append(version)
    for run, digests in by_run.items():
        for digest, versions in digests.items():
            print(f"{run:<20} {digest}  {' '.join(versions)}")
    differ = [run for run, digests in by_run.items() if len(digests) > 1]
    if differ:
        print(f"DIFFERENT: {', '.join(differ)}")
    return 1 if failed or differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        sys.exit(main())
