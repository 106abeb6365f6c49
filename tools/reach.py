"""Reach map: the lines of src/ibetrust that the program's own entry
points never run.

    python3 tools/reach.py

In one process, under a line tracer (sys.settrace), it imports ibetrust
and runs:
- `ibetrust keygen`, and every `ibetrust run` and `ibetrust report`
  that cli_runs lists: both bundled scenarios with --out, --csv and
  --verbose, `run --keys` on the keygen output, `run --constants` with
  a valid constants file, and `report --in` on a saved report
- one repeat of each perfbench workload at seed 211, set up, run and
  checked as the benchmark does it

It then prints every executable line of src/ibetrust, outside
__init__.py and __main__.py, that none of them ran, as module:line and
its text, and the total.  The exit code is 0 when every entry point
succeeded and 1 otherwise.  The map licenses deletions: a line no entry
point runs is an input refusal, a rejection only an adversary causes,
a misuse guard, or dead code.  Standard library only; about 4 s.
"""

from __future__ import annotations

import contextlib
import dis
import io
import json
import sys
import tempfile
import types
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ibetrust"
SKIPPED = ("__init__.py", "__main__.py")
SEED = 211


def executable_lines(path: Path) -> set[int]:
    """The lines that hold bytecode in the module at path, in any of its
    code objects (functions, classes, comprehensions)."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(co) if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def unreached(paths: list[Path], run) -> dict[Path, list[int]]:
    """Call run() under a line tracer; for each path, the executable
    lines that no frame of its code ran, in order.  The modules at the
    paths must be imported inside run, or their top level is unreached."""
    hits: dict[str, set[int]] = {str(p): set() for p in paths}

    def on_call(frame, event, arg):
        seen = hits.get(frame.f_code.co_filename)
        if seen is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return {p: sorted(executable_lines(p) - hits[str(p)]) for p in paths}


def cli_runs(tmp: Path) -> list[list[str]]:
    """The command lines traced, in order; each must exit 0.  Writes the
    files they read: a constants file, and a scenario file in which one
    node boots and none reports."""
    constants, quiet = tmp / "constants.json", tmp / "quiet.json"
    constants.write_text(json.dumps({"battery_j": 2000.0, "tx_j_per_byte": 2e-6}))
    quiet.write_text(json.dumps({
        "name": "quiet", "profile": "toy",
        "nodes": [{"id": "a", "images": ["rot", "loader"]}],
        "events": [{"time": 0, "kind": "boot", "node": "a"}]}))
    runs = [["keygen", "--seed", "5", "--out-dir", str(tmp / "keys")]]
    for name in ("demo", "attacks"):
        runs.append(["run", "--scenario", name, "--out", str(tmp / f"{name}.json"),
                     "--csv", str(tmp / f"{name}.csv"), "--verbose"])
    runs += [
        ["run", "--scenario", "demo", "--keys", str(tmp / "keys")],
        ["run", "--scenario", "attacks", "--constants", str(constants)],
        ["run", "--scenario", str(quiet)],
        ["report", "--in", str(tmp / "demo.json")],
    ]
    return runs


def entry_points(tmp: Path) -> list[str]:
    """Run every entry point; the failures, as text (none when all pass)."""
    sys.path[:0] = [str(PACKAGE.parent), str(ROOT / "perfbench")]
    from ibetrust import cli
    import measure
    import workloads

    failures = []
    for argv in cli_runs(tmp):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code != 0:
            failures.append(f"ibetrust {' '.join(argv)}: exit {code} {err.getvalue().strip()}")
    for name in workloads.GENERATORS:
        problems = measure.run_repeat(workloads.generate(name, SEED)).problems
        failures += [f"perfbench {name} seed {SEED}: {p}" for p in problems]
    return failures


def main() -> int:
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name not in SKIPPED)
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        missed = unreached(paths, lambda: failures.extend(entry_points(Path(tmp))))
    for path, lines in missed.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for line in lines:
            print(f"{path.name}:{line}: {text[line - 1].strip()}")
    print(f"total: {sum(map(len, missed.values()))} unreached lines in {len(paths)} modules")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
