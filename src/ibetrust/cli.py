"""Command-line front end: key generation, simulation runs, report re-rendering.

Exit codes: 0 success, 1 internal error, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import ibe, sim
from .energy import DEFAULT_CONSTANTS, EnergyConstants
from .errors import ConfigError

PARAMS_FILE = "params.bin"
MASTER_FILE = "master.bin"


def _path(text: str) -> Path:
    if "\0" in text:  # no shell can put one in argv, but main([...]) can
        raise argparse.ArgumentTypeError("path holds a NUL byte")
    return Path(text)


def _seed(text: str) -> int:
    # random.Random(-n) would silently repeat the run of n
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibetrust",
        description="identity-based trusted authentication simulator "
                    "for wireless sensor networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="generate system parameters and the master key")
    keygen.add_argument("--profile", choices=sorted(ibe.PROFILES), default="toy")
    keygen.add_argument("--seed", type=_seed, default=0,
                        help="master key generation seed (default 0)")
    keygen.add_argument("--out-dir", required=True, type=_path)

    runp = sub.add_parser("run", help="run a scenario and emit the report")
    runp.add_argument("--scenario", required=True,
                      help="path to a scenario file or a bundled name "
                           f"({', '.join(sim.bundled_scenarios())})")
    runp.add_argument("--seed", type=_seed, default=None,
                      help="override the scenario's run seed")
    runp.add_argument("--out", type=_path, help="write the full report as JSON")
    runp.add_argument("--csv", type=_path, help="write the energy tables as CSV")
    runp.add_argument("--keys", type=_path,
                      help="directory holding params.bin and master.bin from keygen")
    runp.add_argument("--constants", type=_path,
                      help="energy constants file (JSON, partial overrides)")
    runp.add_argument("--verbose", action="store_true",
                      help="include the per-frame event stream in stdout")

    rep = sub.add_parser("report", help="re-render a saved report file")
    rep.add_argument("--in", dest="infile", required=True, type=_path)
    return parser


def _cmd_keygen(args) -> int:
    params, master = ibe.setup(ibe.SecurityConfig(args.profile, args.seed))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / PARAMS_FILE).write_bytes(ibe.params_to_bytes(params))
    (args.out_dir / MASTER_FILE).write_bytes(ibe.master_key_to_bytes(master))
    print(f"profile {args.profile}: wrote {PARAMS_FILE}, {MASTER_FILE} to {args.out_dir}")
    return 0


def _read_key_file(path: Path, load):
    if not path.is_file():
        raise ConfigError(f"missing key material file: {path}")
    try:
        return load(path.read_bytes())
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_keys(keys_dir: Path) -> tuple[ibe.PublicParams, ibe.MasterKey]:
    params = _read_key_file(keys_dir / PARAMS_FILE, ibe.params_from_bytes)
    master = _read_key_file(keys_dir / MASTER_FILE,
                            lambda data: ibe.master_key_from_bytes(params, data))
    return params, master


def _cmd_run(args) -> int:
    scenario = sim.load_scenario(args.scenario)
    constants = DEFAULT_CONSTANTS
    if args.constants is not None:
        if not args.constants.is_file():
            raise ConfigError(f"constants file not found: {args.constants}")
        constants = EnergyConstants.from_file(args.constants)
    keys = _load_keys(args.keys) if args.keys is not None else None
    report = sim.run(scenario, seed=args.seed, constants=constants, keys=keys)
    data = report.to_dict()
    if args.out is not None:
        args.out.write_text(report.to_json())
    if args.csv is not None:
        args.csv.write_text(data["energy_csv"])
    shown = dict(data)
    if not args.verbose:
        shown["event_log"] = ["(rerun with --verbose, or see --out, for the event stream)"]
    print(sim.render_report_dict(shown))
    return 0


def _cmd_report(args) -> int:
    if not args.infile.is_file():
        raise ConfigError(f"report file not found: {args.infile}")
    try:
        data = json.loads(args.infile.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"{args.infile}: not a report file ({exc})") from exc
    if not sim.is_report_dict(data):
        raise ConfigError(f"{args.infile}: not a report file")
    print(sim.render_report_dict(data))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"keygen": _cmd_keygen, "run": _cmd_run, "report": _cmd_report}
    try:
        return handler[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
