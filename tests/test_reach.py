"""tools/reach.py's line accounting, on a small module, and its entry
points against the CLI's subcommands; the full trace is not run."""

import argparse
import importlib.util

import reach
from ibetrust import cli

MODULE = '''\
def outer(x):
    def inner(y):
        return y + 1
    if x > 0:
        return inner(x)
    else:
        return -1


def never():
    return 0
'''


def test_unreached_lines_of_a_small_module(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(MODULE)

    def run():
        spec = importlib.util.spec_from_file_location("small", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.outer(1) == 2

    # the else branch and never's body; `else:` itself holds no bytecode
    assert reach.unreached([path], run) == {path: [7, 11]}
    assert {3, 4, 5, 7, 11} <= reach.executable_lines(path)
    assert 6 not in reach.executable_lines(path)


def test_entry_points_cover_every_subcommand(tmp_path):
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in reach.cli_runs(tmp_path)} == set(subparsers.choices)
