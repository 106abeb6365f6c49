"""Paired benchmark runs of a parent commit against this checkout.

Extracts the parent's and the change's committed files into two
temporary directories of the same path length (`git archive`, so
nothing is registered in .git and a killed run leaves nothing behind
there), so that both sides run from alike trees.  The change is HEAD
when no tracked file differs from it, else the commit that
`git stash create` makes of the index and the tracked files, which
writes no ref and leaves the index, the working tree and the stash list
alone: modified tracked files and staged new files are measured,
untracked files are not.  Then it runs perfbench/run.py on each side,
one process at a time, N pairs per workload in alternating order: pair
i runs the parent first for even i and the change first for odd i.
Each run's last line of output is perfbench's JSON result.  The summary
holds, per workload and end-to-end metric, the pairs, each side's
quartiles, the pairs the change won, the change's relative move
against the metric's BENCHMARK.json bound and a no-regression verdict;
per workload, whether every run was correct, the share of operations
each side failed, and whether every run printed one report digest and
billed total.  The exit code is 0 only when every run was correct with
one digest and no metric or failed share regressed.

    python3 tools/bench_pairs.py --parent HEAD --seed 5 --seconds 15 \\
        --pairs 10 --claim ta_sweep.run_s --out BENCH_<n>.json

Standard library only; the runs are perfbench's own command line.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ta_sweep", "ake_mesh", "reject_flood", "churn_toy")


def command(seed: int, seconds: float, workload: str) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]


def parse_run(stdout: str, returncode: int) -> dict:
    """perfbench's last line, with the digest and billed total it printed;
    a run whose last line is not a result object is incorrect."""
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
        run = {"correct": bool(result["correct"]) and returncode == 0,
               "attempted": result["attempted"], "failed": result["failed"],
               "metrics": {name: entry["value"] for name, entry in result["metrics"].items()}}
    except (IndexError, json.JSONDecodeError, TypeError, KeyError, AttributeError):
        run = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    digest = re.search(r"report digest (sha256:[0-9a-f]+)", stdout)
    billed = re.search(r"total billed ([0-9.]+) mJ", stdout)
    return {**run, "digest": digest and digest.group(1),
            "billed_mj": billed and float(billed.group(1))}


def run(checkout: Path, args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, *args], cwd=checkout, capture_output=True,
                          text=True, timeout=900)
    return parse_run(proc.stdout, proc.returncode)


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(median, 6), round(q3, 6)]


def row_verdict(pairs: list[list[float]], lower: bool, worse: float, spread: float,
                bound: float) -> str:
    """A metric's no-regression verdict.  Where the parent's own spread,
    its IQR over its median, is wider than the bound, a median moved by
    less than the bound shows nothing: the metric is unresolved unless
    every change run reads better than every parent run."""
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    if (max(change) < min(parent)) if lower else (min(change) > max(parent)):
        return "within bound"
    if spread > bound:
        return "unresolved"
    return "regressed" if worse > bound else "within bound"


def summarize(runs: dict[str, list[tuple[dict, dict]]], end_to_end: list[dict]) -> dict:
    """runs: workload -> [(parent run, change run)] as parse_run gives
    them; end_to_end: BENCHMARK.json's metric entries (name, better,
    bound).  Returns the pairs, rows and correctness of a BENCH file.
    A side's failed share is its failed operations over those it
    attempted, 1 when it attempted none."""
    pairs, rows, correctness = {}, {}, {}
    for workload, runs_of in runs.items():
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            key = f"{workload}.{name}"
            pairs[key] = [[round(parent["metrics"][name], 6), round(change["metrics"][name], 6)]
                          for parent, change in runs_of
                          if name in parent["metrics"] and name in change["metrics"]]
            if not pairs[key]:
                continue
            parent_q = quartiles([p for p, _ in pairs[key]])
            change_q = quartiles([c for _, c in pairs[key]])
            worse = (change_q[1] - parent_q[1]) / parent_q[1] if parent_q[1] else 0.0
            if not lower:
                worse = -worse
            iqr = parent_q[2] - parent_q[0]
            spread = iqr / parent_q[1] if parent_q[1] else 0.0
            rows[key] = {
                "parent_q1_median_q3": parent_q, "change_q1_median_q3": change_q,
                "change_worse_by": round(worse, 4), "bound": metric["bound"],
                "parent_iqr": round(iqr, 6), "parent_spread": round(spread, 4),
                "pairs_won": sum((c < p) if lower else (c > p) for p, c in pairs[key]),
                "verdict": row_verdict(pairs[key], lower, worse, spread, metric["bound"]),
            }
        sides = {side: [pair[i] for pair in runs_of] for i, side in enumerate(("parent", "change"))}
        failed = {side: sum(r["failed"] for r in rs) for side, rs in sides.items()}
        attempted = {side: sum(r["attempted"] for r in rs) for side, rs in sides.items()}
        correctness[workload] = {
            "all_correct": all(r["correct"] for rs in sides.values() for r in rs),
            "failed_ops": failed, "attempted_ops": attempted,
            "failed_share": {side: round(failed[side] / attempted[side], 6)
                             if attempted[side] else 1.0 for side in sides},
            "digest_and_billed": {side: sorted({(r["digest"], r["billed_mj"]) for r in rs},
                                               key=str) for side, rs in sides.items()},
        }
        digests = correctness[workload]["digest_and_billed"]
        correctness[workload]["one_digest_both_sides"] = (
            len(digests["parent"]) == 1 and digests["parent"] == digests["change"])
    return {"pairs": pairs, "rows": rows, "correctness": correctness}


def fails_no_more(correctness: dict) -> bool:
    """The change failed no larger share of its operations than the parent."""
    share = correctness["failed_share"]
    return share["change"] <= share["parent"]


def no_regression(summary: dict) -> dict:
    """For a change that claims no gain: the metrics that regressed or are
    unresolved, and the workloads where the change failed a larger share
    of operations.  It holds when nothing regressed and no share grew."""
    regressed = [key for key, row in summary["rows"].items() if row["verdict"] == "regressed"]
    unresolved = [key for key, row in summary["rows"].items() if row["verdict"] == "unresolved"]
    more_failed = [workload for workload, correctness in summary["correctness"].items()
                   if not fails_no_more(correctness)]
    return {"regressed": regressed, "unresolved": unresolved,
            "more_failed_ops": more_failed, "holds": not regressed and not more_failed}


def claim(summary: dict, key: str) -> dict:
    """The claimed metric's verdict: the change wins at least nine of
    ten pairs, the medians differ by more than the parent's IQR, every
    run of the workload was correct, and the change failed no larger
    share of operations than the parent."""
    row = summary["rows"][key]
    n = len(summary["pairs"][key])
    gap = abs(row["change_q1_median_q3"][1] - row["parent_q1_median_q3"][1])
    correctness = summary["correctness"][key.split(".")[0]]
    return {"metric": key, "pairs_won": row["pairs_won"], "pairs": n,
            "parent_median": row["parent_q1_median_q3"][1],
            "change_median": row["change_q1_median_q3"][1],
            "parent_iqr": row["parent_iqr"], "median_gap": round(gap, 6),
            "change": row["change_worse_by"],
            "holds": row["pairs_won"] >= 0.9 * n and gap > row["parent_iqr"]
            and row["change_worse_by"] < 0 and correctness["all_correct"]
            and fails_no_more(correctness)}


def git(*args: str, repo: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True,
                          check=True).stdout.strip()


def checkouts(parent: str, dest: Path, repo: Path = ROOT) -> dict[str, tuple[str, Path]]:
    """side -> (short commit, directory): the parent ref's files and the
    change's, HEAD or `git stash create`'s commit, each extracted by
    `git archive` into its own directory under dest."""
    change = git("stash", "create", repo=repo) or "HEAD"
    sides = {}
    for side, ref in (("parent", parent), ("change", change)):
        path = dest / side
        path.mkdir()
        archive = subprocess.run(["git", "archive", ref], cwd=repo, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(path)], input=archive, check=True)
        sides[side] = (git("rev-parse", "--short", ref, repo=repo), path)
    return sides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", help="workload.metric the change claims to improve")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    head = git("rev-parse", "--short", "HEAD")
    runs: dict[str, list[tuple[dict, dict]]] = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = checkouts(args.parent, Path(tmp))
        for workload in workloads:
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                got = {side: run(sides[side][1], command(args.seed, args.seconds, workload))
                       for side in order}
                runs[workload].append((got["parent"], got["change"]))
                print(f"{workload} pair {i}: " + ", ".join(
                    f"{side} run_s={got[side]['metrics'].get('run_s')}" for side in order),
                    flush=True)
    summary = summarize(runs, end_to_end)
    out = {
        "command": "python3 " + " ".join(command(args.seed, args.seconds, "<name>")),
        "seed": args.seed, "seconds": args.seconds,
        "python": f"{platform.python_version()} ({platform.python_implementation()})",
        "machine": f"{platform.platform()}, runs one at a time",
        "parent": {"commit": sides["parent"][0]},
        "change": {"commit": sides["change"][0], "head": head,
                   "from": "HEAD" if sides["change"][0] == head else "git stash create"},
        "run_order": {"note": "pair i ran the parent first for even i and the change "
                              f"first for odd i; {args.pairs} pairs per workload, "
                              "workloads one after another in this order",
                      "workloads": workloads},
        **summary,
        "no_regression": no_regression(summary),
    }
    if args.claim:
        out["claim"] = claim(summary, args.claim)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    ok = all(c["all_correct"] and c["one_digest_both_sides"]
             for c in summary["correctness"].values())
    print(f"wrote {args.out}; correct and one digest on every workload: {ok}")
    for key, row in summary["rows"].items():
        print(f"  {key}: {row['verdict']}, change worse by {row['change_worse_by']:+.4f} "
              f"(bound {row['bound']}, parent spread {row['parent_spread']})")
    print(f"no regression: {json.dumps(out['no_regression'])}")
    if args.claim:
        print(f"claim {args.claim}: {json.dumps(out['claim'])}")
    return 0 if ok and out["no_regression"]["holds"] else 1


if __name__ == "__main__":
    sys.exit(main())
