"""tools/bench_pairs.py's parsing and summary, on synthetic runs, and
its checkouts, on a throwaway git repository; no benchmark is run."""

import json
import os
import subprocess

import bench_pairs

END_TO_END = [{"name": "run_s", "better": "lower", "bound": 0.25},
              {"name": "ops_per_s", "better": "higher", "bound": 0.25}]


def result(run_s, correct=True, digest="sha256:ab", failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"run_s": run_s, "ops_per_s": 10 / run_s},
            "digest": digest, "billed_mj": 1.5}


def test_parse_run_reads_the_last_line_and_the_gate():
    last = {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {"run_s": {"value": 0.25, "unit": "s"}}}
    stdout = ("perfbench ta_sweep\n  report digest sha256:0a1b\n"
              "  total billed 4450.698990 mJ\n" + json.dumps(last) + "\n")
    assert bench_pairs.parse_run(stdout, 0) == {
        "correct": True, "attempted": 4, "failed": 0, "metrics": {"run_s": 0.25},
        "digest": "sha256:0a1b", "billed_mj": 4450.69899}
    assert not bench_pairs.parse_run(stdout, 1)["correct"]
    # no last line, or one that is JSON but not a result object
    for stdout in ("crashed\n", "", "42\n", "null\n", "{}\n"):
        assert bench_pairs.parse_run(stdout, 1) == {
            "correct": False, "attempted": 0, "failed": 0, "metrics": {},
            "digest": None, "billed_mj": None}, stdout


def test_summary_of_ten_pairs():
    parent = [0.30 + 0.001 * i for i in range(10)]
    change = [0.27 + 0.001 * i for i in range(10)]
    change[3] = 0.40  # one pair lost
    runs = {"ta_sweep": [(result(p), result(c)) for p, c in zip(parent, change)]}
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert summary["pairs"]["ta_sweep.run_s"][0] == [0.3, 0.27]
    row = summary["rows"]["ta_sweep.run_s"]
    assert row["pairs_won"] == 9
    assert row["parent_q1_median_q3"] == [0.30225, 0.3045, 0.30675]
    assert row["parent_iqr"] == 0.0045
    assert row["change_q1_median_q3"][1] == 0.2755
    assert row["change_worse_by"] == round((0.2755 - 0.3045) / 0.3045, 4)
    assert row["verdict"] == "within bound"
    # higher is better: the faster side wins the same nine pairs
    assert summary["rows"]["ta_sweep.ops_per_s"]["pairs_won"] == 9
    assert summary["rows"]["ta_sweep.ops_per_s"]["change_worse_by"] < 0
    verdict = bench_pairs.claim(summary, "ta_sweep.run_s")
    assert (verdict["pairs_won"], verdict["pairs"], verdict["holds"]) == (9, 10, True)
    ok = summary["correctness"]["ta_sweep"]
    assert ok["all_correct"] and ok["one_digest_both_sides"]
    assert ok["failed_ops"] == {"parent": 0, "change": 0}
    assert bench_pairs.no_regression(summary) == {
        "regressed": [], "unresolved": [], "more_failed_ops": [], "holds": True}


def test_summary_flags_a_failed_run_a_moved_digest_and_a_lost_claim():
    runs = {"churn_toy": [(result(0.10), result(0.11, digest="sha256:cd")),
                          (result(0.10), result(0.09, correct=False, failed=2))]}
    summary = bench_pairs.summarize(runs, END_TO_END)
    ok = summary["correctness"]["churn_toy"]
    assert not ok["all_correct"] and not ok["one_digest_both_sides"]
    assert ok["failed_ops"] == {"parent": 0, "change": 2}
    assert not bench_pairs.claim(summary, "churn_toy.run_s")["holds"]
    assert summary["rows"]["churn_toy.run_s"]["pairs_won"] == 1


def test_claim_fails_on_more_failed_ops_or_an_incorrect_run():
    parent = [0.30 + 0.001 * i for i in range(10)]
    change = [0.27 + 0.001 * i for i in range(10)]

    def verdict(last):
        runs = {"ta_sweep": [(result(p), result(c)) for p, c in zip(parent, change)]}
        runs["ta_sweep"][-1] = (result(parent[-1]), last)
        return bench_pairs.claim(bench_pairs.summarize(runs, END_TO_END), "ta_sweep.run_s")

    # ten pairs won by a wide gap, so only correctness decides
    assert verdict(result(change[-1]))["holds"]
    # a correct run that failed more operations than the parent's runs
    assert not verdict(result(change[-1], failed=1))["holds"]
    # an incorrect run with no more failed operations
    assert not verdict(result(change[-1], correct=False))["holds"]


def test_no_regression_verdicts():
    def summary(parent, change, failed=0):
        runs = {"ta_sweep": [(result(p), result(c, failed=failed))
                             for p, c in zip(parent, change)]}
        return bench_pairs.summarize(runs, END_TO_END)

    tight = [0.30 + 0.001 * i for i in range(10)]
    wide = [0.20, 0.22, 0.25, 0.28, 0.30, 0.32, 0.35, 0.38, 0.40, 0.45]
    # the spread of tight is 1.5% of its median: a 10% slower change is
    # within the 25% bound, a 40% slower one regressed
    assert summary(tight, [t * 1.1 for t in tight])["rows"]["ta_sweep.run_s"][
        "verdict"] == "within bound"
    slow = summary(tight, [t * 1.4 for t in tight])
    assert slow["rows"]["ta_sweep.run_s"]["verdict"] == "regressed"
    assert slow["rows"]["ta_sweep.ops_per_s"]["verdict"] == "regressed"
    verdict = bench_pairs.no_regression(slow)
    assert verdict["regressed"] == ["ta_sweep.run_s", "ta_sweep.ops_per_s"]
    assert not verdict["holds"]
    # the spread of wide is 39% of its median, wider than the bound:
    # an unchanged median shows nothing, unless every change run beats
    # every parent run
    same = summary(wide, wide)
    assert same["rows"]["ta_sweep.run_s"]["parent_spread"] > 0.25
    assert same["rows"]["ta_sweep.run_s"]["verdict"] == "unresolved"
    verdict = bench_pairs.no_regression(same)
    assert verdict["unresolved"] == ["ta_sweep.run_s", "ta_sweep.ops_per_s"]
    assert verdict["holds"]
    faster = summary(wide, [0.10 + 0.001 * i for i in range(10)])
    assert faster["rows"]["ta_sweep.run_s"]["verdict"] == "within bound"
    # a larger share of failed operations fails the verdict
    failing = summary(tight, tight, failed=1)
    assert failing["correctness"]["ta_sweep"]["failed_share"] == {"parent": 0.0, "change": 0.1}
    assert bench_pairs.no_regression(failing) == {
        "regressed": [], "unresolved": [], "more_failed_ops": ["ta_sweep"], "holds": False}


def test_checkouts_extract_both_sides_and_touch_no_ref(tmp_path, monkeypatch):
    for var in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{var}_NAME", "bench")
        monkeypatch.setenv(f"GIT_{var}_EMAIL", "bench@example.invalid")
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", os.devnull)
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
    repo, clean, dirty = tmp_path / "repo", tmp_path / "clean", tmp_path / "dirty"
    for path in (repo, clean, dirty):
        path.mkdir()

    def git(*args):
        return subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True,
                              check=True).stdout

    git("init", "-q")
    (repo / "tracked.txt").write_text("parent\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "parent")
    head = git("rev-parse", "--short", "HEAD").strip()
    # with only an untracked file, the change is HEAD itself
    (repo / "untracked.txt").write_text("untracked\n")
    sides = bench_pairs.checkouts("HEAD", clean, repo)
    assert sides["change"][0] == sides["parent"][0] == head
    # a modified tracked file and a staged new file make a stash commit
    (repo / "tracked.txt").write_text("change\n")
    (repo / "staged.txt").write_text("staged\n")
    git("add", "staged.txt")
    status = git("status", "--porcelain")
    sides = bench_pairs.checkouts("HEAD", dirty, repo)
    (parent, parent_dir), (change, change_dir) = sides["parent"], sides["change"]
    assert parent == head and change != head
    assert (parent_dir, change_dir) == (dirty / "parent", dirty / "change")
    assert sorted(p.name for p in parent_dir.iterdir()) == ["tracked.txt"]
    assert (parent_dir / "tracked.txt").read_text() == "parent\n"
    assert sorted(p.name for p in change_dir.iterdir()) == ["staged.txt", "tracked.txt"]
    assert (change_dir / "tracked.txt").read_text() == "change\n"
    # no ref, index, working-tree or stash-list change
    assert git("stash", "list") == ""
    assert git("status", "--porcelain") == status
    assert (repo / "tracked.txt").read_text() == "change\n"
