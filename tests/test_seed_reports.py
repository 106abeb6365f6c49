"""The four perfbench workloads at seed 211, pinned: the sha256 of the
report and the billed total, checked as the benchmark checks them.

The report is the one perfbench's measure.run_repeat writes, so a
change to billing, pricing or report rendering that moves a byte fails
here.  churn_toy runs twice in one process: the second repeat must
match the first, which catches state that outlives a Simulation.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 211


@pytest.fixture(scope="module")
def bench():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import measure
    import workloads

    return measure, workloads


@pytest.mark.parametrize("name, digest, billed_mj, repeats", [
    ("ta_sweep",
     "a457ab90c8ebf266649ca6ce17a8918ae915c93c806f7a578d6bf8ef59adf862", "4450.698990", 1),
    ("ake_mesh",
     "fca35fd8034c56723d97b1558dca7e6e68df3d6a44b3645ef00f6a7330af64a0", "18701.303700", 1),
    ("reject_flood",
     "2fa6e57d1f97d17de4086431d647cec0cf18a60e108497a394f626927ce49a1b", "8601.717780", 1),
    ("churn_toy",
     "bab8ab4d0a33356f634b6e5b73c9419af19bcbbcc2f9682a7b014e56f23efe6b", "99382.797840", 2),
], ids=["ta_sweep", "ake_mesh", "reject_flood", "churn_toy"])
def test_report_digest_and_billed_total(bench, name, digest, billed_mj, repeats):
    measure, workloads = bench
    workload = workloads.generate(name, SEED)
    for _ in range(repeats):
        rep = measure.run_repeat(workload)
        assert rep.problems == []
        assert (rep.digest, f"{rep.billed_mj:.6f}") == (digest, billed_mj)
