"""Whole runs on an independent curve kernel: the report must not move.

The test swaps Curve.mul, Curve.pairing and Curve.gt_pow for the
reference routines of oracles.py: affine double-and-add, the divisor
pairing over F_p^2, and square-and-multiply.  They keep no combs, no
Miller lines and no pairing values, but bump both pairing counters as
the kernel does.  Each scenario must then write the same report bytes
and ask for the same pairings as on the real kernel, so a cache that
returned a wrong value, or a fast path that answered differently,
shows up as a changed report.
"""

import hashlib
import json

import pytest

import oracles
from ibetrust import sim
from ibetrust.curve import GT_ONE, Curve


def oracle_mul(self, k, P):
    return oracles.double_and_add(self.p, k, P)


def oracle_pairing(self, A, B):
    self.pairing_count += 1
    if A is None or B is None:
        return GT_ONE
    self.pairings_computed += 1
    return oracles.pairing(self.p, self.q, A, B)


def oracle_gt_pow(self, x, k):
    return oracles.f2_pow(self.p, x, k % self.q)


def small_demo():
    """Six demo nodes, so the acks from the sixth report on hold two IBE
    blocks (2 + 2*6 + 4 bytes against 16), one key exchange between
    listed nodes and one replayed trust report."""
    names = [f"n{i}" for i in range(6)]
    return sim.parse_scenario(json.dumps({
        "profile": "demo",
        "seed": 3,
        "bs": {"master_seed": 5},
        "nodes": [{"id": n, "images": ["loader", f"kernel-{n}"]} for n in names],
        "events": [{"time": 0, "kind": "boot", "node": n} for n in names]
                  + [{"time": 1 + 5 * i, "kind": "ta", "node": n}
                     for i, n in enumerate(names)]
                  + [{"time": 40, "kind": "boot", "node": "n0"},
                     {"time": 41, "kind": "ta", "node": "n0"},
                     {"time": 50, "kind": "ake", "initiator": "n5", "peer": "n0"},
                     {"time": 60, "kind": "attack", "attack": {
                         "kind": "replay", "label": "ta-request", "source": "n5"}}],
    }))


def run_digest(scenario):
    simulation = sim.Simulation(scenario)
    text = simulation.run().to_json()
    return hashlib.sha256(text.encode()).hexdigest(), simulation


@pytest.mark.parametrize("scenario", [
    pytest.param(lambda: sim.load_scenario("demo"), id="bundled-demo"),
    pytest.param(lambda: sim.load_scenario("attacks"), id="bundled-attacks"),
    pytest.param(small_demo, id="small-demo"),
])
def test_oracle_kernel_writes_the_same_report(scenario):
    real, real_run = run_digest(scenario())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Curve, "mul", oracle_mul)
        mp.setattr(Curve, "pairing", oracle_pairing)
        mp.setattr(Curve, "gt_pow", oracle_gt_pow)
        oracle, oracle_run = run_digest(scenario())
    assert oracle == real
    assert oracle_run.params.curve.pairing_count == real_run.params.curve.pairing_count


def test_small_demo_covers_its_paths():
    report = sim.run(small_demo())
    assert set(report.final_phases.values()) == {"trusted"}
    assert sum("established" in line for line in report.event_log) == 1
    assert report.attacks == [
        {"kind": "replay", "verdict": "blocked", "detail": "nonce_replay"}]
