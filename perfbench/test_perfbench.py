"""Tests of the benchmark itself: generator, op clock, gate and tracer.

Everything here runs on the toy profile, where a full scenario takes
milliseconds; pairing counts do not depend on the profile.
"""

from __future__ import annotations

import inspect
import sys

import pytest

import layers
import measure
import probes
import workloads
from ibetrust import sim


def small_plan(seed: int = 7) -> workloads.Plan:
    """A toy network that joins, re-reports, keys sessions and is attacked."""
    plan = workloads.Plan("small", "toy", seed)
    nodes = [plan.add_node(n) for n in workloads.node_names(12)]
    outsider = plan.add_node("outsider-001")
    for _ in range(2):
        for nid in nodes:
            plan.join(nid)
    for _ in range(6):
        plan.ake(*plan.random_mutual_pair())
    plan.replay_ta(nodes[3])
    plan.replay_ake(plan.sessions[0][0])
    plan.impersonate(outsider, nodes[0])
    plan.impersonate(nodes[1], nodes[2])
    plan.fake_node(999)
    plan.modified_ake(*plan.random_mutual_pair())
    plan.modified_ta_request(nodes[5], "V")
    plan.modified_ta_ack(nodes[6])
    return plan


def event_count(wl, kind: str) -> int:
    return sum(1 for e in sim.parse_scenario(wl.text).events if e.kind == kind)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_seeded_and_keeps_its_shape(name):
    first, again = workloads.generate(name, 1), workloads.generate(name, 1)
    held_out = workloads.generate(name, 90210)
    assert first.text == again.text
    assert held_out.text != first.text
    assert held_out.summary == first.summary
    assert held_out.expected_phases.keys() == first.expected_phases.keys()
    assert sorted(map(len, held_out.attack_reasons)) == sorted(map(len, first.attack_reasons))
    assert name in workloads.WHY and first.op_kind in workloads.OP_DEFINITION


def test_generator_refuses_a_session_the_trust_lists_would_gate():
    plan = workloads.Plan("gate", "toy", 1)
    a, b = plan.add_node("node-001"), plan.add_node("node-002")
    plan.join(a)
    plan.join(b)  # b lists a, but a's list was taken before b joined
    with pytest.raises(AssertionError, match="not mutually listed"):
        plan.ake(a, b)
    plan.join(a)
    plan.ake(a, b)


def test_held_out_seed_passes_every_check_on_churn_toy():
    wl = workloads.generate("churn_toy", 90210)
    rep = measure.run_repeat(wl)
    assert rep.problems == []
    assert rep.clock.failed == 0 and rep.clock.attempted == len(rep.clock.samples_ns)


@pytest.mark.parametrize("op_kind,event", [("ta_round", "ta"), ("ake_session", "ake")])
def test_op_clock_groups_calls_into_ops(op_kind, event):
    plan = workloads.Plan("clock", "toy", 3)
    nodes = [plan.add_node(n) for n in workloads.node_names(6)]
    for _ in range(2):
        for nid in nodes:
            plan.join(nid)
    for _ in range(10):
        plan.ake(*plan.random_mutual_pair())
    wl = plan.build(op_kind)
    rep = measure.run_repeat(wl)
    assert rep.problems == []
    assert rep.clock.attempted == event_count(wl, event) == len(rep.clock.samples_ns)
    assert rep.clock.failed == 0


def test_attack_deliveries_are_ops_and_all_blocked():
    wl = small_plan().build("attack_delivery")
    rep = measure.run_repeat(wl)
    assert rep.problems == []
    assert rep.clock.attempted == len(wl.attack_reasons) == 8
    assert rep.clock.failed == 0


def test_gate_catches_an_attack_that_gets_through():
    wl = small_plan().build("attack_delivery")
    scenario = sim.parse_scenario(wl.text)
    report = sim.Simulation(scenario, nonce_check=False).run().to_dict()
    problems = measure.check_report(wl, report)
    assert any("replay#0: succeeded" in p for p in problems)


def _bindings():
    """Every attribute of the ibetrust modules and of the classes they define."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("ibetrust") and mod is not None:
            for name, obj in vars(mod).items():
                out[(modname, name)] = obj
                if inspect.isclass(obj) and obj.__module__ == modname:
                    for attr, raw in vars(obj).items():
                        out[(modname, name, attr)] = raw
    return out


def traced_repeat(wl):
    tracer = layers.Tracer()
    tracer.install()
    try:
        rep = measure.run_repeat(wl, tracer=tracer)
    finally:
        tracer.restore()
    return tracer, rep


def test_tracer_patches_where_names_are_bound_and_restores_everything():
    from ibetrust import ake, ibe, protocol
    before = _bindings()
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert ake.hash_to_point is not before[("ibetrust.ake", "hash_to_point")]
        assert ake.hash_to_point is ibe.hash_to_point
        assert protocol.boot is not before[("ibetrust.protocol", "boot")]
        assert len(tracer.patched()) > 100
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_repeat_exactly_and_match_the_layers():
    wl = small_plan().build("attack_delivery")
    runs = [traced_repeat(wl) for _ in range(2)]
    counts = [t.step_counts(r.setup_lo, r.run_hi) for t, r in runs]
    assert counts[0] == counts[1]
    m = layers.layer_metrics(*runs[0])
    assert m["ibe.encrypt.pairings"] == m["ibe.decrypt.pairings"] == 1
    assert m["ake.pairings"] == 2
    assert 0 < m["protocol.accept_ratio"] < 1
    shares = [m[f"{mod}.self_share"] for mod in
              ("curve", "protocol", "codec", "boot", "energy", "sim")]
    assert all(s > 0 for s in shares) and sum(shares) <= 1
    for name in m:
        layers.unit_of(name)


def test_roadmap_pairing_counts_at_200_trusted_nodes():
    """1 node-side encrypt pairing, 27 at the BS, 26 for node-side ack
    decryption at 200 trusted nodes; 1 + 1 per AKE session."""
    plan = workloads.Plan("roadmap", "toy", 5)
    nodes = [plan.add_node(n) for n in workloads.node_names(200)]
    for nid in nodes:
        plan.join(nid)
    plan.join(nodes[0])
    plan.ake(nodes[0], nodes[-1])
    tracer, rep = traced_repeat(plan.build("queue_item"))
    assert rep.problems == []

    def last(step):
        idx = max(i for i, s in enumerate(tracer.spans) if s[layers.NAME] == step)
        return tracer.descendants(idx)[layers.PAIRING]

    assert last("protocol.ta_request") == 1
    assert last("protocol.bs_handle_ta") == 27
    assert last("protocol.node_handle_ack") == 26
    assert last("protocol.ake_initiate") == 1
    assert last("protocol.peer_authenticate") == 1


def test_bundled_report_digests_are_unchanged():
    for name, _, verdict in probes.bundled_runs():
        assert verdict == "report digest unchanged", name
