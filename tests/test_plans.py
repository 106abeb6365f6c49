"""Whole runs checked against an independent model (Claessen and Hughes,
QuickCheck, ICFP 2000).

Each seeded plan declares 3-6 members, an outsider that never boots and
a node with a tampered image, joins them, then takes 4-15 random legal
steps: re-reports, terminations, key exchanges and every attack kind.
perfbench's workloads.Plan models the outcome of each step as it is
scheduled, and measure.check_report compares the program's report with
that model: final phases, key-confirmed sessions, and each attack
blocked for one of its allowed reasons.  Both modules are imported from
perfbench/ as they are.  The test also compares the trust lists, which
check_report does not read: the base station's last snapshot and the
list each trusted node installed last.

Ciphertext flips of a trust report or an ack run only on demo plans:
on toy a flipped block re-encrypts to itself with chance 1/18, so it
may fail as mac_mismatch instead of decrypt_failure, as the README
documents.  Each member takes at most one re-authenticating step after
it joins (an ack flip costs it two accepted reports), which keeps the
chance that a legitimate 2-byte nonce repeats, a replay by design,
under 3e-4 per plan.
"""

import json
import re
import sys
from pathlib import Path

import pytest

from ibetrust import sim

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import measure  # noqa: E402
import workloads  # noqa: E402

TOY_PLANS = 100
DEMO_PLANS = 10
FLIPS = ("modify_ta_request_u", "modify_ta_request_v", "modify_ta_ack")
LIST_LINE = re.compile(r"^\[[^\]]*\] (\S+) trusted; list \[(.*)\]$")


def candidates(plan, fresh):
    """Each step kind -> the arguments it may legally take now."""
    trusted = plan.trusted()
    rejoin = sorted(n for n in fresh if plan.phase[n] in ("trusted", "terminated"))
    pairs = [(a, b) for a in trusted for b in sorted(plan.lists[a])
             if plan.mutually_listed(a, b)]
    out = {
        "reauth": rejoin,
        "terminate": trusted,
        "ake": pairs,
        "modify_ake": pairs,
        "impersonate_unlisted": trusted,
        "impersonate_listed": [(c, t) for t in trusted for c in sorted(plan.lists[t] - {t})],
        "replay_ta": sorted(plan.sent_ta),
        "replay_ake": sorted(a for a, (b, intact) in plan.first_ake.items()
                             if intact and plan.phase[b] == "trusted" and a in plan.lists[b]),
        "fake_node": range(len(plan.node_specs) + 1, 0x10000),
    }
    if plan.profile == "demo":
        out.update(dict.fromkeys(FLIPS, rejoin))
    return out


def take(plan, kind, arg, outsider):
    if kind == "reauth":
        plan.join(arg)
    elif kind == "terminate":
        plan.terminate(arg)
    elif kind == "ake":
        plan.ake(*arg)
    elif kind == "modify_ake":
        plan.modified_ake(*arg)
    elif kind == "impersonate_unlisted":
        plan.impersonate(outsider, arg)
    elif kind == "impersonate_listed":
        plan.impersonate(*arg)
    elif kind == "replay_ta":
        plan.replay_ta(arg)
    elif kind == "replay_ake":
        plan.replay_ake(arg)
    elif kind == "fake_node":
        plan.fake_node(arg)
    elif kind == "modify_ta_ack":
        plan.modified_ta_ack(arg)
    else:
        plan.modified_ta_request(arg, kind[-1].upper())


def random_plan(profile, seed):
    """A seeded plan and the step kinds it took."""
    plan = workloads.Plan("plan", profile, seed)
    rng = plan.rng
    members = [plan.add_node(n) for n in workloads.node_names(rng.randint(3, 6))]
    outsider = plan.add_node("outsider-001")
    tampered = plan.add_node("tampered-001", tamper_level=rng.choice((2, 3)))
    order = members + [tampered]
    rng.shuffle(order)
    for nid in order:
        if nid == tampered:
            plan.boot(nid, tampered=True)
        else:
            plan.join(nid)
    fresh = set(members)
    kinds = []
    for _ in range(rng.randint(4, 15)):
        legal = {k: args for k, args in candidates(plan, fresh).items() if args}
        kind = rng.choice(sorted(legal))
        arg = rng.choice(legal[kind])
        if kind == "reauth" or kind in FLIPS:
            fresh.discard(arg)
        take(plan, kind, arg, outsider)
        kinds.append(kind)
    return plan, kinds


PLANS = ([pytest.param("toy", s, id=f"toy-{s}") for s in range(TOY_PLANS)]
         + [pytest.param("demo", s, id=f"demo-{s}") for s in range(DEMO_PLANS)])


@pytest.mark.parametrize("profile, seed", PLANS)
def test_run_matches_its_plan(profile, seed):
    plan = random_plan(profile, seed)[0]
    workload = plan.build("queue_item")
    simulation = sim.Simulation(sim.parse_scenario(workload.text, name=workload.name))
    clock = measure.OpClock(simulation, workload)
    report = json.loads(simulation.run().to_json())
    clock.close()
    assert measure.check_report(workload, report) == []
    assert clock.attempted > 0 and clock.failed == 0
    assert report["trust_snapshots"][-1][1] == sorted(plan.bs_trusted)
    installed = {m[1]: m[2].split(", ") for m in map(LIST_LINE.match, report["event_log"]) if m}
    for nid in plan.trusted():
        assert installed[nid] == sorted(plan.lists[nid]), nid


def test_plans_take_every_step_kind():
    toy = {k for s in range(TOY_PLANS) for k in random_plan("toy", s)[1]}
    demo = {k for s in range(DEMO_PLANS) for k in random_plan("demo", s)[1]}
    every = set(candidates(workloads.Plan("plan", "demo", 0), set()))
    assert toy == every - set(FLIPS)
    assert set(FLIPS) <= demo
