"""One timed repeat of a workload: set-up, run, report, op latency, checks.

Op latency is measured from outside the program by shadowing the
Simulation instance's handle_event and deliver with timing wrappers and
attributing each call to the op it belongs to (see workloads.OP_DEFINITION).
The class itself is never modified, so nothing needs restoring.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import re
import time
from array import array
from collections import Counter
from dataclasses import dataclass

from ibetrust import sim

SESSION_LINE = re.compile(r"^\[[^\]]*\] session (\S+) <-> (\S+) established$")


@dataclass
class Call:
    """One handle_event or deliver call as the op clock saw it."""

    kind: str          # "event" or "deliver"
    ns: int
    rejected: bool     # the call added a rejection to the run
    span_lo: int = 0   # spans the call created, when a tracer is active
    span_hi: int = 0


class OpClock:
    """Times every queue item of one Simulation and groups them into ops."""

    def __init__(self, simulation: sim.Simulation, workload, tracer=None):
        self.sim = simulation
        self.workload = workload
        self.tracer = tracer
        self.calls: list[Call] = []       # kept only when tracing
        self.samples_ns = array("q")      # one per finished op
        self.attempted = 0
        self.failed = 0
        self._next_op = 0
        self._open: dict[tuple, list] = {}   # key -> [op id, ns so far]
        self._handle_event = simulation.handle_event
        self._deliver = simulation.deliver
        simulation.handle_event = self.handle_event
        simulation.deliver = self.deliver

    # -- op bookkeeping

    def _new_op(self) -> int:
        self._next_op += 1
        self.attempted += 1
        return self._next_op

    def _finish(self, ns: int, ok: bool) -> None:
        self.samples_ns.append(ns)
        if not ok:
            self.failed += 1

    def _timed(self, kind: str, op: int | None, fn, *args) -> Call:
        tracer = self.tracer
        before = len(self.sim.rejections)
        lo = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.op = op
        t0 = time.perf_counter_ns()
        fn(*args)
        ns = time.perf_counter_ns() - t0
        if tracer:
            tracer.op = None
        call = Call(kind, ns, len(self.sim.rejections) > before, lo,
                    len(tracer.spans) if tracer else 0)
        if tracer:
            self.calls.append(call)
        return call

    def _attack_ok(self, attack) -> bool:
        for i, a in enumerate(self.sim.attacks):
            if a is attack:
                reasons = self.workload.attack_reasons[i]
                return attack.verdict == sim.BLOCKED and attack.detail in reasons
        return False

    # -- wrappers

    def handle_event(self, event) -> None:
        kind = self.workload.op_kind
        if kind == "queue_item":
            call = self._timed("event", self._new_op(), self._handle_event, event)
            if event.kind == "attack":
                # injected and still awaiting its target, not a no-op
                ok = self.sim.attacks[-1].verdict == "pending"
            else:
                ok = not call.rejected
            self._finish(call.ns, ok)
            return
        key = None
        if kind == "ta_round" and event.kind == "ta":
            key = ("ta", event.node)
        elif kind == "ake_session" and event.kind == "ake":
            key = ("ake", event.initiator, event.peer)
        if key is None:
            self._timed("event", None, self._handle_event, event)
            return
        op = self._new_op()
        call = self._timed("event", op, self._handle_event, event)
        if call.rejected:
            self._finish(call.ns, False)
        else:
            self._open[key] = [op, call.ns]

    def deliver(self, time_, tx) -> None:
        kind = self.workload.op_kind
        if kind == "queue_item" or (kind == "attack_delivery" and tx.attack is not None):
            call = self._timed("deliver", self._new_op(), self._deliver, time_, tx)
            ok = self._attack_ok(tx.attack) if tx.attack is not None else not call.rejected
            self._finish(call.ns, ok)
            return
        key, closes = None, False
        if tx.attack is None and kind == "ta_round":
            if tx.label == "ta-request":
                key = ("ta", tx.origin)
            elif tx.label == "ta-ack":
                key, closes = ("ta", self.sim.entity_name(tx.dst_wire)), True
        elif tx.attack is None and kind == "ake_session" and tx.label == "ake":
            key, closes = ("ake", tx.origin, self.sim.entity_name(tx.dst_wire)), True
        entry = self._open.get(key) if key else None
        if entry is None:
            self._timed("deliver", None, self._deliver, time_, tx)
            return
        call = self._timed("deliver", entry[0], self._deliver, time_, tx)
        entry[1] += call.ns
        if call.rejected or closes:
            del self._open[key]
            ok = not call.rejected
            if kind == "ta_round":
                ok = ok and self.sim.nodes[key[1]].phase == "trusted"
            self._finish(entry[1], ok)

    def close(self) -> None:
        """Count ops that never completed (and undelivered attacks) as failed,
        and let go of the simulation so repeats do not pile up in memory."""
        self.failed += len(self._open)
        self._open.clear()
        if self.workload.op_kind == "attack_delivery":
            missing = len(self.workload.attack_reasons) - self.attempted
            self.attempted += missing
            self.failed += missing
        self.sim = self._handle_event = self._deliver = None


def check_report(workload, report: dict) -> list[str]:
    """Compare a report with the outcome the generator modelled."""
    problems = []
    if report["final_phases"] != workload.expected_phases:
        wrong = {n: p for n, p in report["final_phases"].items()
                 if workload.expected_phases.get(n) != p}
        problems.append(f"final phases differ: {dict(list(wrong.items())[:5])}")
    sessions = [m.groups() for m in map(SESSION_LINE.match, report["event_log"]) if m]
    if sessions != [tuple(s) for s in workload.expected_sessions]:
        problems.append(f"{len(sessions)} sessions key-confirmed, "
                        f"{len(workload.expected_sessions)} scheduled")
    attacks = report["attacks"]
    if len(attacks) != len(workload.attack_reasons):
        problems.append(f"{len(attacks)} attacks resolved, "
                        f"{len(workload.attack_reasons)} scheduled")
    for i, (a, reasons) in enumerate(zip(attacks, workload.attack_reasons)):
        if a["verdict"] != sim.BLOCKED or a["detail"] not in reasons:
            problems.append(f"attack {a['kind']}#{i}: {a['verdict']} ({a['detail']}), "
                            f"expected blocked with {'/'.join(reasons)}")
    rejected = Counter(r[2] for r in report["rejections"])
    if rejected != Counter(a["detail"] for a in attacks):
        problems.append(f"rejections {dict(rejected)} are not exactly the attacks' reasons")
    return problems


CHECKS_PER_REPEAT = 4


@dataclass
class Repeat:
    setup_ns: int
    run_ns: int
    digest: str
    billed_mj: float
    rejection_counts: dict
    problems: list[str]
    clock: OpClock
    # span indices where set-up and run began and where the run ended
    setup_lo: int = 0
    run_lo: int = 0
    run_hi: int = 0


def run_repeat(workload, tracer=None) -> Repeat:
    """Set up, run and report one scenario; time set-up and run separately.

    run_ns covers Simulation.run() plus SimReport.to_json().  The checks
    read the JSON report the program wrote.
    """
    scenario = sim.parse_scenario(workload.text, name=workload.name)
    gc.collect()
    setup_lo = len(tracer.spans) if tracer else 0
    t0 = time.perf_counter_ns()
    simulation = sim.Simulation(scenario)
    setup_ns = time.perf_counter_ns() - t0
    clock = OpClock(simulation, workload, tracer)
    run_lo = len(tracer.spans) if tracer else 0
    t1 = time.perf_counter_ns()
    report = simulation.run()
    text = report.to_json()
    run_ns = time.perf_counter_ns() - t1
    run_hi = len(tracer.spans) if tracer else 0
    clock.close()
    billed = math.fsum(j for per in report.energy_report.per_node.values()
                       for j in per.values())
    return Repeat(
        setup_ns=setup_ns,
        run_ns=run_ns,
        digest=hashlib.sha256(text.encode()).hexdigest(),
        billed_mj=billed * 1e3,
        rejection_counts=report.rejection_counts(),
        problems=check_report(workload, json.loads(text)),
        clock=clock,
        setup_lo=setup_lo,
        run_lo=run_lo,
        run_hi=run_hi,
    )


def setup_only(workload) -> int:
    """Time one more Simulation construction, for a steadier setup_s median."""
    scenario = sim.parse_scenario(workload.text, name=workload.name)
    gc.collect()
    t0 = time.perf_counter_ns()
    sim.Simulation(scenario)
    return time.perf_counter_ns() - t0
