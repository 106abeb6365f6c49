"""Span tracing of the program's layers from outside the program.

Tracer.install() replaces the public functions and methods of the
traced ibetrust modules with wrappers that record one span per call:
name, start, end, parent span and the op id the op clock set.  A module
function is rebound in every ibetrust module that imported it by name
(ake.hash_to_point and protocol.boot, for instance), and a method is
replaced on its class.  Tracer.restore() puts every original back.

Curve.add runs thousands of times per pairing, so it is counted (against
the innermost open span) rather than timed.  The F_p and F_p^2 helpers
below it are neither: the wrappers would cost more than the work.

Spans stay in memory; write_spans() saves them when the run ends.  A
span's self time is its duration minus that of its direct children.
Because the program is single-threaded, the spans a call creates are
exactly the contiguous slice from its own index to its `hi` mark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter

TRACED_MODULES = ("curve", "ibe", "ake", "protocol", "codec", "boot", "energy", "sim")

COUNTED = {("Curve", "add")}
UNTRACED = {("Curve", n) for n in ("contains", "neg", "f2_add", "f2_sub", "f2_mul",
                                    "f2_inv", "gt_mul", "gt_inv")}

# span record fields; RAISED is 1 when the call ended in an exception
NAME, START, END, PARENT, OP, HI, VALUE, RAISED = range(8)

PAIRING = "curve.Curve.pairing"
MUL = "curve.Curve.mul"
FINAL_EXP = "curve.Curve.f2_pow"
HASH = "ibe.hash_to_point"
ENCRYPT = "ibe.encrypt"
DECRYPT = "ibe.decrypt"
FRAGMENT = "codec.fragment"
LEDGER_ADD = "energy.EnergyLedger.add"

PROTOCOL_STEPS = (
    "protocol.dp_provision", "protocol.pdp_register", "protocol.Node.power_on",
    "protocol.ta_request", "protocol.bs_handle_ta", "protocol.node_handle_ack",
    "protocol.ake_initiate", "protocol.peer_authenticate", "sim.Simulation.inject",
)
COUNT_COLUMNS = (("pairings", PAIRING), ("scalar_mults", MUL), ("curve_adds", None),
                 ("hash_to_point", HASH), ("ibe_blocks_enc", ENCRYPT),
                 ("ibe_blocks_dec", DECRYPT), ("frames", None),
                 ("ledger_entries", LEDGER_ADD))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.adds: dict[int, int] = {}   # innermost span index -> Curve.add calls
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers

    def _span(self, name: str, fn, measure=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, 0, 0, 1]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
                rec[RAISED] = 0
                if measure is not None:
                    rec[VALUE] = measure(result)
                return result
            finally:
                rec[END] = clock()
                stack.pop()
                rec[HI] = len(spans)
        return traced

    def _count(self, fn):
        stack, adds = self.stack, self.adds

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = stack[-1] if stack else -1
            adds[key] = adds.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counted

    # -- install / restore

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"ibetrust.{name}") for name in TRACED_MODULES}
        replaced: dict[int, object] = {}
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    measure = len if f"{short}.{name}" == FRAGMENT else None
                    replaced[id(obj)] = self._span(f"{short}.{name}", obj, measure)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(short, obj)
        # rebind every module-level name that refers to a wrapped function
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("ibetrust") or mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._set(mod, name, replaced[id(obj)])

    def _install_class(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or (cls.__name__, attr) in UNTRACED:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if (cls.__name__, attr) in COUNTED:
                self._set(cls, attr, self._count(raw))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._span(name, raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._span(name, raw.__func__)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._saved)

    # -- queries

    def descendants(self, idx: int) -> Counter:
        """Names of the spans under span idx, plus Curve.add calls in it."""
        rec = self.spans[idx]
        names = Counter(s[NAME] for s in self.spans[idx + 1:rec[HI]])
        names["curve_adds"] = sum(self.adds.get(j, 0) for j in range(idx, rec[HI]))
        names["frames"] = sum(s[VALUE] for s in self.spans[idx + 1:rec[HI]]
                              if s[NAME] == FRAGMENT)
        return names

    def step_counts(self, lo: int = 0, hi: int | None = None) -> dict[str, dict[str, int]]:
        """Deterministic per-step op counts for spans in [lo, hi)."""
        hi = len(self.spans) if hi is None else hi
        table: dict[str, Counter] = {}
        for idx in range(lo, hi):
            name = self.spans[idx][NAME]
            if name in PROTOCOL_STEPS:
                row = table.setdefault(name, Counter())
                row["calls"] += 1
                below = self.descendants(idx)
                for column, span_name in COUNT_COLUMNS:
                    row[column] += below[span_name or column]
        return {step: dict(table[step]) for step in PROTOCOL_STEPS if step in table}

    def write_spans(self, path, lo: int = 0) -> None:
        with open(path, "w") as fh:
            for s in self.spans[lo:]:
                fh.write(json.dumps({"name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                                     "parent": s[PARENT] - lo if s[PARENT] >= lo else None,
                                     "op": s[OP], "raised": bool(s[RAISED])}) + "\n")


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def layer_metrics(tracer: Tracer, rep) -> dict[str, float]:
    """Per-layer metrics of one traced repeat (a measure.Repeat).

    Counts are per op over spans the op clock attributed to an op; times
    are per call over the run (extract over set-up); shares are each
    module's self time over the run's total self time.
    """
    spans, calls, ops = tracer.spans, rep.clock.calls, rep.clock.attempted
    setup_lo, run_lo, run_hi = rep.setup_lo, rep.run_lo, rep.run_hi
    run = range(run_lo, run_hi)
    dur = {i: spans[i][END] - spans[i][START] for i in run}
    child = Counter()
    for i in run:
        if spans[i][PARENT] >= 0:
            child[spans[i][PARENT]] += dur[i]
    self_ns = {i: dur[i] - child[i] for i in run}
    by_name: dict[str, list[int]] = {}
    for i in run:
        by_name.setdefault(spans[i][NAME], []).append(i)
    ops = max(ops, 1)

    def idx(name):
        return by_name.get(name, [])

    def per_op(name):
        return sum(1 for i in idx(name) if spans[i][OP] is not None) / ops

    def ms(indices):
        return _mean([dur[i] for i in indices]) / 1e6

    def parent_is(i, name):
        p = spans[i][PARENT]
        return p >= 0 and spans[p][NAME] == name

    def under(parent_name, child_name):
        return sum(1 for i in idx(child_name) if parent_is(i, parent_name))

    total_self = sum(self_ns.values()) or 1

    def share(module):
        return sum(v for i, v in self_ns.items()
                   if spans[i][NAME].split(".", 1)[0] == module) / total_self

    pairings = idx(PAIRING)
    n_pair = max(len(pairings), 1)
    outside_mul = [i for i in idx(MUL) if not parent_is(i, PAIRING)]
    m: dict[str, float] = {}
    m["curve.pairing.calls"] = per_op(PAIRING)
    m["curve.pairing.ms"] = ms(pairings)
    m["curve.pairing.check_ms"] = sum(dur[i] for i in idx(MUL) if parent_is(i, PAIRING)) / n_pair / 1e6
    m["curve.pairing.final_exp_ms"] = sum(dur[i] for i in idx(FINAL_EXP)
                                          if parent_is(i, PAIRING)) / n_pair / 1e6
    m["curve.pairing.miller_ms"] = sum(self_ns[i] for i in pairings) / n_pair / 1e6
    m["curve.mul.calls"] = sum(1 for i in outside_mul if spans[i][OP] is not None) / ops
    m["curve.mul.ms"] = ms(outside_mul)
    m["curve.add.calls"] = sum(n for i, n in tracer.adds.items()
                               if run_lo <= i < run_hi and spans[i][OP] is not None) / ops
    m["curve.self_share"] = share("curve")

    for name in (HASH, ENCRYPT, DECRYPT):
        short = name.split(".", 1)[1]
        m[f"ibe.{short}.calls"] = per_op(name)
        m[f"ibe.{short}.ms"] = ms(idx(name))
    for name in (ENCRYPT, DECRYPT):
        short = name.split(".", 1)[1]
        m[f"ibe.{short}.pairings"] = under(name, PAIRING) / max(len(idx(name)), 1)
    extracts = [i for i in range(setup_lo, run_lo) if spans[i][NAME] == "ibe.extract"]
    m["ibe.extract.ms"] = _mean([spans[i][END] - spans[i][START] for i in extracts]) / 1e6

    m["ake.initiate.ms"] = ms(idx("ake.initiate"))
    m["ake.respond.ms"] = ms(idx("ake.respond"))
    # pairings per completed initiate plus per completed respond
    m["ake.pairings"] = sum(
        _mean([tracer.descendants(i)[PAIRING] for i in idx(f"ake.{side}")
               if not spans[i][RAISED]])
        for side in ("initiate", "respond"))

    for step in ("ta_request", "bs_handle_ta", "node_handle_ack", "ake_initiate",
                 "peer_authenticate"):
        m[f"protocol.{step}.ms"] = ms(idx(f"protocol.{step}"))
    acks = [tracer.descendants(i)[ENCRYPT] for i in idx("protocol.bs_handle_ta")]
    acks = [n for n in acks if n]
    m["protocol.ack_blocks"] = _mean(acks)
    deliveries = [c for c in calls if c.kind == "deliver"]
    rejected = [c for c in deliveries if c.rejected]
    m["protocol.reject_pairings"] = _mean([
        sum(1 for s in spans[c.span_lo:c.span_hi] if s[NAME] == PAIRING) for c in rejected])
    m["protocol.accept_ratio"] = (len(deliveries) - len(rejected)) / max(len(deliveries), 1)
    m["protocol.self_share"] = share("protocol")

    m["codec.frames"] = sum(spans[i][VALUE] for i in idx(FRAGMENT)
                            if spans[i][OP] is not None) / ops
    m["codec.self_share"] = share("codec")
    m["boot.calls"] = float(len(idx("boot.boot")))
    m["boot.self_share"] = share("boot")
    m["energy.ledger_adds"] = per_op(LEDGER_ADD)
    m["energy.build_report_ms"] = sum(dur[i] for i in idx("energy.build_report")) / 1e6
    m["energy.self_share"] = share("energy")
    m["sim.queue_items"] = float(len(calls))
    m["sim.report_ms"] = sum(dur[i] for i in idx("sim.SimReport.to_json")) / 1e6
    m["sim.self_share"] = share("sim")
    return m


UNITS = {
    "calls": "calls/op", "ms": "ms/call", "pairings": "pairings/call", "self_share": "share",
    "check_ms": "ms/call", "final_exp_ms": "ms/call", "miller_ms": "ms/call",
    "ack_blocks": "blocks/ack", "reject_pairings": "pairings/reject",
    "accept_ratio": "ratio", "frames": "frames/op", "ledger_adds": "entries/op",
    "build_report_ms": "ms/run", "queue_items": "items/run", "report_ms": "ms/run",
    "overhead": "ratio",
}
UNIT_OVERRIDES = {"ake.pairings": "pairings/session", "boot.calls": "calls/run"}


def unit_of(metric: str) -> str:
    return UNIT_OVERRIDES.get(metric) or UNITS[metric.rsplit(".", 1)[1]]
