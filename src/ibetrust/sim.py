"""Scenario-driven discrete-event simulator.

A scenario file declares the nodes, a channel, and a timestamped
event schedule (boots, trust reports, key exchanges, terminations and
attack injections).  The run is fully determined by the scenario plus a
seed: the virtual clock, every frame on the air, every accept/reject
decision and the final report reproduce byte for byte.

Frames cost one time unit each on the air; a multi-frame message is
delivered as a batch once its last frame lands.  An adversary tap sees
every transmission at send time, which is what replay and modification
attacks feed on.
"""

from __future__ import annotations

import heapq
import json
import math
import random
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import ake as ake_mod
from . import codec, energy, ibe, protocol
from .boot import DEFAULT_TRUST_OFFSET, BootChain
from .errors import ConfigError, Reject

ATTACK_KINDS = ("replay", "modify", "fake_node", "impersonate")
LABELS = ("ta-request", "ta-ack", "ake")
BLOCKED = "blocked"
SUCCEEDED = "succeeded"
NO_OP = "no-op"
ADVERSARY = "adversary"  # origin of the frames an attack forges
# JSON admits lone surrogates ("\ud800"); UTF-8 can neither encode nor print them
_SURROGATE = re.compile("[\ud800-\udfff]")


# ---------------------------------------------------------------------------
# Scenario loading


@dataclass
class NodeSpec:
    id: str
    images: list[str]
    tamper_level: int | None = None


@dataclass
class AttackSpec:
    kind: str
    label: str = ""
    source: str = ""
    occurrence: int = 1  # 1-based among the selected sender's captures
    bit: int = 0
    claimed_wire: int = 0
    claimed: str = ""
    target: str = ""


@dataclass
class Event:
    time: float
    kind: str
    node: str = ""
    initiator: str = ""
    peer: str = ""
    attack: AttackSpec | None = None


@dataclass
class Scenario:
    name: str
    profile: str
    seed: int
    master_seed: int
    trust_offset: int
    nodes: list[NodeSpec]
    loss: float
    adversary_taps: bool
    events: list[Event]


def _is_int(v) -> bool:
    # JSON true/false arrive as bool, which is a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    # times render through float (f"{t:g}"), so an int must fit in one
    try:
        return (_is_int(v) or isinstance(v, float)) and math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def _is_text(v) -> bool:
    return isinstance(v, str) and not _SURROGATE.search(v)


def _is(kind):
    return lambda v: isinstance(v, kind)


def _int_in(lo, hi=math.inf):
    return lambda v: _is_int(v) and lo <= v <= hi


_REF = "{where}: {key} must reference a declared node, got {value!r}"
# the fields every event (and every attack) has, read before its kind picks its table
_EVENT = {"time": (None, lambda v: _is_real(v) and v >= 0,
                   "{where}: time must be a non-negative number"),
          "kind": (None, _is(str), "{where}: unknown event kind {value!r}")}
_ATTACK = {"kind": (None, lambda v: isinstance(v, str) and v in ATTACK_KINDS,
                    f"{{where}}: attack.kind must be one of {ATTACK_KINDS}")}
_SELECTOR = {**_ATTACK,
             "label": ("", lambda v: isinstance(v, str) and v in LABELS,
                       f"{{where}}: attack.label must be one of {LABELS}"),
             "source": ("", _is(str), "{where}: attack.source must be a declared node or "
                                      f"{protocol.BS_IDENTITY!r}")}
_NAME = "must be a non-empty string without lone surrogates"

# Every field of every scenario object: key -> (default, type-first test,
# message); a table's keys are its object's allowed keys.  A missing key
# reads as the default, which is tested like any value.
_FIELDS = {
    "scenario": {
        "name": (None, lambda v: _is_text(v) and v != "", f"name {_NAME}"),
        "profile": (None, lambda v: isinstance(v, str) and v in ibe.PROFILES,
                    f"profile must be one of {sorted(ibe.PROFILES)}, got {{value!r}}"),
        "seed": (0, _int_in(0), "seed must be a non-negative integer"),
        "bs": ({}, _is(dict), "bs must be an object"),
        "nodes": ([], _is(list), "nodes must be a list"),
        "channel": ({}, _is(dict), "channel must be an object"),
        "events": ([], _is(list), "events must be a list"),
    },
    "bs": {
        "master_seed": (0, _int_in(0), "bs.master_seed must be a non-negative integer"),
        "trust_offset": (DEFAULT_TRUST_OFFSET, _int_in(0, 56),
                         "bs.trust_offset must be an integer in [0, 56]"),
    },
    "node": {
        "id": (None, lambda v: _is_text(v) and v != "", f"{{where}}: id {_NAME}"),
        # the trust value is read from the level-2 image
        "images": (None,
                   lambda v: isinstance(v, list) and len(v) >= 2 and all(map(_is_text, v)),
                   "{where}: images must be a list of at least two strings "
                   "without lone surrogates"),
        "tamper_level": (None, lambda v: v is None or _is_int(v),
                         "{where}: tamper_level must be in [2, {levels}]"),
    },
    "channel": {
        "loss": (0.0, lambda v: _is_real(v) and 0 <= v <= 1,
                 "channel.loss must be a number in [0, 1]"),
        "adversary_taps": (True, _is(bool), "channel.adversary_taps must be a boolean"),
    },
    "event": {
        **dict.fromkeys(("boot", "ta", "terminate"), {**_EVENT, "node": (None, _is(str), _REF)}),
        "ake": {**_EVENT, "initiator": (None, _is(str), _REF), "peer": (None, _is(str), _REF)},
        "attack": {**_EVENT, "attack": (None, _is(dict), "{where}: attack must be an object")},
    },
    "attack": {
        "replay": {**_SELECTOR, "occurrence": (1, _int_in(1),
                                               "{where}: attack.occurrence must be >= 1")},
        "modify": {**_SELECTOR, "bit": (0, _int_in(0), "{where}: attack.bit must be >= 0")},
        "fake_node": {**_ATTACK, "claimed_wire": (
            0xFFFF, _int_in(1, 0xFFFF), "{where}: attack.claimed_wire must be in [1, 65535]")},
        "impersonate": {
            **_ATTACK,
            "claimed": ("", _is(str), "{where}: attack.claimed must be a declared node"),
            "target": ("", _is(str), "{where}: attack.target must be a declared node"),
        },
    },
}


def _reader(problems, where, obj, table, check_keys=True):
    """Report obj's keys outside table; return read(key, rule, default, **context),
    which returns obj[key] (`default` or the table's when absent) if the table's
    test and then the cross-field rule pass it, and else adds the message,
    formatted with where, key, value and context, to problems and returns the
    table default."""
    if check_keys:
        problems.extend(f"{where}: unknown key {key!r}" for key in obj if key not in table)

    def read(key, rule=None, default=None, **context):
        fallback, test, message = table[key]
        value = obj.get(key, fallback if default is None else default)
        if test(value) and (rule is None or rule(value)):
            return value
        problems.append(message.format(where=where, key=key, value=value, **context))
        return fallback

    return read


def parse_scenario(text: str, name: str = "<memory>") -> Scenario:
    """Parse and validate scenario text, reporting every problem at once.

    Each field is read through its object's `_FIELDS` table, so a Scenario
    holds only checked values and nothing downstream checks them again.
    The rules that tie fields together are the code below.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{name}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: scenario must be an object")
    problems: list[str] = []
    top = _reader(problems, name, raw, _FIELDS["scenario"])
    # a report names its scenario, and a saved report must hold a string
    scenario_name, profile, seed = top("name", default=name), top("profile"), top("seed")
    bs = _reader(problems, "bs", top("bs"), _FIELDS["bs"])
    master_seed, trust_offset = bs("master_seed"), bs("trust_offset")

    nodes: list[NodeSpec] = []
    ids: set[str] = set()
    raw_nodes = top("nodes")
    if len(raw_nodes) > 0xFFFF:  # 2-byte wire ids, and the base station holds 0
        problems.append(f"nodes: {len(raw_nodes)} listed, but 2-byte wire ids fit 65535")
    for i, entry in enumerate(raw_nodes):
        where = f"nodes[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be an object")
            continue
        node = _reader(problems, where, entry, _FIELDS["node"])
        if (nid := node("id")) is None:
            continue
        if nid in (protocol.BS_IDENTITY, ADVERSARY):
            problems.append(f"{where}: id {nid!r} is reserved")
        if nid in ids:
            problems.append(f"{where}: duplicate id {nid!r}")
        ids.add(nid)
        images = node("images") or ["?", "?"]  # a refused list counts two levels
        levels = len(images)
        tamper = node("tamper_level", lambda v: v is None or 2 <= v <= levels, levels=levels)
        nodes.append(NodeSpec(nid, list(images), tamper))

    channel = _reader(problems, "channel", top("channel"), _FIELDS["channel"])
    loss, taps = channel("loss"), channel("adversary_taps")

    events: list[Event] = []
    last_time = None
    for i, entry in enumerate(top("events")):
        where = f"events[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be an object")
            continue
        head = _reader(problems, where, entry, _EVENT, check_keys=False)
        t = head("time")
        t = 0.0 if t is None else t  # the order check reads a refused time as 0
        if last_time is not None and t < last_time:
            problems.append(f"{where}: timestamps must be non-decreasing")
        last_time = max(t, last_time or 0)
        if (kind := head("kind", lambda v: v in _FIELDS["event"])) is None:
            continue
        field = _reader(problems, where, entry, _FIELDS["event"][kind])
        if kind == "ake":
            a, b = field("initiator", ids.__contains__), field("peer", ids.__contains__)
            if a and a == b:
                problems.append(f"{where}: initiator and peer must differ")
            events.append(Event(t, kind, initiator=a, peer=b))
        elif kind != "attack":
            events.append(Event(t, kind, node=field("node", ids.__contains__)))
        elif (spec := field("attack")) is not None:
            akind = _reader(problems, where, spec, _ATTACK, check_keys=False)("kind")
            if akind is not None:
                events.append(Event(t, kind, attack=_attack(problems, where, spec, akind, ids)))

    if problems:
        raise ConfigError(f"{name}: " + "; ".join(problems))
    return Scenario(scenario_name, profile, seed, master_seed, trust_offset, nodes,
                    float(loss), taps, events)


def _attack(problems, where, spec, kind, ids) -> AttackSpec:
    field = _reader(problems, where, spec, _FIELDS["attack"][kind])
    if kind == "fake_node":
        return AttackSpec(kind, claimed_wire=field("claimed_wire"))
    if kind == "impersonate":
        atk = AttackSpec(kind, claimed=field("claimed", ids.__contains__),
                         target=field("target", ids.__contains__))
        claimed = spec.get("claimed")  # as given: equal undeclared names also collide
        if claimed and claimed == spec.get("target"):
            problems.append(f"{where}: attack.claimed and target must differ")
        return atk
    label = field("label")
    source = field("source", lambda v: v in ids or v == protocol.BS_IDENTITY)
    if label and source and (source == protocol.BS_IDENTITY) != (label == "ta-ack"):
        # only the base station sends ta-acks, and it sends nothing else
        sender = repr(protocol.BS_IDENTITY) if label == "ta-ack" else "a declared node"
        problems.append(f"{where}: attack.source of a {label} must be {sender}")
    if kind == "replay":
        return AttackSpec(kind, label, source, occurrence=field("occurrence"))
    return AttackSpec(kind, label, source, bit=field("bit"))


def bundled_scenarios() -> list[str]:
    root = resources.files("ibetrust.scenarios")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario(source: str) -> Scenario:
    """Load a scenario from a file path or a bundled scenario name.  A
    directory is neither; "" names the working directory."""
    path = Path(source)
    if path.exists() and not path.is_dir():
        try:
            return parse_scenario(path.read_text(encoding="utf-8"), name=path.name)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not a scenario file ({exc})") from exc
    stem = source[:-5] if source.endswith(".json") else source
    res = resources.files("ibetrust.scenarios").joinpath(stem + ".json")
    if res.is_file():
        return parse_scenario(res.read_text(), name=stem)
    raise ConfigError(
        f"scenario {source!r} is neither a file nor a bundled name "
        f"(bundled: {', '.join(bundled_scenarios())})")


# ---------------------------------------------------------------------------
# Channel and attacks


@dataclass
class Attack:
    spec: AttackSpec
    time: float
    verdict: str = "pending"
    detail: str = ""


@dataclass
class Transmission:
    origin: str           # entity that put the frames on the air
    label: str
    frames: list
    attack: Attack | None = None

    @property
    def dst_wire(self) -> int:
        return self.frames[0].dst

    @property
    def src_wire(self) -> int:
        return self.frames[0].src


# ---------------------------------------------------------------------------
# Report


@dataclass
class SimReport:
    scenario: str
    profile: str
    seed: int
    final_phases: dict[str, str]
    trust_snapshots: list[tuple[float, tuple[str, ...]]]
    rejections: list[tuple[float, str, str, str]]
    attacks: list[dict]
    event_log: list[str]
    energy_report: energy.EnergyReport

    def rejection_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for _, _, reason, _ in self.rejections:
            counts[reason] = counts.get(reason, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "profile": self.profile,
            "seed": self.seed,
            "final_phases": dict(sorted(self.final_phases.items())),
            "trust_snapshots": [[t, list(ids)] for t, ids in self.trust_snapshots],
            "rejections": [list(r) for r in self.rejections],
            "rejection_counts": self.rejection_counts(),
            "attacks": self.attacks,
            "event_log": self.event_log,
            "energy_text": energy.render_text(self.energy_report),
            "energy_csv": energy.render_csv(self.energy_report),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


# the keys render_report_dict reads; a saved report must hold all of them
REPORT_KEYS = frozenset({
    "scenario", "profile", "seed", "final_phases", "trust_snapshots", "rejections",
    "rejection_counts", "attacks", "event_log", "energy_text",
})


def is_report_dict(d) -> bool:
    """True when d holds every key render_report_dict reads, each with
    the type SimReport.to_dict gives it, and no lone surrogate."""
    def strs(v):
        return isinstance(v, list) and all(isinstance(x, str) for x in v)

    if not isinstance(d, dict) or not REPORT_KEYS <= set(d):
        return False
    snapshots, rejections, attacks = d["trust_snapshots"], d["rejections"], d["attacks"]
    return (
        all(isinstance(d[k], str) for k in ("scenario", "profile", "energy_text"))
        and _is_int(d["seed"])
        and isinstance(d["final_phases"], dict)
        and all(isinstance(v, str) for v in d["final_phases"].values())
        and isinstance(snapshots, list)
        and all(isinstance(s, list) and len(s) == 2 and _is_real(s[0]) and strs(s[1])
                for s in snapshots)
        and isinstance(rejections, list)
        and all(isinstance(r, list) and len(r) == 4 and _is_real(r[0]) and strs(r[1:])
                for r in rejections)
        and isinstance(d["rejection_counts"], dict)
        and all(_is_int(v) for v in d["rejection_counts"].values())
        and isinstance(attacks, list)
        and all(isinstance(a, dict) and strs([a.get("kind"), a.get("verdict")])
                and isinstance(a.get("detail", ""), str) for a in attacks)
        and strs(d["event_log"])
        and not _SURROGATE.search(json.dumps(d, ensure_ascii=False))
    )


def render_report_dict(d: dict) -> str:
    """Shared renderer for live reports and saved report files."""
    out = [f"simulation report: {d['scenario']} (profile={d['profile']}, seed={d['seed']})", ""]
    out.append("final node phases")
    for name, phase in d["final_phases"].items():
        out.append(f"  {name:<12} {phase}")
    out.append("")
    out.append("trust list snapshots")
    if not d["trust_snapshots"]:
        out.append("  (none)")
    for t, ids in d["trust_snapshots"]:
        out.append(f"  [{t:g}] {', '.join(ids) if ids else '(empty)'}")
    out.append("")
    out.append("rejection log")
    if not d["rejections"]:
        out.append("  (none)")
    for t, actor, reason, detail in d["rejections"]:
        suffix = f" ({detail})" if detail else ""
        out.append(f"  [{t:g}] {actor}: {reason}{suffix}")
    if d["rejection_counts"]:
        pairs = ", ".join(f"{k}={v}" for k, v in d["rejection_counts"].items())
        out.append(f"  counts: {pairs}")
    out.append("")
    out.append("attack verdicts")
    if not d["attacks"]:
        out.append("  (none)")
    for i, a in enumerate(d["attacks"]):
        suffix = f" ({a['detail']})" if a.get("detail") else ""
        out.append(f"  {a['kind']}#{i}: {a['verdict']}{suffix}")
    out.append("")
    out.append("event log")
    for line in d["event_log"]:
        out.append(f"  {line}")
    out.append("")
    out.append(d["energy_text"])
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Simulation core


class Simulation:
    def __init__(self, scenario: Scenario, seed: int | None = None,
                 constants: energy.EnergyConstants = energy.DEFAULT_CONSTANTS,
                 nonce_check: bool = True,
                 keys: tuple[ibe.PublicParams, ibe.MasterKey] | None = None):
        if seed is not None and seed < 0:
            # random.Random takes abs(seed): -42 would replay seed 42
            raise ConfigError(f"seed must be non-negative, got {seed}")
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.constants = constants
        master_rng = random.Random(self.seed)
        self.rng_proto = random.Random(master_rng.getrandbits(64))
        self.rng_channel = random.Random(master_rng.getrandbits(64))
        self.rng_adversary = random.Random(master_rng.getrandbits(64))

        params, master = keys or ibe.setup(
            ibe.SecurityConfig(scenario.profile, scenario.master_seed))
        if keys and ibe.PROFILES[scenario.profile] != dict(p=params.p, q=params.q, n=params.n):
            raise ConfigError(f"key material does not match the scenario's "
                              f"{scenario.profile!r} profile")
        self.bs = protocol.BaseStation(params, master)
        self.bs.nonce_check = nonce_check
        self.params = params

        self.event_log: list[str] = []
        self.queue: list = []
        self._seq = 0
        self.captures: list[Transmission] = []
        self.pending_mods: list[Attack] = []
        self.attacks: list[Attack] = []
        self.trust_snapshots: list[tuple[float, tuple[str, ...]]] = []
        self.rejections: list[tuple[float, str, str, str]] = []

        self.nodes: dict[str, protocol.Node] = {}
        for spec in scenario.nodes:
            chain = BootChain.from_images(
                [s.encode() for s in spec.images], trust_offset=scenario.trust_offset)
            node = protocol.dp_provision(self.bs, spec.id, chain)
            protocol.pdp_register(self.bs, node)
            if spec.tamper_level is not None:
                node.chain.images[spec.tamper_level - 1] += b"\x00tampered"
                self._note(0, f"{spec.id} image at level {spec.tamper_level} "
                              "tampered in the field")
            self.nodes[spec.id] = node

    # -- plumbing

    def push(self, time: float, action, payload):
        heapq.heappush(self.queue, (time, self._seq, action, payload))
        self._seq += 1

    def _note(self, time: float, text: str):
        self.event_log.append(f"[{time:g}] {text}")

    def reject(self, time: float, actor: str, exc: Reject):
        self.rejections.append((time, actor, exc.reason, exc.detail))
        self._note(time, f"{actor} reject: {exc.reason}"
                         + (f" ({exc.detail})" if exc.detail else ""))

    def entity_name(self, wire: int) -> str:
        return self.bs.registry.identity(wire)

    def snapshot(self, time: float):
        ids = self.bs.db.trusted
        self.trust_snapshots.append((time, ids))
        self._note(time, f"trust list now [{', '.join(ids)}]")

    # -- channel

    def transmit(self, time: float, tx: Transmission):
        if self.scenario.adversary_taps:
            self.captures.append(tx)
        for attack in list(self.pending_mods):
            if (attack.spec.label == tx.label
                    and attack.spec.source == tx.origin and tx.attack is None):
                self.pending_mods.remove(attack)
                tx = self._apply_modification(time, tx, attack)
                break
        kept = [f for f in tx.frames if self.rng_channel.random() >= self.scenario.loss]
        lost = len(tx.frames) - len(kept)
        note = f" (attack {tx.attack.spec.kind})" if tx.attack else ""
        self._note(time, f"{tx.origin} -> {self.entity_name(tx.dst_wire)} {tx.label} "
                         f"{codec.on_air_bytes(tx.frames)}B in {len(tx.frames)} frame(s)"
                         + (f", {lost} lost" if lost else "") + note)
        self.push(time + len(tx.frames), "deliver",
                  Transmission(tx.origin, tx.label, kept, tx.attack))

    def _apply_modification(self, time: float, tx: Transmission,
                            attack: Attack) -> Transmission:
        blob = b"".join(f.payload for f in tx.frames)
        bit = attack.spec.bit % (len(blob) * 8)
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        frames = codec.fragment(tx.dst_wire, tx.src_wire, bytes(flipped))
        self._note(time, f"attack modify flips bit {bit} of {tx.label} "
                         f"from {tx.origin}")
        return Transmission(tx.origin, tx.label, frames, attack)

    def resolve(self, attack: Attack | None, verdict: str, detail: str):
        if attack is not None and attack.verdict == "pending":
            attack.verdict = verdict
            attack.detail = detail

    # -- deliveries

    def deliver(self, time: float, tx: Transmission):
        if not tx.frames:
            self._note(time, f"all frames of {tx.label} from {tx.origin} lost")
            self.resolve(tx.attack, NO_OP, "all frames lost")
            return
        receiver = self.entity_name(tx.dst_wire)
        try:
            if receiver == protocol.BS_IDENTITY:
                detail = self._deliver_to_bs(time, tx)
            elif tx.label == "ta-ack":
                detail = self._deliver_ack(time, self.nodes[receiver], tx)
            else:
                detail = self._deliver_ake(time, self.nodes[receiver], tx)
        except Reject as exc:
            self.reject(time, receiver, exc)
            self.resolve(tx.attack, BLOCKED, exc.reason)
        else:
            self.resolve(tx.attack, SUCCEEDED, detail)

    def _deliver_to_bs(self, time: float, tx: Transmission) -> str:
        ack = protocol.bs_handle_ta(self.bs, tx.frames, self.rng_proto)
        self._note(time, f"bs accepted trust report from {self.entity_name(tx.src_wire)}")
        self.snapshot(time)
        self.transmit(time, Transmission(protocol.BS_IDENTITY, "ta-ack", ack))
        return "trust report accepted"

    def _deliver_ack(self, time: float, node: protocol.Node, tx: Transmission) -> str:
        protocol.node_handle_ack(node, tx.frames)
        self._note(time, f"{node.identity} trusted; list "
                         f"[{', '.join(node.trust_list)}]")
        return "ack accepted"

    def _deliver_ake(self, time: float, node: protocol.Node, tx: Transmission) -> str:
        previous = dict(node.sessions)
        session = protocol.peer_authenticate(node, tx.frames)
        sender = session.transcript[0]
        # Key-confirmation probe: harness-only check that the claimed
        # initiator can actually use the key it should have derived.
        initiator = self.nodes.get(tx.origin)
        peer_session = initiator.sessions.get(node.identity) if initiator else None
        if tx.origin != sender or peer_session != session:
            # drop the unconfirmed key, keeping any confirmed session it displaced
            node.sessions = previous
            raise Reject("key_confirm_failed", sender)
        self._note(time, f"session {sender} <-> {node.identity} established")
        return "session established"

    # -- scheduled scenario events

    def handle_event(self, event: Event):
        t = event.time
        try:
            if event.kind == "boot":
                node = self.nodes[event.node]
                result = node.power_on()
                outcome = (f"deployed (trust {node.trust_value})" if result.ok
                           else f"halted at level {result.failed_level}")
                self._note(t, f"{event.node} boots: {outcome}")
            elif event.kind == "ta":
                frames = protocol.ta_request(self.nodes[event.node], self.rng_proto)
                self.transmit(t, Transmission(event.node, "ta-request", frames))
            elif event.kind == "ake":
                frames, _ = protocol.ake_initiate(self.nodes[event.initiator], event.peer,
                                                  self.rng_proto)
                self.transmit(t, Transmission(event.initiator, "ake", frames))
            elif event.kind == "terminate":
                protocol.bs_terminate(self.bs, event.node)
                self.nodes[event.node].phase = protocol.TERMINATED
                self._note(t, f"bs terminates {event.node}")
                self.snapshot(t)
            else:
                self.inject(Attack(event.attack, t))
        except Reject as exc:
            self.reject(t, event.node or event.initiator, exc)

    # -- attack injection

    def inject(self, attack: Attack):
        self.attacks.append(attack)
        spec, t = attack.spec, attack.time
        if spec.kind == "replay":
            matches = [tx for tx in self.captures
                       if tx.label == spec.label and tx.origin == spec.source]
            if spec.occurrence > len(matches):
                self.resolve(attack, NO_OP, "selector matched no captured transmission")
                self._note(t, "attack replay: nothing captured to replay")
                return
            captured = matches[spec.occurrence - 1]
            self._note(t, f"attack replay: re-injecting {spec.label}"
                          f"#{spec.occurrence} from {spec.source}")
            self.transmit(t, Transmission(captured.origin, captured.label,
                                          list(captured.frames), attack))
        elif spec.kind == "modify":
            self.pending_mods.append(attack)
            self._note(t, f"attack modify: armed for next {spec.label} "
                          f"from {spec.source}")
        elif spec.kind == "fake_node":
            hm = "".join(self.rng_adversary.choice("0123456789abcdef")
                         for _ in range(8))
            record = protocol.encode_ta_record(
                spec.claimed_wire, hm, self.rng_adversary.randbytes(2))
            blob = protocol.encrypt_message(
                self.params, protocol.BS_IDENTITY, record, self.rng_adversary)
            frames = codec.fragment(protocol.BS_WIRE_ID, spec.claimed_wire, blob)
            self._note(t, f"attack fake_node: wire {spec.claimed_wire} "
                          f"claims trust value {hm}")
            self.transmit(t, Transmission(ADVERSARY, "ta-request", frames, attack))
        else:  # impersonate
            r = self.rng_adversary.randrange(1, self.params.q)
            big_r = self.params.curve.mul(r, self.params.generator)
            nonce = self.rng_adversary.randbytes(2)
            msg = ake_mod.AkeMessage(
                sender=spec.claimed, receiver=spec.target, big_r=big_r, nonce=nonce,
                mac=ake_mod.message_mac(self.params, spec.claimed, big_r, nonce))
            blob = protocol.ake_message_to_bytes(self.bs.registry, self.params, msg)
            frames = codec.fragment(
                self.bs.registry.wire_id(spec.target),
                self.bs.registry.wire_id(spec.claimed), blob)
            self._note(t, f"attack impersonate: claiming {spec.claimed} "
                          f"towards {spec.target} without its key")
            self.transmit(t, Transmission(ADVERSARY, "ake", frames, attack))

    # -- run

    def run(self) -> SimReport:
        for event in self.scenario.events:
            self.push(event.time, "event", event)
        while self.queue:
            time, _, action, payload = heapq.heappop(self.queue)
            if action == "event":
                self.handle_event(payload)
            else:
                self.deliver(time, payload)
        for attack in self.attacks:
            self.resolve(attack, NO_OP, "never triggered")
        report = energy.build_report(
            {name: node.ledger for name, node in self.nodes.items()},
            self.constants,
            trusted_count=len(self.bs.db.trusted),
        )
        return SimReport(
            scenario=self.scenario.name,
            profile=self.scenario.profile,
            seed=self.seed,
            final_phases={name: n.phase for name, n in sorted(self.nodes.items())},
            trust_snapshots=self.trust_snapshots,
            rejections=self.rejections,
            attacks=[{"kind": a.spec.kind, "verdict": a.verdict, "detail": a.detail}
                     for a in self.attacks],
            event_log=self.event_log,
            energy_report=report,
        )


def run(scenario: Scenario, seed: int | None = None,
        constants: energy.EnergyConstants = energy.DEFAULT_CONSTANTS,
        keys: tuple[ibe.PublicParams, ibe.MasterKey] | None = None) -> SimReport:
    return Simulation(scenario, seed, constants, keys=keys).run()
