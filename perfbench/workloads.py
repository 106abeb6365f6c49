"""Seeded, in-process scenario generators for the four benchmark workloads.

Each generator builds a scenario as JSON text (the only thing the
simulator sees) together with the outcome the run must reproduce: the
final phase of every node, the key-confirmed sessions in order, and the
allowed rejection reasons of every attack.  A small model of the
protocol state (phases, the base station's trusted set and each node's
trust-list snapshot) is stepped alongside the schedule, so every key
exchange is asserted to be mutually listed when it is sent and every
attack is asserted to hit a state where it must be blocked.

No data files are written; the same (workload, seed) pair always yields
the same text.

A legitimate trust report whose random 2-byte nonce repeats one of the
same node's earlier nonces is refused as a replay by design, and the
run then fails its checks.  The workloads give each node few reports to
keep that chance small: for k reports per node it is about
sum(k*(k-1)/2) / 65536 per run, below 1e-3 on every workload
(reject_flood and churn_toy come nearest, at about 7e-4).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field


def require(ok: bool, message: str) -> None:
    """Generator invariant; unlike assert, it survives python -O."""
    if not ok:
        raise AssertionError(message)


# Simulated time between scheduled steps.  The longest message in any
# workload (a 31-block toy ack) takes 11 frame slots, so each step
# finishes before the next one starts.
SLOT = 100

# Demo-profile geometry: 32-byte coordinates, 16-byte IBE blocks.
# Toy-profile coordinates are one byte.
COORD_BYTES = {"demo": 32, "toy": 1}
BLOCK_BYTES = 16

WHY = {
    "ta_sweep": "demo trust-report rounds with acks growing to 6 IBE blocks: "
                "multi-block IBE, BS ack encryption and node ack decryption",
    "ake_mesh": "demo key exchanges over a fully listed 8-node mesh with re-keying: "
                "pairings, hash_to_point and scalar mults of the AKE path",
    "reject_flood": "demo attack mix (impersonation, replay, bit flips, fake node): "
                    "the same layers on the reject path, where cheap gates matter",
    "churn_toy": "toy-profile network of 240 nodes with joins, reboots, terminations, "
                 "AKEs and attacks: protocol, sim, codec, energy and report cost",
}

OP_DEFINITION = {
    "ta_round": "one trust-report round, ta event to installed ack",
    "ake_session": "one key-confirmed session, ake event plus its delivery",
    "attack_delivery": "one adversarial transmission handled by its target",
    "queue_item": "one simulator queue item (event or delivery)",
}


@dataclass
class Workload:
    """Generated scenario text plus the outcome a correct run must show."""

    name: str
    text: str
    op_kind: str
    expected_phases: dict[str, str]
    expected_sessions: list[tuple[str, str]]
    attack_reasons: list[tuple[str, ...]]
    summary: dict = field(default_factory=dict)


class Plan:
    """A scenario under construction and the model of its protocol state."""

    def __init__(self, name: str, profile: str, seed: int):
        self.name = name
        self.profile = profile
        self.rng = random.Random(f"{name}/{seed}")
        self.seed = seed
        self.node_specs: list[dict] = []
        self.events: list[dict] = []
        self.time = 0
        self.phase: dict[str, str] = {}
        self.bs_trusted: set[str] = set()
        self.lists: dict[str, frozenset] = {}
        self.sessions: list[tuple[str, str]] = []
        self.attack_reasons: list[tuple[str, ...]] = []
        # first ake each node sent: (peer, delivered intact); replays
        # re-inject a node's first capture, so it must have arrived
        self.first_ake: dict[str, tuple[str, bool]] = {}
        self.sent_ta: set[str] = set()
        self.armed_ake_mod: str | None = None

    # -- roster

    def add_node(self, nid: str, tamper_level: int | None = None) -> str:
        spec = {"id": nid, "images": ["boot-loader-r1", f"kernel-{nid}", f"app-{nid}"]}
        if tamper_level is not None:
            spec["tamper_level"] = tamper_level
        self.node_specs.append(spec)
        self.phase[nid] = "pdp"
        self.lists[nid] = frozenset()
        return nid

    def trusted(self) -> list[str]:
        return [n for n, ph in self.phase.items() if ph == "trusted"]

    # -- scheduled steps

    def _emit(self, offset: int, event: dict) -> None:
        event["time"] = self.time + offset
        self.events.append(event)

    def _next_slot(self) -> None:
        self.time += SLOT

    def boot(self, nid: str, tampered: bool = False) -> None:
        self._emit(0, {"kind": "boot", "node": nid})
        self.phase[nid] = "halted" if tampered else "dy"
        self.lists[nid] = frozenset()
        self._next_slot()

    def ta(self, nid: str, ack_modified: bool = False, request_modified: bool = False) -> None:
        """Trust report from a freshly booted node (boot it first)."""
        require(self.phase[nid] == "dy", f"{nid} reports from phase {self.phase[nid]}")
        self._emit(1, {"kind": "ta", "node": nid})
        self.sent_ta.add(nid)
        if request_modified:
            self.phase[nid] = "ta"
        else:
            self.bs_trusted.add(nid)
            if ack_modified:
                self.phase[nid] = "ta"
            else:
                self.phase[nid] = "trusted"
                self.lists[nid] = frozenset(self.bs_trusted)
        self._next_slot()

    def join(self, nid: str) -> None:
        self.boot(nid)
        self.ta(nid)

    def mutually_listed(self, a: str, b: str) -> bool:
        return (a != b and self.phase[a] == "trusted" and self.phase[b] == "trusted"
                and b in self.lists[a] and a in self.lists[b])

    def ake(self, a: str, b: str) -> None:
        require(self.mutually_listed(a, b), f"{a} -> {b} not mutually listed")
        modified = self.armed_ake_mod == a
        self.armed_ake_mod = None
        self._emit(0, {"kind": "ake", "initiator": a, "peer": b})
        self.first_ake.setdefault(a, (b, not modified))
        if not modified:
            self.sessions.append((a, b))
        self._next_slot()

    def terminate(self, nid: str) -> None:
        self._emit(0, {"kind": "terminate", "node": nid})
        self.phase[nid] = "terminated"
        self.bs_trusted.discard(nid)
        self._next_slot()

    def random_mutual_pair(self) -> tuple[str, str]:
        trusted = self.trusted()
        for _ in range(1000):
            a = self.rng.choice(trusted)
            peers = [b for b in sorted(self.lists[a]) if self.mutually_listed(a, b)]
            if peers:
                return a, self.rng.choice(peers)
        raise AssertionError("no mutually listed pair to key")

    # -- attacks; each records the rejection reasons that count as blocked

    def _attack(self, spec: dict, reasons: tuple[str, ...]) -> None:
        self._emit(0, {"kind": "attack", "attack": spec})
        self.attack_reasons.append(reasons)

    def impersonate(self, claimed: str, target: str) -> None:
        require(self.phase[target] == "trusted", f"impersonation target {target} not trusted")
        if claimed in self.lists[target]:
            # the forged R passes the gate; respond derives a key the
            # confirmation probe refuses, or, when R + h*Q_claimed is the
            # point at infinity (1 in q, so 1 in 19 on toy), no key at all
            reasons = ("key_confirm_failed", "degenerate_key")
        else:
            reasons = ("not_in_trust_list",)
        self._attack({"kind": "impersonate", "claimed": claimed, "target": target}, reasons)
        self._next_slot()

    def replay_ta(self, source: str) -> None:
        # the first capture is the join report, which the BS accepted
        require(source in self.sent_ta, f"{source} sent no report to replay")
        self._attack({"kind": "replay", "label": "ta-request", "source": source,
                      "occurrence": 1}, ("nonce_replay",))
        self._next_slot()

    def replay_ake(self, source: str) -> None:
        peer, intact = self.first_ake[source]
        require(intact and self.phase[peer] == "trusted" and source in self.lists[peer],
                f"replay of {source}'s first ake would not hit a listing, trusted peer")
        self._attack({"kind": "replay", "label": "ake", "source": source,
                      "occurrence": 1}, ("nonce_replay",))
        self._next_slot()

    def fake_node(self, claimed_wire: int) -> None:
        require(claimed_wire > len(self.node_specs), f"wire {claimed_wire} is registered")
        self._attack({"kind": "fake_node", "claimed_wire": claimed_wire}, ("unknown_id",))
        self._next_slot()

    def _modify(self, label: str, source: str, bit: int, reasons: tuple[str, ...]) -> None:
        self._attack({"kind": "modify", "label": label, "source": source, "bit": bit},
                     reasons)

    def _ciphertext_bit(self, region: str) -> int:
        """A bit inside the first block of an encrypt_message blob.

        Layout: block count(2) | U(2 coords) | V(block) | w-length(2) | W.
        A flip in U fails the point check before any pairing; a flip in
        V costs a pairing and fails the re-encryption check.
        """
        u_bytes = 2 * COORD_BYTES[self.profile]
        start, size = (2, u_bytes) if region == "U" else (2 + u_bytes, BLOCK_BYTES)
        return 8 * start + self.rng.randrange(8 * size)

    def modified_ta_request(self, nid: str, region: str) -> None:
        """Reboot, send a report the adversary flips, then rejoin."""
        self._modify("ta-request", nid, self._ciphertext_bit(region), ("decrypt_failure",))
        self.boot(nid)
        self.ta(nid, request_modified=True)
        self.join(nid)

    def modified_ta_ack(self, nid: str) -> None:
        """Reboot and report; the ack's first block is flipped; rejoin."""
        self._modify("ta-ack", "bs", self._ciphertext_bit("V"), ("decrypt_failure",))
        self.boot(nid)
        self.ta(nid, ack_modified=True)
        self.join(nid)

    def modified_ake(self, a: str, b: str) -> None:
        # sender(2) | receiver(2) | R(2 coords) | nonce | mac: flip inside R
        r_bits = 16 * COORD_BYTES[self.profile]
        bit = 32 + self.rng.randrange(r_bits)
        self._modify("ake", a, bit, ("off_curve", "mac_mismatch"))
        self.armed_ake_mod = a
        self.ake(a, b)

    # -- output

    def build(self, op_kind: str) -> Workload:
        scenario = {
            "name": f"{self.name}-{self.seed}",
            "profile": self.profile,
            "seed": self.rng.randrange(1 << 31),
            "bs": {"master_seed": self.rng.randrange(1 << 31), "trust_offset": 24},
            "nodes": self.node_specs,
            "channel": {"loss": 0.0, "adversary_taps": True},
            "events": self.events,
        }
        kinds: dict[str, int] = {}
        for e in self.events:
            k = e["kind"] if e["kind"] != "attack" else "attack:" + e["attack"]["kind"]
            kinds[k] = kinds.get(k, 0) + 1
        return Workload(
            name=self.name,
            text=json.dumps(scenario, indent=1),
            op_kind=op_kind,
            expected_phases=dict(sorted(self.phase.items())),
            expected_sessions=list(self.sessions),
            attack_reasons=list(self.attack_reasons),
            summary={"profile": self.profile, "nodes": len(self.node_specs),
                     "events": len(self.events), "event_kinds": dict(sorted(kinds.items()))},
        )


def node_names(count: int, prefix: str = "node") -> list[str]:
    return [f"{prefix}-{i:03d}" for i in range(1, count + 1)]


def ta_sweep(seed: int) -> Workload:
    """38 nodes join one by one, so the ack grows from 1 to 6 IBE blocks,
    then 10 seeded nodes reboot and re-report at the full 38-entry list
    (an 82-byte, 6-block ack).  Each block count from 1 to 5 covers 5 to
    8 rounds and the full-list rounds are 11 of 48, so op_ms.p50 falls
    inside the 4-block rounds and op_ms.p90 inside the 6-block ones
    rather than on an edge between two costs.  Three closing key
    exchanges give the AKE layer metrics samples; they are not ops."""
    plan = Plan("ta_sweep", "demo", seed)
    nodes = [plan.add_node(n) for n in node_names(38)]
    order = nodes[:]
    plan.rng.shuffle(order)
    for nid in order:
        plan.join(nid)
    sweep = plan.rng.sample(nodes, 10)
    for nid in sweep:
        plan.join(nid)
    for _ in range(3):
        plan.ake(*plan.random_mutual_pair())
    return plan.build("ta_round")


def ake_mesh(seed: int) -> Workload:
    """8 nodes join (1- and 2-block acks) and re-report once so every
    list names every node; then 60 sessions over seeded pairs drawn with
    repeats, so pairs re-key."""
    plan = Plan("ake_mesh", "demo", seed)
    nodes = [plan.add_node(n) for n in node_names(8)]
    order = nodes[:]
    plan.rng.shuffle(order)
    for nid in order:
        plan.join(nid)
    plan.rng.shuffle(order)
    for nid in order:
        plan.join(nid)
    sessions = 60
    for _ in range(sessions):
        a, b = plan.rng.sample(nodes, 2)
        plan.ake(a, b)
    return plan.build("ake_session")


# Fixed attack composition for reject_flood: the seed draws order,
# sources, targets and bit positions, never the mix, so the share of
# cheap (gated) and pairing-priced rejections is the same on every seed.
REJECT_MIX = (
    ("impersonate_unlisted", 6),
    ("impersonate_listed", 10),
    ("replay_ta", 10),
    ("replay_ake", 8),
    ("modify_ta_request_u", 3),
    ("modify_ta_request_v", 3),
    ("modify_ta_ack", 4),
    ("modify_ake", 6),
    ("fake_node", 6),
)


def _attack_step(plan: Plan, kind: str, members: list[str], outsiders: list[str]) -> None:
    rng = plan.rng
    if kind == "impersonate_unlisted":
        plan.impersonate(rng.choice(outsiders), rng.choice(plan.trusted()))
    elif kind == "impersonate_listed":
        target = rng.choice([n for n in plan.trusted() if len(plan.lists[n]) > 1])
        claimed = rng.choice(sorted(plan.lists[target] - {target}))
        plan.impersonate(claimed, target)
    elif kind == "replay_ta":
        plan.replay_ta(rng.choice(sorted(plan.sent_ta)))
    elif kind == "replay_ake":
        sources = sorted(a for a, (b, intact) in plan.first_ake.items()
                         if intact and plan.phase[b] == "trusted" and a in plan.lists[b])
        plan.replay_ake(rng.choice(sources))
    elif kind.startswith("modify_ta_request"):
        plan.modified_ta_request(rng.choice(members), kind[-1].upper())
    elif kind == "modify_ta_ack":
        plan.modified_ta_ack(rng.choice(members))
    elif kind == "modify_ake":
        plan.modified_ake(*plan.random_mutual_pair())
    elif kind == "fake_node":
        plan.fake_node(rng.randrange(len(plan.node_specs) + 1, 0x10000))
    else:
        raise ValueError(kind)


def reject_flood(seed: int) -> Workload:
    """10 nodes join and re-report, each keys one session (the captures
    replays re-inject), then the REJECT_MIX attacks run in seeded order.
    Two declared nodes never boot; impersonations claim them to hit the
    trust-list gate."""
    plan = Plan("reject_flood", "demo", seed)
    members = [plan.add_node(n) for n in node_names(10)]
    outsiders = [plan.add_node(n) for n in node_names(2, "outsider")]
    order = members[:]
    plan.rng.shuffle(order)
    for nid in order:
        plan.join(nid)
    plan.rng.shuffle(order)
    for nid in order:
        plan.join(nid)
    for a in order:
        plan.ake(a, plan.rng.choice([b for b in members if b != a]))
    steps = [kind for kind, count in REJECT_MIX for _ in range(count)]
    plan.rng.shuffle(steps)
    for kind in steps:
        _attack_step(plan, kind, members, outsiders)
    return plan.build("attack_delivery")


def churn_toy(seed: int) -> Workload:
    """240 toy nodes join; then 360 seeded steps mix re-authentication,
    terminations and re-admissions, key exchanges and a few attacks.
    Four nodes carry a tampered image and halt at boot; two declared
    nodes never boot.  Fifty nodes report a second time, none a third."""
    plan = Plan("churn_toy", "toy", seed)
    members = [plan.add_node(n) for n in node_names(240)]
    tampered = [plan.add_node(n, tamper_level=plan.rng.choice((2, 3)))
                for n in node_names(4, "tampered")]
    outsiders = [plan.add_node(n) for n in node_names(2, "outsider")]
    order = members + tampered
    plan.rng.shuffle(order)
    for nid in order:
        if nid in tampered:
            plan.boot(nid, tampered=True)
        else:
            plan.join(nid)
    fresh = set(members)  # nodes that may still spend their one extra report

    def reauth():
        nid = plan.rng.choice(sorted(n for n in fresh
                                     if plan.phase[n] in ("trusted", "terminated")))
        fresh.discard(nid)
        plan.join(nid)

    # a first batch of re-reports creates mutually listed pairs to key
    for _ in range(30):
        reauth()
    steps = (["reauth"] * 20 + ["terminate"] * 20 + ["ake"] * 260
             + ["impersonate_unlisted"] * 6 + ["impersonate_listed"] * 6
             + ["replay_ta"] * 6 + ["fake_node"] * 6 + ["modify_ake"] * 6)
    plan.rng.shuffle(steps)
    for kind in steps:
        if kind == "reauth":
            reauth()
        elif kind == "terminate":
            plan.terminate(plan.rng.choice(plan.trusted()))
        elif kind == "ake":
            plan.ake(*plan.random_mutual_pair())
        else:
            _attack_step(plan, kind, members, outsiders)
    return plan.build("queue_item")


GENERATORS = {
    "ta_sweep": ta_sweep,
    "ake_mesh": ake_mesh,
    "reject_flood": reject_flood,
    "churn_toy": churn_toy,
}


def generate(name: str, seed: int) -> Workload:
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(GENERATORS)}")
    return GENERATORS[name](seed)
