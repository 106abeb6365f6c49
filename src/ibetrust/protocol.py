"""Node and base-station protocol layer.

Ties the lower modules together: identities are provisioned offline,
registered with their boot-time trust value, authenticated in the field
through an IBE-encrypted trust report, and only then admitted to the
distributed trust list that gates pairwise key exchange.

Lifecycle phases for a node:

    dp -> pdp -> dy -> ta -> trusted
                  ^            |
                  +--- reboot -+      (boot failure -> halted,
                                       removal by the BS -> terminated)

Work is billed on the node side only; the base station is treated as
mains powered.  A bill is a quantity in the node's ledger, never
joules: on-air bytes received for the frames of a message that
arrived, on-air bytes transmitted at the moment frames are produced,
bits encrypted, and one boot, world switch or pairing.  Only
energy.build_report prices them.  No function here takes a time: the
simulator owns the clock.
"""

from __future__ import annotations

import bisect
import hmac
import struct
from dataclasses import dataclass, field

from . import ake as ake_mod
from . import codec
from . import ibe
from .boot import NORMAL, SECURE, BootChain, BootResult, WorldState, boot
from .energy import EnergyLedger
from .errors import Reject

# Node lifecycle phases.
DP = "dp"                 # provisioned, keys installed
PDP = "pdp"               # registered with the base station
DY = "dy"                 # deployed and booted, holding a fresh trust value
TA = "ta"                 # trust report sent, awaiting the ack
TRUSTED = "trusted"       # ack processed, trust list installed
HALTED = "halted"         # boot integrity failure
TERMINATED = "terminated" # removed by the base station

BS_IDENTITY = "bs"
BS_WIRE_ID = 0

TA_RECORD_SIZE = 2 + 8 + 2 + 4  # sender id, trust value, nonce, mac


class Registry:
    """The one map between string identities and 2-byte wire ids.

    The base station owns the registry; nodes receive a reference to it
    during provisioning, standing in for the identity directory that is
    installed together with the key material.
    """

    def __init__(self):
        self._by_name: dict[str, int] = {BS_IDENTITY: BS_WIRE_ID}
        self._by_wire: dict[int, str] = {BS_WIRE_ID: BS_IDENTITY}

    def assign(self, identity: str) -> int:
        if identity in self._by_name:
            raise ValueError(f"identity already registered: {identity!r}")
        wire = len(self._by_wire)
        if wire > 0xFFFF:
            raise ValueError("registry full")
        self._by_name[identity] = wire
        self._by_wire[wire] = identity
        return wire

    def wire_id(self, identity: str) -> int:
        return self._by_name[identity]

    def identity(self, wire: int) -> str:
        return self._by_wire[wire]

    def wire_ids(self, identities) -> list[int]:
        """The wire id of each identity, in order."""
        return list(map(self._by_name.__getitem__, identities))

    def identities(self, wires) -> list[str]:
        """The identity of each registered wire id, in order; an
        unregistered id is skipped."""
        return [name for name in map(self._by_wire.get, wires) if name is not None]

    def __contains__(self, key) -> bool:
        table = self._by_wire if isinstance(key, int) else self._by_name
        return key in table


# ---------------------------------------------------------------------------
# Wire records carried inside IBE ciphertexts


def encode_ta_record(wire_id: int, trust_value: str, nonce: bytes) -> bytes:
    """Trust report plaintext: id(2) | trust value(8 hex chars) | nonce(2) | mac(4)."""
    value = trust_value.encode("ascii")
    body = wire_id.to_bytes(2, "big") + value + nonce
    return body + codec.truncated_mac(body)


def decode_ta_record(data: bytes) -> tuple[int, str, bytes]:
    if len(data) != TA_RECORD_SIZE:
        raise Reject("malformed_record", f"{len(data)} bytes, expected {TA_RECORD_SIZE}")
    body, mac = data[:-4], data[-4:]
    if not hmac.compare_digest(mac, codec.truncated_mac(body)):
        raise Reject("mac_mismatch", "trust record mac")
    try:
        value = body[2:10].decode("ascii")
    except UnicodeDecodeError:
        raise Reject("malformed_record", "non-ascii trust value") from None
    return int.from_bytes(body[0:2], "big"), value, body[10:12]


def trust_list_bytes(wire_ids) -> bytes:
    """Serialize a trusted set as sorted 2-byte ids (2 bytes per node)."""
    ids = sorted(set(wire_ids))
    return struct.pack(f">{len(ids)}H", *ids)


def encode_ack_record(nonce: bytes, wire_ids) -> bytes:
    """Ack plaintext: nonce echo(2) | trust list(2 per id) | mac(4)."""
    body = nonce + trust_list_bytes(wire_ids)
    return body + codec.truncated_mac(body)


def decode_ack_record(data: bytes) -> tuple[bytes, tuple[int, ...]]:
    if len(data) < 6 or (len(data) - 6) % 2:
        raise Reject("malformed_record", f"ack record length {len(data)}")
    body, mac = data[:-4], data[-4:]
    if not hmac.compare_digest(mac, codec.truncated_mac(body)):
        raise Reject("mac_mismatch", "ack record mac")
    return body[0:2], struct.unpack(f">{len(body) // 2 - 1}H", body[2:])


# ---------------------------------------------------------------------------
# Multi-block IBE message encryption

_LEN_BYTES = 2


def encrypt_message(params: ibe.PublicParams, identity: str, message: bytes, rng) -> bytes:
    """Encrypt an arbitrary-length message as a chain of IBE blocks.

    Layout: block count(2) then per block U | V | w-length(2) | W, where
    U is a fixed-width point and V has the block size of the profile.
    Each block carries an independent seed, so identical chunks encrypt
    differently.
    """
    block = params.block_bytes
    cs = params.curve.coord_size
    chunks = [message[i : i + block] for i in range(0, len(message), block)] or [b""]
    parts = [len(chunks).to_bytes(2, "big")]
    for chunk in chunks:
        ct = ibe.encrypt(params, identity, chunk, rng=rng)
        x, y = ct.u  # ibe.point_to_bytes, inlined; U = rP is never infinity
        parts += (x.to_bytes(cs, "big"), y.to_bytes(cs, "big"), ct.v,
                  len(ct.w).to_bytes(2, "big"), ct.w)
    return b"".join(parts)


def decrypt_message(params: ibe.PublicParams, key: ibe.PrivateKey, blob: bytes) -> bytes:
    """Inverse of encrypt_message; any malformed or tampered block rejects."""
    cs = params.curve.coord_size
    block = params.block_bytes
    if len(blob) < 2:
        raise Reject("malformed_ciphertext", "missing block count")
    nblocks = int.from_bytes(blob[0:2], "big")
    if nblocks == 0:
        raise Reject("malformed_ciphertext", "zero blocks")
    size = len(blob)
    need = 2 * cs + block + _LEN_BYTES
    pos = 2
    out = []
    for _ in range(nblocks):
        if size - pos < need:
            raise Reject("malformed_ciphertext", "truncated block")
        # U is read as ibe.point_from_bytes reads it; ibe.decrypt checks
        # that it is on the curve
        v_at = pos + 2 * cs
        w_at = v_at + block + _LEN_BYTES
        u = (int.from_bytes(blob[pos : pos + cs], "big"),
             int.from_bytes(blob[pos + cs : v_at], "big"))
        wlen = int.from_bytes(blob[w_at - _LEN_BYTES : w_at], "big")
        pos = w_at + wlen
        if wlen > block or pos > size:
            raise Reject("malformed_ciphertext", "bad chunk length")
        ct = ibe.Ciphertext(u, blob[v_at : v_at + block], blob[w_at:pos])
        out.append(ibe.decrypt(params, key, ct))
    if pos != size:
        raise Reject("malformed_ciphertext", "trailing bytes")
    return b"".join(out)


# ---------------------------------------------------------------------------
# AKE message framing


def ake_message_to_bytes(registry: Registry, params: ibe.PublicParams,
                         msg: ake_mod.AkeMessage) -> bytes:
    return (
        registry.wire_id(msg.sender).to_bytes(2, "big")
        + registry.wire_id(msg.receiver).to_bytes(2, "big")
        + ibe.point_to_bytes(params, msg.big_r)
        + msg.nonce
        + msg.mac
    )


def ake_message_from_bytes(registry: Registry, params: ibe.PublicParams,
                           data: bytes) -> ake_mod.AkeMessage:
    cs = params.curve.coord_size
    if len(data) != 2 + 2 + 2 * cs + 2 + 4:
        raise Reject("malformed_message", f"ake message length {len(data)}")
    sender_wire = int.from_bytes(data[0:2], "big")
    receiver_wire = int.from_bytes(data[2:4], "big")
    if sender_wire not in registry or receiver_wire not in registry:
        raise Reject("malformed_message", "unknown wire id in ake message")
    return ake_mod.AkeMessage(
        sender=registry.identity(sender_wire),
        receiver=registry.identity(receiver_wire),
        big_r=ibe.point_from_bytes(params, data[4 : 4 + 2 * cs]),
        nonce=data[4 + 2 * cs : 6 + 2 * cs],
        mac=data[6 + 2 * cs : 10 + 2 * cs],
    )


# ---------------------------------------------------------------------------
# Trust database


@dataclass
class TrustRecord:
    trust_value: str
    seen_nonces: set = field(default_factory=set)


class TrustDB:
    """Trust records by identity, plus the sorted tuple of trusted ones.

    A node is trusted exactly when its identity is in `trusted`.  admit
    and revoke keep the tuple sorted by bisection, so reading it costs
    no scan.
    """

    def __init__(self):
        self.records: dict[str, TrustRecord] = {}
        self.trusted: tuple[str, ...] = ()

    def register(self, identity: str, trust_value: str):
        """Store or refresh a registration, untrusted until the next report."""
        rec = self.records.setdefault(identity, TrustRecord(trust_value))
        rec.trust_value = trust_value  # a re-flash keeps the replay history
        self.revoke(identity)

    def admit(self, identity: str):
        ids = self.trusted
        i = bisect.bisect_left(ids, identity)
        if ids[i:i + 1] != (identity,):
            self.trusted = ids[:i] + (identity,) + ids[i:]

    def revoke(self, identity: str):
        """Drop an identity from the trusted tuple; an untrusted one is a no-op."""
        ids = self.trusted
        i = bisect.bisect_left(ids, identity)
        if ids[i:i + 1] == (identity,):
            self.trusted = ids[:i] + ids[i + 1:]


# ---------------------------------------------------------------------------
# Node


class Node:
    """Battery-powered sensor node state machine."""

    def __init__(self, identity: str, wire_id: int, params: ibe.PublicParams,
                 key: ibe.PrivateKey, registry: Registry, chain: BootChain):
        self.identity = identity
        self.wire_id = wire_id
        self.params = params
        self.registry = registry
        self.ledger = EnergyLedger()
        self.phase = DP
        self.chain = chain
        self.trust_value: str | None = None      # fresh value from the last boot
        self.trust_list: tuple[str, ...] = ()
        # set by ta_request, and read only in phase TA, which only
        # ta_request enters, so no other step clears it
        self.pending_nonce: bytes | None = None
        self.sessions: dict[str, ake_mod.SessionKey] = {}
        self.ake_nonces: dict[str, set] = {}
        # known gap: key exchange reads this normal-world copy, not world.key()
        self._private_key = key
        self.world = WorldState(key)
        self.world.on_switch = lambda: self.ledger.add("switch", 1)

    def bill_tx(self, frames, note: str):
        self.ledger.add("tx", codec.on_air_bytes(frames), note)

    def bill_rx(self, frames, note: str):
        self.ledger.add("rx", codec.on_air_bytes(frames), note)

    def power_on(self) -> BootResult:
        """Boot through the chain of trust.

        A successful boot lands in the deployed phase with a fresh trust
        value; any prior trusted state (trust list, session keys) is
        lost, so the node must re-authenticate.  A failed measurement
        halts the node.
        """
        result = boot(self.chain)
        self.ledger.add("boot", 1, "dy-boot")
        self.trust_list = ()
        self.sessions.clear()
        if result.ok:
            self.trust_value = result.trust_value
            self.phase = DY
        else:
            self.trust_value = None
            self.phase = HALTED
        return result


# ---------------------------------------------------------------------------
# Base station


class BaseStation:
    """Trusted authority: key generator, trust database, list distributor."""

    wire_id = BS_WIRE_ID

    def __init__(self, params: ibe.PublicParams, master: ibe.MasterKey):
        self.params = params
        self.master = master
        self.key = ibe.extract(params, master, BS_IDENTITY)
        self.registry = Registry()
        self.db = TrustDB()
        # the reassembled ciphertext of each accepted trust report -> its
        # decoded record (wire, claimed, nonce).  Decryption is a function
        # of self.key and the blob alone, so a replay is recognised here
        # without a pairing.  An entry is added only next to a nonce in
        # a record's seen_nonces, so while nonce_check is on there are
        # no more entries than nonces in the histories
        self.accepted: dict[bytes, tuple[int, str, bytes]] = {}
        # Switched off only by tests (acceptance criterion 8, one test
        # each in test_sim, test_protocol and perfbench's own tests), to
        # show that the replay defence is load-bearing.
        self.nonce_check = True


# ---------------------------------------------------------------------------
# Lifecycle operations


def dp_provision(bs: BaseStation, identity: str, chain: BootChain) -> Node:
    """Offline delivery: extract the node's key and install it.

    No frames travel and no energy is billed; the node leaves the
    factory holding its identity, private key, public parameters, boot
    chain and the identity directory.
    """
    wire = bs.registry.assign(identity)
    key = ibe.extract(bs.params, bs.master, identity)
    return Node(identity, wire, bs.params, key, bs.registry, chain)


def pdp_register(bs: BaseStation, node: Node) -> None:
    """Controlled-environment boot plus secure out-of-band registration.

    The chain's references are its own images' digests
    (BootChain.from_images), so the controlled boot passes.  A chain
    tampered before this call registers the trust value None, which no
    trust report matches: the node's field boot halts it, and a report
    from a repaired chain fails trust_mismatch.
    """
    if node.phase not in (DP, PDP):
        raise ValueError(f"cannot register from phase {node.phase!r}")
    bs.db.register(node.identity, boot(node.chain).trust_value)  # controlled boot, not billed
    node.phase = PDP


def ta_request(node: Node, rng) -> list[codec.Frame]:
    """Build the encrypted trust report for the base station.

    The record is assembled and encrypted inside the secure world (two
    switches billed), then fragmented.  Billing: the record's bits
    encrypted plus the on-air bytes transmitted.
    """
    if node.phase != DY:
        raise Reject("not_ready", f"phase {node.phase!r}")
    nonce = rng.randbytes(2)
    node.pending_nonce = nonce
    record = encode_ta_record(node.wire_id, node.trust_value, nonce)
    node.world.switch(SECURE)
    blob = encrypt_message(node.params, BS_IDENTITY, record, rng)
    node.world.switch(NORMAL)
    node.ledger.add("encrypt", len(record) * 8, "ta")
    frames = codec.fragment(BS_WIRE_ID, node.wire_id, blob)
    node.bill_tx(frames, "ta-request")
    node.phase = TA
    return frames


def _reassemble(frames, reason: str) -> bytes:
    """Join the delivered frames; a broken fragment chain rejects with reason."""
    try:
        return codec.reassemble(frames)
    except ValueError as exc:
        raise Reject(reason, f"reassembly: {exc}") from exc


def _decrypt(params: ibe.PublicParams, key: ibe.PrivateKey, blob: bytes) -> bytes:
    """decrypt_message, with every failure reported as decrypt_failure."""
    try:
        return decrypt_message(params, key, blob)
    except Reject as exc:
        raise Reject("decrypt_failure", exc.reason) from exc


def bs_handle_ta(bs: BaseStation, frames, rng) -> list[codec.Frame]:
    """Verify a trust report; admit the node and answer with the list.

    Every failure raises Reject with a distinct reason, which the caller
    records: decrypt_failure, mac_mismatch, unknown_id, trust_mismatch,
    nonce_replay, and malformed_record for a plaintext of the wrong
    shape (anyone can encrypt one to the BS).  A terminated node that
    reports a matching trust value is re-admitted, covering the
    reboot-and-re-authenticate path.

    An accepted report's ciphertext is kept with its decoded record
    (BaseStation.accepted).  A replay is recognised by its bytes and
    skips decryption, so it costs the base station no pairing and no
    rP; it meets the same checks as any report and fails nonce_replay,
    or trust_mismatch after a re-flash.
    """
    blob = _reassemble(frames, "decrypt_failure")
    record = bs.accepted.get(blob)
    if record is None:
        record = decode_ta_record(_decrypt(bs.params, bs.key, blob))
    wire, claimed, nonce = record
    identity = bs.registry.identity(wire) if wire in bs.registry else None
    rec = bs.db.records.get(identity)
    if rec is None:
        raise Reject("unknown_id", f"wire id {wire}")
    if claimed != rec.trust_value:
        raise Reject("trust_mismatch", identity)
    if bs.nonce_check and nonce in rec.seen_nonces:
        raise Reject("nonce_replay", identity)
    rec.seen_nonces.add(nonce)
    bs.accepted[blob] = record
    bs.db.admit(identity)
    ack = encode_ack_record(nonce, bs.registry.wire_ids(bs.db.trusted))
    blob = encrypt_message(bs.params, identity, ack, rng)
    return codec.fragment(wire, bs.wire_id, blob)


def node_handle_ack(node: Node, frames) -> None:
    """Decrypt the ack, check the nonce echo, install the trust list.

    Known gap: the pairing e(d_ID, U) of each block, fresh U, is not billed.
    """
    node.bill_rx(frames, "ta-ack")
    if node.phase != TA:
        raise Reject("not_waiting", f"phase {node.phase!r}")
    blob = _reassemble(frames, "decrypt_failure")
    node.world.switch(SECURE)
    try:
        record = _decrypt(node.params, node.world.key(), blob)
    finally:
        node.world.switch(NORMAL)
    nonce, wire_ids = decode_ack_record(record)
    if nonce != node.pending_nonce:
        raise Reject("stale_nonce", nonce.hex())
    node.trust_list = tuple(sorted(node.registry.identities(wire_ids)))
    node.phase = TRUSTED


def bs_terminate(bs: BaseStation, identity: str) -> None:
    """Remove a node from the trust list; an unknown id is a no-op."""
    bs.db.revoke(identity)


def ake_initiate(node: Node, peer: str, rng) -> tuple[list[codec.Frame], ake_mod.SessionKey]:
    """One-pass key exchange, initiator side.

    The initiator's key is e(d_A, Q_B)^(r+h) for a fresh r every
    session.  e(d_A, Q_B) depends on the peer alone and is computed once
    per peer (the Curve keeps it), so it is precomputable, and it is not
    billed; only transmit energy is.  Key agreement reads the
    normal-world key copy, so no switch energy is charged either.
    """
    if node.phase != TRUSTED:
        raise Reject("not_trusted", f"phase {node.phase!r}")
    if peer not in node.trust_list:
        raise Reject("not_in_trust_list", peer)
    msg, session = ake_mod.initiate(node.params, node.identity, node._private_key,
                                    peer, rng)
    frames = codec.fragment(node.registry.wire_id(peer), node.wire_id,
                            ake_message_to_bytes(node.registry, node.params, msg))
    node.bill_tx(frames, "ake")
    node.sessions[peer] = session
    return frames, session


def peer_authenticate(node: Node, frames) -> ake_mod.SessionKey:
    """Responder side of the key exchange behind the two-tier gate.

    The frames are billed as rx and decoded (malformed_message if they
    do not decode).  Tier 1 consults the trust list before any curve
    arithmetic, so an unlisted sender costs zero curve operations.
    Tier 2 runs the actual key derivation; its online pairing is billed.
    A repeated (sender, nonce) pair is rejected before tier 2.
    """
    node.bill_rx(frames, "ake")
    msg = ake_message_from_bytes(node.registry, node.params,
                                 _reassemble(frames, "malformed_message"))
    if node.phase != TRUSTED:
        raise Reject("not_trusted", f"phase {node.phase!r}")
    if msg.sender not in node.trust_list:
        raise Reject("not_in_trust_list", msg.sender)
    seen = node.ake_nonces.setdefault(msg.sender, set())
    if (msg.nonce, msg.big_r) in seen:
        raise Reject("nonce_replay", msg.sender)
    session = ake_mod.respond(node.params, node._private_key, msg)
    seen.add((msg.nonce, msg.big_r))
    node.ledger.add("pairing", 1, "ake")
    node.sessions[msg.sender] = session
    return session

