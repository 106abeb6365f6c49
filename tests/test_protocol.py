"""Lifecycle protocol: records, trust database, node/BS state machines."""

import dataclasses
import hashlib
import random

import pytest
from test_curve import counting

from ibetrust import ake, codec, energy, ibe, protocol
from ibetrust.boot import BootChain
from ibetrust.errors import AccessViolation, Reject


@pytest.fixture(scope="module")
def toy_params():
    cfg = ibe.SecurityConfig.from_profile("toy", seed=7)
    return ibe.setup(cfg)


def make_bs(toy_params):
    params, master = toy_params
    return protocol.BaseStation(params, master)


def chain_for(name, image_suffix=b""):
    return BootChain.from_images([b"loader", b"kernel-" + name.encode() + image_suffix, b"app"])


def provision_ready(bs, name, image_suffix=b""):
    node = protocol.dp_provision(bs, name, chain_for(name, image_suffix))
    protocol.pdp_register(bs, node)
    return node


def full_ta(bs, node, rng):
    node.power_on()
    frames = protocol.ta_request(node, rng)
    ack = protocol.bs_handle_ta(bs, frames, rng)
    protocol.node_handle_ack(node, ack)


def by_note(node):
    """(category, note) -> the quantities billed under it, in entry order."""
    out = {}
    for category, quantity, note in node.ledger.entries:
        out.setdefault((category, note), []).append(quantity)
    return out


def rx_by_note(node):
    """note -> the on-air byte counts a node was billed for receiving."""
    return {note: qs for (c, note), qs in by_note(node).items() if c == "rx"}


def pairings(node):
    return [e for e in node.ledger.entries if e[0] == "pairing"]


@pytest.fixture()
def network(toy_params):
    """BS plus three trusted nodes whose lists all include each other."""
    bs = make_bs(toy_params)
    rng = random.Random(1234)
    nodes = {name: provision_ready(bs, name) for name in ("n-a", "n-b", "n-c")}
    for _ in range(2):  # second round refreshes everyone's list
        for node in nodes.values():
            full_ta(bs, node, rng)
    return bs, nodes, rng


class TestRegistry:
    def test_base_station_preassigned(self):
        reg = protocol.Registry()
        assert reg.wire_id("bs") == 0
        assert reg.identity(0) == "bs"
        assert "bs" in reg and 0 in reg

    def test_sequential_assignment(self):
        reg = protocol.Registry()
        assert reg.assign("alpha") == 1
        assert reg.assign("beta") == 2
        assert reg.identity(2) == "beta"
        assert 2 in reg and 3 not in reg  # bs, alpha and beta only

    def test_duplicate_rejected(self):
        reg = protocol.Registry()
        reg.assign("alpha")
        with pytest.raises(ValueError):
            reg.assign("alpha")
        with pytest.raises(ValueError):
            reg.assign("bs")

    def test_full_after_65535_identities(self):
        # wire ids are 2 bytes and the base station holds 0, so the
        # 65,536th identity finds none left
        reg = protocol.Registry()
        for i in range(1, 0x10000):
            assert reg.assign(f"n{i}") == i
        with pytest.raises(ValueError, match="registry full"):
            reg.assign("one-more")
        assert "one-more" not in reg


class TestTaRecord:
    def test_layout(self):
        rec = protocol.encode_ta_record(1, "deadbeef", b"\x00\xff")
        assert len(rec) == 16
        assert rec[0:2] == b"\x00\x01"
        assert rec[2:10] == b"deadbeef"
        assert rec[10:12] == b"\x00\xff"
        assert protocol.decode_ta_record(rec) == (1, "deadbeef", b"\x00\xff")

    def test_every_bit_flip_detected(self):
        rec = protocol.encode_ta_record(7, "0a1b2c3d", b"zz")
        for i in range(len(rec) * 8):
            bad = bytearray(rec)
            bad[i // 8] ^= 1 << (i % 8)
            with pytest.raises(Reject):
                protocol.decode_ta_record(bytes(bad))

    def test_wrong_size_rejected(self):
        with pytest.raises(Reject) as e:
            protocol.decode_ta_record(b"x" * 15)
        assert e.value.reason == "malformed_record"


class TestAckRecord:
    def test_roundtrip_sorted(self):
        rec = protocol.encode_ack_record(b"ab", [5, 1, 3, 1])
        nonce, ids = protocol.decode_ack_record(rec)
        assert nonce == b"ab"
        assert ids == (1, 3, 5)  # sorted, deduplicated

    def test_empty_list(self):
        nonce, ids = protocol.decode_ack_record(protocol.encode_ack_record(b"xy", []))
        assert (nonce, ids) == (b"xy", ())

    def test_mac_flip(self):
        rec = bytearray(protocol.encode_ack_record(b"ab", [1, 2]))
        rec[-1] ^= 0x80
        with pytest.raises(Reject) as e:
            protocol.decode_ack_record(bytes(rec))
        assert e.value.reason == "mac_mismatch"

    def test_structural_rejects(self):
        for blob in (b"", b"12345", b"1234567"):  # short / odd body
            with pytest.raises(Reject) as e:
                protocol.decode_ack_record(blob)
            assert e.value.reason == "malformed_record"

    @pytest.mark.parametrize("wire_ids", [
        [0xFFFF, 1, 0], [1, 0xFFFF, 0, 1, 0xFFFF, 0], [0xFFFF], [0],
    ])
    def test_roundtrip_edge_ids(self, wire_ids):
        rec = protocol.encode_ack_record(b"\xff\x00", wire_ids)
        ids = tuple(sorted(set(wire_ids)))
        assert rec[2:-4] == b"".join(w.to_bytes(2, "big") for w in ids)
        assert protocol.decode_ack_record(rec) == (b"\xff\x00", ids)

    def test_trust_list_two_bytes_per_node(self):
        blob = protocol.trust_list_bytes(range(1, 201))
        assert len(blob) == 400
        assert blob[0:2] == b"\x00\x01"
        assert blob[-2:] == (200).to_bytes(2, "big")
        assert protocol.trust_list_bytes([]) == b""


class TestSecureMessage:
    def test_roundtrip_lengths(self, toy_params):
        params, master = toy_params
        key = ibe.extract(params, ibe.MasterKey(master.scalar), "node-001")
        rng = random.Random(5)
        for size in (0, 1, 15, 16, 17, 50, 200):
            msg = rng.randbytes(size)
            blob = protocol.encrypt_message(params, "node-001", msg, random.Random(size))
            assert protocol.decrypt_message(params, key, blob) == msg

    def test_block_count(self, toy_params):
        params, _ = toy_params
        blob = protocol.encrypt_message(params, "x", b"a" * 33, random.Random(0))
        assert int.from_bytes(blob[0:2], "big") == 3  # 16+16+1

    def test_same_seed_same_bytes(self, toy_params):
        params, _ = toy_params
        a = protocol.encrypt_message(params, "x", b"hello", random.Random(42))
        b = protocol.encrypt_message(params, "x", b"hello", random.Random(42))
        assert a == b

    # sha256 of a seeded three-block blob (16 + 16 + 8 bytes), per profile
    FRAMING_DIGESTS = {
        "toy": "826e3c280544c08f93064d71c92fa78cfc2302ee1dd331aa6cdfaa732875edb8",
        "demo": "712dbcd2e7d8a22b85ac3911f824e1c5db33f9dbd0907d0f3080424d772f8df4",
    }

    @pytest.mark.parametrize("profile", ["toy", "demo"])
    def test_three_block_blob_pinned(self, profile):
        params, master = ibe.setup(ibe.SecurityConfig.from_profile(profile, seed=7))
        message = bytes(range(40))
        blob = protocol.encrypt_message(params, "node-001", message, random.Random(9))
        cs, block = params.curve.coord_size, params.block_bytes
        assert int.from_bytes(blob[0:2], "big") == 3
        assert len(blob) == 2 + 3 * (2 * cs + block + 2) + len(message)
        assert hashlib.sha256(blob).hexdigest() == self.FRAMING_DIGESTS[profile]
        key = ibe.extract(params, master, "node-001")
        assert protocol.decrypt_message(params, key, blob) == message

    def test_structural_rejects(self, toy_params):
        params, master = toy_params
        key = ibe.extract(params, master, "node-001")
        good = protocol.encrypt_message(params, "node-001", b"abc", random.Random(1))
        wlen_at = 2 + 2 * params.curve.coord_size + params.block_bytes
        too_long = (params.block_bytes + 1).to_bytes(2, "big")
        cases = [
            (b"", "missing block count"),
            (b"\x01", "missing block count"),
            (b"\x00\x00", "zero blocks"),
            (good[:wlen_at], "truncated block"),
            (b"\x00\x02" + good[2:], "truncated block"),
            (good[:-2], "bad chunk length"),
            (good[:wlen_at] + too_long + good[wlen_at + 2:], "bad chunk length"),
            (good[:wlen_at] + too_long + bytes(params.block_bytes + 1), "bad chunk length"),
            (good + b"x", "trailing bytes"),
        ]
        for blob, detail in cases:
            with pytest.raises(Reject) as e:
                protocol.decrypt_message(params, key, blob)
            assert (e.value.reason, e.value.detail) == ("malformed_ciphertext", detail)

    def test_tamper_never_silently_accepted(self, toy_params):
        """Any flipped byte either rejects or changes the plaintext."""
        params, master = toy_params
        key = ibe.extract(params, master, "node-001")
        msg = b"trust-report-body"
        blob = protocol.encrypt_message(params, "node-001", msg, random.Random(3))
        silently_ok = 0
        for i in range(2, len(blob)):
            bad = bytearray(blob)
            bad[i] ^= 0x01
            try:
                out = protocol.decrypt_message(params, key, bytes(bad))
            except Reject:
                continue
            if out == msg:
                silently_ok += 1
        assert silently_ok == 0


class TestProvisioning:
    def test_dp_provision(self, toy_params):
        bs = make_bs(toy_params)
        chain = chain_for("node-001")
        node = protocol.dp_provision(bs, "node-001", chain)
        assert node.phase == protocol.DP
        assert node.chain is chain  # installed at the factory, with the key
        assert node.wire_id == 1
        assert "bs" in bs.registry and "node-001" in bs.registry
        assert 2 not in bs.registry  # the base station and the new node only
        assert bs.registry.wire_id("node-001") == 1
        assert bs.registry.identity(1) == "node-001"
        assert node.ledger.entries == []  # offline, nothing billed
        # the installed key verifies against the master public key
        params = bs.params
        q_id = ibe.hash_to_point(params, "node-001")
        lhs = params.curve.pairing(node._private_key.point, params.generator)
        rhs = params.curve.pairing(q_id, params.master_pub)
        assert lhs == rhs

    def test_duplicate_identity(self, toy_params):
        bs = make_bs(toy_params)
        protocol.dp_provision(bs, "node-001", chain_for("node-001"))
        with pytest.raises(ValueError):
            protocol.dp_provision(bs, "node-001", chain_for("node-001"))

    def test_key_locked_behind_secure_world(self, toy_params):
        bs = make_bs(toy_params)
        node = protocol.dp_provision(bs, "node-001", chain_for("node-001"))
        with pytest.raises(AccessViolation):
            node.world.key()

    def test_pdp_register(self, toy_params):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        assert node.phase == protocol.PDP
        rec = bs.db.records["node-001"]
        assert "node-001" not in bs.db.trusted
        assert len(rec.trust_value) == 8
        assert node.trust_value is None  # a node holds a value only from a field boot
        node.power_on()
        assert node.trust_value == rec.trust_value

    def test_chain_tampered_before_registration_is_never_admitted(self, toy_params):
        # the simulator tampers only after registration; a library caller
        # that tampers first registers the trust value None
        bs = make_bs(toy_params)
        node = protocol.dp_provision(bs, "node-001", BootChain.from_images([b"loader", b"kernel"]))
        node.chain.images[1] = b"tampered"
        protocol.pdp_register(bs, node)
        assert node.phase == protocol.PDP
        assert bs.db.records["node-001"].trust_value is None
        node.power_on()
        assert node.phase == protocol.HALTED
        node.chain.images[1] = b"kernel"  # repaired in the field
        node.power_on()
        frames = protocol.ta_request(node, random.Random(0))
        with pytest.raises(Reject) as e:
            protocol.bs_handle_ta(bs, frames, random.Random(1))
        assert e.value.reason == "trust_mismatch"
        assert "node-001" not in bs.db.trusted

    def test_reregistration_overwrites(self, toy_params):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        first = bs.db.records["node-001"].trust_value
        node.chain = BootChain.from_images([b"loader", b"kernel-v2", b"app"])
        protocol.pdp_register(bs, node)
        second = bs.db.records["node-001"].trust_value
        assert first != second
        assert "node-001" not in bs.db.trusted

    def test_register_from_field_phase_rejected(self, toy_params):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        node.power_on()
        with pytest.raises(ValueError):
            protocol.pdp_register(bs, node)


class TestTrustedAuthentication:
    def test_happy_path(self, toy_params):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        rng = random.Random(9)
        full_ta(bs, node, rng)
        assert node.phase == protocol.TRUSTED
        assert node.trust_list == ("node-001",)
        assert bs.db.trusted == ("node-001",)

    def test_request_requires_deployed_phase(self, toy_params):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        with pytest.raises(Reject) as e:  # still pdp, never booted in the field
            protocol.ta_request(node, random.Random(0))
        assert e.value.reason == "not_ready"

    def test_halted_node_cannot_request(self, toy_params):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        node.chain.images[1] = b"evil"
        node.power_on()
        assert node.phase == protocol.HALTED
        with pytest.raises(Reject):
            protocol.ta_request(node, random.Random(0))

    def test_billing_shape(self, toy_params):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        rng = random.Random(9)
        full_ta(bs, node, rng)
        groups = by_note(node)
        # no pairing (excluded from the authentication flow) and no sha2
        assert sorted(groups) == [("boot", "dy-boot"), ("encrypt", "ta"), ("rx", "ta-ack"),
                                  ("switch", ""), ("tx", "ta-request")]
        assert groups[("boot", "dy-boot")] == [1]
        assert groups[("switch", "")] == [1] * 4  # two around encrypt, two around decrypt
        assert groups[("encrypt", "ta")] == [128]  # the record's bits
        assert len(groups[("tx", "ta-request")]) == len(groups[("rx", "ta-ack")]) == 1

    def test_replayed_request_rejected(self, toy_params):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        rng = random.Random(9)
        node.power_on()
        frames = protocol.ta_request(node, rng)
        protocol.bs_handle_ta(bs, frames, rng)
        curve = bs.params.curve
        counts = (curve.pairing_count, curve.pairings_computed)
        with pytest.raises(Reject) as e:
            protocol.bs_handle_ta(bs, list(frames), rng)
        assert (e.value.reason, e.value.detail) == ("nonce_replay", "node-001")
        # the accepted ciphertext is recognised before decryption
        assert (curve.pairing_count, curve.pairings_computed) == counts
        assert list(bs.accepted) == [codec.reassemble(frames)]

    def test_replay_after_reflash_is_trust_mismatch(self, toy_params):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        rng = random.Random(9)
        node.power_on()
        frames = protocol.ta_request(node, rng)
        protocol.bs_handle_ta(bs, frames, rng)
        reflashed = "0" * 8 if node.trust_value != "0" * 8 else "1" * 8
        bs.db.register("node-001", reflashed)
        with pytest.raises(Reject) as e:
            protocol.bs_handle_ta(bs, list(frames), rng)
        assert (e.value.reason, e.value.detail) == ("trust_mismatch", "node-001")

    def test_replay_readmitted_without_nonce_check(self, toy_params):
        bs = make_bs(toy_params)
        bs.nonce_check = False
        node = provision_ready(bs, "node-001")
        rng = random.Random(9)
        node.power_on()
        frames = protocol.ta_request(node, rng)
        protocol.bs_handle_ta(bs, frames, rng)
        protocol.bs_terminate(bs, "node-001")
        ack = protocol.bs_handle_ta(bs, list(frames), rng)
        assert bs.db.trusted == ("node-001",)
        protocol.node_handle_ack(node, ack)
        assert (node.phase, node.trust_list) == (protocol.TRUSTED, ("node-001",))

    @pytest.mark.parametrize("reason", ["unknown_id", "trust_mismatch", "decrypt_failure"])
    def test_refused_report_is_not_kept(self, toy_params, reason):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        rng = random.Random(20)
        wire, value = node.wire_id, bs.db.records["node-001"].trust_value
        if reason == "unknown_id":
            wire = 999
        elif reason == "trust_mismatch":
            value = "0" * 8 if value != "0" * 8 else "1" * 8
        blob = protocol.encrypt_message(
            bs.params, "bs", protocol.encode_ta_record(wire, value, b"qq"), rng)
        if reason == "decrypt_failure":
            blob = blob[:-1]
        for _ in range(2):  # a second copy is refused the same way
            with pytest.raises(Reject) as e:
                protocol.bs_handle_ta(bs, codec.fragment(0, node.wire_id, blob), rng)
            assert e.value.reason == reason
        assert bs.accepted == {}

    def test_unknown_id_rejected(self, toy_params):
        bs = make_bs(toy_params)
        provision_ready(bs, "node-001")
        rng = random.Random(11)
        record = protocol.encode_ta_record(999, "ab12cd34", b"qq")
        blob = protocol.encrypt_message(bs.params, "bs", record, rng)
        frames = codec.fragment(0, bs.wire_id, blob)
        with pytest.raises(Reject) as e:
            protocol.bs_handle_ta(bs, frames, rng)
        assert e.value.reason == "unknown_id"

    def test_provisioned_but_unregistered_rejected(self, toy_params):
        bs = make_bs(toy_params)
        node = protocol.dp_provision(bs, "node-001", chain_for("node-001"))  # not registered
        rng = random.Random(12)
        record = protocol.encode_ta_record(node.wire_id, "ab12cd34", b"qq")
        blob = protocol.encrypt_message(bs.params, "bs", record, rng)
        frames = codec.fragment(0, node.wire_id, blob)
        with pytest.raises(Reject) as e:
            protocol.bs_handle_ta(bs, frames, rng)
        assert e.value.reason == "unknown_id"

    def test_forged_trust_value_rejected(self, toy_params):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        rng = random.Random(13)
        registered = bs.db.records["node-001"].trust_value
        wrong = "0" * 8 if registered != "0" * 8 else "1" * 8
        record = protocol.encode_ta_record(node.wire_id, wrong, b"qq")
        blob = protocol.encrypt_message(bs.params, "bs", record, rng)
        with pytest.raises(Reject) as e:
            protocol.bs_handle_ta(bs, codec.fragment(0, node.wire_id, blob), rng)
        assert e.value.reason == "trust_mismatch"
        assert "node-001" not in bs.db.trusted

    def test_garbled_request_rejected(self, toy_params):
        bs = make_bs(toy_params)
        rng = random.Random(14)
        frames = codec.fragment(0, bs.wire_id, b"\x00\x01" + b"junk")
        with pytest.raises(Reject) as e:
            protocol.bs_handle_ta(bs, frames, rng)
        assert e.value.reason == "decrypt_failure"

    def test_record_mac_mismatch(self, toy_params):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        rng = random.Random(15)
        record = bytearray(
            protocol.encode_ta_record(node.wire_id, bs.db.records["node-001"].trust_value, b"qq")
        )
        record[-1] ^= 0xFF  # valid ciphertext around a bad inner mac
        blob = protocol.encrypt_message(bs.params, "bs", bytes(record), rng)
        with pytest.raises(Reject) as e:
            protocol.bs_handle_ta(bs, codec.fragment(0, node.wire_id, blob), rng)
        assert e.value.reason == "mac_mismatch"

    def test_non_ascii_trust_value_rejected(self, toy_params):
        # the record mac is unkeyed and anyone can encrypt to the BS, so
        # a record with a valid mac can carry any trust-value bytes
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        rng = random.Random(16)
        body = node.wire_id.to_bytes(2, "big") + b"\xff" * 8 + b"qq"
        blob = protocol.encrypt_message(bs.params, "bs", body + codec.truncated_mac(body), rng)
        with pytest.raises(Reject) as e:
            protocol.bs_handle_ta(bs, codec.fragment(0, node.wire_id, blob), rng)
        assert e.value.reason == "malformed_record"
        assert e.value.detail == "non-ascii trust value"

    def test_stale_ack_discarded(self, toy_params):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        rng = random.Random(16)
        node.power_on()
        protocol.ta_request(node, rng)
        wrong_nonce = bytes(b ^ 0xFF for b in node.pending_nonce)
        ack = protocol.encode_ack_record(wrong_nonce, [node.wire_id])
        blob = protocol.encrypt_message(bs.params, "node-001", ack, rng)
        with pytest.raises(Reject) as e:
            protocol.node_handle_ack(node, codec.fragment(node.wire_id, bs.wire_id, blob))
        assert e.value.reason == "stale_nonce"
        assert node.phase == protocol.TA
        assert node.trust_list == ()

    def test_ack_installs_only_registered_ids(self, toy_params):
        bs = make_bs(toy_params)
        # registered against name order, so the list is sorted by name
        # rather than kept in wire order
        nodes = [provision_ready(bs, name) for name in ("n-c", "n-a", "n-b")]
        node = nodes[0]
        rng = random.Random(19)
        node.power_on()
        protocol.ta_request(node, rng)
        wires = [9, nodes[2].wire_id, 0xFFFF, nodes[1].wire_id, node.wire_id, 4]
        assert 4 not in bs.registry and 9 not in bs.registry
        ack = protocol.encode_ack_record(node.pending_nonce, wires)
        blob = protocol.encrypt_message(bs.params, "n-c", ack, rng)
        protocol.node_handle_ack(node, codec.fragment(node.wire_id, bs.wire_id, blob))
        assert node.phase == protocol.TRUSTED
        assert node.trust_list == ("n-a", "n-b", "n-c")

    def test_replayed_ack_after_success(self, toy_params):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        rng = random.Random(17)
        node.power_on()
        frames = protocol.ta_request(node, rng)
        ack = protocol.bs_handle_ta(bs, frames, rng)
        protocol.node_handle_ack(node, ack)
        before = rx_by_note(node)["ta-ack"]
        with pytest.raises(Reject) as e:
            protocol.node_handle_ack(node, ack)
        assert e.value.reason == "not_waiting"
        # the refused ack arrived, so its on-air bytes are billed before
        # the phase gate, like every message a node receives
        arrived = codec.on_air_bytes(ack)
        assert rx_by_note(node)["ta-ack"] == before + [arrived]

    def test_reboot_drops_trusted_state(self, toy_params):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        rng = random.Random(18)
        full_ta(bs, node, rng)
        node.power_on()
        assert node.phase == protocol.DY
        assert node.trust_list == ()
        assert node.sessions == {}


class TestPartialFrameLoss:
    """A multi-frame message that lost a frame on the air is refused at
    reassembly, before any decryption."""

    LOSSES = [
        pytest.param(lambda frames: [frames[0]] + frames[2:],
                     "reassembly: missing fragment", id="middle-frame-lost"),
        pytest.param(lambda frames: frames[:-1],
                     "reassembly: fragment chain broken", id="last-frame-lost"),
        pytest.param(lambda frames: frames[1:],
                     "reassembly: missing fragment", id="first-frame-lost"),
    ]

    @pytest.mark.parametrize("drop, detail", LOSSES)
    def test_bs_refuses_incomplete_report(self, toy_params, drop, detail):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        rng = random.Random(21)
        blob = protocol.encrypt_message(bs.params, "bs", b"r" * 200, rng)
        frames = codec.fragment(0, node.wire_id, blob)
        assert len(frames) >= 3
        with pytest.raises(Reject) as e:
            protocol.bs_handle_ta(bs, drop(frames), rng)
        assert (e.value.reason, e.value.detail) == ("decrypt_failure", detail)
        assert "node-001" not in bs.db.trusted

    @pytest.mark.parametrize("drop, detail", LOSSES)
    def test_node_refuses_incomplete_ack(self, toy_params, drop, detail):
        bs = make_bs(toy_params)
        node = provision_ready(bs, "node-001")
        rng = random.Random(22)
        node.power_on()
        protocol.ta_request(node, rng)
        ack = protocol.encode_ack_record(node.pending_nonce, range(1, 200))
        blob = protocol.encrypt_message(bs.params, "node-001", ack, rng)
        frames = codec.fragment(node.wire_id, 0, blob)
        assert len(frames) >= 3
        kept = drop(frames)
        with pytest.raises(Reject) as e:
            protocol.node_handle_ack(node, kept)
        assert (e.value.reason, e.value.detail) == ("decrypt_failure", detail)
        assert node.phase == protocol.TA
        arrived = codec.on_air_bytes(kept)
        assert rx_by_note(node) == {"ta-ack": [arrived]}
        # the same ack in full is accepted
        protocol.node_handle_ack(node, frames)
        assert node.phase == protocol.TRUSTED


class TestTermination:
    def test_terminate_and_readmit(self, network):
        bs, nodes, rng = network
        protocol.bs_terminate(bs, "n-b")
        assert bs.db.trusted == ("n-a", "n-c")
        assert "n-b" in bs.db.records  # the record and its replay history stay
        # rebooting and re-running the authentication re-admits the node
        full_ta(bs, nodes["n-b"], rng)
        assert bs.db.trusted == ("n-a", "n-b", "n-c")

    def test_terminate_unknown_warns(self, network):
        bs, _, _ = network
        before = (bs.db.trusted, dict(bs.db.records))
        protocol.bs_terminate(bs, "ghost")
        assert (bs.db.trusted, bs.db.records) == before

    def test_trusted_tuple_matches_a_model_set(self):
        db = protocol.TrustDB()
        rng = random.Random(19)
        names = [f"n-{i:02d}" for i in range(12)]
        model = set()
        for _ in range(600):
            name = rng.choice(names)
            step = rng.choice(("register", "admit", "revoke"))
            if step == "register":  # a re-flash leaves the node untrusted
                db.register(name, f"{rng.getrandbits(32):08x}")
                model.discard(name)
            elif step == "admit" and name in db.records:
                db.admit(name)
                model.add(name)
            elif step == "revoke":
                db.revoke(name)
                model.discard(name)
            assert db.trusted == tuple(sorted(model))
        assert 0 < len(model) < len(names)  # the walk ended with both kinds

    def test_terminated_id_absent_from_new_acks(self, network):
        bs, nodes, rng = network
        protocol.bs_terminate(bs, "n-c")
        full_ta(bs, nodes["n-a"], rng)
        assert "n-c" not in nodes["n-a"].trust_list
        assert set(nodes["n-a"].trust_list) == {"n-a", "n-b"}


class TestPeerAuthentication:
    def test_equal_keys(self, network):
        bs, nodes, rng = network
        frames, sk_a = protocol.ake_initiate(nodes["n-a"], "n-b", rng)
        sk_b = protocol.peer_authenticate(nodes["n-b"], frames)
        assert sk_a.key == sk_b.key
        assert sk_a == sk_b
        assert nodes["n-a"].sessions["n-b"].key == nodes["n-b"].sessions["n-a"].key

    def test_responder_pairing_billed(self, network):
        bs, nodes, rng = network
        frames, _ = protocol.ake_initiate(nodes["n-a"], "n-b", rng)
        protocol.peer_authenticate(nodes["n-b"], frames)
        assert pairings(nodes["n-a"]) == []
        assert pairings(nodes["n-b"]) == [("pairing", 1, "ake")]
        priced = energy.build_report({"n-b": nodes["n-b"].ledger}).per_node["n-b"]
        assert priced["pairing"] == pytest.approx(0.2916)
        tx_notes = [note for c, _, note in nodes["n-a"].ledger.entries if c == "tx"]
        assert tx_notes[-1] == "ake"

    def test_unlisted_sender_costs_no_pairing(self, network):
        bs, nodes, rng = network
        outsider = provision_ready(bs, "n-x")
        outsider.power_on()
        # n-x never ran the trusted authentication, so nobody lists it
        msg, _ = __import__("ibetrust.ake", fromlist=["initiate"]).initiate(
            bs.params, "n-x", outsider._private_key, "n-b", rng
        )
        frames = codec.fragment(nodes["n-b"].wire_id, outsider.wire_id,
                                protocol.ake_message_to_bytes(bs.registry, bs.params, msg))
        count_before = bs.params.curve.pairing_count
        with pytest.raises(Reject) as e:
            protocol.peer_authenticate(nodes["n-b"], frames)
        assert e.value.reason == "not_in_trust_list"
        assert bs.params.curve.pairing_count == count_before
        assert pairings(nodes["n-b"]) == []

    @pytest.mark.parametrize("damage, detail", [
        (lambda f: [codec.Frame(f.dst, f.src, 0, True, f.payload)],
         "reassembly: fragment chain broken"),
        (lambda f: [codec.Frame(f.dst, f.src, 0, False, f.payload[:-1])],
         "ake message length 11"),
    ], ids=["broken-chain", "truncated"])
    def test_undecodable_message_billed_then_rejected(self, network, damage, detail):
        bs, nodes, rng = network
        frames, _ = protocol.ake_initiate(nodes["n-a"], "n-b", rng)
        received = damage(frames[0])
        count_before = bs.params.curve.pairing_count
        with pytest.raises(Reject) as e:
            protocol.peer_authenticate(nodes["n-b"], received)
        assert (e.value.reason, e.value.detail) == ("malformed_message", detail)
        assert bs.params.curve.pairing_count == count_before
        arrived = codec.on_air_bytes(received)
        assert rx_by_note(nodes["n-b"])["ake"] == [arrived]

    def test_cheap_refusals_cost_no_scalar_mult(self):
        # on demo, R's order check is a 160-bit plain-loop qR; a message
        # from a listed sender that is misaddressed or carries a bad MAC
        # is refused before it
        bs = make_bs(ibe.setup(ibe.SecurityConfig("demo", 5)))
        rng = random.Random(20)
        nodes = {name: provision_ready(bs, name) for name in ("n-a", "n-b", "n-c")}
        full_ta(bs, nodes["n-a"], rng)
        full_ta(bs, nodes["n-b"], rng)  # n-b lists n-a
        msg, _ = ake.initiate(bs.params, "n-a", nodes["n-a"]._private_key, "n-b", rng)
        muls = counting(bs.params.curve, ("mul",))
        for sent, reason in ((dataclasses.replace(msg, receiver="n-c"), "wrong_receiver"),
                             (dataclasses.replace(msg, mac=bytes(4)), "mac_mismatch")):
            data = protocol.ake_message_to_bytes(bs.registry, bs.params, sent)
            with pytest.raises(Reject) as e:
                protocol.peer_authenticate(nodes["n-b"], codec.fragment(
                    nodes["n-b"].wire_id, nodes["n-a"].wire_id, data))
            assert e.value.reason == reason
        assert muls == {"mul": 0}
        protocol.peer_authenticate(nodes["n-b"], codec.fragment(
            nodes["n-b"].wire_id, nodes["n-a"].wire_id,
            protocol.ake_message_to_bytes(bs.registry, bs.params, msg)))
        assert muls["mul"] > 0  # the honest message does reach the order check

    def test_initiator_checks_own_list(self, network):
        bs, nodes, rng = network
        with pytest.raises(Reject) as e:
            protocol.ake_initiate(nodes["n-a"], "stranger", rng)
        assert e.value.reason == "not_in_trust_list"

    def test_untrusted_phase_rejected(self, network):
        bs, nodes, rng = network
        nodes["n-b"].power_on()  # back to deployed, list wiped
        frames, _ = protocol.ake_initiate(nodes["n-a"], "n-b", rng)
        with pytest.raises(Reject) as e:
            protocol.peer_authenticate(nodes["n-b"], frames)
        assert e.value.reason == "not_trusted"

    def test_replayed_message_rejected(self, network):
        bs, nodes, rng = network
        frames, _ = protocol.ake_initiate(nodes["n-a"], "n-b", rng)
        protocol.peer_authenticate(nodes["n-b"], frames)
        count_before = bs.params.curve.pairing_count
        with pytest.raises(Reject) as e:
            protocol.peer_authenticate(nodes["n-b"], frames)
        assert e.value.reason == "nonce_replay"
        assert bs.params.curve.pairing_count == count_before

    def test_no_switch_energy_for_key_exchange(self, network):
        bs, nodes, rng = network
        switches_before = len(
            [e for e in nodes["n-a"].ledger.entries if e[0] == "switch"]
        )
        frames, _ = protocol.ake_initiate(nodes["n-a"], "n-b", rng)
        protocol.peer_authenticate(nodes["n-b"], frames)
        switches_after = len(
            [e for e in nodes["n-a"].ledger.entries if e[0] == "switch"]
        )
        assert switches_after == switches_before

    def test_wire_roundtrip(self, network):
        bs, nodes, rng = network
        frames, _ = protocol.ake_initiate(nodes["n-a"], "n-b", rng)
        msg = protocol.ake_message_from_bytes(bs.registry, bs.params, frames[0].payload)
        blob = protocol.ake_message_to_bytes(bs.registry, bs.params, msg)
        assert blob == frames[0].payload
        assert msg.sender == "n-a" and msg.receiver == "n-b"


class TestSafetyInvariant:
    def test_lists_only_contain_trusted_ids(self, network):
        bs, nodes, rng = network
        protocol.bs_terminate(bs, "n-c")
        full_ta(bs, nodes["n-a"], rng)
        assert set(nodes["n-a"].trust_list) <= set(bs.db.trusted)
        for identity in bs.db.trusted:
            assert bs.db.records[identity].seen_nonces  # admitted only via a verified report
