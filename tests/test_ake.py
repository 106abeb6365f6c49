"""One-pass key exchange: agreement, the algebraic core, degenerate
cases and rejection paths."""

import random

import pytest

import vectors
from ibetrust import ake, ibe
from ibetrust.curve import GT_ONE
from ibetrust.errors import Reject


@pytest.fixture(scope="module")
def setup():
    cfg = ibe.SecurityConfig.from_profile("toy", seed=vectors.TOY_SEED)
    return ibe.setup(cfg)


@pytest.fixture(scope="module")
def params(setup):
    return setup[0]


@pytest.fixture(scope="module")
def master(setup):
    return setup[1]


class ScriptedRng:
    """Feeds fixed randrange values first, then falls back to a seeded rng."""

    def __init__(self, scripted, seed=0):
        self.scripted = list(scripted)
        self.tail = random.Random(seed)

    def randrange(self, *args):
        if self.scripted:
            return self.scripted.pop(0)
        return self.tail.randrange(*args)

    def randbytes(self, k):
        return self.tail.randbytes(k)


class TestAgreement:
    def test_honest_runs_agree(self, params, master):
        sk_a = ibe.extract(params, master, "node-001")
        sk_b = ibe.extract(params, master, "node-002")
        for seed in range(100):
            msg, key_a = ake.initiate(
                params, "node-001", sk_a, "node-002", random.Random(seed)
            )
            key_b = ake.respond(params, sk_b, msg)
            assert key_a.key == key_b.key
            assert key_a.transcript == key_b.transcript

    def test_algebraic_core(self, params, master):
        # e((r+h)*d_A, Q_B) = e(R + h*Q_A, d_B) as raw group elements,
        # independent of any key derivation
        curve = params.curve
        sk_a = ibe.extract(params, master, "node-001")
        sk_b = ibe.extract(params, master, "node-002")
        q_a = ibe.hash_to_point(params, "node-001")
        q_b = ibe.hash_to_point(params, "node-002")
        rng = random.Random(13)
        for _ in range(50):
            r = rng.randrange(1, params.q)
            R = curve.mul(r, q_a)
            h = ake._h_ake(params, R, "node-001", "node-002")
            if (r + h) % params.q == 0:
                continue
            lhs = curve.pairing(curve.mul(r + h, sk_a.point), q_b)
            rhs = curve.pairing(curve.add(R, curve.mul(h, q_a)), sk_b.point)
            assert lhs == rhs
            assert lhs != GT_ONE

    def test_distinct_r_distinct_keys(self, params, master):
        sk_a = ibe.extract(params, master, "node-001")
        seen = {}
        for seed in range(100):
            msg, key = ake.initiate(
                params, "node-001", sk_a, "node-002", random.Random(seed)
            )
            if msg.big_r in seen:
                assert key.key == seen[msg.big_r]  # same r, same key
            else:
                for other_r, other_key in seen.items():
                    assert key.key != other_key or other_r == msg.big_r
                seen[msg.big_r] = key.key
        assert len(seen) > 1


@pytest.fixture(scope="module")
def demo_setup():
    return ibe.setup(ibe.SecurityConfig.from_profile("demo", seed=3))


class TestDemoInitiator:
    def test_k_is_the_pairing_with_the_scaled_peer_point(self, demo_setup):
        # K = e(d_A, Q_B)^(r+h), from a kept value after the first
        # session with a peer, is e(d_A, (r+h)*Q_B) computed cold
        params, master = demo_setup
        curve = params.curve
        sk_a = ibe.extract(params, master, "node-001")
        for seed, peer in enumerate(("node-002", "node-003", "node-002", "node-002")):
            msg, session = ake.initiate(params, "node-001", sk_a, peer, random.Random(seed))
            r = random.Random(seed).randrange(1, params.q)
            assert msg.big_r == curve.mul(r, ibe.hash_to_point(params, "node-001"))
            h = ake._h_ake(params, msg.big_r, "node-001", peer)
            K = curve.pairing(sk_a.point, curve.mul(r + h, ibe.hash_to_point(params, peer)))
            assert ake.kdf(params, K, "node-001", peer, msg.big_r) == session

    def test_kept_values_count_as_requests_not_computations(self):
        params, master = ibe.setup(ibe.SecurityConfig.from_profile("demo", seed=4))
        curve = params.curve
        rng = random.Random(5)
        for _ in range(2):
            ibe.encrypt(params, "node-002", b"report", rng)
        assert (curve.pairing_count, curve.pairings_computed) == (2, 1)
        sk_a = ibe.extract(params, master, "node-001")
        for _ in range(2):
            ake.initiate(params, "node-001", sk_a, "node-002", rng)
        assert (curve.pairing_count, curve.pairings_computed) == (4, 2)


class TestKdf:
    def test_deterministic(self, params):
        e = params.curve.pairing(params.generator, params.generator)
        R = params.generator
        a = ake.kdf(params, e, "a", "b", R)
        b = ake.kdf(params, e, "a", "b", R)
        assert a.key == b.key
        assert len(a.key) == 16

    def test_k_and_k_squared_differ(self, params):
        curve = params.curve
        e = curve.pairing(params.generator, params.generator)
        e2 = curve.f2_mul(e, e)
        R = params.generator
        assert ake.kdf(params, e, "a", "b", R).key != ake.kdf(params, e2, "a", "b", R).key

    def test_transcript_binding(self, params):
        e = params.curve.pairing(params.generator, params.generator)
        R = params.generator
        assert ake.kdf(params, e, "a", "b", R).key != ake.kdf(params, e, "a", "c", R).key

    def test_identity_element_rejected(self, params):
        with pytest.raises(ValueError):
            ake.kdf(params, GT_ONE, "a", "b", params.generator)


class TestDegenerateR:
    def test_bad_r_is_really_degenerate(self, params, master):
        # frozen search result: r + h = 0 mod q for this identity pair
        curve = params.curve
        q_a = ibe.hash_to_point(params, "node-001")
        R = curve.mul(vectors.AKE_BAD_R, q_a)
        h = ake._h_ake(params, R, "node-001", vectors.AKE_BAD_PEER)
        assert (vectors.AKE_BAD_R + h) % params.q == 0
        sk_a = ibe.extract(params, master, "node-001")
        assert curve.mul(vectors.AKE_BAD_R + h, sk_a.point) is None

    def test_initiate_redraws(self, params, master):
        sk_a = ibe.extract(params, master, "node-001")
        sk_b = ibe.extract(params, master, vectors.AKE_BAD_PEER)
        rng = ScriptedRng([vectors.AKE_BAD_R], seed=14)
        msg, key_a = ake.initiate(params, "node-001", sk_a, vectors.AKE_BAD_PEER, rng)
        # the degenerate draw was discarded
        bad_R = params.curve.mul(vectors.AKE_BAD_R, ibe.hash_to_point(params, "node-001"))
        assert msg.big_r != bad_R
        assert ake.respond(params, sk_b, msg).key == key_a.key

    def test_respond_rejects_degenerate_message(self, params, master):
        # an adversary could send the degenerate R directly; the
        # responder must not emit an identity-derived key, and refuses
        # it before the pairing
        curve = params.curve
        sk_b = ibe.extract(params, master, vectors.AKE_BAD_PEER)
        R = curve.mul(vectors.AKE_BAD_R, ibe.hash_to_point(params, "node-001"))
        nonce = b"\x00\x01"
        msg = ake.AkeMessage(
            sender="node-001",
            receiver=vectors.AKE_BAD_PEER,
            big_r=R,
            nonce=nonce,
            mac=ake.message_mac(params, "node-001", R, nonce),
        )
        pairings = curve.pairing_count
        with pytest.raises(Reject, match="degenerate_key"):
            ake.respond(params, sk_b, msg)
        assert curve.pairing_count == pairings


class TestRespondRejections:
    def _honest_msg(self, params, master):
        sk_a = ibe.extract(params, master, "node-001")
        return ake.initiate(params, "node-001", sk_a, "node-002", random.Random(15))[0]

    def test_off_curve_r(self, params, master):
        sk_b = ibe.extract(params, master, "node-002")
        msg = self._honest_msg(params, master)
        msg.big_r = (1, 1)
        with pytest.raises(Reject, match="off_curve"):
            ake.respond(params, sk_b, msg)

    def test_wrong_order_r(self, params, master):
        sk_b = ibe.extract(params, master, "node-002")
        msg = self._honest_msg(params, master)
        curve = params.curve
        for y in range(params.p):
            P = curve.point_from_y(y)
            if curve.mul(params.q, P) is not None:
                msg.big_r = P
                break
        # the MAC is unkeyed and checked before the order, so a sender
        # can make it match; R is then refused by the order check
        msg.mac = ake.message_mac(params, msg.sender, msg.big_r, msg.nonce)
        with pytest.raises(Reject, match="off_curve"):
            ake.respond(params, sk_b, msg)

    def test_infinity_r(self, params, master):
        sk_b = ibe.extract(params, master, "node-002")
        msg = self._honest_msg(params, master)
        msg.big_r = None
        with pytest.raises(Reject, match="off_curve"):
            ake.respond(params, sk_b, msg)

    def test_tampered_r_fails_mac(self, params, master):
        sk_b = ibe.extract(params, master, "node-002")
        msg = self._honest_msg(params, master)
        msg.big_r = params.curve.add(msg.big_r, params.generator)
        if msg.big_r is None:  # landed on infinity, shift once more
            msg.big_r = params.generator
        with pytest.raises(Reject, match="mac_mismatch"):
            ake.respond(params, sk_b, msg)

    def test_tampered_nonce_fails_mac(self, params, master):
        sk_b = ibe.extract(params, master, "node-002")
        msg = self._honest_msg(params, master)
        msg.nonce = bytes([msg.nonce[0] ^ 1, msg.nonce[1]])
        with pytest.raises(Reject, match="mac_mismatch"):
            ake.respond(params, sk_b, msg)

    def test_wrong_receiver(self, params, master):
        sk_c = ibe.extract(params, master, "node-003")
        msg = self._honest_msg(params, master)
        with pytest.raises(Reject, match="wrong_receiver"):
            ake.respond(params, sk_c, msg)
