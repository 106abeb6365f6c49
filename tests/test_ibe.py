"""Identity-based encryption: frozen vectors, oracle cross-checks,
roundtrips and tamper rejection."""

import dataclasses
import hashlib
import random

import pytest

import oracles
import vectors
from ibetrust import ibe
from gen_demo_params import is_probable_prime
from ibetrust.curve import GT_ONE
from ibetrust.errors import ConfigError, Reject


# Plain ElGamal-style variant without the re-encryption check, to show
# the masking algebra and the hardening layer are separable concerns.


def h2(params, g):
    return hashlib.sha256(ibe.gt_to_bytes(params, g)).digest()[: params.block_bytes]


def xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def basic_encrypt(params, identity, message, r):
    curve = params.curve
    U = curve.mul(r, params.generator)
    g = curve.pairing(ibe.hash_to_point(params, identity), params.master_pub)
    return U, xor(message, h2(params, curve.gt_pow(g, r)))


def basic_decrypt(params, key, U, V):
    return xor(V, h2(params, params.curve.pairing(key.point, U)))


@pytest.fixture(scope="module")
def toy_setup():
    cfg = ibe.SecurityConfig.from_profile("toy", seed=vectors.TOY_SEED)
    return ibe.setup(cfg)


@pytest.fixture(scope="module")
def params(toy_setup):
    return toy_setup[0]


@pytest.fixture(scope="module")
def master(toy_setup):
    return toy_setup[1]


# (p, q, n) outside PROFILES, each once refused by an older per-value check
NOT_PROFILES = [
    pytest.param(43, 11, 128, id="p-1-mod-3"),
    pytest.param(53, 27, 128, id="q-composite"),
    pytest.param(35, 6, 128, id="p-composite"),
    pytest.param(227, 17, 128, id="q-not-dividing"),
    pytest.param(227, 2, 128, id="q-2"),
    pytest.param(227, 3, 128, id="q-3"),
    pytest.param(227, 0, 128, id="q-0"),
    pytest.param(227, 57, 128, id="q-57"),  # 57 = 3 * 19 divides p + 1 = 228
    pytest.param(227, 19, 0, id="n-0"),
    pytest.param(227, 19, -8, id="n-negative"),
    pytest.param(227, 19, 7, id="n-7"),
    pytest.param(227, 19, 129, id="n-129"),
    pytest.param(227, 19, 260, id="n-260"),
    pytest.param(227, 19, 4096, id="n-4096"),
    pytest.param(ibe.PROFILES["demo"]["p"], ibe.PROFILES["demo"]["q"], 256, id="demo-n-256"),
]
NOT_A_PROFILE = "not one of the profiles"


def params_blob(p, q, n):
    """A params.bin layout with the toy points and any (p, q, n)."""
    fields = [p, q, n, *vectors.TOY_GENERATOR, *vectors.TOY_MASTER_PUB]
    return (ibe._PARAMS_MAGIC + bytes([ibe._FORMAT_VERSION])
            + b"".join(ibe._lp_int(v) for v in fields))


class TestConfig:
    @pytest.mark.parametrize("name", sorted(ibe.PROFILES))
    def test_profiles_are_sound(self, name):
        p, q, n = (ibe.PROFILES[name][k] for k in "pqn")
        assert is_probable_prime(p) and p % 3 == 2
        assert is_probable_prime(q) and q > 3 and (p + 1) % q == 0
        assert 0 < n <= 256 and n % 8 == 0

    def test_unknown_profile(self):
        with pytest.raises(ConfigError, match="unknown profile 'huge'"):
            ibe.SecurityConfig("huge")
        with pytest.raises(ConfigError, match="unknown profile 'huge'"):
            ibe.SecurityConfig.from_profile("huge")

    @pytest.mark.parametrize("name", sorted(ibe.PROFILES))
    def test_negative_seed_refused(self, name):
        with pytest.raises(ConfigError, match="seed must be non-negative, got -7"):
            ibe.SecurityConfig(name, -7)
        assert ibe.SecurityConfig(name, 0).seed == 0

    def test_config_holds_a_name_and_a_seed(self):
        fields = [f.name for f in dataclasses.fields(ibe.SecurityConfig)]
        assert fields == ["profile", "seed"]
        assert ibe.SecurityConfig.from_profile("demo", seed=3) == ibe.SecurityConfig("demo", 3)

    # a config holds a profile name, so no (p, q, n) reaches setup,
    # neither as fields nor in place of the name
    @pytest.mark.parametrize("p, q, n", NOT_PROFILES)
    def test_setup_refuses_other_parameters(self, p, q, n):
        with pytest.raises(TypeError):
            ibe.SecurityConfig(p=p, q=q, n=n)
        with pytest.raises(ConfigError, match="unknown profile"):
            ibe.SecurityConfig((p, q, n))

    # params.bin holds unsigned integers, so it cannot carry n = -8
    @pytest.mark.parametrize("p, q, n", [c for c in NOT_PROFILES if c.values[2] >= 0])
    def test_loader_refuses_other_parameters(self, p, q, n):
        with pytest.raises(ConfigError, match=NOT_A_PROFILE):
            ibe.params_from_bytes(params_blob(p, q, n))


class TestSetup:
    def test_frozen_toy_setup(self, params, master):
        assert params.generator == vectors.TOY_GENERATOR
        assert master.scalar == vectors.TOY_MASTER_SCALAR
        assert params.master_pub == vectors.TOY_MASTER_PUB

    def test_generator_order(self, params):
        curve = params.curve
        assert curve.contains(params.generator)
        assert curve.mul(params.q, params.generator) is None
        assert curve.mul(params.q, params.master_pub) is None

    def test_deterministic(self):
        cfg = ibe.SecurityConfig.from_profile("toy", seed=123)
        a, _ = ibe.setup(cfg)
        b, _ = ibe.setup(cfg)
        assert ibe.params_to_bytes(a) == ibe.params_to_bytes(b)

    def test_cofactor_property(self, params):
        assert params.curve.cofactor * params.q == params.p + 1
        assert params.block_bytes == 16


class TestHashToPoint:
    def test_frozen_points(self, params):
        assert ibe.hash_to_point(params, "node-001") == vectors.H1_NODE_001
        assert ibe.hash_to_point(params, "node-002") == vectors.H1_NODE_002
        assert vectors.H1_NODE_001 != vectors.H1_NODE_002

    def test_matches_oracle_on_random_ids(self, params):
        rng = random.Random(6)
        for _ in range(15):
            ident = f"id-{rng.randrange(10**6)}"
            assert ibe.hash_to_point(params, ident) == oracles.map_to_point(
                params.p, params.q, ident
            )

    def test_output_in_subgroup(self, params):
        curve = params.curve
        for ident in ("a", "basestation", "x" * 100):
            Q = ibe.hash_to_point(params, ident)
            assert curve.contains(Q)
            assert curve.mul(params.q, Q) is None

    def test_retry_path(self, params):
        # this identity's first attempt lands on infinity, forcing the
        # counter-append retry
        ident = vectors.RETRY_IDENTITY
        y0 = int.from_bytes(hashlib.sha256(ident.encode()).digest(), "big") % params.p
        assert params.curve.subgroup_point(y0) is None
        Q = ibe.hash_to_point(params, ident)
        assert Q is not None
        assert Q == oracles.map_to_point(params.p, params.q, ident)

    def test_hit_returns_the_cold_point(self, params):
        for ident in ("node-001", vectors.RETRY_IDENTITY, "fresh-id"):
            warm = ibe.hash_to_point(params, ident)
            assert params._h1[ident] == warm
            assert warm in params.curve.identity_points
            assert ibe.hash_to_point(params, ident) == warm
            cold = ibe.PublicParams(params.p, params.q, params.n,
                                    params.generator, params.master_pub)
            assert ibe.hash_to_point(cold, ident) == warm


class TestExtract:
    def test_frozen_key(self, params, master):
        key = ibe.extract(params, master, "node-001")
        assert key.point == vectors.PRIVKEY_NODE_001
        assert key.identity == "node-001"

    def test_unit_scalar(self, params):
        key = ibe.extract(params, ibe.MasterKey(1), "node-001")
        assert key.point == ibe.hash_to_point(params, "node-001")

    def test_pairing_identity(self, params, master):
        # e(d, P) = e(Q_id, sP), checkable without the master scalar
        curve = params.curve
        for ident in ("node-001", "node-002", "bs"):
            key = ibe.extract(params, master, ident)
            lhs = curve.pairing(key.point, params.generator)
            rhs = curve.pairing(ibe.hash_to_point(params, ident), params.master_pub)
            assert lhs == rhs


class TestEncryptDecrypt:
    def test_frozen_ciphertext(self, params, master):
        ct = ibe.encrypt(params, "node-001", vectors.ENC_MESSAGE,
                         oracles.FixedSeed(vectors.ENC_SIGMA))
        assert ct.u == vectors.ENC_U
        assert ct.v == vectors.ENC_V
        assert ct.w == vectors.ENC_W
        key = ibe.extract(params, master, "node-001")
        assert ibe.decrypt(params, key, ct) == vectors.ENC_MESSAGE

    def test_matches_oracle_encryption(self, params):
        u, v, w = oracles.full_encrypt(
            params.p,
            params.q,
            params.n,
            params.generator,
            params.master_pub,
            "node-001",
            vectors.ENC_MESSAGE,
            vectors.ENC_SIGMA,
        )
        ct = ibe.encrypt(params, "node-001", vectors.ENC_MESSAGE,
                         oracles.FixedSeed(vectors.ENC_SIGMA))
        assert (ct.u, ct.v, ct.w) == (u, v, w)

    def test_roundtrip_random(self, params, master):
        rng = random.Random(7)
        for i in range(100):
            ident = f"node-{rng.randrange(1000):03d}"
            m = rng.randbytes(rng.randrange(0, params.block_bytes + 1))
            ct = ibe.encrypt(params, ident, m, rng)
            key = ibe.extract(params, master, ident)
            assert ibe.decrypt(params, key, ct) == m

    def test_fixed_sigma_is_deterministic(self, params):
        a = ibe.encrypt(params, "n1", b"msg", oracles.FixedSeed(vectors.ENC_SIGMA))
        b = ibe.encrypt(params, "n1", b"msg", oracles.FixedSeed(vectors.ENC_SIGMA))
        assert (a.u, a.v, a.w) == (b.u, b.v, b.w)

    def test_wrong_key_never_reveals_plaintext(self, params, master):
        # with q = 19 the re-encryption check passes by chance about
        # 1/18 of the time, so on the toy profile the guarantee is
        # "never the true plaintext", not "always rejected"; the
        # always-rejected form is asserted on the demo profile below
        rng = random.Random(8)
        wrong = ibe.extract(params, master, "eavesdropper")
        rejects = 0
        for i in range(100):
            ct = ibe.encrypt(params, "node-001", b"secret", rng)
            try:
                out = ibe.decrypt(params, wrong, ct)
            except Reject:
                rejects += 1
            else:
                assert out != b"secret"
        assert rejects > 80

    def test_oversized_message(self, params):
        with pytest.raises(ValueError):
            ibe.encrypt(params, "n1", b"x" * (params.block_bytes + 1), random.Random(0))

    def test_every_flip_of_frozen_ciphertext_rejected(self, params, master):
        # the searched-for vector: all serialized bit positions reject
        # (see the note in vectors.py on why this needed a search)
        key = ibe.extract(params, master, vectors.FO_EXHAUSTIVE_IDENTITY)
        ct = ibe.encrypt(
            params,
            vectors.FO_EXHAUSTIVE_IDENTITY,
            vectors.FO_EXHAUSTIVE_MESSAGE,
            oracles.FixedSeed(vectors.FO_EXHAUSTIVE_SIGMA),
        )
        blob = ibe.point_to_bytes(params, ct.u) + ct.v + ct.w
        usize = 2 * params.curve.coord_size
        for pos in range(len(blob) * 8):
            bad = bytearray(blob)
            bad[pos // 8] ^= 1 << (pos % 8)
            u = ibe.point_from_bytes(params, bytes(bad[:usize]))
            mutated = ibe.Ciphertext(u, bytes(bad[usize : usize + 16]), bytes(bad[usize + 16 :]))
            with pytest.raises(Reject):
                ibe.decrypt(params, key, mutated)

    def test_substituted_u_rejected(self, params, master):
        key = ibe.extract(params, master, "node-001")
        ct = ibe.encrypt(params, "node-001", b"attest", oracles.FixedSeed(vectors.ENC_SIGMA))
        curve = params.curve
        other = curve.add(ct.u, curve.mul(2, params.generator))
        assert other is not None and other != ct.u
        with pytest.raises(Reject, match="fo_mismatch"):
            ibe.decrypt(params, key, ibe.Ciphertext(other, ct.v, ct.w))

    def test_malformed_u_rejected(self, params, master):
        key = ibe.extract(params, master, "node-001")
        ct = ibe.encrypt(params, "node-001", b"attest", oracles.FixedSeed(vectors.ENC_SIGMA))
        with pytest.raises(Reject, match="malformed_point"):
            ibe.decrypt(params, key, ibe.Ciphertext((1, 1), ct.v, ct.w))

    def test_u_outside_the_subgroup_fails_the_reencryption_check(self, params, master):
        # decrypt checks only that U is a finite curve point; every toy
        # point outside the order-q subgroup pairs without error and then
        # fails the re-encryption check, which accepts only U = r*P
        key = ibe.extract(params, master, "node-001")
        ct = ibe.encrypt(params, "node-001", b"attest", oracles.FixedSeed(vectors.ENC_SIGMA))
        outside = [U for U in oracles.enumerate_points(params.p)
                   if oracles.naive_mul(params.p, params.q, U) is not None]
        assert len(outside) == params.p + 1 - params.q
        for U in outside:
            with pytest.raises(Reject, match="fo_mismatch"):
                ibe.decrypt(params, key, ibe.Ciphertext(U, ct.v, ct.w))

    def test_xor_keeps_leading_zero_bytes(self, params, master):
        # W = m XOR SHA-256(sigma)[:len(m)] and the recovered sigma and m
        # keep their lengths when their leading bytes are zero
        key = ibe.extract(params, master, "node-001")
        for sigma in (bytes(range(16)), bytes(16)):
            pad = hashlib.sha256(sigma).digest()
            for message in (pad[:3], pad[:1] + b"\x80", b"\x00\x00\x01", b""):
                ct = ibe.encrypt(params, "node-001", message, oracles.FixedSeed(sigma))
                assert ct.w == xor(message, pad)
                assert ibe.decrypt(params, key, ct) == message

    def test_basic_variant_lacks_integrity(self, params, master):
        # the stripped-down variant roundtrips but cannot notice tampering;
        # the re-encryption check is what turns flips into rejects
        key = ibe.extract(params, master, "node-001")
        U, V = basic_encrypt(params, "node-001", b"hello", r=7)
        assert basic_decrypt(params, key, U, V) == b"hello"
        bad = bytearray(V)
        bad[0] ^= 0x01
        out = basic_decrypt(params, key, U, bytes(bad))
        assert out != b"hello"  # silently wrong, not rejected


class TestSerialization:
    def test_params_roundtrip(self, params):
        blob = ibe.params_to_bytes(params)
        back = ibe.params_from_bytes(blob)
        assert back == params
        assert ibe.params_to_bytes(back) == blob

    def test_params_bad_magic(self, params):
        blob = ibe.params_to_bytes(params)
        with pytest.raises(ValueError):
            ibe.params_from_bytes(b"XXXX" + blob[4:])

    def test_params_bad_version(self, params):
        blob = ibe.params_to_bytes(params)
        with pytest.raises(ValueError):
            ibe.params_from_bytes(blob[:4] + b"\x99" + blob[5:])

    def test_params_truncated_and_trailing(self, params):
        blob = ibe.params_to_bytes(params)
        with pytest.raises(ValueError):
            ibe.params_from_bytes(blob[:-1])
        with pytest.raises(ValueError):
            ibe.params_from_bytes(blob + b"\x00")

    @pytest.mark.parametrize("profile", ["toy", "demo"])
    @pytest.mark.parametrize("field", ["generator", "master_pub"])
    @pytest.mark.parametrize("order", [2, "2q"])
    def test_params_point_of_even_order_rejected(self, profile, field, order):
        # mul(q, P) for a generator P of order 2q must not take P's comb,
        # which reduces the scalar mod q
        good, _ = ibe.setup(ibe.SecurityConfig.from_profile(profile, seed=5))
        p = good.p
        two = (p - 1, 0)
        bad = two if order == 2 else oracles.add(p, good.generator, two)
        assert oracles.double_and_add(p, 2 * good.q, bad) is None
        blob = ibe.params_to_bytes(dataclasses.replace(good, **{field: bad}))
        with pytest.raises(ValueError, match="params point invalid"):
            ibe.params_from_bytes(blob)

    def test_master_roundtrip(self, params, master):
        blob = ibe.master_key_to_bytes(master)
        assert ibe.master_key_from_bytes(params, blob) == master

    def test_master_for_other_params_rejected(self, params, master):
        # an in-range scalar s' with s'*P != P_pub fails the consistency check
        other = ibe.MasterKey(master.scalar % (params.q - 1) + 1)
        with pytest.raises(ValueError, match="does not match"):
            ibe.master_key_from_bytes(params, ibe.master_key_to_bytes(other))

    def test_point_roundtrip(self, params):
        P = vectors.H1_NODE_001
        assert ibe.point_from_bytes(params, ibe.point_to_bytes(params, P)) == P

    def test_point_off_curve_rejected(self, params, master):
        # the decoder checks only the width; decrypt refuses the point
        assert ibe.point_from_bytes(params, b"\x01\x01") == (1, 1)
        with pytest.raises(ValueError, match="must be 2 bytes"):
            ibe.point_from_bytes(params, b"\x01")
        key = ibe.extract(params, master, "node-001")
        ct = ibe.Ciphertext(ibe.point_from_bytes(params, b"\x01\x01"), bytes(16), b"")
        with pytest.raises(Reject, match="malformed_point"):
            ibe.decrypt(params, key, ct)

    def test_gt_encoding_width(self, params):
        e = params.curve.pairing(params.generator, params.generator)
        assert len(ibe.gt_to_bytes(params, e)) == 2 * params.curve.coord_size


@pytest.fixture(scope="module")
def demo_setup():
    cfg = ibe.SecurityConfig.from_profile("demo", seed=1)
    return ibe.setup(cfg)


class TestDemoProfile:
    def test_demo_smoke(self, demo_setup):
        params, master = demo_setup
        assert params.curve.coord_size == 32
        key = ibe.extract(params, master, "node-001")
        ct = ibe.encrypt(params, "node-001", b"field report", random.Random(2))
        assert ibe.decrypt(params, key, ct) == b"field report"

    def test_demo_wrong_key_always_rejected(self, demo_setup):
        # at a 160-bit subgroup the chance re-derivation collision is
        # negligible, so here the strict form holds
        params, master = demo_setup
        wrong = ibe.extract(params, master, "eavesdropper")
        rng = random.Random(9)
        for _ in range(100):
            ct = ibe.encrypt(params, "node-001", b"secret", rng)
            with pytest.raises(Reject):
                ibe.decrypt(params, wrong, ct)

    def test_demo_degenerate_u_fails_the_reencryption_check(self, demo_setup):
        # (0, +-1) has order 3 and (p - 1, 0) order 2, so they pair to 1,
        # and the uncleared point lies outside the subgroup.  Each pairs
        # without error, then fails the re-encryption check
        params, master = demo_setup
        p, curve = params.p, params.curve
        key = ibe.extract(params, master, "node-001")
        for U in ((0, 1), (0, p - 1), (p - 1, 0)):
            assert curve.pairing(key.point, U) == GT_ONE
        ct = ibe.encrypt(params, "node-001", b"attest", random.Random(5))
        uncleared = curve.point_from_y(5)
        assert not curve.in_subgroup(uncleared)
        for U in ((0, 1), (0, p - 1), (p - 1, 0), uncleared):
            with pytest.raises(Reject, match="fo_mismatch"):
                ibe.decrypt(params, key, ibe.Ciphertext(U, ct.v, ct.w))
