"""Measured boot: digests, integrity bits, halts, trust values, and
the two-world access gate."""

import itertools
import random

import pytest

import vectors
from ibetrust import boot
from ibetrust.errors import AccessViolation, ConfigError

SHA_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def blobs(n=3, seed=20):
    rng = random.Random(seed)
    return [rng.randbytes(64) for _ in range(n)]


class TestMeasure:
    def test_published_vectors(self):
        assert boot.measure(b"") == SHA_EMPTY
        assert boot.measure(b"abc") == SHA_ABC

    def test_bit_flip_changes_digest(self):
        img = b"firmware image"
        tampered = bytes([img[0] ^ 1]) + img[1:]
        assert boot.measure(img) != boot.measure(tampered)


class TestTrustValue:
    def test_known_cuts(self):
        assert boot.trust_value("a" * 64, 0) == "aaaaaaaa"
        digest = boot.measure(b"abc")
        assert boot.trust_value(digest, 56) == digest[-8:]

    def test_offset_bounds(self):
        # the offset is checked once, when the chain is built; the last
        # valid offset cuts the digest's final 8 characters
        chain = boot.BootChain.from_images(blobs(), trust_offset=56)
        assert boot.boot(chain).trust_value == chain.reference_digests[0][-8:]
        for offset in (57, -1):
            with pytest.raises(ConfigError):
                boot.BootChain.from_images(blobs(), trust_offset=offset)

    def test_distinct_over_random_images(self):
        rng = random.Random(vectors.TRUST_DISTINCT_SEED)
        seen = set()
        for _ in range(200):
            tv = boot.trust_value(boot.measure(rng.randbytes(1024)), 24)
            assert len(tv) == 8
            seen.add(tv)
        assert len(seen) == 200


def spy_measure(monkeypatch, chain):
    """Record the level of every image boot.measure hashes from now on."""
    levels = []
    real = boot.measure

    def spy(image):
        levels.append(next(k for k, img in enumerate(chain.images, 1) if img == image))
        return real(image)

    monkeypatch.setattr(boot, "measure", spy)
    return levels


class TestChainConstruction:
    def test_from_images(self):
        images = blobs()
        chain = boot.BootChain.from_images(images)
        assert chain.images == images
        # one reference per level 2..N, by position
        assert chain.reference_digests == (boot.measure(images[1]), boot.measure(images[2]))

    def test_empty_chain(self):
        with pytest.raises(ConfigError):
            boot.BootChain(images=[], reference_digests=())

    def test_reference_coverage(self):
        imgs = [b"a", b"b"]
        with pytest.raises(ConfigError):
            boot.BootChain(images=imgs, reference_digests=())
        with pytest.raises(ConfigError):
            boot.BootChain(images=imgs, reference_digests=(boot.measure(b"b"),) * 2)
        boot.BootChain(images=imgs, reference_digests=(boot.measure(b"b"),))

    def test_offset_validated(self):
        with pytest.raises(ConfigError):
            boot.BootChain.from_images(blobs(), trust_offset=60)


class TestVerifyLevel:
    def test_intact(self):
        chain = boot.BootChain.from_images(blobs())
        assert boot.verify_level(chain, 2) == 1
        assert boot.verify_level(chain, 3) == 1

    def test_root_is_axiomatic(self):
        chain = boot.BootChain.from_images(blobs())
        trusted = boot.boot(chain).trust_value
        chain.images[0] = b"overwritten rom"  # nothing measures BL1
        assert boot.boot(chain).trust_value == trusted

    def test_tampered(self):
        chain = boot.BootChain.from_images(blobs())
        chain.images[1] += b"!"
        assert boot.verify_level(chain, 2) == 0

    def test_missing_reference(self):
        # a chain is refused when built without a reference for each
        # level, so verify_level always finds one
        images = blobs()
        with pytest.raises(ConfigError):
            boot.BootChain(images=images, reference_digests=(boot.measure(images[1]),))


class TestBoot:
    def test_intact_chain(self, monkeypatch):
        chain = boot.BootChain.from_images(blobs())
        measured = spy_measure(monkeypatch, chain)
        result = boot.boot(chain)
        assert result.ok
        assert result.failed_level is None
        assert len(result.trust_value) == 8
        # each level above the root is hashed once, level 2 included
        assert measured == [2, 3]

    def test_reboot_reproduces_trust_value(self):
        chain = boot.BootChain.from_images(blobs())
        values = {boot.boot(chain).trust_value for _ in range(10)}
        assert len(values) == 1

    def test_trust_value_is_level2_cut(self):
        chain = boot.BootChain.from_images(blobs())
        expected = boot.trust_value(boot.measure(chain.images[1]), chain.trust_offset)
        assert boot.boot(chain).trust_value == expected

    def test_trust_value_ignores_level3(self):
        base = blobs()
        other = base[:2] + [base[2] + b" updated"]
        a = boot.boot(boot.BootChain.from_images(base))
        b = boot.boot(boot.BootChain.from_images(other))
        assert a.ok and b.ok
        assert a.trust_value == b.trust_value

    def test_halt_at_tampered_level(self, monkeypatch):
        chain = boot.BootChain.from_images(blobs())
        chain.images[1] = b"evil"
        measured = spy_measure(monkeypatch, chain)
        result = boot.boot(chain)
        assert not result.ok
        assert result.failed_level == 2
        assert result.trust_value is None
        # transitivity: level 3 was never measured
        assert measured == [2]

    def test_boolean_product_brute_force(self, monkeypatch):
        # depth 4: all 8 tamper patterns of levels 2..4 agree with the
        # product of independently computed integrity bits
        for pattern in itertools.product((0, 1), repeat=3):
            chain = boot.BootChain.from_images(blobs(4))
            for i, intact in enumerate(pattern):
                if not intact:
                    chain.images[i + 1] += b"X"
            expected_bits = [boot.verify_level(chain, k) for k in range(2, 5)]
            measured = spy_measure(monkeypatch, chain)
            result = boot.boot(chain)
            product = 1
            for b in expected_bits:
                product *= b
            assert result.ok == (product == 1)
            if result.ok:
                assert measured == [2, 3, 4]
            else:
                assert result.failed_level == 2 + expected_bits.index(0)
                # levels up to the failed one, each once; none above it
                assert measured == list(range(2, result.failed_level + 1))
            monkeypatch.undo()

    def test_depth_one_has_no_trust_value(self):
        # the trust value is cut from level 2, so a one-image chain is
        # refused when it is built, before any boot
        with pytest.raises(ConfigError):
            boot.BootChain.from_images(blobs(1))
        with pytest.raises(ConfigError):
            boot.BootChain(images=[b"rot"], reference_digests=())


class TestWorldState:
    def test_normal_mode_denied(self):
        w = boot.WorldState(b"\x01\x02")
        assert w.mode == boot.NORMAL  # installed at the factory, handed over in normal mode
        with pytest.raises(AccessViolation, match="key read from normal world"):
            w.key()

    def test_secure_mode_granted(self):
        w = boot.WorldState(b"\x01\x02")
        w.switch(boot.SECURE)
        assert w.key() == b"\x01\x02"
        w.switch(boot.NORMAL)
        with pytest.raises(AccessViolation):
            w.key()

    def test_switch_counting(self):
        fired = []
        w = boot.WorldState(1)
        w.on_switch = lambda: fired.append(w.mode)
        w.switch(boot.SECURE)
        assert w.key() == 1
        w.switch(boot.NORMAL)
        assert fired == [boot.SECURE, boot.NORMAL]

    def test_same_mode_is_noop(self):
        fired = []
        w = boot.WorldState(1)
        w.on_switch = lambda: fired.append(w.mode)
        w.switch(boot.NORMAL)
        w.switch(boot.SECURE)
        w.switch(boot.SECURE)
        assert fired == [boot.SECURE] and w.mode == boot.SECURE
