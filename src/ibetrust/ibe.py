"""Boneh-Franklin identity-based encryption over y^2 = x^3 + 1.

Public keys are identity strings; the trusted authority holds a master
scalar s and issues the private key s*Q_id for Q_id = hash_to_point(id).
Encryption is the CCA-hardened variant: a random seed sigma determines
the ephemeral scalar via a hash, and decryption re-derives the scalar
and rejects any ciphertext that does not re-encrypt to itself.

What never changes is computed once per PublicParams: hash_to_point
keeps each identity's point, the Curve keeps g_ID = e(P_pub, Q_ID) for
every identity encrypted to, and rP in encrypt and decrypt comes from
the Curve's comb for the generator P.

Two parameter profiles ship with the package: "toy" (p = 227, q = 19)
small enough for exhaustive checks, and "demo" with a 256-bit field and
a 160-bit subgroup, giving 64-byte serialized points.  The demo primes
were found by the deterministic search in tools/gen_demo_params.py.
A SecurityConfig names one of them, and params_from_bytes refuses any
other (p, q, n), so nothing downstream checks the primes again.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .curve import Curve, Point, Fp2
from .errors import ConfigError, Reject

PROFILES = {
    "toy": {"p": 227, "q": 19, "n": 128},
    "demo": {
        # from tools/gen_demo_params.py: q smallest 160-bit prime,
        # p = 3*m*q - 1 the smallest 256-bit prime of that shape
        "p": 0x800000000000000000000049000000000000012B00000000000000000000AA85,
        "q": 0x800000000000000000000000000000000000012B,
        "n": 128,
    },
}

_PARAMS_MAGIC = b"IBTP"
_MASTER_MAGIC = b"IBTM"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SecurityConfig:
    """A PROFILES name and the master seed; an unknown name or a
    negative seed is refused here, once, so setup takes the profile's
    numbers as they are."""

    profile: str
    seed: int = 0

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}")
        if self.seed < 0:
            # random.Random takes abs(seed): -7 would repeat seed 7's keys
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def from_profile(cls, name: str, seed: int = 0) -> "SecurityConfig":
        return cls(name, seed)


@dataclass
class PublicParams:
    p: int
    q: int
    n: int
    generator: Point
    master_pub: Point

    def __post_init__(self):
        self.curve = Curve(self.p, self.q, self.generator)
        self.block_bytes = self.n // 8
        # hash_to_point's memo: identity -> Q_id
        self._h1: dict[str, Point] = {}


@dataclass
class MasterKey:
    scalar: int


@dataclass
class PrivateKey:
    identity: str
    point: Point


@dataclass
class Ciphertext:
    u: Point
    v: bytes
    w: bytes


def setup(config: SecurityConfig):
    """Generate public parameters and the master key.

    Deterministic for a given config seed.  The generator is a random
    curve point cleared to the order-q subgroup, retried on infinity.

    Returns:
        (PublicParams, MasterKey)
    """
    profile = PROFILES[config.profile]
    rng = random.Random(config.seed)
    curve = Curve(profile["p"], profile["q"])
    while True:
        gen = curve.subgroup_point(rng.randrange(profile["p"]))
        if gen is not None:
            break
    s = rng.randrange(1, profile["q"])
    params = PublicParams(**profile, generator=gen, master_pub=curve.mul(s, gen))
    return params, MasterKey(scalar=s)


def hash_to_point(params: PublicParams, identity: str) -> Point:
    """H1: map an identity string to an order-q curve point.

    SHA-256 of the identity picks a y coordinate; p = 2 (mod 3) lifts
    it to the unique curve point with that y, and cofactor clearing
    moves it into the subgroup.  The rare infinity result (probability
    cofactor/(p+1)) retries with a counter appended to the identity.

    The point is kept per identity on params, and registered with the
    Curve as an identity point, whose pairing values the Curve keeps.
    """
    Q = params._h1.get(identity)
    if Q is not None:
        return Q
    attempt = identity
    counter = 0
    while Q is None:
        digest = hashlib.sha256(attempt.encode("utf-8")).digest()
        Q = params.curve.subgroup_point(int.from_bytes(digest, "big") % params.p)
        counter += 1
        attempt = identity + str(counter)
    params._h1[identity] = Q
    params.curve.identity_points.add(Q)
    return Q


def extract(params: PublicParams, master: MasterKey, identity: str) -> PrivateKey:
    """H1 then multiply by the master scalar."""
    Q = hash_to_point(params, identity)
    return PrivateKey(identity=identity, point=params.curve.mul(master.scalar, Q))


def hash_to_scalar(q: int, data: bytes) -> int:
    """SHA-256 of data mapped into [1, q-1]."""
    return int.from_bytes(hashlib.sha256(data).digest(), "big") % (q - 1) + 1


def encrypt(params: PublicParams, identity: str, message: bytes,
            rng: random.Random) -> Ciphertext:
    """Encrypt one block (at most n/8 bytes) to an identity, under a
    fresh n-bit commitment seed sigma drawn from rng.

    The hashes are written out here and in decrypt, one block per call:
    r = H3(sigma, m) = hash_to_scalar(q, sigma | m),
    V = sigma XOR H2(g^r) with H2(g) = SHA-256(gt_to_bytes(g)),
    W = m XOR H4(sigma) with H4(sigma) = SHA-256(sigma),
    each mask cut to the length of what it covers.
    """
    block = params.block_bytes
    if len(message) > block:
        raise ValueError(f"message over {block} bytes, chunk it first")
    sigma = rng.randbytes(block)
    sha256 = hashlib.sha256
    r = int.from_bytes(sha256(sigma + message).digest(), "big") % (params.q - 1) + 1
    curve = params.curve
    U = curve.mul(r, params.generator)
    g = curve.pairing(params.master_pub, hash_to_point(params, identity))
    x, y = curve.gt_pow(g, r)
    cs = curve.coord_size
    mask = sha256(x.to_bytes(cs, "big") + y.to_bytes(cs, "big")).digest()[:block]
    V = (int.from_bytes(sigma, "big") ^ int.from_bytes(mask, "big")).to_bytes(block, "big")
    size = len(message)
    mask = sha256(sigma).digest()[:size]
    W = (int.from_bytes(message, "big") ^ int.from_bytes(mask, "big")).to_bytes(size, "big")
    return Ciphertext(u=U, v=V, w=W)


def decrypt(params: PublicParams, key: PrivateKey, ct: Ciphertext) -> bytes:
    """Decrypt one block; raises Reject unless the ciphertext re-encrypts
    to itself under the recovered seed.

    The decoder, protocol.decrypt_message, gives a finite U, a V of one
    block and a W of at most one; U is only checked to be a curve point.
    The re-encryption check accepts only U = r*P, which has order q, so
    it also proves U is in the subgroup (Fujisaki-Okamoto); a U outside
    it fails with fo_mismatch.  The pairing cannot fail on such a U:
    no factor of the Miller loop vanishes at the twist point of a U
    (Curve._miller_lines), and a U of order dividing 6, (0, +-1),
    (-1, 0) or (2, +-3), where that point is not defined, pairs to 1
    before the loop.
    """
    curve = params.curve
    u, v, w = ct.u, ct.v, ct.w
    if not curve.contains(u):
        raise Reject("malformed_point")
    block = params.block_bytes
    sha256 = hashlib.sha256
    x, y = curve.pairing(key.point, u)
    cs = curve.coord_size
    mask = sha256(x.to_bytes(cs, "big") + y.to_bytes(cs, "big")).digest()[:block]
    sigma = (int.from_bytes(v, "big") ^ int.from_bytes(mask, "big")).to_bytes(block, "big")
    size = len(w)
    mask = sha256(sigma).digest()[:size]
    message = (int.from_bytes(w, "big") ^ int.from_bytes(mask, "big")).to_bytes(size, "big")
    r = int.from_bytes(sha256(sigma + message).digest(), "big") % (params.q - 1) + 1
    if curve.mul(r, params.generator) != u:
        raise Reject("fo_mismatch")
    return message


# ---- serialization ----


def point_to_bytes(params: PublicParams, P: Point) -> bytes:
    """Fixed-width x | y of a finite point."""
    w = params.curve.coord_size
    return P[0].to_bytes(w, "big") + P[1].to_bytes(w, "big")


def point_from_bytes(params: PublicParams, data: bytes) -> Point:
    """Decode point_to_bytes' fixed-width x | y layout.  No curve or
    subgroup check: ake.respond validates the R it decodes."""
    w = params.curve.coord_size
    if len(data) != 2 * w:
        raise ValueError(f"point encoding must be {2 * w} bytes")
    return (int.from_bytes(data[:w], "big"), int.from_bytes(data[w:], "big"))


def gt_to_bytes(params: PublicParams, g: Fp2) -> bytes:
    w = params.curve.coord_size
    return g[0].to_bytes(w, "big") + g[1].to_bytes(w, "big")


def _lp_int(v: int) -> bytes:
    raw = v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big")
    return len(raw).to_bytes(2, "big") + raw


class _Reader:
    """Parser of a key-material blob: magic, version byte, then fields.
    kind names the blob in its errors."""

    def __init__(self, data: bytes, magic: bytes, kind: str):
        self.data = data
        self.off = 0
        self.kind = kind
        if self.take(4) != magic:
            raise ValueError(f"not a {kind} blob")
        if self.take(1)[0] != _FORMAT_VERSION:
            raise ValueError(f"unsupported {kind} version")

    def take(self, k: int) -> bytes:
        if self.off + k > len(self.data):
            raise ValueError("truncated input")
        chunk = self.data[self.off : self.off + k]
        self.off += k
        return chunk

    def lp_int(self) -> int:
        w = int.from_bytes(self.take(2), "big")
        return int.from_bytes(self.take(w), "big")

    def end(self) -> None:
        if self.off != len(self.data):
            raise ValueError(f"trailing bytes in {self.kind} blob")


def params_to_bytes(params: PublicParams) -> bytes:
    """Versioned layout: magic, version byte, then length-prefixed
    big-endian integers p, q, n, P.x, P.y, sP.x, sP.y."""
    fields = [
        params.p,
        params.q,
        params.n,
        params.generator[0],
        params.generator[1],
        params.master_pub[0],
        params.master_pub[1],
    ]
    return _PARAMS_MAGIC + bytes([_FORMAT_VERSION]) + b"".join(_lp_int(v) for v in fields)


def params_from_bytes(data: bytes) -> PublicParams:
    r = _Reader(data, _PARAMS_MAGIC, "params")
    p, q, n = r.lp_int(), r.lp_int(), r.lp_int()
    gen = (r.lp_int(), r.lp_int())
    mpub = (r.lp_int(), r.lp_int())
    r.end()
    # the numbers come from a file, so they are checked against the profiles
    if {"p": p, "q": q, "n": n} not in PROFILES.values():
        raise ConfigError(f"(p, q, n) is not one of the profiles {sorted(PROFILES)}")
    params = PublicParams(p=p, q=q, n=n, generator=gen, master_pub=mpub)
    if not (params.curve.in_subgroup(gen) and params.curve.in_subgroup(mpub)):
        raise ValueError("params point invalid")
    return params


def master_key_to_bytes(master: MasterKey) -> bytes:
    return _MASTER_MAGIC + bytes([_FORMAT_VERSION]) + _lp_int(master.scalar)


def master_key_from_bytes(params: PublicParams, data: bytes) -> MasterKey:
    r = _Reader(data, _MASTER_MAGIC, "master key")
    scalar = r.lp_int()
    r.end()
    if not 1 <= scalar < params.q:
        raise ValueError("master scalar out of range")
    # the blob must agree with the public parameters it claims to serve
    if params.curve.mul(scalar, params.generator) != params.master_pub:
        raise ValueError("master key does not match parameters")
    return MasterKey(scalar=scalar)
