"""One-pass authenticated key exchange from identity-based keys.

The initiator sends a single message carrying R = r*Q_A; both sides
then reach the same pairing value

    initiator: e(d_A, Q_B)^(r+h)
    responder: e(d_B, R + h*Q_A)

with h a hash of R and both identities, equal by bilinearity and the
pairing's symmetry because d_X = s*Q_X.  Each side's own key goes
first, so the pairing reuses that key's cached Miller lines.  The
initiator's e(d_A, Q_B) depends on the peer alone, so the Curve keeps
it and a repeated peer costs one exponentiation in GT.
Authentication is implicit: only the holder of d_A can produce the
initiator-side value.  The responder sends nothing back.

Trust-list gating (refusing to respond to unlisted senders before any
pairing work) belongs to the protocol layer; these functions are the
stateless cryptographic core.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .codec import truncated_mac
from .curve import GT_ONE, Fp2, Point
from .errors import Reject
from .ibe import (
    PrivateKey,
    PublicParams,
    gt_to_bytes,
    hash_to_point,
    hash_to_scalar,
    point_to_bytes,
)

KEY_SIZE = 16


@dataclass
class AkeMessage:
    sender: str
    receiver: str
    big_r: Point  # r * Q_sender
    nonce: bytes
    mac: bytes


@dataclass
class SessionKey:
    key: bytes
    transcript: tuple  # (sender, receiver, serialized R)


def _h_ake(params: PublicParams, R: Point, id_a: str, id_b: str) -> int:
    data = point_to_bytes(params, R) + id_a.encode("utf-8") + id_b.encode("utf-8")
    return hash_to_scalar(params.q, data)


def message_mac(params: PublicParams, id_a: str, R: Point, nonce: bytes) -> bytes:
    return truncated_mac(id_a.encode("utf-8") + point_to_bytes(params, R) + nonce)


def kdf(params: PublicParams, K: Fp2, id_a: str, id_b: str, R: Point) -> SessionKey:
    """Derive the 16-byte session key, binding both identities and R."""
    if K == GT_ONE:
        raise ValueError("degenerate pairing value")
    r_bytes = point_to_bytes(params, R)
    material = gt_to_bytes(params, K) + id_a.encode("utf-8") + id_b.encode("utf-8") + r_bytes
    return SessionKey(
        key=hashlib.sha256(material).digest()[:KEY_SIZE],
        transcript=(id_a, id_b, r_bytes),
    )


def initiate(
    params: PublicParams,
    id_a: str,
    sk_a: PrivateKey,
    id_b: str,
    rng: random.Random,
) -> tuple[AkeMessage, SessionKey]:
    """Build the single message A -> B and A's copy of the session key.

    r is redrawn in the measure-zero case r + h = 0 (mod q), which
    would otherwise degenerate the key to the identity element.
    """
    curve = params.curve
    q_a = hash_to_point(params, id_a)
    while True:
        r = rng.randrange(1, params.q)
        big_r = curve.mul(r, q_a)
        h = _h_ake(params, big_r, id_a, id_b)
        if (r + h) % params.q != 0:
            break
    K = curve.gt_pow(curve.pairing(sk_a.point, hash_to_point(params, id_b)), r + h)
    session = kdf(params, K, id_a, id_b, big_r)
    nonce = rng.randbytes(2)
    msg = AkeMessage(
        sender=id_a,
        receiver=id_b,
        big_r=big_r,
        nonce=nonce,
        mac=message_mac(params, id_a, big_r, nonce),
    )
    return msg, session


def respond(params: PublicParams, sk_b: PrivateKey, msg: AkeMessage) -> SessionKey:
    """Derive B's copy of the session key from the received message.

    Raises Reject (off_curve, wrong_receiver, mac_mismatch,
    degenerate_key) rather than returning partial results.  The cheap
    checks come first: an R off the curve is refused off_curve before
    anything else reads it, then the receiver and the MAC are checked,
    and only then does the order check's 160-bit qR run.  The pairing
    runs last, on S = R + h*Q_A.  When S is infinity (R = -h*Q_A) the
    key would be the pairing's identity, so the message is refused
    degenerate_key before the pairing; any other S of order q pairs
    with d_B to a value other than the identity.
    """
    curve = params.curve
    R = msg.big_r
    on_curve = R is not None and curve.contains(R)
    if on_curve:
        if msg.receiver != sk_b.identity:
            raise Reject("wrong_receiver")
        if message_mac(params, msg.sender, R, msg.nonce) != msg.mac:
            raise Reject("mac_mismatch")
    if not on_curve or curve.mul(params.q, R) is not None:
        raise Reject("off_curve")
    h = _h_ake(params, R, msg.sender, msg.receiver)
    q_a = hash_to_point(params, msg.sender)
    S = curve.add(R, curve.mul(h, q_a))
    if S is None:
        raise Reject("degenerate_key")
    return kdf(params, curve.pairing(sk_b.point, S), msg.sender, msg.receiver, R)
