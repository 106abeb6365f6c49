"""Seeded mutation fuzzing of every decoder and loader on the toy profile.

Each target gets a valid input, then a few thousand copies of it with
one to three random edits (bit flips, byte overwrites, insertions,
deletions, truncations).  Whatever the bytes, a decoder may only accept
them or fail in the documented way: Reject inside the protocol, or
ValueError (ConfigError included) for the key-material loaders.  Any
other exception escaping is a bug at that boundary.
"""

import random

import pytest

from ibetrust import ake, codec, ibe, protocol
from ibetrust.boot import BootChain
from ibetrust.errors import Reject

MUTATIONS = 5000
DOCUMENTED = (Reject, ValueError)  # ConfigError is a ValueError
LOADERS = ("params_from_bytes", "master_key_from_bytes")


@pytest.fixture(scope="module")
def toy():
    params, master = ibe.setup(ibe.SecurityConfig.from_profile("toy", seed=7))
    registry = protocol.Registry()
    for name in ("node-001", "node-002"):
        registry.assign(name)
    keys = {name: ibe.extract(params, master, name) for name in ("bs", "node-001", "node-002")}
    return params, master, registry, keys


def mutate(data: bytes, rng: random.Random) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        pos = rng.randrange(len(out) + 1)
        if op == 0 and out:
            out[pos % len(out)] ^= 1 << rng.randrange(8)
        elif op == 1 and out:
            out[pos % len(out)] = rng.randrange(256)
        elif op == 2:
            out.insert(pos, rng.randrange(256))
        elif op == 3 and out:
            del out[pos % len(out)]
        else:
            del out[pos:]
    return bytes(out)


def targets(toy):
    """name -> (valid input, decoder)"""
    params, master, registry, keys = toy
    rng = random.Random(1)
    ta = protocol.encode_ta_record(1, "0123abcd", b"nn")
    ack = protocol.encode_ack_record(b"nn", [1, 2])
    msg, _ = ake.initiate(params, "node-001", keys["node-001"], "node-002", rng)

    def ake_respond(data):
        return ake.respond(params, keys["node-002"],
                           protocol.ake_message_from_bytes(registry, params, data))

    # a trusted responder that lists the sender, fed the bytes as frames
    responder = protocol.Node("node-002", 2, params, keys["node-002"], registry,
                              BootChain.from_images([b"loader", b"kernel"]))
    responder.phase = protocol.TRUSTED
    responder.trust_list = ("node-001",)

    def peer_authenticate(data):
        return protocol.peer_authenticate(responder, codec.fragment(2, 1, data))

    return {
        "decrypt_message": (
            protocol.encrypt_message(params, "bs", ta, rng),
            lambda data: protocol.decrypt_message(params, keys["bs"], data)),
        "ake_message_from_bytes+respond": (
            protocol.ake_message_to_bytes(registry, params, msg), ake_respond),
        "peer_authenticate": (
            protocol.ake_message_to_bytes(registry, params, msg), peer_authenticate),
        "params_from_bytes": (ibe.params_to_bytes(params), ibe.params_from_bytes),
        "master_key_from_bytes": (
            ibe.master_key_to_bytes(master),
            lambda data: ibe.master_key_from_bytes(params, data)),
        "decode_ta_record": (ta, protocol.decode_ta_record),
        "decode_ack_record": (ack, protocol.decode_ack_record),
    }


@pytest.mark.parametrize("name", [
    "decrypt_message", "ake_message_from_bytes+respond", "peer_authenticate",
    "params_from_bytes", "master_key_from_bytes", "decode_ta_record",
    "decode_ack_record",
])
def test_only_documented_exceptions_escape(toy, name):
    valid, decode = targets(toy)[name]
    documented = DOCUMENTED if name in LOADERS else Reject
    decode(valid)  # the unmutated input is accepted
    rng = random.Random(name)
    for _ in range(MUTATIONS):
        data = mutate(valid, rng)
        try:
            decode(data)
        except documented:
            pass
        except Exception as exc:  # noqa: BLE001 - the escape under test
            pytest.fail(f"{name}: {type(exc).__name__}: {exc} on input {data.hex()}")
