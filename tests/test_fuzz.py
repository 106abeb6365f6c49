"""Seeded mutation fuzzing of every decoder and loader on the toy profile.

Each target gets a valid input, then a few thousand copies of it with
one to three random edits (bit flips, byte overwrites, insertions,
deletions, truncations).  Whatever the bytes, a decoder may only accept
them or fail in the documented way: Reject inside the protocol, or
ValueError (ConfigError included) for the key-material loaders.  Any
other exception escaping is a bug at that boundary.

The three files a user hands the CLI (a scenario, a constants file and
a saved report) get the same treatment one level up: their JSON values
are swapped, dropped or added, and each copy must either be refused
with ConfigError or come out as a report.
"""

import copy
import dataclasses
import json
import random
from importlib import resources

import pytest

from ibetrust import ake, codec, energy, ibe, protocol, sim
from ibetrust.boot import BootChain
from ibetrust.errors import ConfigError, Reject

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


# ---------------------------------------------------------------------------
# File boundaries: scenario, constants and saved-report JSON

FILE_MUTATIONS = 600
JSON_VALUES = (None, True, False, 0, -1, 1, 2, 57, 65536, 1.5, -0.5, 1e308, 10**400,
               float("nan"), float("inf"), "", "bs", "node-001", "ta-ack", "\ud800",
               [], {}, [1], ["a", "b"], {"kind": "replay"})


def _boxes(tree) -> list:
    """Every list and object in a JSON tree, the tree itself first."""
    if isinstance(tree, dict):
        tree, members = [tree], tree.values()
    elif isinstance(tree, list):
        tree, members = [tree], tree
    else:
        return []
    return tree + [box for member in members for box in _boxes(member)]


def mutate_json(tree, rng: random.Random):
    """A copy of tree with one to three members dropped, replaced or added."""
    tree = copy.deepcopy(tree)
    for _ in range(rng.randint(1, 3)):
        boxes = _boxes(tree)
        box = rng.choice(boxes)
        value = copy.deepcopy(rng.choice((*JSON_VALUES, rng.choice(boxes))))
        slots = list(box) if isinstance(box, dict) else list(range(len(box)))
        op = rng.randrange(3)
        if op == 0 and slots:
            del box[rng.choice(slots)]
        elif op == 1 and isinstance(box, dict):
            box["extra"] = value
        elif slots:
            box[rng.choice(slots)] = value
    return tree


def refused_or_reported(report, base, rng):
    """report(tree) for each mutation of base: a str, or ConfigError."""
    for _ in range(FILE_MUTATIONS):
        tree = mutate_json(base, rng)
        try:
            assert isinstance(report(tree), str)
        except ConfigError:
            pass
        except Exception as exc:  # noqa: BLE001 - the escape under test
            pytest.fail(f"{type(exc).__name__}: {exc} on input {json.dumps(tree)[:2000]}")


@pytest.fixture(scope="module")
def scenario_trees():
    """The bundled scenarios as JSON trees, forced to the toy profile."""
    trees = []
    for name in ("demo", "attacks"):
        text = resources.files("ibetrust.scenarios").joinpath(name + ".json").read_text()
        trees.append({**json.loads(text), "profile": "toy"})
    return trees


def scenario_report(tree) -> str:
    return sim.run(sim.parse_scenario(json.dumps(tree))).to_json()


def test_scenario_files_refused_or_run(scenario_trees):
    attacks = scenario_trees[1]
    fixed = [{**attacks, "profile": value} for value in ([], {})]
    for key in ("source", "claimed", "target"):
        for value in (["node-001"], {"node-001": 1}):
            tree = copy.deepcopy(attacks)
            next(e["attack"] for e in tree["events"]
                 if e["kind"] == "attack" and key in e["attack"])[key] = value
            fixed.append(tree)
    for tree in fixed:
        with pytest.raises(ConfigError):
            scenario_report(tree)
    rng = random.Random("scenario")
    for tree in scenario_trees:
        scenario_report(tree)
        refused_or_reported(scenario_report, tree, rng)


def test_constants_files_refused_or_run(scenario_trees, tmp_path):
    scenario = sim.parse_scenario(json.dumps(scenario_trees[1]))
    path = tmp_path / "constants.json"

    def report(tree) -> str:
        path.write_text(json.dumps(tree))
        constants = energy.EnergyConstants.from_file(path)
        return sim.run(scenario, constants=constants).to_json()

    base = dataclasses.asdict(energy.DEFAULT_CONSTANTS)
    report(base)
    with pytest.raises(ConfigError):
        report({**base, "boot_s": 10**400})
    refused_or_reported(report, base, random.Random("constants"))


def test_saved_reports_refused_or_rendered(scenario_trees):
    def report(tree) -> str:
        if not sim.is_report_dict(tree):  # the CLI's "not a report file"
            raise ConfigError("not a report file")
        return sim.render_report_dict(tree)

    saved = json.loads(scenario_report(scenario_trees[1]))
    report(saved)
    refused_or_reported(report, saved, random.Random("report"))
