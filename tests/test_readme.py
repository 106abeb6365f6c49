"""The worked examples in README.md match what the code computes."""

import random
import re
import sys
from pathlib import Path

import pytest

from ibetrust import codec, ibe, protocol, sim
from ibetrust.curve import Curve
from test_curve import counting

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def text():
    return " ".join(README.read_text(encoding="utf-8").split())


def spaced(data: bytes, cuts) -> str:
    """Hex of data split at the given offsets, fields joined by spaces."""
    bounds = [0, *cuts, len(data)]
    return " ".join(data[a:b].hex() for a, b in zip(bounds, bounds[1:]))


def test_trust_record(text):
    assert "(wire id 1, trust value `25221c1b`, nonce `002a`)" in text
    record = protocol.encode_ta_record(1, "25221c1b", b"\x00\x2a")
    fields = spaced(record, [2, 10, 12])
    assert fields == "0001 3235323231633162 002a 239577e8"
    assert fields in text


def test_ack_record(text):
    assert "(echoed nonce `002a`, trusted wire ids 1 and 3)" in text
    record = protocol.encode_ack_record(b"\x00\x2a", [1, 3])
    fields = spaced(record, [2, 4, 6])
    assert fields == "002a 0001 0003 3eecdf70"
    assert fields in text


def test_encrypted_trust_record(text):
    master_seed = int(re.search(r"toy profile with master seed (\d+)", text).group(1))
    rng_seed = int(re.search(r"drawn from `random\.Random\((\d+)\)`", text).group(1))
    params, _ = ibe.setup(ibe.SecurityConfig.from_profile("toy", seed=master_seed))
    record = protocol.encode_ta_record(1, "25221c1b", b"\x00\x2a")
    blob = protocol.encrypt_message(params, "bs", record, random.Random(rng_seed))
    cs, block = params.curve.coord_size, params.block_bytes
    fields = spaced(blob, [2, 2 + cs, 2 + 2 * cs, 2 + 2 * cs + block, 4 + 2 * cs + block])
    assert fields == ("0001 a8 71 a37257204cb46c8e9ceeb983dc71254e 0010 "
                      "7e900859a364900afdc7aa292fa3462b")
    assert fields in text


def test_fragmentation_example(text):
    frames = codec.fragment(1, 2, bytes(400))
    assert (len(frames), codec.on_air_bytes(frames)) == (4, 484)
    assert "400-byte message costs 4 frames and 484 on-air bytes" in text


def test_attack_labels(text):
    listed = re.search(r"`label` \(([^)]*)\)", text).group(1)
    assert tuple(re.findall(r"`([^`]+)`", listed)) == sim.LABELS


def test_scenario_fields():
    raw = README.read_text(encoding="utf-8")
    section = raw.split("## Scenario files", 1)[1].split("\n## ", 1)[0]

    def keys(table):
        for key, entry in table.items():
            yield key
            if isinstance(entry, dict):
                yield from keys(entry)

    named = {key for table in sim._FIELDS.values() for key in keys(table)}
    assert len(named) == 35  # 27 field keys and 9 kinds, "attack" being both
    missing = [key for key in sorted(named)
               if not re.search(rf'[`."]{re.escape(key)}[`"]', section)]
    assert missing == []


def test_rejection_reasons_are_all_listed():
    raw = README.read_text(encoding="utf-8")
    section = raw.split("## Rejection reasons", 1)[1].split("\n## ", 1)[0]
    package = Path(protocol.__file__).parent
    raised = {reason for path in package.glob("*.py")
              for reason in re.findall(r'Reject\("(\w+)"', path.read_text(encoding="utf-8"))}
    # 16 rows, and decrypt_message's 3 reasons as details of decrypt_failure
    assert len(raised) == 19
    assert sorted(r for r in raised if f"`{r}`" not in section) == []


def test_module_map_lists_every_module():
    raw = README.read_text(encoding="utf-8")
    table = raw.split("## Module map", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)`", table, flags=re.MULTILINE)
    package = Path(protocol.__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(listed) == sorted(modules)


def test_miller_line_size(text):
    # the kept lines of one demo point: the tuple and the ints it holds,
    # whose sizes CPython 3.10 to 3.13 agree on for 64-bit builds
    curve = Curve(ibe.PROFILES["demo"]["p"], ibe.PROFILES["demo"]["q"])
    lines = curve._miller_lines(curve.subgroup_point(5))
    size = sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))
    claimed = int(re.search(r"about (\d+) KB each on the demo profile", text).group(1))
    assert claimed == round(size / 1000)


def test_generator_comb_figures(text):
    # P's comb on a demo Curve: its finite points, their coordinate
    # bytes, and the most doublings and additions of an rP (b columns,
    # one addition per table and column)
    demo = ibe.PROFILES["demo"]
    P = Curve(demo["p"], demo["q"]).subgroup_point(5)
    curve = Curve(demo["p"], demo["q"], P)
    curve.mul(1, P)
    b, masks, table = curve._combs[P]
    points = [A for A in table.values() if A is not None]
    claim = re.search(r"P's comb with (\d+) teeth of \d+ bits in two tables .*?: "
                      r"([\d,]+) points, ([\d,]+) bytes .*? at most (\d+) "
                      r"doublings and (\d+) additions", text)
    assert claim is not None
    teeth, count, size, doublings, additions = (
        int(group.replace(",", "")) for group in claim.groups())
    assert len(masks) == 2 and len(table) == 2 * (2**teeth - 1) + 1
    assert count == len(points)
    assert size == 2 * curve.coord_size * len(points)
    assert (doublings, additions) == (b - 1, len(masks) * b)


def test_identity_comb_figures(text):
    # an identity point's comb on a demo Curve, built on its second mul:
    # its finite points, their coordinate bytes, and the most doublings
    # and additions of a kQ (b columns, one addition per column)
    demo = ibe.PROFILES["demo"]
    curve = Curve(demo["p"], demo["q"])
    Q = curve.subgroup_point(7)
    curve.identity_points.add(Q)
    curve.mul(3, Q)
    curve.mul(3, Q)
    b, masks, table = curve._combs[Q]
    points = [A for A in table.values() if A is not None]
    claim = re.search(r"the bases 2\^\((\d+)j\)·Q_A for j < (\d+) and their (\d+) nonzero "
                      r"subset sums, about (\d+) KB of coordinates per identity\. kQ_A is "
                      r"then at most (\d+) doublings and (\d+) mixed additions", text)
    assert claim is not None
    width, teeth, count, kb, doublings, additions = map(int, claim.groups())
    assert len(masks) == 1 and (width, teeth) == (b, curve._comb_teeth)
    assert len(table) == 2**teeth and count == len(points) == 31
    assert kb == round(2 * curve.coord_size * len(points) / 1000) == 2
    assert (doublings, additions) == (b - 1, b) == (31, 32)


def test_gt_comb_figures(text):
    # a kept value's comb on a demo Curve: its entries, the squarings and
    # products that build it, and a power's squarings and products
    # (two F_p products per F_p^2 square, three per product)
    demo = ibe.PROFILES["demo"]
    curve = Curve(demo["p"], demo["q"])
    P = curve.subgroup_point(5)
    x = curve.pairing(P, curve.subgroup_point(7))
    counts = counting(curve, ("_f2_sqr", "f2_mul"))
    a, _, table = curve._gt_comb(x)
    claim = re.search(r"that is (\d+) teeth of (\d+) bits: (\d+) entries, built by (\d+) "
                      r"squarings and (\d+) products in F_p²\. A power is then (\d+) "
                      r"squarings and at most (\d+) products, about (\d+) F_p products", text)
    assert claim is not None
    teeth, width, entries, build_sqr, build_mul, sqr, mul, fp = map(int, claim.groups())
    assert (teeth, width) == (curve._comb_teeth, a)
    assert entries == len(table) == 32
    assert (build_sqr, build_mul) == tuple(counts.values()) == (128, 31)
    assert (sqr, mul) == (a - 1, a - 1) == (31, 31)
    assert fp == 2 * sqr + 3 * mul == 155


def test_plain_loop_counts(text):
    # doublings and additions of the plain loop on a demo Curve for the
    # subgroup check's q and for cofactor clearing
    demo = ibe.PROFILES["demo"]
    curve = Curve(demo["p"], demo["q"])
    R = curve.subgroup_point(5)
    counts = counting(curve)
    assert curve.mul(curve.q, R) is None
    q_counts = tuple(counts.values())
    counts.update(_double=0, _add_affine=0)
    assert curve.mul(curve.cofactor, curve.point_from_y(5)) == R
    claim = re.search(r"the subgroup check's q is (\d+) doublings and (\d+) additions, "
                      r"and cofactor clearing (\d+) doublings and (\d+) additions", text)
    assert claim is not None
    q_doublings, q_additions, c_doublings, c_additions = map(int, claim.groups())
    assert (q_doublings, q_additions) == q_counts == (159, 5)
    assert (c_doublings, c_additions) == tuple(counts.values()) == (96, 3)
