"""Curve group law and pairing, cross-checked against the oracles."""

import dataclasses
import random

import pytest

import oracles
import vectors
from ibetrust import ake, ibe, sim
from gen_demo_params import is_probable_prime
from ibetrust.curve import GT_ONE, Curve
from ibetrust.errors import Reject

TOY_P, TOY_Q = 227, 19
DEMO_P, DEMO_Q = ibe.PROFILES["demo"]["p"], ibe.PROFILES["demo"]["q"]


@pytest.fixture(scope="module")
def toy():
    return Curve(TOY_P, TOY_Q)


@pytest.fixture(scope="module")
def gen(toy):
    return vectors.TOY_GENERATOR


def assert_loaders_reject(gen, bad):
    params = ibe.PublicParams(p=TOY_P, q=TOY_Q, n=128, generator=gen,
                              master_pub=vectors.TOY_MASTER_PUB)
    # the wire decoder checks nothing; ake.respond refuses such an R
    R = ibe.point_from_bytes(params, ibe.point_to_bytes(params, bad))
    assert R == bad
    key = ibe.PrivateKey("node-002", gen)
    msg = ake.AkeMessage("node-001", "node-002", R, b"nn",
                         ake.message_mac(params, "node-001", R, b"nn"))
    with pytest.raises(Reject, match="off_curve"):
        ake.respond(params, key, msg)
    for blob in (
        ibe.params_to_bytes(ibe.PublicParams(TOY_P, TOY_Q, 128, bad, params.master_pub)),
        ibe.params_to_bytes(ibe.PublicParams(TOY_P, TOY_Q, 128, gen, bad)),
    ):
        with pytest.raises(ValueError):
            ibe.params_from_bytes(blob)


def counting(curve, names=("_double", "_add_affine")):
    """Shadow curve's Jacobian steps, or the named methods, on the
    instance; the returned dict counts the calls to each."""
    counts = dict.fromkeys(names, 0)
    for name in counts:
        def counted(*args, step=getattr(curve, name), name=name):
            counts[name] += 1
            return step(*args)
        setattr(curve, name, counted)
    return counts


class TestPrimality:
    def test_small_numbers(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53}
        for n in range(2, 54):
            assert is_probable_prime(n) == (n in primes)

    def test_edge_values(self):
        assert not is_probable_prime(0)
        assert not is_probable_prime(1)
        assert not is_probable_prime(-7)

    def test_large_known(self):
        assert is_probable_prime(2**127 - 1)
        assert not is_probable_prime(2**128 + 1)
        assert not is_probable_prime((2**89 - 1) * (2**107 - 1))


class TestCurveConstruction:
    def test_toy_constants(self, toy):
        assert toy.cofactor == 12
        assert toy.cofactor * toy.q == toy.p + 1
        assert toy.coord_size == 1


class TestGroupLaw:
    def test_point_count_matches_enumeration(self, toy):
        pts = oracles.enumerate_points(TOY_P)
        assert len(pts) + 1 == TOY_P + 1  # affine points plus infinity
        for P in pts:
            assert toy.contains(P)

    def test_every_y_lifts(self, toy):
        seen = set()
        for y in range(TOY_P):
            P = toy.point_from_y(y)
            assert toy.contains(P)
            seen.add(P)
        assert len(seen) == TOY_P  # cube root map is a bijection

    def test_add_matches_oracle_exhaustively(self, toy):
        pts = oracles.enumerate_points(TOY_P)
        rng = random.Random(1)
        for _ in range(300):
            P, Q = rng.choice(pts), rng.choice(pts)
            assert toy.add(P, Q) == oracles.add(TOY_P, P, Q)

    def test_mul_matches_naive(self, toy, gen):
        for k in range(0, 40):
            assert toy.mul(k, gen) == oracles.naive_mul(TOY_P, k, gen)

    def test_identity_and_inverse(self, toy, gen):
        assert toy.add(gen, (gen[0], -gen[1] % TOY_P)) is None

    def test_closure(self, toy, gen):
        rng = random.Random(2)
        for _ in range(100):
            P = toy.mul(rng.randrange(1, TOY_Q), gen)
            Q = toy.mul(rng.randrange(1, TOY_Q), gen)
            R = toy.add(P, Q)
            assert toy.contains(R) if R is not None else P == (Q[0], -Q[1] % TOY_P)

    def test_subgroup_order(self, toy, gen):
        assert toy.mul(TOY_Q, gen) is None
        for k in range(1, TOY_Q):
            assert toy.mul(k, gen) is not None


class TestPairing:
    def test_matches_divisor_oracle(self, toy, gen):
        assert toy.pairing(gen, gen) == oracles.pairing(TOY_P, TOY_Q, gen, gen)
        assert toy.pairing(gen, gen) == vectors.PAIRING_GEN_GEN

    def test_nondegenerate(self, toy, gen):
        assert toy.pairing(gen, gen) != GT_ONE

    def test_output_order(self, toy, gen):
        e = toy.pairing(gen, gen)
        assert toy.f2_pow(e, TOY_Q) == GT_ONE

    def test_random_pairs_match_oracle(self, toy, gen):
        rng = random.Random(3)
        for _ in range(20):
            A = toy.mul(rng.randrange(1, TOY_Q), gen)
            B = toy.mul(rng.randrange(1, TOY_Q), gen)
            assert toy.pairing(A, B) == oracles.pairing(TOY_P, TOY_Q, A, B)

    def test_bilinear(self, toy, gen):
        base = toy.pairing(gen, gen)
        rng = random.Random(4)
        for _ in range(30):
            a = rng.randrange(1, TOY_Q)
            b = rng.randrange(1, TOY_Q)
            lhs = toy.pairing(toy.mul(a, gen), toy.mul(b, gen))
            assert lhs == toy.gt_pow(base, a * b % TOY_Q)

    def test_two_three_six(self, toy, gen):
        lhs = toy.pairing(toy.mul(2, gen), toy.mul(3, gen))
        assert lhs == toy.gt_pow(toy.pairing(gen, gen), 6)

    def test_symmetric(self, toy, gen):
        A = toy.mul(5, gen)
        B = toy.mul(11, gen)
        assert toy.pairing(A, B) == toy.pairing(B, A)

    def test_scaled_product_exponent(self, toy, gen):
        # e(r*t*P, s*P) = e(P, P)^(r*s*t), the structure peer
        # authentication leans on
        base = toy.pairing(gen, gen)
        rng = random.Random(5)
        for _ in range(20):
            r = rng.randrange(1, TOY_Q)
            s = rng.randrange(1, TOY_Q)
            t = rng.randrange(1, TOY_Q)
            lhs = toy.pairing(toy.mul(r * t, gen), toy.mul(s, gen))
            assert lhs == toy.gt_pow(base, r * s * t % TOY_Q)

    def test_every_subgroup_pair_matches_oracle(self, gen):
        # the Miller lines are cached per first argument; every pair of
        # finite points of the order-19 group against the oracle (no
        # caller pairs infinity)
        curve = Curve(TOY_P, TOY_Q)
        group = [oracles.naive_mul(TOY_P, k, gen) for k in range(1, TOY_Q)]
        for A in group:
            for B in group:
                value = curve.pairing(A, B)
                assert value == oracles.pairing(TOY_P, TOY_Q, A, B), (A, B)
                assert value == curve.pairing(B, A), (A, B)
        assert curve.pairing_count == 2 * (TOY_Q - 1) ** 2
        assert len(curve._lines) == TOY_Q - 1

    # pairing() trusts its inputs; points are checked where they are
    # used: in_subgroup in the loaders (assert_loaders_reject), its two
    # halves in ake.respond, contains in ibe.decrypt

    def test_rejects_off_curve(self, toy, gen):
        assert toy.in_subgroup(gen)
        assert not toy.in_subgroup((1, 1))
        assert not toy.in_subgroup(None)
        assert_loaders_reject(gen, (1, 1))

    def test_rejects_wrong_order(self, toy, gen):
        # find a curve point outside the order-q subgroup
        for y in range(TOY_P):
            P = toy.point_from_y(y)
            if toy.mul(TOY_Q, P) is not None:
                break
        assert toy.contains(P) and not toy.in_subgroup(P)
        assert_loaders_reject(gen, P)

    def test_gt_inverse(self, toy, gen):
        # an element of GT has norm 1, so its inverse is its conjugate
        # (a + bz)^p = (a - b) - bz, as the final exponentiation assumes
        e = toy.pairing(gen, gen)
        a, b = e
        conj = ((a - b) % TOY_P, -b % TOY_P)
        assert conj == oracles.f2_inv(TOY_P, e)
        assert toy.f2_mul(e, conj) == GT_ONE


class TestDemoKernel:
    """The demo profile's 256-bit field, against the affine oracles."""

    @pytest.fixture(scope="class")
    def demo(self):
        return Curve(DEMO_P, DEMO_Q)

    @pytest.fixture(scope="class")
    def points(self):
        # order-q points built without the library: lift a seeded y,
        # then clear the cofactor with the oracle
        rng = random.Random(11)
        cofactor = (DEMO_P + 1) // DEMO_Q
        out = []
        while len(out) < 4:
            y = rng.randrange(DEMO_P)
            x = pow((y * y - 1) % DEMO_P, (2 * DEMO_P - 1) // 3, DEMO_P)
            P = oracles.double_and_add(DEMO_P, cofactor, (x, y))
            if P is not None:
                out.append(P)
        return out

    def test_mul_matches_double_and_add(self, demo, points):
        rng = random.Random(12)
        q = DEMO_Q
        ks = [0, 1, 2, q - 1, q, q + 1, 2 * q]
        ks += [rng.randrange(1, q) for _ in range(4)] + [rng.getrandbits(300)]
        for P in points[:2]:
            for k in ks:
                assert demo.mul(k, P) == oracles.double_and_add(DEMO_P, k, P), k
        assert demo.mul(q, points[0]) is None
        assert demo.mul(5, None) is None

    def test_mul_outside_subgroup(self, demo):
        # an uncleared point, and the points of order 2 and 3, by sparse
        # and by dense scalars, whose signed digits add -P
        rng = random.Random(17)
        U = demo.point_from_y(5)
        ks = (1, 2, 3, 4, 5, 6, 7, demo.cofactor, DEMO_Q, DEMO_P + 1,
              2**65 - 1, 2**159 - 1, rng.getrandbits(160) | 1 << 159,
              rng.getrandbits(300) | 1 << 299)
        for P in (U, (DEMO_P - 1, 0), (0, 1), (0, DEMO_P - 1)):
            for k in ks:
                assert demo.mul(k, P) == oracles.double_and_add(DEMO_P, k, P), (P, k)
        # 2^65 - 1 is 1, 64 zeros, -1: infinity plus -(p - 1, 0), whose y
        # is 0, not p
        assert demo.mul(2**65 - 1, (DEMO_P - 1, 0)) == (DEMO_P - 1, 0)

    def test_double_matches_dbl_2009_l(self, demo):
        # Jacobian forms (xZ^2, yZ^3, Z) of seeded curve points, then
        # Y = 0 (order 2) and Z = 0 (infinity)
        rng = random.Random(18)
        inputs = []
        for _ in range(200):
            x, y = demo.point_from_y(rng.randrange(DEMO_P))
            Z = rng.randrange(1, DEMO_P)
            inputs.append((x * Z * Z % DEMO_P, y * Z**3 % DEMO_P, Z))
        Z = rng.randrange(1, DEMO_P)
        inputs += [((DEMO_P - 1) * Z * Z % DEMO_P, 0, Z), (1, 1, 0),
                   (rng.randrange(DEMO_P), rng.randrange(DEMO_P), 0)]
        for T in inputs:
            assert demo._double(T) == oracles.jacobian_double(DEMO_P, T), T

    def test_pairing_matches_divisor_oracle(self, demo, points):
        for A, B in ((points[0], points[1]), (points[2], points[3])):
            assert demo.pairing(A, B) == oracles.pairing(DEMO_P, DEMO_Q, A, B)

    def test_seeded_pairs_match_divisor_oracle(self, demo, points):
        # the three-product Miller step against the oracle's lines over
        # F_p^2, on fresh multiples of the class's points
        rng = random.Random(15)
        for _ in range(5):
            A = oracles.double_and_add(DEMO_P, rng.randrange(1, DEMO_Q), points[0])
            B = oracles.double_and_add(DEMO_P, rng.randrange(1, DEMO_Q), points[1])
            assert demo.pairing(A, B) == oracles.pairing(DEMO_P, DEMO_Q, A, B), (A, B)

    def test_bilinear(self, points):
        # B = points[3] is an identity point, so e(A, B) is the kept
        # value; a repeat computes nothing
        curve = Curve(DEMO_P, DEMO_Q)
        curve.identity_points.add(points[3])
        rng = random.Random(16)
        for i in range(5):
            A, B = (points[0], points[1]) if i % 2 else (points[2], points[3])
            a, b = rng.randrange(1, DEMO_Q), rng.randrange(1, DEMO_Q)
            base = curve.pairing(A, B)
            assert base != GT_ONE
            lhs = curve.pairing(oracles.double_and_add(DEMO_P, a, A),
                                oracles.double_and_add(DEMO_P, b, B))
            assert lhs == curve.gt_pow(base, a * b), (a, b)
        assert curve._values.keys() == {(points[2], points[3])}
        # 5 calls on the multiples, 2 for (points[0], points[1]), 1 kept
        assert curve.pairings_computed == 8

    def test_fixed_base_matches_double_and_add(self, points):
        P = points[0]
        curve = Curve(DEMO_P, DEMO_Q, P)
        rng = random.Random(14)
        q = DEMO_Q
        for k in [rng.randrange(q) for _ in range(20)] + [0, 1, q - 1]:
            assert curve.mul(k, P) == oracles.double_and_add(DEMO_P, k, P), k
        # 8 teeth of 20 columns, in two tables of 10 columns (the bits
        # 20j + c and 20j + 10 + c): 510 entries, none of them infinity,
        # and the empty set's key 0 shared
        b, masks, table = curve._combs[P]
        assert (b, len(masks)) == (10, 2)
        assert len(table) == 511 and list(table.values()).count(None) == 1
        assert curve.mul(q, P) is None
        for k in (q + 1, 2 * q + 7, rng.getrandbits(300)):
            assert curve.mul(k, P) == oracles.double_and_add(DEMO_P, k, P), k

    def test_comb_matches_double_and_add(self, points):
        Q = points[1]
        curve = Curve(DEMO_P, DEMO_Q)
        curve.identity_points.add(Q)
        assert curve.mul(7, Q) == oracles.double_and_add(DEMO_P, 7, Q)
        assert curve._combs == {Q: None}  # the first mul keeps the plain loop
        rng = random.Random(22)
        q = DEMO_Q
        ks = [rng.randrange(q) for _ in range(60)] + [0, 1, q - 1, q, q + 1, 2**160 - 1]
        for k in ks:
            assert curve.mul(k, Q) == oracles.double_and_add(DEMO_P, k, Q), k
        # 5 teeth of 32 columns, one table: 31 entries, none of them
        # infinity
        b, masks, table = curve._combs[Q]
        assert (b, len(masks)) == (32, 1)
        assert len(table) == 32 and list(table.values()).count(None) == 1

    def test_comb_operation_counts(self, points, gen):
        # per mul once the comb is built, counted by shadowing the
        # Jacobian steps on the instance: at most b - 1 doublings and
        # one addition per table and column for b columns, and the bound
        # is reached
        P, Q = points[0], points[1]
        identity = Curve(DEMO_P, DEMO_Q)
        identity.identity_points.add(Q)
        rng = random.Random(25)
        for curve, base, doublings, additions in (
            (Curve(DEMO_P, DEMO_Q, P), P, 9, 20),
            (identity, Q, 31, 32),
            (Curve(TOY_P, TOY_Q, gen), gen, 0, 1),
        ):
            curve.mul(1, base)
            curve.mul(1, base)  # an identity point's comb comes with its second mul
            counts = counting(curve)
            most = {"_double": 0, "_add_affine": 0}
            for k in [rng.randrange(curve.q) for _ in range(50)]:
                counts.update(_double=0, _add_affine=0)
                curve.mul(k, base)
                most = {name: max(most[name], counts[name]) for name in most}
            assert most == {"_double": doublings, "_add_affine": additions}, base

    def test_cached_lines_give_the_cold_value(self, demo, points):
        rng = random.Random(13)
        pairs = [(points[i % 2], demo.mul(rng.randrange(1, DEMO_Q), points[2]))
                 for i in range(10)]
        warm = Curve(DEMO_P, DEMO_Q)
        for A, B in pairs:
            cold = Curve(DEMO_P, DEMO_Q)
            before = warm.pairing_count
            assert warm.pairing(A, B) == cold.pairing(A, B)
            assert warm.pairing_count == before + 1
            assert cold.pairing_count == 1
        # eight of the ten calls on warm reused the lines of points[0] or [1]
        assert set(warm._lines) == {points[0], points[1]}


@pytest.mark.parametrize("p, q", [(TOY_P, TOY_Q), (DEMO_P, DEMO_Q)], ids=["toy", "demo"])
class TestMillerLines:
    """The kept lines of a seeded order-q point A: (c, lam) per Miller
    step, the line y + c - lam*x; the last chord, a vertical, is not
    kept."""

    @staticmethod
    def seeded_point(p, q, seed):
        rng = random.Random(seed)
        while True:
            y = rng.randrange(p)
            x = pow((y * y - 1) % p, (2 * p - 1) // 3, p)
            A = oracles.double_and_add(p, (p + 1) // q, (x, y))
            if A is not None:
                return A

    def test_layout(self, p, q):
        curve = Curve(p, q)
        A = self.seeded_point(p, q, 27)
        lines = curve._miller_lines(A)
        assert len(lines) == 2 * len(curve._doublings) == {TOY_Q: 10, DEMO_Q: 326}[q]
        m, T = 1, A  # the step's multiple of A, and that point
        for i, doubling in enumerate(curve._doublings):
            c, lam = lines[2 * i:2 * i + 2]
            m = 2 * m if doubling else m + 1
            # the line passes through the step's input T and through
            # -(mA), its third point on the curve
            x, y = mA = oracles.double_and_add(p, m, A)
            for u, v in (T, (x, -y)):
                assert (v + c - lam * u) % p == 0, i
            T = mA
        assert m == q - 1

    def test_one_batched_inversion_over_the_zs(self, p, q):
        curve = Curve(p, q)
        sizes = []

        def counted(values, batch_inv=curve._batch_inv):
            sizes.append(len(values))
            return batch_inv(values)
        curve._batch_inv = counted
        for seed in (28, 29):
            A = self.seeded_point(p, q, seed)
            assert curve.pairing(A, A) == oracles.pairing(p, q, A, A)
        assert sizes == [len(curve._doublings)] * 2


class TestPlainLoop:
    """mul's double-and-add loop, signed digits on demo and binary ones
    on toy, counted by shadowing the Jacobian steps on the instance."""

    def test_sparse_scalars_keep_their_counts(self):
        curve = Curve(DEMO_P, DEMO_Q)
        R = curve.subgroup_point(7)
        counts = counting(curve)
        # mul(q, R): q = 2^159 + 299 has weight 6, and so has its
        # non-adjacent form, 2^159 + 2^8 + 2^6 - 2^4 - 2^2 - 1
        assert curve.in_subgroup(R)
        assert counts == {"_double": 159, "_add_affine": 5}
        counts.update(_double=0, _add_affine=0)
        # the cofactor 2^96 + 146 has weight 4 and no adjacent 1s
        assert curve.subgroup_point(8) is not None
        assert counts == {"_double": 96, "_add_affine": 3}

    def test_dense_scalars_add_once_per_signed_digit(self):
        curve = Curve(DEMO_P, DEMO_Q)
        R = curve.subgroup_point(9)
        counts = counting(curve)
        rng = random.Random(26)
        for _ in range(20):
            k = rng.getrandbits(160) | 1 << 159
            digits = oracles.non_adjacent_form(k)
            weight = len(digits) - digits.count(0)
            counts.update(_double=0, _add_affine=0)
            assert curve.mul(k, R) == oracles.double_and_add(DEMO_P, k, R), k
            assert counts == {"_double": len(digits) - 1, "_add_affine": weight - 1}, k
            assert weight < bin(k).count("1"), k

    def test_toy_scalars_keep_their_binary_digits(self):
        curve = Curve(TOY_P, TOY_Q)
        # a point of order p + 1 = 228 = 4 * 3 * 19, so that no k < 32
        # meets P or -P on the way and every step is counted once
        U = next(U for U in map(curve.point_from_y, range(TOY_P))
                 if all(oracles.naive_mul(TOY_P, (TOY_P + 1) // f, U) for f in (2, 3, 19)))
        counts = counting(curve)
        for k in range(1, 32):
            counts.update(_double=0, _add_affine=0)
            assert curve.mul(k, U) == oracles.naive_mul(TOY_P, k, U), k
            assert counts == {"_double": k.bit_length() - 1,
                              "_add_affine": bin(k).count("1") - 1}, k


class TestFixedBase:
    """mul(k, generator) for 0 <= k < q reads the generator's comb."""

    def test_every_toy_scalar(self, gen):
        curve = Curve(TOY_P, TOY_Q, gen)
        assert curve._combs == {gen: None}
        for k in range(TOY_Q + 1):
            assert curve.mul(k, gen) == oracles.double_and_add(TOY_P, k, gen), k
        # 5 teeth of one column, one table: entry i is i * P, infinity
        # at 0 and q
        b, masks, table = curve._combs[gen]
        assert (b, masks) == (1, (0b11111,))
        assert table == {i: oracles.naive_mul(TOY_P, i, gen) for i in range(32)}
        assert [i for i, A in table.items() if A is None] == [0, TOY_Q]
        assert curve.mul(TOY_Q, gen) is None
        for k in (TOY_Q + 1, 3 * TOY_Q + 5):
            assert curve.mul(k, gen) == oracles.double_and_add(TOY_P, k, gen), k

    def test_other_points_take_the_plain_path(self, gen):
        curve = Curve(TOY_P, TOY_Q, gen)
        P = oracles.double_and_add(TOY_P, 5, gen)
        for k in range(TOY_Q + 1):
            assert curve.mul(k, P) == oracles.double_and_add(TOY_P, k, P), k
        assert curve._combs == {gen: None}

    def test_negative_scalars_are_refused_on_every_base(self, gen):
        # a fresh point, an identity point before and after its comb is
        # built, and the generator before and after: k < 0 is refused
        # before _combs is read, and k = 0 still gives infinity
        curve = Curve(TOY_P, TOY_Q, gen)
        R = oracles.double_and_add(TOY_P, 5, gen)
        Q = oracles.map_to_point(TOY_P, TOY_Q, "node-009")
        curve.identity_points.add(Q)

        def refuses(B):
            before = dict(curve._combs)
            for k in (-1, -TOY_Q):
                with pytest.raises(ValueError, match="k >= 0"):
                    curve.mul(k, B)
                assert curve._combs == before, (B, k)
            assert curve.mul(0, B) is None

        refuses(R)
        refuses(Q)  # its mul(0, Q) enters Q, so the next mul builds the comb
        curve.mul(2, Q)
        assert curve._combs[Q] is not None
        refuses(Q)
        refuses(gen)
        curve.mul(1, gen)
        assert curve._combs[gen] is not None
        refuses(gen)
        assert set(curve._combs) == {gen, Q}


class TestComb:
    """mul(k, Q) for an identity point Q reads Q's comb from Q's second
    mul on."""

    def test_every_toy_scalar_for_every_tooth_count(self, toy):
        rng = random.Random(21)
        points = {oracles.map_to_point(TOY_P, TOY_Q, f"id-{rng.getrandbits(32):08x}")
                  for _ in range(40)}
        ks = range(-2 * TOY_Q, 2 * TOY_Q + 1)
        for Q in points:
            expected = [oracles.naive_mul(TOY_P, k, Q) for k in ks]
            for teeth in range(1, 6):
                for tables in (1, 2):
                    comb = toy._comb_table(Q, teeth, tables)
                    # 5 teeth are one bit wide, too narrow for two tables
                    kept = 1 if teeth == 5 else tables
                    assert len(comb[1]) == kept
                    assert len(comb[2]) == kept * (2**teeth - 1) + 1
                    assert [toy._mul_comb(k, comb) for k in ks] == expected, (
                        Q, teeth, tables)
            # with 5 teeth and one table the bases are 2^j * Q, and
            # Q + 2Q + 16Q is infinity
            comb = toy._comb_table(Q, 5)
            assert comb[:2] == (1, (0b11111,)) and comb[2][0b10011] is None

    def test_toy_identity_point_takes_a_one_tooth_comb(self):
        # the first mul enters Q and runs the plain loop, the second
        # builds Q's comb: one tooth of 5 columns, the table {0, Q}
        curve = Curve(TOY_P, TOY_Q)
        Q = oracles.map_to_point(TOY_P, TOY_Q, "node-007")
        curve.identity_points.add(Q)
        for k in range(2 * TOY_Q + 1):
            assert curve.mul(k, Q) == oracles.naive_mul(TOY_P, k, Q), k
            assert curve._combs[Q] == (None if k == 0 else (5, (1,), {0: None, 1: Q})), k

    def test_a_mul_past_q_keeps_a_built_comb(self):
        curve = Curve(TOY_P, TOY_Q)
        Q = oracles.map_to_point(TOY_P, TOY_Q, "node-008")
        curve.identity_points.add(Q)
        curve.mul(2, Q)
        curve.mul(3, Q)
        comb = curve._combs[Q]
        assert comb is not None
        counts = counting(curve)
        # k >= q takes the plain loop, and in_subgroup's mul(q, Q) with
        # it: q = 19 = 10011 is 4 doublings and 2 additions
        for k in (TOY_Q, TOY_Q + 1, 2 * TOY_Q):
            counts.update(_double=0, _add_affine=0)
            assert curve.mul(k, Q) == oracles.naive_mul(TOY_P, k, Q), k
            assert counts["_double"] == k.bit_length() - 1, k
        counts.update(_double=0, _add_affine=0)
        assert curve.in_subgroup(Q)
        assert counts == {"_double": 4, "_add_affine": 2}
        assert curve._combs[Q] is comb

    def test_built_on_the_second_mul_of_an_identity_point(self):
        scenario = dataclasses.replace(sim.load_scenario("demo"), profile="demo")
        simulation = sim.Simulation(scenario)
        params = simulation.params
        curve = params.curve
        # provisioning multiplies each identity point once, by extract,
        # and the generator's comb waits for the run's first rP
        assert set(curve._combs) == curve.identity_points | {params.generator}
        assert not any(curve._combs.values())
        a, b = simulation.nodes["node-001"], simulation.nodes["node-002"]
        msg, session = ake.initiate(params, a.identity, a._private_key, b.identity,
                                    random.Random(3))
        assert ake.respond(params, b._private_key, msg) == session
        ct = ibe.encrypt(params, b.identity, bytes(params.n // 8), random.Random(4))
        assert ibe.decrypt(params, b._private_key, ct) == bytes(params.n // 8)
        built = [Q for Q, comb in curve._combs.items() if comb is not None]
        assert built == [params.generator, ibe.hash_to_point(params, a.identity)]
        assert len(curve._combs[built[1]][2]) == 32
        assert set(curve._combs) == curve.identity_points | {params.generator}
        assert msg.big_r not in curve._combs and ct.u not in curve._combs


class TestTwistPoint:
    """_evaluate reads the lines at a twist point of B, not at B's
    distorted image.  Against the divisor oracle, for the B that
    TestPairing does not pair: points outside the subgroup, among them
    the points of order dividing 6, which pair to 1."""

    SMALL = ((0, 1), (0, -1), (-1, 0), (2, 3), (2, -3))

    def test_every_toy_point_outside_the_subgroup(self, gen):
        curve = Curve(TOY_P, TOY_Q)
        group = [oracles.naive_mul(TOY_P, k, gen) for k in range(1, TOY_Q)]
        outside = set(oracles.enumerate_points(TOY_P)) - set(group)
        assert len(outside) == TOY_P - len(group)
        assert {(x % TOY_P, y % TOY_P) for x, y in self.SMALL} <= outside
        for A in group:
            for B in outside:
                assert curve.pairing(A, B) == oracles.pairing(TOY_P, TOY_Q, A, B), (A, B)

    def test_seeded_demo_points_outside_the_subgroup(self):
        curve = Curve(DEMO_P, DEMO_Q)
        rng = random.Random(41)
        A = TestMillerLines.seeded_point(DEMO_P, DEMO_Q, 42)
        A2 = oracles.double_and_add(DEMO_P, rng.randrange(1, DEMO_Q), A)
        uncleared = [curve.point_from_y(rng.randrange(DEMO_P)) for _ in range(4)]
        small = [(x % DEMO_P, y % DEMO_P) for x, y in self.SMALL]
        for B in uncleared + small:
            assert curve.contains(B) and not curve.in_subgroup(B)
            for base in (A, A2):
                assert curve.pairing(base, B) == oracles.pairing(DEMO_P, DEMO_Q, base, B), B
        for B in small:
            assert curve.pairing(A, B) == GT_ONE

    @pytest.mark.parametrize("p, q", [(TOY_P, TOY_Q), (DEMO_P, DEMO_Q)], ids=["toy", "demo"])
    def test_legendre_symbol_matches_euler(self, p, q):
        curve = Curve(p, q)
        rng = random.Random(43)
        values = range(1, p) if p == TOY_P else [rng.randrange(1, p) for _ in range(300)]
        for n in values:
            assert curve._legendre(n) == (1 if pow(n, (p - 1) // 2, p) == 1 else -1), n


@pytest.mark.parametrize("p, q", [(TOY_P, TOY_Q), (DEMO_P, DEMO_Q)], ids=["toy", "demo"])
def test_in_subgroup_rejects_small_orders(p, q):
    curve = Curve(p, q)
    # a point of order divisible by q and by a cofactor prime
    for y in range(2, p):
        U = curve.point_from_y(y)
        if (oracles.double_and_add(p, q, U) is not None
                and oracles.double_and_add(p, curve.cofactor, U) is not None):
            break
    for bad in ((p - 1, 0), (0, 1), (0, p - 1), U):
        assert curve.contains(bad)
        assert not curve.in_subgroup(bad)
    assert curve.in_subgroup(curve.mul(curve.cofactor, U))


class TestGtPow:
    """gt_pow's combs against square-and-multiply in the oracle."""

    def test_every_toy_element_and_exponent(self, toy, gen):
        g = oracles.pairing(TOY_P, TOY_Q, gen, gen)
        group = [oracles.f2_pow(TOY_P, g, i) for i in range(TOY_Q)]
        assert len(set(group)) == TOY_Q
        for x in group:
            for k in range(-2 * TOY_Q, 2 * TOY_Q + 1):
                assert toy.gt_pow(x, k) == oracles.f2_pow(TOY_P, x, k % TOY_Q), (x, k)
        # toy's q is one tooth wide: each base keeps the comb {0: 1, 1: x}
        # of 5 columns, and a power is square-and-multiply
        assert toy._gt_combs == {x: (5, 1, {0: GT_ONE, 1: x}) for x in group}

    def test_demo_exponents(self):
        curve = Curve(DEMO_P, DEMO_Q)
        A = curve.subgroup_point(5)
        x = oracles.pairing(DEMO_P, DEMO_Q, A, curve.mul(7, A))
        assert x != GT_ONE and oracles.f2_pow(DEMO_P, x, DEMO_Q) == GT_ONE
        rng = random.Random(23)
        q = DEMO_Q
        ks = [rng.randrange(2**161) for _ in range(40)] + [0, 1, 2, q - 1, q, q + 1]
        # square-and-multiply never ends on a negative exponent; gt_pow
        # reduces k mod q first
        ks += [-1, -2, -(q - 1), -rng.randrange(q)]
        for k in ks:
            assert curve.gt_pow(x, k) == oracles.f2_pow(DEMO_P, x, k % q), k
        assert curve.gt_pow(GT_ONE, ks[0]) == GT_ONE

    def test_demo_comb_on_kept_values(self):
        # as in the program, each base is a kept pairing value: its comb
        # is built on its first call, k = 0 mod q too, and read after
        curve = Curve(DEMO_P, DEMO_Q)
        Q = curve.subgroup_point(11)
        curve.identity_points.add(Q)
        bases = [curve.pairing(curve.subgroup_point(y), Q) for y in (12, 13)]
        assert len(set(bases)) == 2 and GT_ONE not in bases
        rng = random.Random(31)
        q = DEMO_Q
        ks = [0, 1, q - 1, q, q + 1, -1] + [rng.randrange(2**161) for _ in range(20)]
        for i, x in enumerate(bases):
            assert curve.gt_pow(x, q) == GT_ONE and len(curve._gt_combs) == i + 1
            assert curve.gt_pow(x, ks[-1]) == oracles.f2_pow(DEMO_P, x, ks[-1] % q)
            assert len(curve._gt_combs) == i + 1
        for x in bases:
            for k in ks:
                assert curve.gt_pow(x, k) == oracles.f2_pow(DEMO_P, x, k % q), (x, k)
        # one comb per base: 5 teeth of 32 columns, 32 entries
        assert curve._gt_combs.keys() == set(bases)
        for a, mask, table in curve._gt_combs.values():
            assert (a, mask) == (32, sum(1 << 32 * j for j in range(5)))
            assert len(table) == 32
