"""Arithmetic for the supersingular curve y^2 = x^3 + 1 over F_p.

Points are (x, y) tuples of plain ints; None is the point at infinity.
The prime p must satisfy p = 2 (mod 3), which makes cubing a bijection
on F_p, so every y value lifts to exactly one curve point.  It also
makes the curve supersingular with exactly p + 1 points, all in one
cyclic group.

The quadratic extension F_p^2 is F_p[z]/(z^2 + z + 1); an element is a
pair (a, b) meaning a + b*z, where z is a primitive cube root of unity.
With that representation the distortion map (x, y) -> (z*x, y) sends a
curve point over F_p to a point over F_p^2 that is linearly independent
of it, which is what turns the Tate pairing into a symmetric map on the
order-q subgroup.
"""

from __future__ import annotations

import random

Fp2 = tuple[int, int]
Point = tuple[int, int] | None

GT_ONE: Fp2 = (1, 0)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_probable_prime(n: int, rounds: int = 32) -> bool:
    """Miller-Rabin with witnesses drawn from an n-seeded generator.

    Seeding from n keeps the answer reproducible run to run while
    avoiding a fixed witness list that an adversarial input could be
    built against.  Error probability is at most 4**-rounds.
    """
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n % sp == 0:
            return n == sp
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(n)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Curve:
    """y^2 = x^3 + 1 over F_p with a pairing on the order-q subgroup."""

    def __init__(self, p: int, q: int):
        if p % 3 != 2:
            raise ValueError("p must be 2 mod 3")
        if (p + 1) % q != 0:
            raise ValueError("q must divide p + 1")
        if q in (2, 3):
            # the 2- and 3-torsion points ((-1, 0), (0, +-1)) break the
            # degeneracy-freedom the Miller loop relies on
            raise ValueError("q must exceed 3")
        self.p = p
        self.q = q
        self.cofactor = (p + 1) // q
        # inverse of cubing: (x^3)^e = x for e = (2p-1)/3
        self.cube_root_exp = (2 * p - 1) // 3
        self.coord_size = (p.bit_length() + 7) // 8
        # bumped on every pairing evaluation; the protocol layer's
        # cheap-check-first claims are asserted against this
        self.pairing_count = 0

    # ---- group law over F_p ----

    def contains(self, P: Point) -> bool:
        if P is None:
            return True
        x, y = P
        if not (0 <= x < self.p and 0 <= y < self.p):
            return False
        return y * y % self.p == (x * x * x + 1) % self.p

    def neg(self, P: Point) -> Point:
        if P is None:
            return None
        return (P[0], -P[1] % self.p)

    def in_subgroup(self, P: Point) -> bool:
        """True when P is a finite curve point of order q.

        The one validity check for points from outside the program;
        everything downstream, the pairing included, trusts it.
        """
        return P is not None and self.contains(P) and self.mul(self.q, P) is None

    def add(self, P: Point, Q: Point) -> Point:
        if P is None:
            return Q
        if Q is None:
            return P
        return self._chord_tangent(P, Q)[1]

    def _chord_tangent(self, P: tuple[int, int], Q: tuple[int, int]) -> tuple[int | None, Point]:
        """Slope of the line through finite P and Q (the tangent when they
        are equal), and P + Q.  The slope is None for a vertical line,
        where P + Q is infinity."""
        p = self.p
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None, None
            lam = 3 * x1 * x1 * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return lam, (x3, (lam * (x1 - x3) - y1) % p)

    def mul(self, k: int, P: Point) -> Point:
        if k < 0:
            return self.mul(-k, self.neg(P))
        R: Point = None
        A = P
        while k:
            if k & 1:
                R = self.add(R, A)
            A = self.add(A, A)
            k >>= 1
        return R

    def point_from_y(self, y0: int) -> Point:
        """The unique affine point with the given y coordinate."""
        y0 %= self.p
        x0 = pow((y0 * y0 - 1) % self.p, self.cube_root_exp, self.p)
        return (x0, y0)

    def subgroup_point(self, y0: int) -> Point:
        """Order-q point (or infinity) from a y seed, via cofactor clearing."""
        return self.mul(self.cofactor, self.point_from_y(y0))

    # ---- F_p^2 helpers; GT elements live here ----

    def f2_mul(self, u: Fp2, v: Fp2) -> Fp2:
        # (a + bz)(c + dz) with z^2 = -z - 1
        p = self.p
        a, b = u
        c, d = v
        ac = a * c % p
        bd = b * d % p
        return ((ac - bd) % p, (a * d + b * c - bd) % p)

    def f2_inv(self, u: Fp2) -> Fp2:
        # conjugate over norm; norm(a + bz) = a^2 - ab + b^2
        p = self.p
        a, b = u
        norm = (a * a - a * b + b * b) % p
        ninv = pow(norm, -1, p)
        return ((a - b) * ninv % p, -b * ninv % p)

    def f2_pow(self, u: Fp2, e: int) -> Fp2:
        if e < 0:
            return self.f2_pow(self.f2_inv(u), -e)
        result = GT_ONE
        base = u
        while e:
            if e & 1:
                result = self.f2_mul(result, base)
            base = self.f2_mul(base, base)
            e >>= 1
        return result

    gt_mul = f2_mul
    gt_inv = f2_inv
    gt_pow = f2_pow

    # ---- pairing ----

    def pairing(self, A: Point, B: Point) -> Fp2:
        """Modified Tate pairing e(A, B) for A and B in the order-q subgroup.

        Neither input is checked: callers validate points from outside
        with in_subgroup where they enter the program.  Infinity pairs
        to the identity.  Computes f_{q,A} at the distorted image of B
        by Miller's algorithm, then raises to (p^2 - 1)/q so the result
        lands in the order-q subgroup of F_p^2*.  Lines are accumulated
        as a numerator/denominator pair so only one field inversion is
        needed at the end.
        """
        p = self.p
        self.pairing_count += 1
        if A is None or B is None:
            return GT_ONE

        xB, yB = B
        # distorted image of B is (z*xB, yB): x picks up the cube root
        # of unity z, so dx - x = (-x, xB) and dy - y = (yB - y, 0)

        def vertical_at(T: Point) -> Fp2:
            return GT_ONE if T is None else (-T[0] % p, xB)

        def step(T: tuple[int, int], U: tuple[int, int]) -> tuple[Fp2, Point]:
            # chord/tangent through T and U evaluated at the distorted
            # image, and T + U
            lam, S = self._chord_tangent(T, U)
            if lam is None:
                return vertical_at(T), S
            x1, y1 = T
            # (dy - y1) - lam*(dx - x1)
            return ((yB - y1 + lam * x1) % p, -lam * xB % p), S

        num = GT_ONE
        den = GT_ONE
        T = A
        for bit in bin(self.q)[3:]:
            line, T = step(T, T)
            num = self.f2_mul(self.f2_mul(num, num), line)
            den = self.f2_mul(self.f2_mul(den, den), vertical_at(T))
            if bit == "1":
                line, T = step(T, A)
                num = self.f2_mul(num, line)
                den = self.f2_mul(den, vertical_at(T))
        assert T is None  # q*A is infinity for A of order q
        f = self.f2_mul(num, self.f2_inv(den))
        return self.f2_pow(f, (p * p - 1) // self.q)
