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

A modular inversion costs as much as dozens of multiplications, so the
inner loops avoid it (Cohen-Miyaji-Ono, ASIACRYPT 1998).  Scalar
multiplication and the Miller loop keep their running point in Jacobian
coordinates, (X, Y, Z) standing for (X/Z^2, Y/Z^3): a doubling or an
addition of an affine point is a handful of multiplications, and mul
inverts once at the end to return an affine point.  A 512-by-256-bit
reduction mod p costs more than a 256-bit product, so a doubling is
written with six reductions (Bernstein-Lange, Explicit-Formulas
Database).  On the demo profile the plain loop reads its scalar in
non-adjacent form (Morain-Olivos, 1990), adding P or -P, so a dense
scalar adds for about a third of its bits instead of half.

Two kinds of point are the base of many scalar mults: the generator P
(rP in encryption and in the re-encryption check) and an identity point
Q (one of identity_points, the base of the key exchange's r*Q and h*Q).
Each keeps a comb (Lim-Lee, CRYPTO 1994) in one store, the Curve's
_combs: with t teeth of a = ceil(bits(q) / t) bits, the sums of the
bases 2^(a*j) * Q over every set of teeth, made affine by one batched
inversion, so that kQ is at most a - 1 doublings and a mixed additions.
A second table, the first one's entries times 2^(a/2), halves the
doublings: kQ is then at most a/2 - 1 doublings and still a additions.
P's comb has min(8, bits(q)) teeth and two tables (one on the toy
profile, whose teeth are one bit wide) and is built on P's first mul.
Q's comb has one tooth per 32 bits of q and one table, and is built on
Q's second mul, since the first, extract at provisioning, runs the
plain loop and a point multiplied only once should not pay for a comb;
a comb built inside a key exchange costs its session, so Q's has no
second table.  README's fixed-base note gives each comb's size and
cost, which tests/test_readme.py checks against a demo Curve.

Every pairing in the program has one argument that never changes (P,
P_pub or a private key), and callers pass it first.  The Miller loop's
points depend on that argument alone, so its lines are computed once,
with every Z made affine by one batched inversion, cached on the Curve
as two values a step (the line's slope and constant), and evaluated at
each new second point (Scott, Pairing 2007; Costello-Stebila,
LATINCRYPT 2010).  When the second point is an
identity point (one of identity_points, which ibe.hash_to_point fills)
the value itself never changes either, and it is kept: g_ID =
e(P_pub, Q_ID) for encryption (Boneh-Franklin, CRYPTO 2001) and the
AKE initiator's e(d_A, Q_B).  The final exponentiation starts with the
Frobenius map, which is the conjugation (a + bz)^p = (a - b) - bz here
(Barreto-Kim-Lynn-Scott, CRYPTO 2002).  The lines are evaluated not at
the distorted image of the second point B but at a point D of the twist
whose x-coordinate lies in F_p, so that no vertical is multiplied in
and a doubling step is six F_p products and five reductions; the value
there is e(A, B)^2, and a Legendre symbol picks e(A, B) from its two
square roots.  _miller_lines proves both.

GT, the order-q subgroup of F_p^2* that pairings land in, is where
gt_pow raises kept values to a power, and a kept value is a fixed base
too.  Each base keeps a comb with the identity combs' teeth, built on
its first power, so a power takes no inversion and a fraction of
square-and-multiply's products (README's fixed-argument note gives the
counts); on the toy profile, one tooth, it is plain square-and-multiply.
f2_pow, right-to-left square-and-multiply, is for the rest of F_p^2.
"""

from __future__ import annotations

Fp2 = tuple[int, int]
Point = tuple[int, int] | None
Jacobian = tuple[int, int, int]
# a point comb (Curve._comb_table): its columns b, one mask per table,
# and the entries of every table, keyed by their spread bit patterns
_Comb = tuple[int, tuple[int, ...], dict[int, Point]]

GT_ONE: Fp2 = (1, 0)


class Curve:
    """y^2 = x^3 + 1 over F_p with a pairing on the order-q subgroup.

    p and q are one of ibe.PROFILES, checked where they enter the
    program (ibe.SecurityConfig and ibe.params_from_bytes), not here."""

    def __init__(self, p: int, q: int, generator: Point = None):
        self.p = p
        self.q = q
        self.cofactor = (p + 1) // q
        self.generator = generator
        # one tooth per 32 bits of q: the identity points' and GT combs
        self._comb_teeth = (q.bit_length() + 31) // 32
        # fixed base -> its comb (_comb_table), None until mul builds it:
        # the generator from construction on, an identity point from its
        # first mul on
        self._combs: dict[Point, _Comb | None] = {} if generator is None else {generator: None}
        # gt_pow's base -> its comb, with the identity combs' teeth
        self._gt_combs: dict[Fp2, tuple[int, int, dict[int, Fp2]]] = {}
        # inverse of cubing: (x^3)^e = x for e = (2p-1)/3
        self.cube_root_exp = (2 * p - 1) // 3
        self.coord_size = (p.bit_length() + 7) // 8
        # bumped on every pairing call; the protocol layer's
        # cheap-check-first claims are asserted against this
        self.pairing_count = 0
        # bumped only when a call runs the Miller loop, not on a kept value
        self.pairings_computed = 0
        # second arguments whose pairing values are kept: the identity
        # points ibe.hash_to_point hands out
        self.identity_points: set[Point] = set()
        self._values: dict[tuple[Point, Point], Fp2] = {}
        # the Miller loop's steps after the top bit of q: a doubling
        # (True) per bit, then an addition of A (False) per 1 bit; the
        # last addition, the chord through -A, is evaluated on its own
        steps = []
        for bit in bin(q)[3:]:
            steps.append(True)
            if bit == "1":
                steps.append(False)
        self._doublings = tuple(steps[:-1])
        # the first pairing argument -> its Miller lines (_miller_lines)
        self._lines: dict[Point, tuple[int, ...]] = {}

    # ---- group law over F_p ----

    def contains(self, P: tuple[int, int]) -> bool:
        """True when the finite point P is on the curve."""
        x, y = P
        if not (0 <= x < self.p and 0 <= y < self.p):
            return False
        return y * y % self.p == (x * x * x + 1) % self.p

    def in_subgroup(self, P: Point) -> bool:
        """True when P is a finite curve point of order q.

        The validity check for the loaders' points.  ake.respond makes
        the same two checks on a key exchange's R, with its cheap checks
        between them.  ibe.decrypt needs only
        contains for U, because its re-encryption check accepts only
        U = r*P.  The pairing checks nothing and trusts its callers.
        """
        return P is not None and self.contains(P) and self.mul(self.q, P) is None

    def add(self, P: tuple[int, int], Q: tuple[int, int]) -> Point:
        """P + Q for finite P and Q; None when Q = -P."""
        return self._to_affine(self._add_affine((P[0], P[1], 1), Q)[0])

    # Jacobian (X, Y, Z) stands for the affine (X/Z^2, Y/Z^3); any Z = 0
    # is infinity.  Neither step inverts.

    def _double(self, T: Jacobian) -> tuple[Jacobian, int]:
        """2T by the a = 0 doubling, and E = 3X^2, the numerator of the
        tangent slope 3X^2 / (2YZ).  Y = 0 (order 2) gives Z = 0.

        With D = 4XY^2: X3 = E^2 - 2D, Y3 = E(D - X3) - 8Y^4 and
        Z3 = 2YZ.  Y^4 is left unreduced inside Y3's one reduction, so
        a doubling is six reductions mod p, which cost more than the
        products they reduce; the values are those of the dbl-2009-l
        formula (Bernstein-Lange, Explicit-Formulas Database)."""
        p = self.p
        X, Y, Z = T
        YY = Y * Y % p
        D = 4 * X * YY % p
        E = 3 * X * X % p
        X3 = (E * E - 2 * D) % p
        return (X3, (E * (D - X3) - 8 * YY * YY) % p, 2 * Y * Z % p), E

    def _add_affine(self, T: Jacobian, A: tuple[int, int]) -> tuple[Jacobian, int]:
        """T + A for finite affine A (mixed addition), and r, the numerator
        of the chord slope r / Z3.  T = -A gives infinity."""
        p = self.p
        X, Y, Z = T
        x, y = A
        if Z == 0:
            return (x, y, 1), 0
        ZZ = Z * Z % p
        H = (x * ZZ - X) % p
        r = (y * Z * ZZ - Y) % p
        if H == 0:
            if r == 0:
                return self._double(T)[0], 0
            return (1, 1, 0), r
        HH = H * H % p
        HHH = H * HH % p
        V = X * HH % p
        X3 = (r * r - HHH - 2 * V) % p
        return (X3, (r * (V - X3) - Y * HHH) % p, Z * H % p), r

    def mul(self, k: int, P: Point) -> Point:
        """kP for k >= 0 by left-to-right double-and-add in Jacobian
        coordinates, with one inversion to return to affine.  When q
        has more than 32 bits (demo), k is read in non-adjacent form
        (Morain-Olivos, 1990): digits in {-1, 0, 1}, no two nonzero
        digits adjacent, and a digit -1 adds -P = (x, -y).  A dense k
        then adds for about a third of its bits instead of half, for at
        most one more doubling; a sparse k, such as q or the cofactor,
        keeps its counts.  On the toy profile k keeps its binary
        digits: there signed digits were measured slower, a cofactor
        clearing 4.3 us against 2.8 us in process, and churn_toy's
        setup_s was higher in 4 of 6 paired runs (CPython 3.11, a
        shared 2-core machine).

        A fixed base, a key of _combs, reads its comb (_comb_table) for
        k < q once the comb is built: the generator's, min(8, bits(q))
        teeth in two tables, on its first such mul; an identity
        point's, one tooth per 32 bits of q and one table, on its
        second, since its first (extract, at provisioning) only enters
        it.  A comb reduces k mod q, so the bound keeps mul(q, P), and
        with it in_subgroup of a base not yet checked, on the plain
        loop, where a point of order 2q fails; such a mul leaves a
        built comb in place.  A k < 0 is refused on every base, before
        _combs is read, since a comb would reduce it and the plain loop
        would misread its sign."""
        if k < 0:
            raise ValueError(f"mul needs k >= 0, got {k}")
        if k < self.q:
            comb = self._combs.get(P, ())  # () for a base that is not fixed
            if comb is None:
                comb = self._combs[P] = (
                    self._comb_table(P, min(8, self.q.bit_length()), 2)
                    if P == self.generator else self._comb_table(P, self._comb_teeth))
            if comb:
                return self._mul_comb(k, comb)
        if P in self.identity_points:
            self._combs.setdefault(P, None)
        if k == 0 or P is None:
            return None
        # the digits after the leading one; "2" stands for -1 and
        # occurs only in the signed digits, which set neg = -P
        digits = bin(k)[3:]
        if self._comb_teeth > 1:
            # the non-adjacent form's digits +1 are the bits of 3k that
            # k lacks, and its digits -1 those of k that 3k lacks, each
            # shifted down one place.  No place holds both, so their
            # binary digits, read as hexadecimal, add without a carry,
            # and 2 * minus puts a "2" at each digit -1
            h = 3 * k
            plus, minus = (h & ~k) >> 1, (k & ~h) >> 1
            digits = f"{int(f'{plus:b}', 16) + 2 * int(f'{minus:b}', 16):x}"[1:]
            neg = (P[0], -P[1] % self.p)
        T = (P[0], P[1], 1)
        for digit in digits:
            T = self._double(T)[0]
            if digit == "1":
                T = self._add_affine(T, P)[0]
            elif digit == "2":
                T = self._add_affine(T, neg)[0]
        return self._to_affine(T)

    def _comb_geometry(self, teeth: int, tables: int) -> tuple[int, tuple[int, ...]]:
        """A comb's columns b and masks, one per table.  Each tooth
        covers a = ceil(bits(q) / teeth) bits, rounded up to a = tables*b
        for b = ceil(a / tables) columns, and table t's mask is the sum
        of 2^(a*j + b*t) over the teeth j.  At most a tables are kept,
        since more would only widen the teeth."""
        a = -(-self.q.bit_length() // teeth)
        tables = min(tables, a)
        b = -(-a // tables)
        a = tables * b
        mask = ((1 << a * teeth) - 1) // ((1 << a) - 1)
        return b, tuple(mask << b * t for t in range(tables))

    def _comb_table(self, Q: tuple[int, int], teeth: int, tables: int = 1) -> _Comb:
        """The comb of a point Q of order q (Lim-Lee, CRYPTO 1994), with
        the columns b and masks of _comb_geometry: the bases
        B_i = 2^(b*i) * Q for i < teeth * tables and, for each table t,
        the sum of the B_i with i = t (mod tables) over each set of
        teeth, keyed by its spread bit pattern, the sum of 2^(b*i) over
        those i.  The tables share the empty set's key 0.  Entries are
        affine, None for the empty set and for a sum that is infinity;
        the bases and the sums are made affine by one batched inversion
        each."""
        b, masks = self._comb_geometry(teeth, tables)
        tables = len(masks)
        T = (Q[0], Q[1], 1)
        chain = [T]
        for _ in range(teeth * tables - 1):
            for _ in range(b):
                T = self._double(T)[0]
            chain.append(T)
        bases = self._to_affine_all(chain)
        sums: dict[int, Jacobian] = {}
        for t in range(tables):
            table: dict[int, Jacobian] = {0: (1, 1, 0)}
            for i in range(t, teeth * tables, tables):
                table.update({key | 1 << b * i: self._add_affine(S, bases[i])[0]
                              for key, S in table.items()})
            sums.update(table)
        return b, masks, dict(zip(sums, self._to_affine_all(list(sums.values()))))

    def _mul_comb(self, k: int, comb: _Comb) -> Point:
        """kQ by Q's comb (_comb_table), for k mod q, which Q's order
        allows.  Column c, from the top down, adds for each table t the
        entry keyed by k >> c under t's mask, that is, bits
        a*j + b*t + c of k; at most b - 1 doublings and one mixed
        addition per table and column."""
        b, masks, table = comb
        k %= self.q
        T = (1, 1, 0)
        for c in range(b - 1, -1, -1):
            if T[2]:
                T = self._double(T)[0]
            for mask in masks:
                A = table[k >> c & mask]
                if A is not None:
                    T = self._add_affine(T, A)[0]
        return self._to_affine(T)

    def _batch_inv(self, values: list[int]) -> list[int]:
        """1/v mod p for every (nonzero) v by one inversion: prefix
        products, then each inverse from the back (Montgomery's trick)."""
        p = self.p
        prefix = [1]
        for v in values:
            prefix.append(prefix[-1] * v % p)
        inv = pow(prefix[-1], -1, p)
        out = [0] * len(values)
        for i in range(len(values) - 1, -1, -1):
            out[i] = inv * prefix[i] % p
            inv = inv * values[i] % p
        return out

    def _to_affine_all(self, chain: list[Jacobian]) -> list[Point]:
        """Every point of chain made affine by one batched inversion;
        Z = 0 is infinity."""
        p = self.p
        z_invs = iter(self._batch_inv([Z for _, _, Z in chain if Z]))
        points: list[Point] = []
        for X, Y, Z in chain:
            if Z == 0:
                points.append(None)
                continue
            zi = next(z_invs)
            zi2 = zi * zi % p
            points.append((X * zi2 % p, Y * zi2 * zi % p))
        return points

    def _to_affine(self, T: Jacobian) -> Point:
        """(X/Z^2, Y/Z^3) with one inversion; Z = 0 is infinity, and
        Z = 1, a comb's sum of one entry (all of toy rP), needs none."""
        X, Y, Z = T
        if Z == 0:
            return None
        if Z == 1:
            return (X, Y)
        p = self.p
        zi = pow(Z, -1, p)
        zi2 = zi * zi % p
        return (X * zi2 % p, Y * zi2 * zi % p)

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
        # (a + bz)(c + dz) with z^2 = -z - 1, Karatsuba: ad + bc is
        # (a + b)(c + d) - ac - bd, so three multiplications
        p = self.p
        a, b = u
        c, d = v
        ac = a * c
        bd = b * d
        return ((ac - bd) % p, ((a + b) * (c + d) - ac - 2 * bd) % p)

    def _f2_sqr(self, u: Fp2) -> Fp2:
        # (a + bz)^2 = (a - b)(a + b) + b(2a - b)z, two multiplications
        p = self.p
        a, b = u
        return ((a - b) * (a + b) % p, b * (2 * a - b) % p)

    def f2_pow(self, u: Fp2, e: int) -> Fp2:
        """u^e for e >= 0 by right-to-left square-and-multiply."""
        result = GT_ONE
        base = u
        while e:
            if e & 1:
                result = self.f2_mul(result, base)
            base = self._f2_sqr(base)
            e >>= 1
        return result

    def gt_pow(self, x: Fp2, k: int) -> Fp2:
        """x^k for x in GT, the order-q subgroup of F_p^2*, and any int k.

        Every base in the program is fixed across calls, as the
        pairing's first argument is: a kept value, g_ID in encryption
        and e(d_A, Q_B) in the key exchange.  So x keeps a comb from its
        first call on (_gt_comb), and x^k is a - 1 squarings and at most
        a - 1 products for its a columns and no inversion; k = 0 mod q
        reads only the entry 1, and every entry of x = 1's comb is 1.
        k is reduced mod q first, which is right in GT alone; the final
        exponentiation's power, of an element whose order need not be
        q, stays with f2_pow.
        """
        k %= self.q
        comb = self._gt_combs.get(x)
        if comb is None:
            comb = self._gt_combs[x] = self._gt_comb(x)
        a, mask, table = comb
        p = self.p
        # column c, from the top down, squares s + tz and multiplies it
        # by the entry keyed by k >> c under the mask, bits a*j + c of k.
        # The square and the product are _f2_sqr's and f2_mul's, written
        # out: the two calls per column cost ta_sweep 0.6% of its run
        # (BENCH_31.json)
        s, t = table[k >> a - 1 & mask]
        for c in range(a - 2, -1, -1):
            s, t = (s - t) * (s + t) % p, t * (2 * s - t) % p
            key = k >> c & mask
            if key:
                e, f = table[key]
                se = s * e
                tf = t * f
                s, t = (se - tf) % p, ((s + t) * (e + f) - se - 2 * tf) % p
        return s, t

    def _gt_comb(self, x: Fp2) -> tuple[int, int, dict[int, Fp2]]:
        """gt_pow's comb of x, with the identity combs' teeth and one
        table: its columns a, its mask and the product of the bases
        x^(2^(a*j)) over each set of teeth, keyed like _comb_table's
        sums; (teeth - 1) * a squarings and 2^teeth - 1 products."""
        a, (mask,) = self._comb_geometry(self._comb_teeth, 1)
        bases = [x]
        for _ in range(self._comb_teeth - 1):
            for _ in range(a):
                x = self._f2_sqr(x)
            bases.append(x)
        table = {0: GT_ONE}
        for j, B in enumerate(bases):
            table.update({key | 1 << a * j: self.f2_mul(S, B)
                          for key, S in table.items()})
        return a, mask, table

    # ---- pairing ----

    def pairing(self, A: Point, B: Point) -> Fp2:
        """Modified Tate pairing e(A, B) for A and B in the order-q subgroup.

        Neither input is checked: callers validate points from outside
        where they enter the program, and no caller passes infinity.
        The value is symmetric, e(A, B) = e(B, A), and callers pass the
        point that stays fixed across calls (P, P_pub or a private key)
        as A: the Miller lines depend on A alone, so they are computed
        on the first call with a given A, kept on this Curve, and each
        later call only evaluates them at B.  When B is one of
        identity_points, the value is kept too, at most one per (A, B)
        pair, and a repeated call returns it.  pairing_count counts
        every call, cached or not; pairings_computed counts the calls
        that ran the Miller loop.

        Miller's algorithm computes f_{q,A} at the distorted image
        psi(B) = (z*xB, yB) of B: each step squares f on a doubling,
        multiplies by the line through T, and divides by the vertical at
        the new point.  The last step is the chord through (q - 1)A = -A,
        the vertical x = xA, and the vertical at qA = infinity is 1.
        _evaluate runs the loop at D = psi(B) - pi(psi(B)) instead, where
        pi is the Frobenius: x_D lies in F_p, so every vertical, the last
        chord among them, lies in F_p and drops out, and only the lines
        are multiplied in.  _miller_lines proves that the value there is
        e(A, B)^2 and which square root is e(A, B).

        The final exponentiation, to (p^2 - 1)/q, puts the result in the
        order-q subgroup of F_p^2*.  It splits into (p - 1) and
        (p + 1)/q.  Because p = 2 (mod 3), z^p = z^2, so the Frobenius
        map is (a + bz)^p = (a - b) - bz, the conjugate, and
        f^(p-1) = conj(f)/f costs one inversion.  Only half the cofactor,
        (p + 1)/2q = 2^95 + 73 on the demo profile, is left for
        square-and-multiply, since D's value is a square.
        """
        self.pairing_count += 1
        if B not in self.identity_points:
            return self._evaluate(A, B)
        value = self._values.get((A, B))
        if value is None:
            value = self._values[(A, B)] = self._evaluate(A, B)
        return value

    def _evaluate(self, A: tuple[int, int], B: tuple[int, int]) -> Fp2:
        """The Miller loop over A's lines at the twist point D of B, then
        the final exponentiation.

        For B = (X, Y), D's coordinates are x_D = -(X^3 + 4)/(3X^2) and
        y_D = (2z + 1)*eta, eta = Y(X^3 - 8)/(9X^3) (_miller_lines), and
        each kept line y + c - lam*x at D, divided by 2*eta, is s + z for
        s = c*k - lam*m + 1/2, where k = 1/(2*eta) and m = x_D*k come
        from one inversion.  A step squares f = a + bz on a doubling and
        multiplies it by s + z, which is (a*s - b, a - b + b*s): with s's
        two products, six F_p products and five reductions on a
        doubling, four and three on an addition.  The final
        exponentiation is pairing's, to (p + 1)/2q after the Frobenius,
        times the Legendre symbol of f's norm, a second inversion and no
        vertical step.

        B of order dividing 6 (X = 0, Y = 0 or X^3 = 8) pairs to 1 before
        the loop: there D is infinity or eta is 0, and e(A, B)^6 = 1 for
        a value whose order divides q, which is prime to 6.  Only a
        ciphertext's U, which ibe.decrypt checks only to be on the
        curve, can be such a point."""
        p = self.p
        self.pairings_computed += 1
        lines = self._lines.get(A)
        if lines is None:
            lines = self._lines[A] = self._miller_lines(A)

        X, Y = B
        X3 = X * X * X % p
        d = 2 * Y * (X3 - 8) % p
        if X == 0 or d == 0:
            return GT_ONE
        inv = pow(d, -1, p)
        # k = 9X^3 / (2Y(X^3 - 8)) and m = x_D*k = -3X(X^3 + 4) / (2Y(X^3 - 8))
        k = 9 * X3 * inv % p
        m = -3 * X * (X3 + 4) * inv % p
        half = (p + 1) // 2  # 1/2 in F_p
        a, b = 1, 0  # f = a + bz
        steps = iter(lines)
        for doubling, c, lam in zip(self._doublings, steps, steps):
            if doubling:
                a, b = (a - b) * (a + b) % p, b * (2 * a - b) % p
            s = (c * k - lam * m + half) % p
            bs = b * s
            a, b = (a * s - b) % p, (a - b + bs) % p
        # Frobenius: f^(p-1) = conj(f) / f = conj(f)^2 / N(f)
        norm = (a * a - a * b + b * b) % p
        ninv = pow(norm, -1, p)
        u, v = self._f2_sqr((a - b, -b))
        value = self.f2_pow((u * ninv % p, v * ninv % p), self.cofactor // 2)
        if self._legendre(norm) == 1:
            return value
        return -value[0] % p, -value[1] % p

    def _legendre(self, n: int) -> int:
        """The Legendre symbol (n/p) of n in F_p*, 1 or -1, by the binary
        Jacobi loop over (n/m), m = p at first: strip the factors 2 of n,
        each flipping the sign when m = 3 or 5 (mod 8), flip when n and m
        are both 3 (mod 4), by quadratic reciprocity, and go on with
        (m mod n / n).  About a quarter of pow(n, (p - 1)/2, p)'s time
        on the demo profile."""
        m = self.p
        sign = 1
        while n:
            twos = (n & -n).bit_length() - 1
            n >>= twos
            if twos & 1 and m & 7 in (3, 5):
                sign = -sign
            if n & m & 3 == 3:
                sign = -sign
            n, m = m % n, n
        return sign

    def _miller_lines(self, A: tuple[int, int]) -> tuple[int, ...]:
        """The Miller lines of A, flat: (c, lam) per step of
        self._doublings, the line y + c - lam*x of the step.

        lam is the slope of the step's line, the tangent at T or the
        chord through T and A, and (x_new, y_new) the step's affine
        result.  The line meets the curve a third time at
        -(x_new, y_new), so c = lam*x_new + y_new.  The points come from
        the Jacobian chain of _double and _add_affine, whose slopes are
        numerator / Z_new; one batched inversion (Montgomery's trick)
        covers the chain's Z's alone, one per step, and lam is the
        numerator times 1/Z_new.  The last step of Miller's loop, the
        chord through (q - 1)A = -A, is the vertical x = xA, and is not
        kept.

        _evaluate reads the lines at D = psi(B) - pi(psi(B)), for
        B = (X, Y), the distortion map psi(x, y) = (zx, y) and the
        Frobenius pi, which sends z to z^2 = -z - 1.  The chord through
        (zX, Y) and (z^2 X, -Y) has slope -2Y(2z + 1)/(3X), since
        (2z + 1)^2 = -3, and adding gives

            x_D = -(X^3 + 4)/(3X^2),  y_D = (2z + 1) * Y(X^3 - 8)/(9X^3).

        x_D lies in F_p, so every vertical x - x_new is in F_p*, and so
        is the last chord x - xA.  The final exponent (p^2 - 1)/q is a
        multiple of p - 1, and c^(p-1) = 1 for every c in F_p*, so the
        final exponentiation sends those factors, and the scale 1/(2*eta)
        of each line, to 1 (Barreto-Kim-Lynn-Scott, CRYPTO 2002): the
        loop keeps only the lines, at s + z each.  No factor is 0, since
        its z coefficient is 1, and D is no multiple of A, since y_D is
        not in F_p when eta is not 0.

        The value at D is not e(A, B) itself.  The reduced Tate pairing
        t is linear in its second point, and t(A, pi(Q)) = t(A, Q)^p,
        since A and the lines are over F_p; t lands in the order-q
        subgroup of F_p^2*, whose elements have norm 1, so x^p = 1/x
        there, and t(A, D) = t(A, psi B)^(1-p) = e(A, B)^2.  With
        h = (p + 1)/q, which is even, and g = f^(p-1), t(A, D) = g^h, so
        g^(h/2) = +-e(A, B), and (g^(h/2))^q = f^((p^2 - 1)/2) is the
        Legendre symbol of the norm N(f) = f^(p+1); e(A, B)^q = 1 and q
        is odd, so e(A, B) is g^(h/2) times that symbol.
        """
        p = self.p
        T = (A[0], A[1], 1)
        chain, slopes = [], []
        for doubling in self._doublings:
            T, num = self._double(T) if doubling else self._add_affine(T, A)
            chain.append(T)
            slopes.append(num)
        lines = []
        z_invs = self._batch_inv([Z for _, _, Z in chain])
        for (X, Y, _), zi, num in zip(chain, z_invs, slopes):
            lam = num * zi % p
            zi2 = zi * zi % p
            x_new = X * zi2 % p
            y_new = Y * zi2 * zi % p
            lines += ((lam * x_new + y_new) % p, lam)
        # T never reaches infinity, 2-torsion or A itself on the way to
        # (q - 1)A = -A, which holds for A of order q
        assert (x_new, y_new) == (A[0], -A[1] % p)
        return tuple(lines)
