"""Independent reference implementations used to cross-check the library.

Nothing in here imports ibetrust.  The point is to compute the same
quantities by different routes: exhaustive enumeration instead of
formulas where feasible, additive scalar multiplication, and a Tate
pairing evaluated on divisors over the full quadratic extension rather
than on a single distorted point.  Agreement between these and the
library is what the derived test vectors rest on.
"""

import hashlib
import random


def enumerate_points(p):
    """All affine points of y^2 = x^3 + 1 over F_p, by brute force."""
    pts = []
    squares = {}
    for y in range(p):
        squares.setdefault(y * y % p, []).append(y)
    for x in range(p):
        rhs = (x * x * x + 1) % p
        for y in squares.get(rhs, []):
            pts.append((x, y))
    return pts


def add(p, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def naive_mul(p, k, P):
    """Scalar multiplication by repeated addition, no windowing tricks."""
    if k < 0:
        return naive_mul(p, -k, None if P is None else (P[0], -P[1] % p))
    R = None
    for _ in range(k):
        R = add(p, R, P)
    return R


def double_and_add(p, k, P):
    """Right-to-left double-and-add over affine add, for fields where
    naive_mul's k additions are too many."""
    if k < 0:
        return double_and_add(p, -k, None if P is None else (P[0], -P[1] % p))
    R = None
    while k:
        if k & 1:
            R = add(p, R, P)
        P = add(p, P, P)
        k >>= 1
    return R


def non_adjacent_form(k):
    """The digits of k > 0 in non-adjacent form, top digit first, by the
    textbook right-to-left recoding: an odd k takes the digit 2 - k mod 4."""
    digits = []
    while k:
        d = 2 - k % 4 if k & 1 else 0
        digits.append(d)
        k = (k - d) // 2
    return digits[::-1]


def jacobian_double(p, T):
    """2T for T = (X, Y, Z) on an a = 0 curve in Jacobian coordinates by
    dbl-2009-l (Bernstein-Lange, Explicit-Formulas Database), reducing
    after every product, and E = 3X^2, the tangent slope's numerator."""
    X, Y, Z = T
    A = X * X % p
    B = Y * Y % p
    C = B * B % p
    D = 2 * ((X + B) ** 2 - A - C) % p
    E = 3 * A % p
    F = E * E % p
    X3 = (F - 2 * D) % p
    return (X3, (E * (D - X3) - 8 * C) % p, 2 * Y * Z % p), E


def map_to_point(p, q, identity):
    """Identity to order-q point: sha256 -> y, cube root -> x, clear cofactor."""
    cofactor = (p + 1) // q
    e = (2 * p - 1) // 3
    attempt = identity
    counter = 0
    while True:
        y0 = int.from_bytes(hashlib.sha256(attempt.encode()).digest(), "big") % p
        x0 = pow((y0 * y0 - 1) % p, e, p)
        Q = naive_mul(p, cofactor, (x0, y0))
        if Q is not None:
            return Q
        counter += 1
        attempt = identity + str(counter)


# ---- quadratic extension F_p[z]/(z^2 + z + 1), elements (a, b) = a + b*z ----


def f2_add(p, u, v):
    return ((u[0] + v[0]) % p, (u[1] + v[1]) % p)


def f2_sub(p, u, v):
    return ((u[0] - v[0]) % p, (u[1] - v[1]) % p)


def f2_mul(p, u, v):
    a, b = u
    c, d = v
    ac, bd = a * c % p, b * d % p
    return ((ac - bd) % p, (a * d + b * c - bd) % p)


def f2_inv(p, u):
    a, b = u
    ninv = pow((a * a - a * b + b * b) % p, -1, p)
    return ((a - b) * ninv % p, -b * ninv % p)


def f2_pow(p, u, e):
    r = (1, 0)
    while e:
        if e & 1:
            r = f2_mul(p, r, u)
        u = f2_mul(p, u, u)
        e >>= 1
    return r


def ec2_add(p, P, Q):
    """Group law on y^2 = x^3 + 1 with coordinates in F_p^2."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and f2_add(p, y1, y2) == (0, 0):
        return None
    if P == Q:
        lam = f2_mul(p, f2_mul(p, (3, 0), f2_mul(p, x1, x1)), f2_inv(p, f2_mul(p, (2, 0), y1)))
    else:
        lam = f2_mul(p, f2_sub(p, y2, y1), f2_inv(p, f2_sub(p, x2, x1)))
    x3 = f2_sub(p, f2_sub(p, f2_mul(p, lam, lam), x1), x2)
    y3 = f2_sub(p, f2_mul(p, lam, f2_sub(p, x1, x3)), y1)
    return (x3, y3)


def lift(P):
    if P is None:
        return None
    return ((P[0], 0), (P[1], 0))


def distort(P):
    """(x, y) -> (z*x, y) into the extension."""
    if P is None:
        return None
    return ((0, P[0]), (P[1], 0))


def _miller_fp2(p, q, A, X):
    """f_{q,A} evaluated at the F_p^2 point X, all lines over F_p^2."""
    Al = lift(A)

    def line(T, U, V):
        x1, y1 = T
        x2, y2 = U
        xv, yv = V
        if x1 == x2 and f2_add(p, y1, y2) == (0, 0):
            return f2_sub(p, xv, x1)
        if T == U:
            lam = f2_mul(p, f2_mul(p, (3, 0), f2_mul(p, x1, x1)), f2_inv(p, f2_mul(p, (2, 0), y1)))
        else:
            lam = f2_mul(p, f2_sub(p, y2, y1), f2_inv(p, f2_sub(p, x2, x1)))
        return f2_sub(p, f2_sub(p, yv, y1), f2_mul(p, lam, f2_sub(p, xv, x1)))

    def vert(T, V):
        if T is None:
            return (1, 0)
        return f2_sub(p, V[0], T[0])

    num, den = (1, 0), (1, 0)
    T = Al
    for bit in bin(q)[3:]:
        num = f2_mul(p, f2_mul(p, num, num), line(T, T, X))
        T = ec2_add(p, T, T)
        den = f2_mul(p, f2_mul(p, den, den), vert(T, X))
        if bit == "1":
            num = f2_mul(p, num, line(T, Al, X))
            T = ec2_add(p, T, Al)
            den = f2_mul(p, den, vert(T, X))
    assert T is None
    if num == (0, 0) or den == (0, 0):
        raise ZeroDivisionError("degenerate evaluation point")
    return f2_mul(p, num, f2_inv(p, den))


def pairing(p, q, A, B, rng=None):
    """Modified Tate pairing via the divisor (distort(B) + S) - (S).

    S is a random auxiliary point of the curve over F_p^2; the value is
    independent of the choice, which is itself a useful invariant.  A
    degenerate draw (aux point landing on an evaluation line) retries.
    """
    if A is None or B is None:
        return (1, 0)
    if rng is None:
        rng = random.Random(0xA0C)
    phiB = distort(B)
    while True:
        y1 = rng.randrange(p)
        y2 = rng.randrange(p)
        e = (2 * p - 1) // 3
        P1 = (pow((y1 * y1 - 1) % p, e, p), y1)
        P2 = (pow((y2 * y2 - 1) % p, e, p), y2)
        S = ec2_add(p, lift(P1), distort(P2))
        if S is None or S == phiB:
            continue
        try:
            f1 = _miller_fp2(p, q, A, ec2_add(p, phiB, S))
            f2 = _miller_fp2(p, q, A, S)
        except (ZeroDivisionError, ValueError):
            continue
        val = f2_mul(p, f1, f2_inv(p, f2))
        return f2_pow(p, val, (p * p - 1) // q)


def full_encrypt(p, q, n, generator, master_pub, identity, message, sigma):
    """From-scratch one-block encryption: U = rP, V = sigma ^ H2(g^r),
    W = m ^ H4(sigma), with r = H3(sigma, m) in [1, q-1]."""
    coord = (p.bit_length() + 7) // 8
    r = int.from_bytes(hashlib.sha256(sigma + message).digest(), "big") % (q - 1) + 1
    U = naive_mul(p, r, generator)
    g = pairing(p, q, map_to_point(p, q, identity), master_pub)
    gr = f2_pow(p, g, r)
    gt_bytes = gr[0].to_bytes(coord, "big") + gr[1].to_bytes(coord, "big")
    mask = hashlib.sha256(gt_bytes).digest()[: n // 8]
    V = bytes(a ^ b for a, b in zip(sigma, mask))
    pad = hashlib.sha256(sigma).digest()[: len(message)]
    W = bytes(a ^ b for a, b in zip(message, pad))
    return U, V, W


class FixedSeed:
    """A stand-in for ibe.encrypt's rng whose randbytes returns one
    frozen seed, which pins the whole ciphertext."""

    def __init__(self, sigma):
        self.sigma = sigma

    def randbytes(self, n):
        assert n == len(self.sigma)
        return self.sigma
