"""One-shot search for the demo profile field constants.

Finds the smallest 160-bit prime q, then the smallest cofactor of the
form 3*m such that p = 3*m*q - 1 is a 256-bit prime.  That shape gives
p = 2 (mod 3) and q | p + 1 by construction, 32-byte coordinates (so
64-byte serialized points), and a prime-order subgroup big enough that
the toy profile's exhaustive checks do not carry over by accident.

The search is fully deterministic: rerunning this script must print the
same constants that are frozen into ibetrust.ibe.PROFILES["demo"].

Usage: python tools/gen_demo_params.py
"""

import random

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


def search() -> tuple[int, int]:
    """The demo profile's (q, p); the cofactor is (p + 1) // q = 3*m."""
    q = 2**159 + 1
    while not is_probable_prime(q):
        q += 2
    m = (2**255) // (3 * q) + 1
    while True:
        p = 3 * m * q - 1
        if p.bit_length() == 256 and is_probable_prime(p):
            return q, p
        m += 1


def main():
    q, p = search()
    cofactor = (p + 1) // q
    print(f"q bits: {q.bit_length()}")
    print(f"q = {q:#x}")
    print(f"m = {cofactor // 3}")
    print(f"p bits: {p.bit_length()}")
    print(f"p = {p:#x}")
    print(f"cofactor = 3*m = {cofactor:#x}")

    assert p % 3 == 2
    assert (p + 1) % q == 0
    assert cofactor % 3 == 0
    print("checks: p = 2 mod 3, q | p+1: ok")


if __name__ == "__main__":
    main()
