"""Independent naive loops that the `cli_lab` rows are checked against.

Each function recounts one lab lemma from its definition, sharing no code
with `shiftbreak.bounds_lab`.
"""

from __future__ import annotations

import itertools
import math


def coset_run(p: int, e: int) -> int:
    ids = [pow(x, e, p) for x in range(p)]
    best = run = 1
    for x in range(2, p):
        run = run + 1 if ids[x] == ids[x - 1] else 1
        best = max(best, run)
    return best


def hyperbola(p: int, u: int, v: int, H: int) -> int:
    return sum(
        1
        for x in range(1, H + 1)
        for y in range(1, H + 1)
        if (x + u) * (y + u) % p == v % p
    )


def energy(p: int, a: int, H: int) -> int:
    vals = [(a + x) % p for x in range(1, H + 1)]
    return sum(
        1
        for x1 in vals
        for x2 in vals
        for x3 in vals
        for x4 in vals
        if x1 * x2 % p == x3 * x4 % p
    )


def subgroup_shift(p: int, e: int, shifts) -> int:
    sub = {x for x in range(1, p) if pow(x, e, p) == 1}
    out = set(sub)
    for lam, mu in shifts:
        out &= {(lam * g + mu) % p for g in sub}
    return len(out)


def product_J(p: int, nu: int, lam: int, s: int, h: int) -> int:
    return sum(
        1
        for xs in itertools.product(range(1, h + 1), repeat=nu)
        if math.prod((x + s) % p for x in xs) % p == lam % p
    )


def product_set(p: int, nu: int, s: int, t: int | None, h: int) -> int:
    if t is None:
        base = [(x + s) % p for x in range(1, h + 1)]
    else:
        base = [
            (x + s) * pow(x + t, -1, p) % p
            for x in range(1, h + 1)
            if (x + t) % p != 0
        ]
    return len({math.prod(c) % p for c in itertools.product(base, repeat=nu)})


def psi(x: int, y: int) -> int:
    primes = [q for q in range(2, y + 1) if all(q % r for r in range(2, q))]
    count = 0
    for n in range(1, x + 1):
        for q in primes:
            while n % q == 0:
                n //= q
        count += n == 1
    return count


def smooth_subgroup(p: int, y: int) -> int:
    """Order of <1..y> in the cyclic group F_p^*: lcm of the element orders."""
    order = 1
    for x in range(1, min(y, p - 1) + 1):
        k, acc = 1, x % p
        while acc != 1:
            acc = acc * x % p
            k += 1
        order = math.lcm(order, k)
    return order
