"""Brute-force references shared by the test modules."""

import itertools
import math

from shiftbreak import field_core as fc


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def primes_below(n):
    return [p for p in range(3, n) if fc.is_prime(p)]


def naive_index(ctx):
    """Dense ind with g^ind[x] = x and ind[x] in [1, p-1] for x in [1, p);
    ind[1] = p-1 by convention, and ind[0] is 0 and unused."""
    p = ctx.p
    ind = [0] * p
    x = 1
    for z in range(1, p):
        x = x * ctx.g % p
        ind[x] = z
    return ind


def naive_hyperbola(p, u, v, H):
    return sum(
        1
        for x in range(1, H + 1)
        for y in range(1, H + 1)
        if (x + u) * (y + u) % p == v % p
    )


def naive_energy(p, a, H):
    vals = [(a + x) % p for x in range(1, H + 1)]
    return sum(
        1
        for x1 in vals
        for x2 in vals
        for x3 in vals
        for x4 in vals
        if x1 * x2 % p == x3 * x4 % p
    )


def naive_J(p, nu, lam, s, h):
    return sum(
        1
        for xs in itertools.product(range(1, h + 1), repeat=nu)
        if math.prod((x + s) % p for x in xs) % p == lam % p
    )
