"""Prime-field substrate: contexts, factorization, subgroups, indices, characters.

Everything here is pure and immutable after construction.  A context factors
p - 1 by trial division below 2^10 and Pollard-Brent rho beyond it: about
(p - 1)^(1/4) steps at most, tens of milliseconds for any p < 2^61.  The
characters trivial on G_e read ind(x) mod d off x^e in a d-entry index
table, so they run for every p < 2^61 with d up to EXHAUSTIVE_CAP.  The
dense power table is O(p) and serves only the routine that enumerates the
whole field: the exhaustive two-oracle identity window.
"""

from __future__ import annotations

import cmath
import collections
import functools
import itertools
import math
from dataclasses import dataclass

from .errors import NotDividing, NotPrime, Overflow, TooLarge

MAX_P = 2**61
# Largest e for the routines that walk G_e or make e + 1 queries: the e-th
# root sets, the interpolation baseline, the longest coset run and the list
# of G_e.  Also the largest d for the index table of the characters.
EXHAUSTIVE_CAP = 10**6
# Largest number of steps for the loops whose cost is a stated product: the
# lab's boxes, the exhaustive identity window and a narrowing window's pows.
LOOP_CAP = 10**8

# Witness set valid for deterministic Miller-Rabin below 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
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


# Trial division runs over the primes below this bound only, so every n below
# its square is factored by trial division alone.
_TRIAL_BOUND = 2**10
_TRIAL_PRIMES = tuple(q for q in range(2, _TRIAL_BOUND) if is_prime(q))
# Steps of the rho walk whose differences share one gcd.
_RHO_BATCH = 128


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factorization of n >= 1 as ((prime, multiplicity), ...), primes ascending.

    Trial division by the primes below 2^10 first.  A cofactor left over that
    is composite (possible only from n >= 2^20) is split by Pollard-Brent rho,
    about n^(1/4) steps on the cofactor, with the primes confirmed by the
    deterministic is_prime.
    """
    out = []
    m = n
    for q in _TRIAL_PRIMES:
        if q * q > m:
            break
        if m % q == 0:
            k = 0
            while m % q == 0:
                m //= q
                k += 1
            out.append((q, k))
    if m < _TRIAL_BOUND * _TRIAL_BOUND:
        # no prime factor below min(sqrt(m), _TRIAL_BOUND): m is 1 or prime
        if m > 1:
            out.append((m, 1))
        return tuple(out)
    large: dict[int, int] = {}
    pending = [m]
    while pending:
        m = pending.pop()
        if is_prime(m):
            large[m] = large.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            pending += (d, m // d)
    return tuple(out) + tuple(sorted(large.items()))


def _rho_divisor(n: int) -> int:
    """A divisor 1 < d < n of the composite n, which has no prime factor below
    _TRIAL_BOUND: Brent's cycle search on x -> x^2 + c (c = 1, 2, ...) from 2,
    with the gcd taken once per _RHO_BATCH steps."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


@dataclass(frozen=True)
class PrimeContext:
    p: int
    g: int  # least primitive root
    group_order_factors: tuple[tuple[int, int], ...]  # factorization of p-1

    def __hash__(self) -> int:
        # p determines every other field, so cache keys skip the factor tuple
        return hash(self.p)


@dataclass(frozen=True)
class ExponentParams:
    e: int
    d: int  # (p-1)/e
    e_factors: tuple[tuple[int, int], ...]

    def __hash__(self) -> int:
        # (e, d) fixes p = e*d + 1, so equal hashes share p as well as e
        return hash((self.e, self.d))


def make_context(p: int) -> PrimeContext:
    if not (3 <= p < MAX_P):
        raise Overflow(f"p={p} outside [3, 2^61)")
    if not is_prime(p):
        raise NotPrime(f"p={p} is composite")
    factors = factorize(p - 1)
    g = _least_primitive_root(p, factors)
    return PrimeContext(p=p, g=g, group_order_factors=factors)


def _least_primitive_root(p: int, factors: tuple[tuple[int, int], ...]) -> int:
    for g in range(2, p):
        if all(pow(g, (p - 1) // ell, p) != 1 for ell, _ in factors):
            return g
    raise NotPrime(f"no primitive root found for p={p}")


def make_params(ctx: PrimeContext, e: int) -> ExponentParams:
    if e < 1 or (ctx.p - 1) % e != 0:
        raise NotDividing(f"e={e} does not divide p-1={ctx.p - 1}")
    return ExponentParams(e=e, d=(ctx.p - 1) // e, e_factors=factorize(e))


def coset_walk(x: int, h: int, size: int, p: int):
    """Yield x, x*h, ..., x*h^(size-1) mod p."""
    for _ in range(size):
        yield x
        x = x * h % p


def subgroup_elements(ctx: PrimeContext, params: ExponentParams) -> tuple[int, ...]:
    """The order-e subgroup G_e = {x : x^e = 1}, sorted ascending; TooLarge
    above e = EXHAUSTIVE_CAP."""
    if params.e > EXHAUSTIVE_CAP:
        raise TooLarge(f"e={params.e} above the exhaustive cap {EXHAUSTIVE_CAP}")
    return tuple(sorted(coset_walk(1, pow(ctx.g, params.d, ctx.p), params.e, ctx.p)))


@functools.lru_cache(maxsize=1)
def build_index_table(ctx: PrimeContext, params: ExponentParams) -> dict[int, int]:
    """{(g^e)^k: k for k in range(d)}, so table[x^e] = ind(x) mod d for x != 0.
    O(d) time and memory for any p; TooLarge above d = EXHAUSTIVE_CAP.  Only
    the last table is cached, so the cache holds at most 10^6 entries."""
    p, d = ctx.p, params.d
    if d > EXHAUSTIVE_CAP:
        raise TooLarge(f"d={d} above the exhaustive cap {EXHAUSTIVE_CAP}")
    return {y: k for k, y in enumerate(coset_walk(1, pow(ctx.g, params.e, p), d, p))}


def character_sum(ctx: PrimeContext, params: ExponentParams, j: int, values) -> complex:
    """Sum of chi_j(v) = exp(2*pi*i * j * ind(v) / d) over the values v, with
    chi_j(0) = 0.  These d characters are exactly those trivial on G_e, so
    chi_j(v) reads ind(v) mod d = table[v^e] (`build_index_table`): the
    values are counted by class, then one root of unity is added per class.
    Cost: the O(d) table once per (p, e) and one pow per value, so a sum
    over the field near p = 10^6 takes 3.4-3.8 s, up to 25% more than with
    a p-entry index (2-core Xeon VM, Python 3.11).  TooLarge above
    d = EXHAUSTIVE_CAP.
    """
    p, e, d = ctx.p, params.e, params.d
    table = build_index_table(ctx, params)
    counts = collections.Counter(table[pow(v, e, p)] for v in values if v % p)
    roots = (n * cmath.exp(2j * math.pi * (j * k % d) / d) for k, n in counts.items())
    return sum(roots, 0j)


def character_eval(
    ctx: PrimeContext, params: ExponentParams, j: int, x: int
) -> complex:
    """chi_j(x): `character_sum` over the one value x."""
    return character_sum(ctx, params, j, (x,))


def least_nonresidue(ctx: PrimeContext, ell: int) -> int:
    """Smallest a >= 2 that is not an ell-th power residue mod p."""
    p = ctx.p
    exp = (p - 1) // ell
    for a in range(2, p):
        if pow(a, exp, p) != 1:
            return a
    raise NotDividing(f"every residue is an {ell}-th power mod {p}")


@functools.lru_cache(maxsize=128)
def power_table(p: int, e: int) -> tuple[int, ...]:
    """Dense x -> x^e mod p for x in [0, p).

    O(p) time and memory: for the one full-field enumeration only,
    exact_unknown_window under LOOP_CAP.  Recovery solves its candidate sets
    with consecutive_roots and computes (t + x)^e with pow, and
    longest_coset_run reads the coset runs off G_e.
    """
    return tuple(pow(x, e, p) for x in range(p))
