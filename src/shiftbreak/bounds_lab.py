"""Exact counters for the finite combinatorial quantities.

Everything here is counted exactly, no estimates: coset-run lengths,
modular hyperbola and energy counts, subgroup shift intersections, product
sets, the spaced-set partition, character sums, and smooth-number counts.
Coset runs and the smooth subgroup are read off G_e and the factored p - 1,
so they build no table over the field; the other counters loop over the
boxes, sets or (for the complete character sums) the field they count.
Energy, product sets and J share one bounded product table (`_products`),
and each character sum is one `field_core.character_sum` call.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import (
    AlgorithmFailure,
    BadV,
    DegeneratePair,
    DegenerateShift,
    NotPrime,
    OutOfRange,
    PrincipalCharacter,
    TooLarge,
    TooSmall,
)
from .field_core import (
    EXHAUSTIVE_CAP,
    LOOP_CAP,
    ExponentParams,
    PrimeContext,
    character_sum,
    is_prime,
    subgroup_elements,
)


@functools.lru_cache(maxsize=4096)
def longest_coset_run(ctx: PrimeContext, params: ExponentParams) -> int:
    """N(e): longest run x+1..x+H of consecutive elements inside one coset
    of G_e.  Runs break at 0, which belongs to no coset.

    For x != 0, -1, x and x + 1 share a coset exactly when (x + 1)/x is in
    G_e, that is when x lies in the link set C = {1/(g - 1) : g in G_e,
    g != 1}.  C holds neither 0 nor -1, so no run wraps around, and N(e) is
    1 plus the longest run of consecutive residues in C.  Cost: O(e) steps
    for e <= EXHAUSTIVE_CAP (the g - 1 are inverted together by prefix
    products and one pow), for any p; TooLarge above it.
    """
    p, e = ctx.p, params.e
    if e > EXHAUSTIVE_CAP:
        raise TooLarge(f"e={e} above exhaustive cap")
    h = pow(ctx.g, params.d, p)  # generates G_e
    # prefix[k] is the product of g - 1 over g = h^1..h^k
    prefix = []
    g = acc = 1
    for _ in range(e - 1):
        prefix.append(acc)
        g = g * h % p
        acc = acc * (g - 1) % p
    # walk back down from g = h^(e-1), with inv the inverse of the product
    # of h^j - 1 up to g's exponent, so that inv * before = 1 / (g - 1)
    inv = pow(acc, -1, p)
    h_inv = pow(h, -1, p)
    links = set()
    for before in reversed(prefix):
        links.add(inv * before % p)
        inv = inv * (g - 1) % p
        g = g * h_inv % p
    best = 0
    for c in links:
        if c - 1 in links:
            continue  # not the start of its run
        end = c + 1
        while end in links:
            end += 1
        best = max(best, end - c)
    return best + 1


def _check_prime(p: int) -> None:
    """The two counters that take a bare p rather than a PrimeContext."""
    if not is_prime(p):
        raise NotPrime(f"p={p} is not prime")


def _in_box(r: int, p: int, h: int) -> int:
    """Number of x in [1, h] with x = r mod p, for h >= 0."""
    return (h - 1 - (r - 1) % p) // p + 1


def _products(p: int, base, k: int, n: int | None = None) -> dict[int, int]:
    """{v: number of k-tuples of base with product v mod p} for n factors (len(base)
    by default), one factor at a time: base once, then |table| * m steps a factor.
    Products commute, so it holds at most min(comb(m + k - 1, k), p) entries, for
    m = min(n, p): TooLarge past EXHAUSTIVE_CAP before base is read; {1: 1} at k = 0."""
    if k == 0:
        return {1: 1}
    m = min(len(base) if n is None else n, p)
    bound = min(math.comb(m + k - 1, k), p)
    if bound > EXHAUSTIVE_CAP:
        raise TooLarge(f"{bound} product-table entries above exhaustive cap")
    table: dict = {}
    for b in base:
        table[b % p] = table.get(b % p, 0) + 1
    factors = list(table.items())  # each factor and its multiplicity
    for _ in range(k - 1):
        nxt: dict = {}
        get = nxt.get
        for v, c in table.items():
            for b, mult in factors:
                w = v * b % p
                nxt[w] = get(w, 0) + c * mult
        table = nxt
    return table


def hyperbola_count(p: int, u: int, v: int, H: int) -> int:
    """Solutions of (x+u)(y+u) = v with 1 <= x, y <= H: each x fixes y mod p.
    H steps in O(1) memory, 1.0-1.6 s at H = 10^6 and so 2-3 minutes at
    LOOP_CAP (extrapolated; 2-core Xeon VM, Python 3.11); TooLarge above."""
    _check_prime(p)
    if v % p == 0:
        raise BadV("v must be invertible")
    if H > LOOP_CAP:
        raise TooLarge(f"H={H} above loop cap")
    count = 0
    for x in range(1, H + 1):
        if xu := (x + u) % p:
            y = (v * pow(xu, -1, p) - u) % p or p  # the least y >= 1
            if y <= H:
                count += _in_box(y, p, H)
    return count


def multiplicative_energy_count(p: int, a: int, H: int) -> int:
    """Quadruples in [1,H]^4 with (a+x1)(a+x2) = (a+x3)(a+x4): the squared counts
    of a + [1, H]'s 2-fold product table, summed.  H^2 steps, TooLarge above LOOP_CAP
    or from H = 1414 at p > 10^6 (H = 1413 at 2^61 - 1: about 1 s and 100 MB)."""
    _check_prime(p)
    if H * H > LOOP_CAP:
        raise TooLarge(f"H^2 = {H * H} above loop cap")
    return sum(c * c for c in _products(p, range(a + 1, a + H + 1), 2).values())


def subgroup_shift_intersection(
    ctx: PrimeContext, params: ExponentParams, shifts
) -> int:
    """|G_e intersect (lambda_1 G_e + mu_1) ... (lambda_m G_e + mu_m)|.

    Cost: (m + 1)*e set inserts for m shifts.  TooLarge above
    e = EXHAUSTIVE_CAP, and where (m + 1)*e passes LOOP_CAP, before G_e is
    listed.
    """
    shifts = list(shifts)
    inserts = (len(shifts) + 1) * params.e
    # above EXHAUSTIVE_CAP, subgroup_elements raises its own TooLarge
    if params.e <= EXHAUSTIVE_CAP and inserts > LOOP_CAP:
        raise TooLarge(f"(m + 1)*e = {inserts} set inserts above loop cap")
    sub = subgroup_elements(ctx, params)
    inter = set(sub)
    p = ctx.p
    for lam, mu in shifts:
        if lam % p == 0 or mu % p == 0:
            raise DegenerateShift("lambda and mu must be nonzero")
        inter &= {(lam * g + mu) % p for g in sub}
    return len(inter)


def product_count_J(
    ctx: PrimeContext, nu: int, lam: int, s: int, h: int
) -> int:
    """Tuples (x_1..x_nu) in [1,h]^nu with prod (x_i + s) = lambda.  A product is 0
    exactly when a factor is, so lambda = 0 counts h^nu - (h - z)^nu, z the x in
    [1, h] with x + s = 0.  Any other lambda fixes x_nu = lambda/v - s for each
    product v != 0 of the first nu - 1 factors: at most h^nu steps, TooLarge above
    LOOP_CAP, so at most 171,700 table entries.  OutOfRange unless nu, h >= 1."""
    p = ctx.p
    if nu < 1 or h < 1:
        raise OutOfRange(f"nu={nu} and h={h} must be at least 1")
    if h**nu > LOOP_CAP:
        raise TooLarge(f"h^nu = {h**nu} above loop cap")
    if lam % p == 0:
        return h**nu - (h - _in_box(-s, p, h)) ** nu
    head = _products(p, range(s + 1, s + h + 1), nu - 1)  # x_1 .. x_(nu-1)
    return sum(c * _in_box(lam * pow(v, -1, p) - s, p, h) for v, c in head.items() if v)


def product_set_size(
    ctx: PrimeContext, nu: int, s: int, t: int | None, h: int
) -> int:
    """|A^(nu)| for A = {x+s : 1<=x<=h} or {(x+s)/(x+t) : 1<=x<=h, x != -t},
    the size of A's nu-fold product table.  At most h^nu steps, TooLarge above
    LOOP_CAP or where the table could pass EXHAUSTIVE_CAP entries (p > 10^6,
    from h = 10^6 + 1, 1414, 181, 69 at nu = 1-4).  OutOfRange unless nu, h >= 1."""
    p = ctx.p
    if nu < 1 or h < 1:
        raise OutOfRange(f"nu={nu} and h={h} must be at least 1")
    if h**nu > LOOP_CAP:
        raise TooLarge(f"h^nu = {h**nu} above loop cap")
    xs = range(1, h + 1)
    base = range(s + 1, s + h + 1) if t is None else _fractions(p, s, t, xs)
    return len(_products(p, base, nu, h))


@dataclass(frozen=True)
class SpacedPartition:
    d_sets: tuple[tuple[int, ...], ...]
    e_sets: tuple[tuple[int, ...], ...]
    leftover: tuple[int, ...]


def _circ_dist(a: int, b: int, p: int) -> int:
    d = (a - b) % p
    return min(d, p - d)


def _greedy_maximal_spaced(elements, U: float, p: int) -> list[int]:
    """Maximal-by-inclusion U-spaced subset, ascending sweep."""
    chosen: list[int] = []
    for x in sorted(elements):
        if all(_circ_dist(x, c, p) >= U for c in chosen):
            chosen.append(x)
    return chosen


def spaced_partition(p: int, S, kappa: float) -> SpacedPartition:
    """Partition of S into sqrt(p)/3-spaced sets D_k, window sets E_l whose
    dilation by floor(sqrt p) is spaced, and a small leftover."""
    if p < 37:
        raise TooSmall("p must be at least 37")
    S = sorted({x % p for x in S})
    size = len(S)
    undersized = size < 16 * p ** (2 * kappa)
    U = math.sqrt(p) / 3
    need_d = math.sqrt(size)
    remaining = set(S)
    d_sets = []
    while True:
        cand = _greedy_maximal_spaced(remaining, U, p)
        if not cand or len(cand) < need_d:
            centers = cand  # maximal: every leftover is within U of a center
            break
        d_sets.append(tuple(cand))
        remaining -= set(cand)
    # windows x + [-U, U] around the centers
    windows = []
    for x in centers:
        win = sorted(
            y for y in remaining if _circ_dist(y, x, p) <= U
        )
        windows.append(win)
    qual_threshold = p ** (-kappa) * math.sqrt(size)
    qualified = [win for win in windows if len(win) > qual_threshold]
    # disjointify: an element sits in at most two windows; shared runs are
    # split half and half between the two owners
    owners: dict = {}
    for idx, win in enumerate(qualified):
        for y in win:
            owners.setdefault(y, []).append(idx)
    e_sets: list[set] = [set() for _ in qualified]
    shared: dict = {}
    for y, who in owners.items():
        if len(who) == 1:
            e_sets[who[0]].add(y)
        else:
            shared.setdefault((who[0], who[1]), []).append(y)
    for (i, j), ys in shared.items():
        ys.sort()
        half = len(ys) // 2
        e_sets[i].update(ys[:half])
        e_sets[j].update(ys[half:])
    covered = set().union(*e_sets) if e_sets else set()
    leftover = tuple(sorted(remaining - covered))
    part = SpacedPartition(
        d_sets=tuple(tuple(sorted(d)) for d in d_sets),
        e_sets=tuple(tuple(sorted(es)) for es in e_sets),
        leftover=leftover,
    )
    if undersized:
        # Below the guaranteed size range the construction may still succeed;
        # fail loudly only when the properties genuinely do not hold.
        try:
            check_spaced_partition(p, S, kappa, part)
        except AlgorithmFailure as exc:
            raise TooSmall(f"|S|={size} below 16*p^(2 kappa): {exc}") from exc
    return part


def check_spaced_partition(p: int, S, kappa: float, part: SpacedPartition) -> None:
    """Mechanical check of the four partition properties; AlgorithmFailure
    names the first one that fails."""
    S = sorted({x % p for x in S})
    size = len(S)
    U = math.sqrt(p) / 3
    xi = math.isqrt(p)
    min_size = 0.25 * p ** (-kappa) * math.sqrt(size)
    pieces = list(part.d_sets) + list(part.e_sets)
    all_elems = [x for piece in pieces for x in piece] + list(part.leftover)

    def close(piece):
        pairs = itertools.combinations(piece, 2)
        return any(_circ_dist(a, b, p) < U for a, b in pairs)

    if any(len(piece) < min_size for piece in pieces):
        raise AlgorithmFailure("property (i) violated")
    if len(all_elems) != len(set(all_elems)):
        raise AlgorithmFailure("pieces overlap")
    if set(all_elems) != set(S):
        raise AlgorithmFailure("partition does not cover S")
    if any(close(d) for d in part.d_sets):
        raise AlgorithmFailure("property (ii) violated")
    if any(close([x * xi % p for x in es]) for es in part.e_sets):
        raise AlgorithmFailure("property (iii) violated")
    if len(part.leftover) > 2 * p ** (-kappa) * size:
        raise AlgorithmFailure("property (iv) violated")


def _fractions(p: int, s: int, t: int, xs):
    """(x + s)/(x + t) mod p for the x in xs with x != -t; DegeneratePair
    where s = t, raised by the call itself, before any item."""
    if (s - t) % p == 0:
        raise DegeneratePair("s and t must differ")
    return ((x + s) * pow(x + t, -1, p) % p for x in xs if (x + t) % p)


def char_sum_fraction(
    ctx: PrimeContext, params: ExponentParams, j: int, s: int, t: int, h: int
) -> complex:
    """Sum over x = 1..h, x != -t, of chi_j((x+s)/(x+t)); TooLarge where
    h > LOOP_CAP."""
    if h > LOOP_CAP:
        raise TooLarge(f"h={h} above loop cap")
    return character_sum(ctx, params, j, _fractions(ctx.p, s, t, range(1, h + 1)))


def char_sum_fraction_complete(
    ctx: PrimeContext, params: ExponentParams, j: int, s: int, t: int
) -> complex:
    """Complete sum over all x in F_p except x = -t; equals -1 for j != 0.
    One pow per term (`character_sum`): 2.2 s at p = 1000003 and about 4-5
    minutes near p = LOOP_CAP (extrapolated, not run; 2-core Xeon VM,
    Python 3.11); TooLarge where p > LOOP_CAP."""
    if ctx.p > LOOP_CAP:
        raise TooLarge(f"p={ctx.p} above loop cap")
    return character_sum(ctx, params, j, _fractions(ctx.p, s, t, range(ctx.p)))


def char_sum_interval(
    ctx: PrimeContext, params: ExponentParams, j: int, h: int
) -> complex:
    """Sum over y = 1..h of chi_j(y); TooLarge where h > LOOP_CAP."""
    if j % params.d == 0:
        raise PrincipalCharacter("j must be nonprincipal")
    if h > LOOP_CAP:
        raise TooLarge(f"h={h} above loop cap")
    return character_sum(ctx, params, j, range(1, h + 1))


def char_sum_shifted_power(
    ctx: PrimeContext, params: ExponentParams, j: int, f: int, a: int
) -> complex:
    """Sum over x in F_p of chi_j(x^f + a), for f >= 0 (x = 0 has no
    negative power): OutOfRange where f < 0; TooLarge where p > LOOP_CAP."""
    if f < 0:
        raise OutOfRange(f"f={f} must be non-negative")
    if j % params.d == 0:
        raise PrincipalCharacter("j must be nonprincipal")
    p = ctx.p
    if p > LOOP_CAP:
        raise TooLarge(f"p={p} above loop cap")
    return character_sum(ctx, params, j, (pow(x, f, p) + a for x in range(p)))


def psi_count(x: int, y: int) -> int:
    """Psi(x, y): number of y-smooth integers in [1, x], for x <= LOOP_CAP.

    Buchstab's identity Psi(m, p_k) = Psi(m, p_{k-1}) + Psi(m // p_k, p_k),
    unrolled on an explicit stack down to Psi(m, p_k) = m once p_k >= m and
    Psi(m, 2) = m.bit_length().  Cost: a sieve of the primes up to y (y + 1
    bytes), one step per prime up to y for x itself, and one step per prime
    up to lpf(n) for every y-smooth n > 1 with n * lpf(n) < x, where lpf(n)
    is the least prime factor of n.  At x = LOOP_CAP that is about 12 ms for
    y = 30 and at most about 4 s for any y (Python 3.11, one Xeon core).
    """
    if x > LOOP_CAP:
        raise TooLarge(f"x={x} above loop cap")
    if x < 1:
        return 0
    if y >= x:
        return x
    if y < 2:
        return 1
    flags = bytearray([1]) * (y + 1)
    flags[:2] = b"\0\0"
    for q in range(2, math.isqrt(y) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, y + 1, q)))
    root = max(math.isqrt(x), 2)  # the stack needs 2 among its primes
    # A prime q > sqrt(x) has x // q < q, so Psi(x // q, q) = x // q; these
    # are summed by value, v times the number of primes q with x // q = v.
    total = 0
    hi = y
    while hi > root:
        v = x // hi
        lo = max(x // (v + 1), root)
        total += v * flags.count(1, lo + 1, hi + 1)
        hi = lo
    primes = list(itertools.compress(range(min(y, root) + 1), flags))
    stack = [(x, len(primes))]  # Psi(m, primes[k - 1]), with primes[k - 1] < m
    while stack:
        m, k = stack.pop()
        total += m.bit_length()
        for j in range(1, k):
            q = primes[j]
            r = m // q
            if r <= q:  # every Psi(m // q, q) from here on is m // q
                total += sum(m // q for q in primes[j:k])
                break
            stack.append((r, j + 1))
    return total


def smooth_subgroup_order(ctx: PrimeContext, y: int) -> int:
    """Order of the subgroup of F_p^* generated by 1..y.

    F_p^* is cyclic, so this is the lcm of the orders of 2..min(y, p - 1),
    each read off the factored p - 1 with one pow per prime factor counted
    with multiplicity.  The lcm reaches p - 1 at the least primitive root at
    the latest, and the loop stops there.
    """
    p = ctx.p
    order = 1
    for x in range(2, min(y, p - 1) + 1):
        if order == p - 1:
            break
        n = p - 1
        for q, k in ctx.group_order_factors:
            for _ in range(k):
                if pow(x, n // q, p) != 1:
                    break
                n //= q
        order = math.lcm(order, n)
    return order
