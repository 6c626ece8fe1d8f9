"""Brute-force references shared by the test modules, and the one launcher
of bounded subprocesses."""

import itertools
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

from shiftbreak import field_core as fc
from shiftbreak.shift_recovery import calls_bound


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


def naive_product_set(p, nu, s, t, h):
    if t is None:
        base = [(x + s) % p for x in range(1, h + 1)]
    else:
        base = [
            (x + s) * pow(x + t, -1, p) % p
            for x in range(1, h + 1)
            if (x + t) % p != 0
        ]
    if not base:
        return 0
    return len({math.prod(c) % p for c in itertools.product(base, repeat=nu)})


def naive_run_scan(p, e):
    """The longest coset run by the dense scan over x = 1..p-1, where x^e
    names the coset of x (the table is built locally, so none stays in
    power_table's cache)."""
    tab = [pow(x, e, p) for x in range(p)]
    best = run = 1
    for x in range(2, p):
        run = run + 1 if tab[x] == tab[x - 1] else 1
        best = max(best, run)
    return best


def known_t_reference(oracle, t, h):
    """The known-t tester's per-probe loop: probe x = 1/y - t for y = 1..h,
    computing the inverse and the local power (1/y)^e on every probe."""
    p, e = oracle.p, oracle.e
    for y in range(1, h + 1):
        inv = pow(y, -1, p)
        if oracle.query(inv - t) != pow(inv, e, p):
            return "distinct"
    return "equal"


def optimal_worst_calls(p, e):
    """Least worst-case oracle calls, over every s, of any adaptive strategy
    that queries one point at a time and always finds s.

    The first query is x = 0 (translating s moves any first query there).
    Its answer 0 leaves s = 0; any other answer leaves a coset s0*G_e, and
    dilating x by s0 maps the search on G_e to the search on s0*G_e, so the
    worst case is 1 + opt(G_e).  opt(S) = 0 at |S| = 1, and otherwise 1 plus
    the least, over points x that split S, of the largest opt over the
    answer classes of x.  Memoised on the candidate tuple; a branch stops
    once it reaches the best found so far, and the scan over x stops at the
    counting bound `calls_bound(|S|, d)`.
    """
    d = (p - 1) // e
    exact = {}
    at_least = {}

    def solve(S, cap):
        # opt(S) if it is below cap, else some value >= cap
        if len(S) == 1:
            return 0
        if S in exact:
            return exact[S]
        floor = max(calls_bound(len(S), d), at_least.get(S, 0))
        if floor >= cap:
            return floor
        best = cap
        for x in range(p):
            classes = {}
            for t in S:
                classes.setdefault(pow(x + t, e, p), []).append(t)
            if len(classes) == 1:
                continue
            worst = 0
            for c in sorted(classes.values(), key=len, reverse=True):
                worst = max(worst, 1 + solve(tuple(c), best - 1))
                if worst >= best:
                    break
            else:
                best = worst
                if best == floor:
                    break
        if best < cap:
            exact[S] = best
        else:
            at_least[S] = cap
        return best

    G = tuple(sorted(x for x in range(1, p) if pow(x, e, p) == 1))
    return 1 + solve(G, len(G))



def greedy_round(p, e, S, window):
    """One round of the one-point greedy rule by plain full scan: over every
    x in [0, h), the size of the largest class of {(t + x)^e : t in S}; the
    least one below |S| wins, ties to the smallest x.  h starts at `window`
    and doubles, up to p - 1, while no x splits S.  Returns (x, classes),
    classes mapping each predicted answer to its sorted tuple of t."""
    h = min(max(window, 1), p - 1)
    while True:
        best = None
        for x in range(h):
            classes = {}
            for t in S:
                classes.setdefault(pow(t + x, e, p), []).append(t)
            largest = max(len(c) for c in classes.values())
            if largest < len(S) and (best is None or largest < best[0]):
                best = (largest, x, classes)
        if best is not None:
            return best[1], {a: tuple(c) for a, c in best[2].items()}
        if h >= p - 1:
            raise ValueError("no point splits S")
        h = min(2 * h, p - 1)


ROOT = Path(__file__).resolve().parents[1]


def run_python(args, timeout, address_space=None):
    """`python args` in a subprocess run from the repository root that
    imports shiftbreak from `src/`, its output captured as text.  It is
    killed after `timeout` seconds (subprocess.TimeoutExpired) and, given
    `address_space` bytes, cannot map more, so a missing cap fails the test
    rather than hanging it or exhausting the machine."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=None if address_space is None else limit,
    )
