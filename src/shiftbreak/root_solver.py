"""Deterministic binomial-equation solvers over F_p.

Solves x^e = A and index-restricted variants using per-prime power
nonresidue witnesses, and builds candidate sets from consecutive oracle
answers.  All returned solution sets are sorted ascending and re-verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    BadWitness,
    IncompleteWitnesses,
    LengthMismatch,
    NotCoprime,
    NotDividing,
    NotInSubgroup,
)
from .field_core import (
    ExponentParams,
    PrimeContext,
    least_nonresidue,
    subgroup_elements,
)


@dataclass(frozen=True)
class WitnessSet:
    """Per-prime witnesses (ell, w_ell, gamma_ell); n = prod ell^gamma_ell.

    When gamma_ell < v_ell(p-1) the witness is an ell^(gamma_ell+1)-th power
    nonresidue; when gamma_ell equals the full multiplicity no witness is
    needed (the coprime-exponent path applies).
    """

    entries: tuple[tuple[int, int, int], ...]

    @property
    def n(self) -> int:
        out = 1
        for ell, _, gamma in self.entries:
            out *= ell**gamma
        return out

    def witness(self, ell: int) -> int:
        for q, w, _ in self.entries:
            if q == ell:
                return w
        raise IncompleteWitnesses(f"no witness for ell={ell}")

    def gamma(self, ell: int) -> int:
        for q, _, gamma in self.entries:
            if q == ell:
                return gamma
        raise IncompleteWitnesses(f"no gamma for ell={ell}")

    def covers(self, e_factors) -> bool:
        have = {q for q, _, _ in self.entries}
        return all(ell in have for ell, _ in e_factors)


def full_witness_set(ctx: PrimeContext, params: ExponentParams) -> WitnessSet:
    """Plain ell-th power nonresidues for every prime ell | e (gamma = 0)."""
    return WitnessSet(
        tuple((ell, least_nonresidue(ctx, ell), 0) for ell, _ in params.e_factors)
    )


def _ell_multiplicity(ctx: PrimeContext, ell: int) -> int:
    for q, k in ctx.group_order_factors:
        if q == ell:
            return k
    raise NotDividing(f"ell={ell} does not divide p-1={ctx.p - 1}")


def root_coprime(ctx: PrimeContext, m: int, d_exp: int, a: int) -> int:
    """Unique solution of x^d_exp = a in the order-m subgroup, gcd(d_exp, m)=1."""
    if math.gcd(d_exp, m) != 1:
        raise NotCoprime(f"gcd({d_exp}, {m}) != 1")
    if pow(a, m, ctx.p) != 1:
        raise NotInSubgroup(f"a={a} not in the order-{m} subgroup")
    f = pow(d_exp, -1, m)
    return pow(a, f, ctx.p)


def roots_prime_given_witness(
    ctx: PrimeContext, m: int, r: int, b: int, a: int
) -> tuple[int, ...]:
    """All solutions of x^r = a in the order-m subgroup of F_p^*.

    r is a prime divisor of m; b is a subgroup element that is not an r-th
    power there.  Deterministic descent in the r-torsion, O(r * v_r(m)) group
    operations plus exponentiations.
    """
    p = ctx.p
    if pow(b, m // r, p) == 1:
        raise BadWitness(f"b={b} is an r-th power in the subgroup")
    if pow(a, m, p) != 1:
        raise NotInSubgroup(f"a={a} not in the order-{m} subgroup")
    if pow(a, m // r, p) != 1:
        return ()
    alpha = 0
    t = m
    while t % r == 0:
        t //= r
        alpha += 1
    z = pow(b, t, p)  # generator of the r^alpha-torsion
    omega = pow(z, r ** (alpha - 1), p)  # primitive r-th root of unity
    # digits of k with z^k = a^t, base r (Pohlig-Hellman style)
    target = pow(a, t, p)
    z_inv = pow(z, -1, p)
    k = 0
    for i in range(alpha):
        c = pow(target * pow(z_inv, k, p) % p, r ** (alpha - 1 - i), p)
        digit = 0
        acc = 1
        while acc != c:
            acc = acc * omega % p
            digit += 1
            if digit >= r:
                raise NotInSubgroup("descent failed: target outside r-torsion")
        k += digit * r**i
    # solvability check above guarantees r | k
    w = pow(z, k // r, p)
    u = pow(r, -1, t) if t > 1 else 0
    j = (r * u - 1) // t
    x0 = pow(a, u, p) * pow(pow(w, -1, p), j, p) % p
    roots = []
    x = x0
    for _ in range(r):
        roots.append(x)
        x = x * omega % p
    assert all(pow(x, r, p) == pow(a, 1, p) for x in roots)
    return tuple(sorted(roots))


def _one_prime_root(ctx: PrimeContext, r: int, b: int, a: int) -> tuple[int, ...]:
    """All r-th roots of a in F_p^* (m = p-1)."""
    return roots_prime_given_witness(ctx, ctx.p - 1, r, b, a)


def all_eth_roots(
    ctx: PrimeContext, params: ExponentParams, A: int, witnesses: WitnessSet
) -> tuple[int, ...]:
    """The complete solution set of x^e = A: empty, {0}, or a coset of G_e."""
    p = ctx.p
    if not witnesses.covers(params.e_factors):
        raise IncompleteWitnesses("missing a prime of e")
    A %= p
    if A == 0:
        return (0,)
    if pow(A, params.d, p) != 1:
        return ()
    # Peel one root at a time, keeping a branch that stays solvable for the
    # remaining exponent; the full set is then x0 * G_e.
    cur = A
    rem = params.e
    for ell, k in params.e_factors:
        w = witnesses.witness(ell)
        if pow(w, (p - 1) // ell, p) == 1:
            raise BadWitness(f"witness {w} is an {ell}-th power mod {p}")
        for _ in range(k):
            rem //= ell
            roots = _one_prime_root(ctx, ell, w, cur)
            if rem > 1:
                # keep a branch that stays solvable for the remaining exponent
                cur = next(x for x in roots if pow(x, (p - 1) // rem, p) == 1)
            else:
                cur = roots[0]
    return tuple(sorted(cur * mu % p for mu in subgroup_elements(ctx, params)))


def restricted_roots(
    ctx: PrimeContext, ell: int, beta: int, witness: int, A: int
) -> tuple[int, ...]:
    """All x with x^ell = A and ell^beta | ind x.

    beta equal to the full multiplicity of ell in p-1 gives a unique root via
    the coprime-exponent path; smaller beta uses the witness inside the
    subgroup {x : ell^beta | ind x}.
    """
    p = ctx.p
    alpha = _ell_multiplicity(ctx, ell)
    A %= p
    if not (0 <= beta <= alpha):
        raise NotDividing(f"beta={beta} outside [0, {alpha}]")
    if pow(A, (p - 1) // ell**beta, p) != 1:
        return ()  # A itself must satisfy the index divisibility
    if beta == alpha:
        m0 = (p - 1) // ell**alpha
        if pow(A, m0, p) != 1:
            return ()
        return (root_coprime(ctx, m0, ell, A),)
    m0 = (p - 1) // ell**beta
    # gamma of the witness is found by direct testing
    gamma_w = 0
    while gamma_w < alpha and pow(witness, (p - 1) // ell ** (gamma_w + 1), p) == 1:
        gamma_w += 1
    if gamma_w > beta:
        raise BadWitness(
            f"witness {witness} is an ell^{beta + 1}-th power residue"
        )
    b = pow(witness, ell ** (beta - gamma_w), p)
    return roots_prime_given_witness(ctx, m0, ell, b, A)


def roots_with_index_divisibility(
    ctx: PrimeContext, params: ExponentParams, witnesses: WitnessSet, A: int
) -> tuple[int, ...]:
    """All x with x^e = A and n | ind x, n from the witness set."""
    p = ctx.p
    if not witnesses.covers(params.e_factors):
        raise IncompleteWitnesses("missing a prime of e")
    A %= p
    if A == 0:
        raise NotDividing("A must be nonzero")
    current = {A}
    for ell, k in params.e_factors:
        gamma = witnesses.gamma(ell)
        w = witnesses.witness(ell)
        alpha = _ell_multiplicity(ctx, ell)
        for i in range(1, k + 1):
            beta = min(gamma + k - i, alpha)
            nxt = set()
            for z in current:
                nxt.update(restricted_roots(ctx, ell, beta, w, z))
            current = nxt
            if not current:
                return ()
    out = [
        x
        for x in current
        if pow(x, params.e, p) == A
        and all(
            pow(x, (p - 1) // ell ** witnesses.gamma(ell), p) == 1
            for ell, _ in params.e_factors
        )
    ]
    assert len(out) == len(current), "descent produced a spurious root"
    return tuple(sorted(out))


def candidates_from_consecutive_powers(
    ctx: PrimeContext,
    params: ExponentParams,
    witnesses: WitnessSet,
    answers,
) -> tuple[int, ...]:
    """Exact solution set of (x+j)^e = A_j for j = 0..n, sorted ascending.

    Every solution is an e-th root of A_0, so the set is the e-element coset
    of those roots filtered against A_1..A_n: one root extraction and e
    checks.  The paper's pigeonhole on indices mod n (some pair j1 < j2
    has a quotient y with n | ind y) finds the same set through n(n+1)/2
    restricted descents (`roots_with_index_divisibility`), which is no
    cheaper on any cell measured, from p = 101 to 2^61 - 1.  The witnesses
    fix n and must cover every prime of e.
    """
    p = ctx.p
    n = witnesses.n
    if not witnesses.covers(params.e_factors):
        raise IncompleteWitnesses("missing a prime of e")
    answers = [a % p for a in answers]
    if len(answers) != n + 1:
        raise LengthMismatch(f"expected {n + 1} answers, got {len(answers)}")

    def verifies(x, js):
        return all(pow((x + j) % p, params.e, p) == answers[j] for j in js)

    for j, aj in enumerate(answers):
        if aj == 0:
            x = (-j) % p
            return (x,) if verifies(x, range(n + 1)) else ()
    roots = all_eth_roots(ctx, params, answers[0], full_witness_set(ctx, params))
    # every root of A_0 already satisfies j = 0
    return tuple(x for x in roots if verifies(x, range(1, n + 1)))
