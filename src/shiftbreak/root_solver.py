"""Deterministic binomial-equation solvers over F_p.

`consecutive_roots` solves (x + j)^e = A_j for j = 0..n: one root of A_0 by
Pohlig-Hellman over the part of p-1 whose primes divide e, then a walk of its
coset of G_e.  Recovery calls it directly.  `all_eth_roots` (n = 0),
`candidates_from_consecutive_powers` (n = 1), `restricted_roots` and
`roots_with_index_divisibility` are off that path.  The paper's per-prime
witness descent is the tests' independent reference.  Per-(p, e) constants
and witness sets are cached.  Solution sets are sorted ascending; every root
found is re-verified.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import (
    AlgorithmFailure,
    BadWitness,
    IncompleteWitnesses,
    LengthMismatch,
    NotDividing,
    TooLarge,
)
from .field_core import (
    EXHAUSTIVE_CAP,
    ExponentParams,
    PrimeContext,
    coset_walk,
    least_nonresidue,
    make_params,
)


@dataclass(frozen=True)
class WitnessSet:
    """Per-prime witnesses (ell, w_ell, gamma_ell); n = prod ell^gamma_ell.

    The paper's pigeonhole restricts roots to n | ind x.  Recovery uses none;
    the witnesses are checked, never used to find a root.
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

    def covers(self, e_factors) -> bool:
        have = {q for q, _, _ in self.entries}
        return all(ell in have for ell, _ in e_factors)


@functools.lru_cache(maxsize=64)
def full_witness_set(ctx: PrimeContext, params: ExponentParams) -> WitnessSet:
    """Plain ell-th power nonresidues for every prime ell | e (gamma = 0);
    cached per (p, e).  Off the recovery path: kept for the tests and
    perfbench/ (ROADMAP item 1)."""
    return WitnessSet(
        tuple((ell, least_nonresidue(ctx, ell), 0) for ell, _ in params.e_factors)
    )


@dataclass(frozen=True)
class _Sylow:
    """Pohlig-Hellman constants for one prime ell | e with v_ell(p-1) > v_ell(e).

    The Sylow ell-subgroup has order ell^alpha and is generated by
    g^((p-1)/ell^alpha); an e-th power's discrete log there is divisible by
    ell^eps, so only the digits eps..alpha-1 are searched.
    """

    ell: int
    alpha: int  # v_ell(p-1)
    eps: int  # v_ell(e)
    cofactor: int  # Q / ell^alpha: (A^T)^cofactor lies in the Sylow subgroup
    strip: tuple[int, ...]  # strip[i] = generator^(-ell^i)
    digit: dict  # zeta^i -> i for the order-ell subgroup, zeta = g^((p-1)/ell)
    crt: int  # 1 mod ell^alpha and 0 mod the other prime powers of Q


@dataclass(frozen=True)
class _RootPlan:
    """Constants of x^e = A for one (p, e), with p-1 = Q*T.

    Q collects the primes of p-1 that divide e, to their full multiplicity,
    so gcd(T, e) = 1 and e | Q.
    """

    h: int  # g^d, a generator of G_e
    T: int
    Q: int
    w: int  # e^-1 mod T
    k: int  # (e*w - 1) / T
    gamma: int  # g^T, a generator of the order-Q subgroup
    sylows: tuple[_Sylow, ...]


@functools.lru_cache(maxsize=64)
def _root_plan(ctx: PrimeContext, params: ExponentParams) -> _RootPlan:
    """The per-(p, e) constants; O(sum of ell) time and memory for the digit
    tables, over the primes ell | e whose power in p-1 exceeds theirs in e."""
    p, g, e = ctx.p, ctx.g, params.e
    full = dict(ctx.group_order_factors)
    Q = 1
    for ell, _ in params.e_factors:
        Q *= ell ** full[ell]
    T = (p - 1) // Q
    w = pow(e, -1, T)
    gamma = pow(g, T, p)
    sylows = []
    for ell, eps in params.e_factors:
        alpha = full[ell]
        if alpha == eps:
            continue
        order = ell**alpha
        cofactor = Q // order
        inv_gen = pow(gamma, -cofactor, p)
        zeta = pow(g, (p - 1) // ell, p)
        digit, z = {}, 1
        for i in range(ell):
            digit[z] = i
            z = z * zeta % p
        sylows.append(
            _Sylow(
                ell=ell,
                alpha=alpha,
                eps=eps,
                cofactor=cofactor,
                strip=tuple(pow(inv_gen, ell**i, p) for i in range(alpha)),
                digit=digit,
                crt=cofactor * pow(cofactor, -1, order) % Q,
            )
        )
    return _RootPlan(
        h=pow(g, params.d, p),
        T=T,
        Q=Q,
        w=w,
        k=(e * w - 1) // T,
        gamma=gamma,
        sylows=tuple(sylows),
    )


def _one_root(ctx: PrimeContext, params: ExponentParams, A: int) -> int:
    """One solution of x^e = A for a nonzero e-th power A (A^d = 1).

    With w = e^-1 mod T, A^(e*w) = A * (A^T)^k.  A^T lies in the order-Q
    subgroup, where A^T = gamma^L with e | L; its Sylow digits give L.  Then
    x = A^w * gamma^(-(L/e)*k) has x^e = A * (A^T)^k * gamma^(-L*k) = A.
    Cost: at most four exponentiations mod p (A^w, A^T, the correction and
    the re-check of x^e = A), plus per Sylow one more and alpha - eps digit
    steps of at most two smaller ones, each digit a dictionary lookup.  The
    digit tables cost O(sum of ell) once per (p, e) (`_root_plan`).
    """
    p = ctx.p
    plan = _root_plan(ctx, params)
    L = 0
    if plan.sylows:
        AT = pow(A, plan.T, p)
        for syl in plan.sylows:
            ell, alpha = syl.ell, syl.alpha
            b = pow(AT, syl.cofactor, p)
            log = 0
            for i in range(syl.eps, alpha):
                dig = syl.digit[pow(b, ell ** (alpha - 1 - i), p)]
                if dig:
                    b = b * pow(syl.strip[i], dig, p) % p
                    log += dig * ell**i
            L += log * syl.crt
    L %= plan.Q
    x = pow(A, plan.w, p) * pow(plan.gamma, -(L // params.e) * plan.k % plan.Q, p) % p
    if pow(x, params.e, p) != A:
        raise AlgorithmFailure(f"x={x} is not an e-th root of A={A} mod {p}")
    return x


def consecutive_roots(
    ctx: PrimeContext, params: ExponentParams, answers
) -> tuple[int, ...]:
    """Exact solution set of (x + j)^e = A_j for j = 0..n, n >= 0, sorted.

    A zero answer A_j fixes x = -j.  Otherwise x walks x0*G_e, x0 one root
    of A_0 (`_one_root`), and for n >= 1 is kept when x + 1 lies in x1*G_e,
    x1 a root of A_1, and x satisfies A_2..A_n.  Cost: one or two roots, the
    walk (no e-element list), for n >= 1 a set of x1*G_e, and n - 1
    exponentiations per survivor.  At d = 1, G_e = F_p^* and every nonzero
    e-th power is 1: the set is x = 1..p-n-1 (no x + j = 0) when every
    answer is 1 and empty otherwise, with no root, walk or power.  TooLarge
    above e = EXHAUSTIVE_CAP.
    """
    p, e = ctx.p, params.e
    answers = [a % p for a in answers]
    if not answers:
        raise LengthMismatch("no answers")
    n = len(answers) - 1

    def verifies(x, js):
        return all(pow((x + j) % p, e, p) == answers[j] for j in js)

    for j, aj in enumerate(answers):
        if aj == 0:
            x = (-j) % p
            return (x,) if verifies(x, range(n + 1)) else ()
    if any(pow(a, params.d, p) != 1 for a in answers[:2]):
        return ()
    if e > EXHAUSTIVE_CAP:
        raise TooLarge(f"e={e} above the exhaustive cap {EXHAUSTIVE_CAP}")
    if params.d == 1:
        return tuple(range(1, p - n)) if all(a == 1 for a in answers) else ()
    h = _root_plan(ctx, params).h
    roots = coset_walk(_one_root(ctx, params, answers[0]), h, e, p)
    if n == 0:
        return tuple(sorted(roots))
    # x + 1 needs no reduction: it is at most p, and 0 lies in no coset
    shifted = set(coset_walk(_one_root(ctx, params, answers[1]), h, e, p))
    return tuple(
        sorted(x for x in roots if x + 1 in shifted and verifies(x, range(2, n + 1)))
    )


@functools.lru_cache(maxsize=64)
def _is_power(p: int, ell: int, w: int) -> bool:
    return pow(w, (p - 1) // ell, p) == 1


def all_eth_roots(
    ctx: PrimeContext, params: ExponentParams, A: int, witnesses: WitnessSet
) -> tuple[int, ...]:
    """The complete solution set of x^e = A: empty, {0}, or a coset of G_e
    (`consecutive_roots` with n = 0).

    The witnesses are checked, not used: every prime of e needs one, and,
    once A is a nonzero e-th power, it must be an ell-th power nonresidue.
    Off the recovery path: kept for the tests and perfbench/ (ROADMAP item 1).
    """
    if not witnesses.covers(params.e_factors):
        raise IncompleteWitnesses("missing a prime of e")
    roots = consecutive_roots(ctx, params, (A,))
    if roots and roots[0]:  # A is a nonzero e-th power
        for ell, _ in params.e_factors:
            w = witnesses.witness(ell)
            if _is_power(ctx.p, ell, w):
                raise BadWitness(f"witness {w} is an {ell}-th power mod {ctx.p}")
    return roots


def restricted_roots(
    ctx: PrimeContext, ell: int, beta: int, A: int
) -> tuple[int, ...]:
    """All x with x^ell = A and ell^beta | ind x: the roots of x^ell = A
    (`consecutive_roots`) with x^((p-1)/ell^beta) = 1.  NotDividing unless
    ell is a prime of p-1 and 0 <= beta <= v_ell(p-1); TooLarge above
    ell = EXHAUSTIVE_CAP.

    Nothing in the package calls it; it stays only because the benchmark's
    tracer (`perfbench/tracer.py`, `TRACED`) looks it up by name, and goes
    with that hook.
    """
    p = ctx.p
    alpha = dict(ctx.group_order_factors).get(ell)
    if alpha is None:
        raise NotDividing(f"ell={ell} does not divide p-1={p - 1}")
    if not (0 <= beta <= alpha):
        raise NotDividing(f"beta={beta} outside [0, {alpha}]")
    m = (p - 1) // ell**beta
    roots = consecutive_roots(ctx, make_params(ctx, ell), (A,))
    return tuple(x for x in roots if pow(x, m, p) == 1)


def roots_with_index_divisibility(
    ctx: PrimeContext, params: ExponentParams, witnesses: WitnessSet, A: int
) -> tuple[int, ...]:
    """All x with x^e = A and n | ind x, n = witnesses.n: the roots of
    x^e = A (`consecutive_roots`) with x^((p-1)/n) = 1.  The witnesses must
    cover every prime of e, n must divide p - 1 and A must be nonzero;
    TooLarge above e = EXHAUSTIVE_CAP.

    Nothing in the package calls it; it stays only because the benchmark's
    tracer (`perfbench/tracer.py`, `TRACED`) looks it up by name, and goes
    with that hook.
    """
    p = ctx.p
    if not witnesses.covers(params.e_factors):
        raise IncompleteWitnesses("missing a prime of e")
    if (p - 1) % witnesses.n:
        raise NotDividing(f"n={witnesses.n} does not divide p-1={p - 1}")
    if A % p == 0:
        raise NotDividing("A must be nonzero")
    m = (p - 1) // witnesses.n
    return tuple(x for x in consecutive_roots(ctx, params, (A,)) if pow(x, m, p) == 1)


def candidates_from_consecutive_powers(
    ctx: PrimeContext,
    params: ExponentParams,
    witnesses: WitnessSet,
    answers,
) -> tuple[int, ...]:
    """`consecutive_roots` with n = prod ell^gamma_ell fixed by the
    witnesses, which must cover every prime of e.  The smooth pigeonhole's
    witnesses are plain nonresidues (gamma = 0), so n = 1 and this solves one
    pair of answers.  The paper's pigeonhole on indices mod n finds the same
    set from n(n+1)/2 root sets of answer ratios with n | ind y, a per-prime
    witness descent each, which was no cheaper on any cell measured, from
    p = 101 to 2^61 - 1; the tests keep that descent as their reference.
    Off the recovery path: kept for the tests and perfbench/ (ROADMAP item 1).
    """
    if not witnesses.covers(params.e_factors):
        raise IncompleteWitnesses("missing a prime of e")
    if len(answers) != witnesses.n + 1:
        raise LengthMismatch(f"expected {witnesses.n + 1} answers, got {len(answers)}")
    return consecutive_roots(ctx, params, answers)
