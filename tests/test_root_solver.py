import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbreak import field_core as fc
from shiftbreak import root_solver as rs
from shiftbreak import shift_recovery as sr
from shiftbreak.errors import (
    BadWitness,
    IncompleteWitnesses,
    LengthMismatch,
    NotDividing,
    TooLarge,
)

from reference import divisors

PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 53, 61, 73, 97]
MERSENNE_61 = 2**61 - 1
SAFE_PRIME_48 = 140737488356903  # 2q + 1 with q prime
RHO_PRIME = 1126844094631811327  # p - 1 = 2 * 527608327 * 1067879369
# (p, exponents): every factorization shape the wide benchmark cells reach
LARGE_CELLS = [
    (MERSENNE_61, (3, 150, 1001)),
    (1000000009, (4, 504)),
    (SAFE_PRIME_48, (2,)),
    (RHO_PRIME, (2,)),
]


def brute_roots(p, e, A):
    return tuple(sorted(x for x in range(p) if pow(x, e, p) == A % p))


# The per-prime witness descent: the paper's root solver and the tests'
# independent reference for `consecutive_roots`.  It calls nothing in
# `root_solver`, and a bad input fails a plain assertion.


def ell_multiplicity(ctx, ell):
    """v_ell(p-1) for a prime ell | p-1."""
    full = dict(ctx.group_order_factors)
    assert ell in full, (ell, ctx.p)
    return full[ell]


def root_coprime(ctx, m, d_exp, a):
    """Unique solution of x^d_exp = a in the order-m subgroup, gcd(d_exp, m)=1."""
    assert math.gcd(d_exp, m) == 1 and pow(a, m, ctx.p) == 1
    return pow(a, pow(d_exp, -1, m), ctx.p)


def roots_prime_given_witness(ctx, m, r, b, a):
    """All solutions of x^r = a in the order-m subgroup of F_p^*.

    r is a prime divisor of m; b is a subgroup element that is not an r-th
    power there.  Deterministic descent in the r-torsion, O(r * v_r(m)) group
    operations plus exponentiations.
    """
    p = ctx.p
    assert pow(b, m // r, p) != 1, "b is an r-th power in the subgroup"
    assert pow(a, m, p) == 1, "a is outside the subgroup"
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
            assert digit < r, "target outside the r-torsion"
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
    assert all(pow(x, r, p) == a for x in roots)
    return tuple(sorted(roots))


def descent_restricted_roots(ctx, ell, beta, witness, A):
    """All x with x^ell = A and ell^beta | ind x.

    beta equal to the full multiplicity of ell in p-1 gives a unique root via
    the coprime-exponent path; smaller beta uses the witness, an
    ell^(beta+1)-th power nonresidue, inside the subgroup {x : ell^beta | ind x}.
    """
    p = ctx.p
    alpha = ell_multiplicity(ctx, ell)
    A %= p
    assert 0 <= beta <= alpha
    m0 = (p - 1) // ell**beta
    if pow(A, m0, p) != 1:
        return ()  # A itself must satisfy the index divisibility
    if beta == alpha:
        return (root_coprime(ctx, m0, ell, A),)
    gamma_w = 0
    while gamma_w < alpha and pow(witness, (p - 1) // ell ** (gamma_w + 1), p) == 1:
        gamma_w += 1
    assert gamma_w <= beta, "the witness is an ell^(beta+1)-th power"
    b = pow(witness, ell ** (beta - gamma_w), p)
    return roots_prime_given_witness(ctx, m0, ell, b, A)


def descent_index_roots(ctx, params, witnesses, A):
    """All x with x^e = A and n | ind x, n from the witness set: peel one
    ell-th root at a time, keeping ell^beta | ind at each step."""
    p = ctx.p
    A %= p
    assert A != 0
    gammas = {ell: gamma for ell, _, gamma in witnesses.entries}
    current = {A}
    for ell, k in params.e_factors:
        gamma = gammas[ell]
        w = witnesses.witness(ell)
        alpha = ell_multiplicity(ctx, ell)
        for i in range(1, k + 1):
            beta = min(gamma + k - i, alpha)
            nxt = set()
            for z in current:
                nxt.update(descent_restricted_roots(ctx, ell, beta, w, z))
            current = nxt
            if not current:
                return ()
    for x in current:
        assert pow(x, params.e, p) == A
        assert all(pow(x, (p - 1) // ell**g, p) == 1 for ell, g in gammas.items())
    return tuple(sorted(current))


def test_root_coprime_example():
    ctx = fc.make_context(13)
    assert root_coprime(ctx, 12, 5, 6) == 2
    assert root_coprime(ctx, 12, 5, 1) == 1


def test_roots_prime_given_witness_examples():
    ctx = fc.make_context(13)
    assert roots_prime_given_witness(ctx, 12, 3, 2, 12) == (4, 10, 12)
    assert roots_prime_given_witness(ctx, 12, 3, 2, 1) == (1, 3, 9)
    assert roots_prime_given_witness(ctx, 12, 3, 2, 2) == ()


def test_roots_prime_given_witness_brute_force():
    for p in PRIMES:
        ctx = fc.make_context(p)
        for r, _ in ctx.group_order_factors:
            b = fc.least_nonresidue(ctx, r)
            for a in range(1, p):
                got = roots_prime_given_witness(ctx, p - 1, r, b, a)
                assert got == brute_roots(p, r, a)


def test_roots_prime_given_witness_proper_subgroup():
    # order-4 subgroup of F_13^*: {1, 5, 8, 12}; r=2; 5 is not a square there
    ctx = fc.make_context(13)
    sub = {x for x in range(1, 13) if pow(x, 4, 13) == 1}
    assert pow(5, 2, 13) != 1 and 5 in sub
    for a in sorted(sub):
        expect = tuple(sorted(x for x in sub if x * x % 13 == a))
        assert roots_prime_given_witness(ctx, 4, 2, 5, a) == expect


def test_all_eth_roots_examples():
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 3)
    wits = rs.full_witness_set(ctx, params)
    assert rs.all_eth_roots(ctx, params, 5, wits) == (7, 8, 11)
    assert rs.all_eth_roots(ctx, params, 0, wits) == (0,)
    assert rs.all_eth_roots(ctx, params, 1, wits) == (1, 3, 9)


def test_all_eth_roots_brute_force_small():
    for p in PRIMES:
        ctx = fc.make_context(p)
        for e in divisors(p - 1):
            params = fc.make_params(ctx, e)
            wits = rs.full_witness_set(ctx, params)
            for A in range(p):
                got = rs.all_eth_roots(ctx, params, A, wits)
                assert got == brute_roots(p, e, A), (p, e, A)


def test_all_eth_roots_outputs_are_cosets():
    ctx = fc.make_context(61)
    for e in divisors(60):
        params = fc.make_params(ctx, e)
        wits = rs.full_witness_set(ctx, params)
        sub = set(fc.subgroup_elements(ctx, params))
        for A in range(1, 61):
            got = rs.all_eth_roots(ctx, params, A, wits)
            if got:
                assert len(got) == e
                x0 = got[0]
                inv = pow(x0, -1, 61)
                assert {x * inv % 61 for x in got} == sub


def test_all_eth_roots_rejects_a_residue_witness():
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 3)
    with pytest.raises(BadWitness):
        rs.all_eth_roots(ctx, params, 5, rs.WitnessSet(((3, 8, 0),)))  # 8 = 2^3
    # checked only once A is a nonzero e-th power
    assert rs.all_eth_roots(ctx, params, 2, rs.WitnessSet(((3, 8, 0),))) == ()


def descent_eth_roots(ctx, params, A):
    """The prime-by-prime witness descent: peel one ell-th root at a time,
    keeping a branch that stays solvable for the rest of e, then multiply
    by G_e.  A reference for the Pohlig-Hellman root."""
    p = ctx.p
    A %= p
    if A == 0:
        return (0,)
    if pow(A, params.d, p) != 1:
        return ()
    cur, rem = A, params.e
    for ell, k in params.e_factors:
        w = fc.least_nonresidue(ctx, ell)
        for _ in range(k):
            rem //= ell
            roots = roots_prime_given_witness(ctx, p - 1, ell, w, cur)
            cur = next(x for x in roots if pow(x, (p - 1) // rem, p) == 1)
    return tuple(sorted(cur * mu % p for mu in fc.subgroup_elements(ctx, params)))


def test_all_eth_roots_match_descent_at_large_p():
    rng = random.Random(61)
    for p, exponents in LARGE_CELLS:
        ctx = fc.make_context(p)
        for e in exponents:
            params = fc.make_params(ctx, e)
            wits = rs.full_witness_set(ctx, params)
            for A in [1, pow(rng.randrange(1, p), e, p), rng.randrange(1, p)]:
                got = rs.all_eth_roots(ctx, params, A, wits)
                assert got == descent_eth_roots(ctx, params, A), (p, e, A)


def test_all_eth_roots_requires_witnesses():
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 6)
    with pytest.raises(IncompleteWitnesses):
        rs.all_eth_roots(ctx, params, 5, rs.WitnessSet(((2, 2, 0),)))


def test_restricted_roots_examples():
    ctx = fc.make_context(13)
    assert rs.restricted_roots(ctx, 3, 1, 8) == (5,)
    assert rs.restricted_roots(ctx, 3, 1, 1) == (1,)
    assert rs.restricted_roots(ctx, 2, 0, 12) == (5, 8)
    assert descent_restricted_roots(ctx, 3, 1, 2, 8) == (5,)
    assert descent_restricted_roots(ctx, 2, 0, 2, 12) == (5, 8)
    for ell, beta in ((5, 0), (4, 0), (3, 2), (3, -1)):
        with pytest.raises(NotDividing):
            rs.restricted_roots(ctx, ell, beta, 1)


def test_restricted_roots_brute_force():
    for p in (13, 29, 41, 73):
        ctx = fc.make_context(p)
        table = fc.build_index_table(ctx)
        for ell, alpha in ctx.group_order_factors:
            w = fc.least_nonresidue(ctx, ell)
            for beta in range(alpha + 1):
                for A in range(1, p):
                    expect = tuple(
                        sorted(
                            x
                            for x in range(1, p)
                            if pow(x, ell, p) == A and table[x] % ell**beta == 0
                        )
                    )
                    assert rs.restricted_roots(ctx, ell, beta, A) == expect
                    got = descent_restricted_roots(ctx, ell, beta, w, A)
                    assert got == expect, (p, ell, beta, A)


def test_roots_with_index_divisibility_examples():
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 3)
    wits_n3 = rs.WitnessSet(((3, 2, 1),))
    assert wits_n3.n == 3
    assert rs.roots_with_index_divisibility(ctx, params, wits_n3, 8) == (5,)
    assert rs.roots_with_index_divisibility(ctx, params, wits_n3, 2) == ()
    wits_n1 = rs.full_witness_set(ctx, params)
    assert rs.roots_with_index_divisibility(ctx, params, wits_n1, 5) == (7, 8, 11)
    assert descent_index_roots(ctx, params, wits_n3, 8) == (5,)
    assert descent_index_roots(ctx, params, wits_n1, 5) == (7, 8, 11)
    with pytest.raises(NotDividing):
        rs.roots_with_index_divisibility(ctx, params, wits_n1, 13)


def test_roots_with_index_divisibility_brute_force():
    rng = random.Random(7)
    for p in (13, 29, 37, 61, 73):
        ctx = fc.make_context(p)
        table = fc.build_index_table(ctx)
        for e in divisors(p - 1):
            if e == 1:
                continue
            params = fc.make_params(ctx, e)
            full = {ell: alpha for ell, alpha in ctx.group_order_factors}
            for _ in range(6):
                entries = []
                for ell, _ in params.e_factors:
                    gamma = rng.randrange(full[ell] + 1)
                    if gamma < full[ell]:
                        # smallest ell^(gamma+1)-th power nonresidue
                        w = next(
                            x
                            for x in range(2, p)
                            if pow(x, (p - 1) // ell ** (gamma + 1), p) != 1
                            and pow(x, (p - 1) // ell**gamma, p) == 1
                        )
                    else:
                        w = 1  # unused on the coprime path
                    entries.append((ell, w, gamma))
                wits = rs.WitnessSet(tuple(entries))
                n = wits.n
                A = rng.randrange(1, p)
                expect = tuple(
                    sorted(
                        x
                        for x in range(1, p)
                        if pow(x, e, p) == A and table[x] % n == 0
                    )
                )
                got = rs.roots_with_index_divisibility(ctx, params, wits, A)
                assert got == expect, (p, e, A, wits)
                assert descent_index_roots(ctx, params, wits, A) == expect


def test_candidates_examples():
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 3)
    wits = rs.WitnessSet(((3, 2, 1),))  # n = 3
    assert (
        rs.candidates_from_consecutive_powers(ctx, params, wits, (8, 8, 5, 5))
        == (5,)
    )
    assert (
        rs.candidates_from_consecutive_powers(ctx, params, wits, (0, 1, 8, 1))
        == (0,)
    )
    assert (
        rs.candidates_from_consecutive_powers(ctx, params, wits, (7, 7, 7, 7))
        == ()
    )


def test_candidates_length_mismatch():
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 3)
    wits = rs.WitnessSet(((3, 2, 1),))
    with pytest.raises(LengthMismatch):
        rs.candidates_from_consecutive_powers(ctx, params, wits, (8, 8, 5))


def test_candidates_require_witnesses():
    ctx = fc.make_context(13)
    params = fc.make_params(ctx, 6)
    # checked before the zero-answer return, for n = 1 and n = 4
    for wits in (rs.WitnessSet(((2, 2, 0),)), rs.WitnessSet(((2, 2, 2),))):
        for first in (0, 1):
            answers = (first,) + (1,) * wits.n
            with pytest.raises(IncompleteWitnesses):
                rs.candidates_from_consecutive_powers(ctx, params, wits, answers)


def gamma_one_witnesses(ctx, params):
    """gamma_ell = 1 with the least ell^2-th power nonresidue among ell-th
    powers, or no witness where ell has multiplicity 1 in p-1."""
    p = ctx.p
    full = {ell: alpha for ell, alpha in ctx.group_order_factors}
    entries = []
    for ell, _ in params.e_factors:
        if full[ell] > 1:
            w = next(
                x
                for x in range(2, p)
                if pow(x, (p - 1) // ell**2, p) != 1
                and pow(x, (p - 1) // ell, p) == 1
            )
        else:
            w = 1
        entries.append((ell, w, 1))
    return rs.WitnessSet(tuple(entries))


def segment_witnesses(ctx, params):
    """Witnesses from the initial segment [1, y], y = floor(p^0.05), as in
    the paper's smooth pigeonhole: for each prime ell | e, the x <= y with the
    smallest gamma_ell(x), the largest gamma <= v_ell(p-1) with
    x^((p-1)/ell^gamma) = 1.  Below p = 2^20, y = 1, so n is the part of p-1
    built from the primes of e: gamma > 0 sets for the n > 1 pigeonhole."""
    p = ctx.p
    y = max(1, int(p**0.05))
    full = dict(ctx.group_order_factors)
    entries = []
    for ell, _ in params.e_factors:
        alpha = full[ell]
        best_gamma, best_x = alpha + 1, 1
        for x in range(1, y + 1):
            gamma = 0
            while gamma < alpha and pow(x, (p - 1) // ell ** (gamma + 1), p) == 1:
                gamma += 1
            if gamma < best_gamma:
                best_gamma, best_x = gamma, x
        entries.append((ell, best_x, min(best_gamma, alpha)))
    return rs.WitnessSet(tuple(entries))


def test_candidates_match_brute_force_planted():
    # planted answers must keep their shift; spliced and random e-th powers
    # come from no shift.  n ranges from 1 (e > n(n+1)/2, where the paper
    # solves answer pairs) to n >= e.
    rng = random.Random(5)
    for p in (13, 29, 37, 61):
        ctx = fc.make_context(p)
        for e in divisors(p - 1):
            params = fc.make_params(ctx, e)
            for wits in (
                gamma_one_witnesses(ctx, params),
                segment_witnesses(ctx, params),
            ):
                n = wits.n
                if n + 1 > p:
                    continue

                def shifted(s):
                    return [pow((s + j) % p, e, p) for j in range(n + 1)]

                cases = [(s, shifted(s)) for s in range(0, p, max(1, p // 7))]
                for _ in range(3):
                    spliced = shifted(rng.randrange(p))
                    spliced[-1] = shifted(rng.randrange(p))[-1]
                    cases.append((None, spliced))
                    random_powers = [pow(rng.randrange(p), e, p) for _ in range(n + 1)]
                    cases.append((None, random_powers))
                for s, answers in cases:
                    got = rs.candidates_from_consecutive_powers(
                        ctx, params, wits, answers
                    )
                    expect = tuple(
                        sorted(
                            x
                            for x in range(p)
                            if all(
                                pow((x + j) % p, e, p) == answers[j]
                                for j in range(n + 1)
                            )
                        )
                    )
                    assert got == expect, (p, e, answers, wits)
                    assert s is None or s in got


def pigeonhole_candidates(ctx, params, wits, answers):
    """The paper's pair descent: for every j1 < j2 solve y^e = A_j2/A_j1
    with n | ind y (`descent_index_roots`), set x = (j2 - j1)/(y - 1) - j1,
    and keep the x that satisfy every answer.  A reference for answers with
    no zero."""
    p = ctx.p
    n = wits.n
    cands = set()
    for j1 in range(n + 1):
        inv_a1 = pow(answers[j1], -1, p)
        for j2 in range(j1 + 1, n + 1):
            ratio = answers[j2] * inv_a1 % p
            for y in descent_index_roots(ctx, params, wits, ratio):
                if y != 1:
                    cands.add(((j2 - j1) * pow(y - 1, -1, p) - j1) % p)
    return tuple(
        sorted(
            x
            for x in cands
            if all(pow(x + j, params.e, p) == answers[j] for j in range(n + 1))
        )
    )


def test_candidates_match_pigeonhole_at_large_p():
    p = 2**61 - 1
    ctx = fc.make_context(p)
    rng = random.Random(150)
    for e in (150, 1001):
        params = fc.make_params(ctx, e)
        wits = sr.smooth_witnesses(ctx, params)
        assert wits.n == 1
        for _ in range(2):
            s = rng.randrange(p)
            planted = [pow(s, e, p), pow(s + 1, e, p)]
            spliced = [planted[0], pow(rng.randrange(p), e, p)]
            for answers in (planted, spliced):
                got = rs.candidates_from_consecutive_powers(ctx, params, wits, answers)
                assert got == pigeonhole_candidates(ctx, params, wits, answers)
                assert answers is spliced or s in got


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([13, 29, 37, 61]),
    st.integers(min_value=0, max_value=10**6),
)
def prop_all_roots_verify(p, seed):
    rng = random.Random(seed)
    ctx = fc.make_context(p)
    e = rng.choice(divisors(p - 1))
    params = fc.make_params(ctx, e)
    wits = rs.full_witness_set(ctx, params)
    A = rng.randrange(p)
    for x in rs.all_eth_roots(ctx, params, A, wits):
        assert pow(x, e, p) == A % p


test_prop_all_roots_verify = prop_all_roots_verify


def root_filter_candidates(ctx, params, answers):
    """The e-root filter: every root of A_0 (by the witness descent), kept
    when it satisfies A_1..A_n.  A reference for the coset intersection."""
    p, n = ctx.p, len(answers) - 1
    answers = [a % p for a in answers]
    for j, aj in enumerate(answers):
        if aj == 0:
            x = (-j) % p
            ok = all(pow(x + i, params.e, p) == answers[i] for i in range(n + 1))
            return (x,) if ok else ()
    return tuple(
        x
        for x in descent_eth_roots(ctx, params, answers[0])
        if all(pow(x + j, params.e, p) == answers[j] for j in range(1, n + 1))
    )


def pigeonhole_cases(rng, p, e, n):
    """Planted answers with their shift, then spliced, random e-th power and
    random answers with None."""

    def shifted(s):
        return [pow(s + j, e, p) for j in range(n + 1)]

    cases = [(s, shifted(s)) for s in (0, 1, p - 1, rng.randrange(p))]
    for _ in range(2):
        spliced = shifted(rng.randrange(p))
        spliced[-1] = shifted(rng.randrange(p))[-1]
        cases.append((None, spliced))
        cases.append((None, [pow(rng.randrange(p), e, p) for _ in range(n + 1)]))
        cases.append((None, [rng.randrange(p) for _ in range(n + 1)]))
    return cases


def test_coset_intersection_matches_root_filter_below_300():
    rng = random.Random(300)
    checked = 0
    for p in (q for q in range(3, 300) if fc.is_prime(q)):
        ctx = fc.make_context(p)
        for e in divisors(p - 1):
            params = fc.make_params(ctx, e)
            for wits in (
                rs.full_witness_set(ctx, params),
                segment_witnesses(ctx, params),
                gamma_one_witnesses(ctx, params),
            ):
                if wits.n + 1 > p:
                    continue
                for s, answers in pigeonhole_cases(rng, p, e, wits.n):
                    got = rs.candidates_from_consecutive_powers(ctx, params, wits, answers)
                    assert got == root_filter_candidates(ctx, params, answers), (
                        p,
                        e,
                        answers,
                    )
                    assert s is None or s in got
                    checked += 1
    assert checked > 5000


def test_coset_intersection_matches_root_filter_at_large_p():
    rng = random.Random(2)
    for p, exponents in LARGE_CELLS:
        ctx = fc.make_context(p)
        for e in exponents:
            params = fc.make_params(ctx, e)
            for wits in (rs.full_witness_set(ctx, params), segment_witnesses(ctx, params)):
                for s, answers in pigeonhole_cases(rng, p, e, wits.n):
                    got = rs.candidates_from_consecutive_powers(ctx, params, wits, answers)
                    assert got == root_filter_candidates(ctx, params, answers)
                    assert s is None or s in got


def test_references_never_call_the_solver(monkeypatch):
    # the descent has left root_solver, and the references run with its
    # solvers disabled: a large-p cross-check never compares
    # consecutive_roots with itself
    for name in ("roots_prime_given_witness", "root_coprime", "_ell_multiplicity"):
        assert not hasattr(rs, name)

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"a reference called rs.{name}")

        return call

    solvers = ("consecutive_roots", "restricted_roots", "roots_with_index_divisibility")
    for name in solvers:
        monkeypatch.setattr(rs, name, refuse(name))
    rng = random.Random(3)
    for p, e in ((61, 12), (MERSENNE_61, 150)):
        ctx = fc.make_context(p)
        params = fc.make_params(ctx, e)
        wits = rs.WitnessSet(
            tuple((q, fc.least_nonresidue(ctx, q), 0) for q, _ in params.e_factors)
        )
        if p < 100:
            shifts = range(1, p - 1)  # no zero answer at x = 0, 1
        else:
            shifts = [rng.randrange(1, p - 1) for _ in range(3)]
        for s in shifts:
            answers = [pow(s, e, p), pow(s + 1, e, p)]
            roots = descent_eth_roots(ctx, params, answers[0])
            got = pigeonhole_candidates(ctx, params, wits, answers)
            assert got == root_filter_candidates(ctx, params, answers)
            assert s in got and len(roots) == e
            assert all(pow(x, e, p) == answers[0] for x in roots)
            if p < 100:
                assert roots == brute_roots(p, e, answers[0])
                assert got == tuple(
                    x
                    for x in range(p)
                    if all(pow(x + j, e, p) == a for j, a in enumerate(answers))
                )


def test_consecutive_roots_match_brute_force_below_300():
    # n = 0 is the zero-call root set, n >= 1 the pigeonhole, for any n
    rng = random.Random(299)
    checked = 0
    for p in (q for q in range(3, 300) if fc.is_prime(q)):
        ctx = fc.make_context(p)
        for e in divisors(p - 1):
            params = fc.make_params(ctx, e)
            for n in range(4):
                for s, answers in pigeonhole_cases(rng, p, e, n):
                    got = rs.consecutive_roots(ctx, params, answers)
                    brute = tuple(
                        x
                        for x in range(p)
                        if all(pow(x + j, e, p) == a for j, a in enumerate(answers))
                    )
                    assert got == brute == root_filter_candidates(ctx, params, answers), (
                        p,
                        e,
                        answers,
                    )
                    assert s is None or s in got
                    checked += 1
    assert checked > 20000


def test_consecutive_roots_need_an_answer():
    ctx = fc.make_context(13)
    with pytest.raises(LengthMismatch):
        rs.consecutive_roots(ctx, fc.make_params(ctx, 3), ())


def test_consecutive_roots_cap_e_before_the_walk():
    # e = (p-1)/2 is a 39-bit prime; the nonzero e-th powers are 1 and -1
    ctx = fc.make_context(1099511628443)
    params = fc.make_params(ctx, 549755814221)
    assert params.e > fc.EXHAUSTIVE_CAP
    wits = rs.full_witness_set(ctx, params)
    for answers in ((1,), (1, ctx.p - 1)):
        with pytest.raises(TooLarge):
            rs.consecutive_roots(ctx, params, answers)
    with pytest.raises(TooLarge):
        rs.all_eth_roots(ctx, params, ctx.p - 1, wits)
    # a zero answer or a non-power needs no walk; (-1)^e = -1
    assert rs.all_eth_roots(ctx, params, 0, wits) == (0,)
    assert rs.consecutive_roots(ctx, params, (ctx.p - 1, 0)) == (ctx.p - 1,)
    assert rs.consecutive_roots(ctx, params, (2, 1)) == ()


def divisors_up_to(ctx, bound):
    out = [1]
    for ell, alpha in ctx.group_order_factors:
        out = [d * ell**i for d in out for i in range(alpha + 1) if d * ell**i <= bound]
    return sorted(out)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(PRIMES + [p for p, _ in LARGE_CELLS]),
    st.integers(min_value=0, max_value=10**6),
)
def prop_one_root_spans_the_root_set(p, seed):
    rng = random.Random(seed)
    ctx = fc.make_context(p)
    e = rng.choice(divisors_up_to(ctx, 2000))
    params = fc.make_params(ctx, e)
    A = pow(rng.randrange(1, p), e, p) if rng.random() < 0.7 else rng.randrange(1, p)
    roots = rs.all_eth_roots(ctx, params, A, rs.full_witness_set(ctx, params))
    if pow(A, params.d, p) != 1:
        assert roots == ()
        return
    x = rs._one_root(ctx, params, A)
    assert pow(x, e, p) == A
    assert roots == tuple(sorted(x * g % p for g in fc.subgroup_elements(ctx, params)))


test_prop_one_root_spans_the_root_set = prop_one_root_spans_the_root_set


def test_answers_identical_after_every_cache_clear():
    caches = [rs._root_plan, rs._is_power, rs.full_witness_set]
    for cache in caches:
        assert callable(cache.cache_clear)

    def answers():
        out = []
        for p, e in [(61, 12), (97, 32), (MERSENNE_61, 150), (1000000009, 504)]:
            ctx = fc.make_context(p)
            params = fc.make_params(ctx, e)
            wits = rs.full_witness_set(ctx, params)
            smooth = segment_witnesses(ctx, params)
            s = 7 * p // 11
            A = [pow(s + j, e, p) for j in range(smooth.n + 1)]
            out.append(rs.all_eth_roots(ctx, params, A[0], wits))
            out.append(rs.candidates_from_consecutive_powers(ctx, params, smooth, A))
            out.append((wits, smooth))
        return out

    def clear():
        for cache in caches:
            cache.cache_clear()
            assert cache.cache_info().currsize == 0

    clear()
    cold = answers()
    warm = answers()
    clear()
    assert cold == warm == answers()
