"""Membership ladder and null sequences: frozen examples, independent
residue-orbit oracles, and the soundness invariants for Exact verdicts.

Oracles here are written from scratch: geometric orbits by cycle detection
on r -> base*r mod q, factorial membership by q | n!, continued-fraction
residues by the convergent recurrence mod q.
"""

import math
import random
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclose import circle, torsion
from gclose.circle import (
    BoundedExpansionError,
    CFExpansion,
    CirclePoint,
    SurdSum,
    cf_expand,
    convergent_denominators,
    int_mul,
    pair,
)
from gclose.duality import PrecompactTopology
from gclose.torsion import (
    Budget,
    CFDenominators,
    Constant,
    Explicit,
    Factorial,
    Geometric,
    Interleave,
    NotFound,
    NullCertificate,
    NullSequenceResult,
    NullTermCert,
    Policy,
    Subsequence,
    TorsionError,
    Verdict,
    eval_seq,
    null_sequence,
    rational_torsion_profile,
    recheck_null_certificate,
    s_membership,
    t_membership,
    _CF_CACHE,
    _CF_CACHE_SIZE,
    _STATE_CAP,
    _cf_entry,
    _cf_orbit,
    _cf_pairing,
    _chain,
    _geometric_orbit,
    _orbit,
    _orbit_verdict,
    _scan,
    _summarize_cycle,
)

GOLDEN = CirclePoint.quadratic(-1, 1, 2, 5)
SQRT2M1 = CirclePoint.quadratic(-1, 1, 1, 2)


# independent oracles ---------------------------------------------------------


def geometric_in(base: int, a: int, q: int) -> bool:
    """Does base^n * a/q -> 0 mod 1?  Cycle detection on the residue orbit."""
    r = a % q
    seen = {}
    orbit = []
    while r not in seen:
        seen[r] = len(orbit)
        orbit.append(r)
        r = (r * base) % q
    return not any(orbit[seen[r] :])


def factorial_first_zero(q: int) -> int:
    """Least n with n! = 0 mod q; exists for every q >= 1."""
    r, n = 1 % q, 0
    while r:
        n += 1
        r = (r * n) % q
    return n


def cfden_in(alpha: CirclePoint, a: int, q: int) -> tuple[bool, list[int]]:
    """Residues a*q_n mod q via the convergent recurrence; cycle-detected."""
    cf = cf_expand(alpha, 64)
    states = {}
    dens = []
    pm1, pm2 = 0, 1  # q_{-1} = 0 and q_{-2} = 1 seed the recurrence
    for i in range(4000):
        qk = cf.quotient(i) * pm1 + pm2
        dens.append(qk)
        pm1, pm2 = qk, pm1
        state = (cf.canonical_index(i + 1), pm1 % q, pm2 % q)
        if state in states:
            first = states[state]
            residues = [(a * d) % q for d in dens]
            cycle = residues[first : i + 1]
            return (not any(cycle)), residues
        states[state] = i + 1
    raise AssertionError("no cycle found within bound")


# eval_seq ---------------------------------------------------------------------


def test_eval_geometric():
    assert eval_seq(Geometric(2), 5) == (32,)


def test_eval_factorial():
    assert eval_seq(Factorial(), 4) == (24,)


def test_eval_cfden_golden_fibonacci():
    u = CFDenominators(GOLDEN)
    assert [eval_seq(u, n)[0] for n in range(6)] == [1, 1, 2, 3, 5, 8]
    assert eval_seq(u, 5) == (8,)


def test_eval_explicit_horizon():
    u = Explicit(((1,), (2,)))
    assert eval_seq(u, 1) == (2,)
    with pytest.raises(BoundedExpansionError):
        eval_seq(u, 2)


def test_eval_negative_index():
    with pytest.raises(TorsionError):
        eval_seq(Geometric(2), -1)


def test_interleave_blocks():
    u = Interleave((Geometric(2), Factorial()), (2, 1))
    assert [eval_seq(u, n)[0] for n in range(6)] == [1, 2, 1, 4, 8, 1]


def test_subsequence_index_map():
    u = Subsequence(CFDenominators(GOLDEN), 3, 1)
    assert [eval_seq(u, n)[0] for n in range(4)] == [1, 5, 21, 89]


def test_chain_composes_nested_strides():
    # sub(a,b):v reads v at a*n+b, so an inner sub(c,d) reads the root at
    # c*(a*n+b)+d: A = a*c, B = c*b+d
    u = Subsequence(Subsequence(Geometric(2), 3, 0), 2, 1)
    assert _chain(u) == (Geometric(2), 6, 3) and eval_seq(u, 0) == (8,)
    rng = random.Random(20261024)
    roots = (Geometric(3), Factorial(), CFDenominators(GOLDEN), Constant((5,)))
    for _ in range(200):
        root = rng.choice(roots)
        u = root
        for _ in range(rng.randint(1, 4)):
            u = Subsequence(u, rng.randint(1, 4), rng.randint(0, 5))
        chained, A, B = _chain(u)
        assert chained is root
        for n in range(4):
            assert eval_seq(u, n) == eval_seq(root, A * n + B), (u.describe(), n)


# reference terms: random access to u_n and the horizon index arithmetic, one
# index at a time, against which the walks are checked


def reference_term(u, n: int) -> tuple[int, ...]:
    """u_n by random access; an Explicit list errors past its last term."""
    if isinstance(u, Geometric):
        m = u.base**n
        return tuple(m * p for p in u.pattern)
    if isinstance(u, Factorial):
        f = math.factorial(n)
        return tuple(f * p for p in u.pattern)
    if isinstance(u, CFDenominators):
        return (convergent_denominators(cf_expand(u.alpha), n + 1)[n],)
    if isinstance(u, Explicit):
        if n >= len(u.terms):
            raise BoundedExpansionError(
                f"explicit sequence has {len(u.terms)} terms, index {n} requested"
            )
        return u.terms[n]
    if isinstance(u, Constant):
        return u.vector
    if isinstance(u, Subsequence):
        return reference_term(u.parent, u.stride * n + u.offset)
    j, m = u._locate(n)
    return reference_term(u.children[j], m)


def reference_horizon(u) -> int | None:
    """Number of defined terms, or None when the sequence is infinite."""
    if isinstance(u, Explicit):
        return len(u.terms)
    if isinstance(u, Subsequence):
        h = reference_horizon(u.parent)
        if h is None:
            return None
        if h <= u.offset:
            return 0
        return (h - 1 - u.offset) // u.stride + 1
    if isinstance(u, Interleave):
        finite = [
            u.global_index(j, h)
            for j, c in enumerate(u.children)
            if (h := reference_horizon(c)) is not None
        ]
        return min(finite) if finite else None
    return None


def _walk_tree(rng: random.Random, depth: int):
    """Nested strides and interleaves over every leaf kind; short lists and
    offsets up to 6 make finite children end mid-round and offsets pass the
    end."""
    kinds = ("geom", "fact", "cfden", "list", "const", "sub", "interleave")
    kind = rng.choice(kinds if depth else kinds[:5])
    pattern = (rng.choice((1, -2, 3)),)
    if kind == "geom":
        return Geometric(rng.randint(2, 5), pattern)
    if kind == "fact":
        return Factorial(pattern)
    if kind == "cfden":
        return CFDenominators(rng.choice((GOLDEN, SQRT2M1, CirclePoint.quadratic(1, 1, 5, 7))))
    if kind == "list":
        return Explicit(tuple((rng.randint(-9, 9),) for _ in range(rng.randint(1, 5))))
    if kind == "const":
        return Constant((rng.randint(-3, 3),))
    if kind == "sub":
        return Subsequence(_walk_tree(rng, depth - 1), rng.randint(1, 3), rng.randint(0, 6))
    children = tuple(_walk_tree(rng, depth - 1) for _ in range(rng.randint(1, 3)))
    return Interleave(children, tuple(rng.randint(1, 3) for _ in children))


def test_walks_match_the_reference_terms_and_horizons():
    rng = random.Random(20261102)
    seen = {"finite": 0, "empty": 0, "mid-round": 0}
    for _ in range(600):
        u = _walk_tree(rng, 3)
        h = reference_horizon(u)
        assert u.is_finite == (h is not None), u.describe()
        if h is not None:
            seen["finite"] += 1
            seen["empty"] += h == 0
            seen["mid-round"] += isinstance(u, Interleave) and h % sum(u.blocks) != 0
            assert sum(1 for _ in islice(u.walk(0, 1), h + 1)) == h, u.describe()
        starts = {0, 1, rng.randrange(12)} | ({h, h + 2} if h is not None else set())
        for n0 in starts:
            for s in {1, 2, rng.randint(1, 7)}:
                if h is None:
                    expected = [reference_term(u, n0 + i * s) for i in range(12)]
                    got = list(islice(u.walk(n0, s), 12))
                else:
                    expected = [reference_term(u, n) for n in range(n0, h, s)]
                    got = list(islice(u.walk(n0, s), len(expected) + 1))
                assert got == expected, (u.describe(), n0, s)
        for n in range(16 if h is None else h + 3):
            if h is not None and n >= h:
                with pytest.raises(BoundedExpansionError):
                    eval_seq(u, n)
            else:
                assert eval_seq(u, n) == reference_term(u, n), (u.describe(), n)
    assert min(seen.values()) >= 10, seen


def test_interleave_walk_ends_mid_round():
    u = Interleave((Constant((5,)), Explicit(((1,), (2,), (3,)))), (1, 1))
    assert [t for (t,) in u.walk(0, 1)] == [5, 1, 5, 2, 5, 3, 5]
    assert reference_horizon(u) == 7
    assert [t for (t,) in u.walk(1, 2)] == [1, 2, 3] and list(u.walk(7, 1)) == []


def test_interleave_walks_start_each_child_once():
    # one walk per child, advanced in order: no walk per interleave slot
    # (a block of 10^9 would make 10^9 of them) and no restart per term
    # (which re-runs the cfden recurrence from q_0)
    x = CirclePoint.quadratic(0, 1, 2, 2)
    cases = [
        (Subsequence(Interleave((CFDenominators(GOLDEN), Geometric(3)), (1, 1)), 2, 0), 4096, 4096),
        # a finite sequence longer than the horizon is scanned to the horizon
        (Interleave((CFDenominators(GOLDEN), Explicit(((1,),))), (512, 1)), 512, 512),
        (Interleave((CFDenominators(GOLDEN), Explicit(((1,),))), (512, 1)), 2048, 1025),
        (Interleave((Explicit(((1,),)), Geometric(2)), (10**9, 1)), 512, 1),
    ]
    for u, horizon, h in cases:
        started = time.perf_counter()
        v = t_membership(u, x, Policy(horizon=horizon))
        assert time.perf_counter() - started < 1, u.describe()
        assert v.status == "undecided" and v.horizon == h, (u.describe(), v)
        assert v.fact("offending_index") == h - 1, (u.describe(), v)


def test_strided_walks_of_finite_interleaves_jump_to_their_end():
    # a finite interleave with a block of 10^9 ends near index 2*10^9, but a
    # stride of 10^9 reads only a few terms: the walk must not step through
    # the indices in between
    big = 10**9
    u = Subsequence(Interleave((Explicit(((1,),)), Constant((2,))), (1, big)), big, 0)
    short = Explicit(((1,), (3,), (5,)))
    w = Subsequence(Interleave((short, Constant((2,))), (1, big)), big + 1, 0)
    started = time.perf_counter()
    assert list(u.walk(0, 1)) == [(1,), (2,)] == [reference_term(u, n) for n in range(2)]
    assert list(w.walk(0, 1)) == [(1,), (3,), (5,)] == [reference_term(w, n) for n in range(3)]
    assert (reference_horizon(u), reference_horizon(w)) == (2, 3)
    assert list(u.walk(2, 1)) == list(w.walk(3, 2)) == []
    half = t_membership(u, CirclePoint.rational(1, 2))
    golden = t_membership(u, GOLDEN)
    assert time.perf_counter() - started < 1
    assert half.status == "exact" and half.member
    assert (half.fact("from_index"), half.fact("sequence_horizon")) == (1, 2)
    assert golden.status == "undecided" and golden.horizon == 2
    assert golden.fact("offending_index") == 1


# membership: frozen examples ---------------------------------------------------


def test_geometric_out_one_third():
    v = t_membership(Geometric(2), CirclePoint.rational(1, 3))
    assert v.status == "exact" and v.member is False
    assert v.fact("period") == 2
    assert v.fact("escape_value") == Fraction(1, 3)
    assert not geometric_in(2, 1, 3)


def test_geometric_in_five_eighths():
    v = t_membership(Geometric(2), CirclePoint.rational(5, 8))
    assert v.status == "exact" and v.member is True
    assert v.fact("from_index") == 3
    assert geometric_in(2, 5, 8)


def test_zero_point_always_in():
    for u in (Geometric(7), Factorial(), CFDenominators(GOLDEN)):
        v = t_membership(u, CirclePoint.zero())
        assert v.status == "exact" and v.member is True


def test_cfden_self_membership():
    v = t_membership(CFDenominators(GOLDEN), GOLDEN)
    assert v.status == "exact" and v.member is True


def test_factorial_absorbs_rationals():
    v = t_membership(Factorial(), CirclePoint.rational(22, 7))
    assert v.status == "exact" and v.member is True
    assert v.fact("from_index") == factorial_first_zero(7) == 7


def test_geometric_ten_quarter():
    v = t_membership(Geometric(10), CirclePoint.rational(1, 4))
    assert v.status == "exact" and v.member is True
    assert v.fact("from_index") == 2


def test_geometric_three_half():
    v = t_membership(Geometric(3), CirclePoint.rational(1, 2))
    assert v.status == "exact" and v.member is False
    assert v.fact("escape_value") == Fraction(1, 2)
    assert v.fact("period") == 1


def test_cfden_golden_half_out():
    # Fibonacci parity is odd, odd, even repeating
    v = t_membership(CFDenominators(GOLDEN), CirclePoint.rational(1, 2))
    assert v.status == "exact" and v.member is False
    assert v.fact("period") == 3
    member, residues = cfden_in(GOLDEN, 1, 2)
    assert not member


def test_cfden_integer_multiple_in():
    v = t_membership(CFDenominators(GOLDEN), int_mul(3, GOLDEN))
    assert v.status == "exact" and v.member is True


def test_cfden_half_multiple_out():
    # x = golden/2 = (-1+sqrt(5))/4: q_n*x has m = 1/2, escapes with norm >= 1/4
    x = CirclePoint.quadratic(-1, 1, 4, 5)
    v = t_membership(CFDenominators(GOLDEN), x)
    assert v.status == "exact" and v.member is False
    assert v.fact("escape_bound") == Fraction(1, 4)


def test_cfden_unrelated_quadratic_undecided():
    v = t_membership(CFDenominators(GOLDEN), SQRT2M1)
    assert v.status == "undecided" and v.member is None


def test_geometric_at_irrational_undecided():
    v = t_membership(Geometric(2), GOLDEN)
    assert v.status == "undecided" and v.member is None


def test_explicit_certified_up_to():
    dens = convergent_denominators(cf_expand(GOLDEN, 64), 60)
    u = Explicit(tuple((q,) for q in dens))
    v = t_membership(u, GOLDEN)
    assert v.status == "certified_up_to" and v.member is None
    assert v.horizon == 60
    assert v.worst_bound is not None and v.worst_bound <= Fraction(1, 2**20)
    assert v.trace  # the trace carries the observed tail


def test_explicit_exact_in_when_tail_vanishes():
    u = Explicit(((1,), (6,), (12,), (12,)))
    v = t_membership(u, CirclePoint.rational(1, 3))
    assert v.status == "exact" and v.member is True
    assert v.fact("from_index") == 1


def test_constant_membership():
    v = t_membership(Constant((6,)), CirclePoint.rational(1, 6))
    assert v.status == "exact" and v.member is True
    v = t_membership(Constant((6,)), CirclePoint.rational(1, 4))
    assert v.status == "exact" and v.member is False
    v = t_membership(Constant((1,)), GOLDEN)
    assert v.status == "exact" and v.member is False


def test_zero_sequence_degenerate():
    for x in (CirclePoint.rational(3, 7), GOLDEN):
        v = t_membership(Constant((0,)), x)
        assert v.status == "exact" and v.member is True


def test_subsequence_tier2():
    u = Subsequence(CFDenominators(GOLDEN), 2, 0)
    v = t_membership(u, GOLDEN)
    assert v.status == "exact" and v.member is True


def test_large_stride_and_offset_are_jumped_not_stepped():
    # sub(A,B) of geom:b reads b^(A*n+B) mod q with pow, so A and B cost
    # O(log) on the rational route and on the pattern-cancelling one
    pattern_point = (
        CirclePoint.quadratic(1, 1, 3, 2),
        CirclePoint.quadratic(0, 1, 3, 2),
    )  # pairs with (1, -1) to 1/3
    cases = [
        (3, 10**6, 0, 1, 1009, Geometric(3), (CirclePoint.rational(1, 1009),)),
        (2, 1, 10**12, 1, 1009, Geometric(2), (CirclePoint.rational(1, 1009),)),
        (2, 10**12, 10**12, 1, 12, Geometric(2), (CirclePoint.rational(1, 12),)),
        (2, 1, 10**12, 1, 3, Geometric(2, (1, -1)), pattern_point),
        (2, 10**6, 7, 1, 3, Geometric(2, (1, -1)), pattern_point),
        (6, 10**12, 10**12, 1, 3, Geometric(6, (1, -1)), pattern_point),
    ]
    started = time.perf_counter()
    for base, stride, offset, a, q, root, x in cases:
        v = s_membership(Subsequence(root, stride, offset), x)
        expected = geometric_in(pow(base, stride, q), pow(base, offset, q) * a, q)
        assert v.status == "exact" and v.member is expected, (base, stride, offset, q)
    v = t_membership(Subsequence(Constant((1,)), 1, 10**12), CirclePoint.rational(1, 3))
    assert v.status == "exact" and v.member is False
    # a stride over a stepped cfden orbit is index arithmetic on its cycle
    strided_cfden = Subsequence(CFDenominators(GOLDEN), 10**9, 0)
    for x in (CirclePoint.rational(1, 7), CirclePoint.quadratic(0, 1, 3, 5)):
        assert t_membership(strided_cfden, x).status == "exact", x
    assert time.perf_counter() - started < 1


def test_factorial_absorption_search_stops_at_the_cap():
    # q | m!*c is searched up to the state cap; past it the reason uses m = q
    started = time.perf_counter()
    for q in (10000019, 1000000007):
        v = t_membership(Factorial(), CirclePoint.rational(1, q))
        assert v.status == "exact" and v.member is True
        assert v.fact("absorbed_at") == q and v.fact("from_index") == q
    assert time.perf_counter() - started < 2
    v = t_membership(Subsequence(Factorial(), 3, 2), CirclePoint.rational(1, 999983))
    assert v.fact("absorbed_at") == 999983 and v.fact("from_index") == 333327


def test_pair_orbit_past_the_cap_falls_back_to_the_scan():
    # the pair orbit of q_n*sqrt(5)/600043 has more than 10^6 states
    x = CirclePoint.quadratic(0, 1, 600043, 5)
    v = t_membership(CFDenominators(GOLDEN), x, Policy(horizon=64))
    assert v.status == "undecided" and v.horizon == 64


# scans: streamed integer brackets against a per-term reference ----------------


def reference_norm_bracket(s: SurdSum, tol: Fraction) -> tuple[int, int, int]:
    """(lo, hi, scale) of ||s mod 1||, one term at a time: the exact floor,
    a fresh isqrt(d << 2k) per base at the precision the enclosure rule
    picks, k = max(1, bit_length(len*|b| // (den*tol)) + 1), and the exact
    test of s mod 1 > 1/2."""
    if s.is_rational():
        r = s.num % s.den
        r = min(r, s.den - r)
        return r, r, s.den
    m = s.mod1()
    tn, td = tol.numerator, tol.denominator
    parts = []
    for d, b in m.terms:
        k = max(1, (td * len(m.terms) * abs(b) // (tn * m.den)).bit_length() + 1)
        root = math.isqrt(d << (2 * k))
        parts.append((k, *sorted((b * root, b * (root + 1)))))
    top = max(k for k, _, _ in parts)
    lo = (m.num << top) + sum(low << (top - k) for k, low, _ in parts)
    hi = (m.num << top) + sum(high << (top - k) for k, _, high in parts)
    scale = m.den << top
    if m.cmp(Fraction(1, 2)) > 0:
        lo, hi = scale - hi, scale - lo
    return max(0, lo), min(hi, scale // 2), scale


def reference_scan(u, x, policy: Policy) -> Verdict:
    """The scan verdict from every term's reference upper bound as a
    Fraction, an inexact one rounded up to a multiple of tol/8."""
    tol, n = policy.tolerance, policy.horizon
    uppers = []
    for i in range(n):
        lo, hi, scale = reference_norm_bracket(pair(eval_seq(u, i), x), tol / 4)
        upper = Fraction(hi, scale)
        uppers.append(upper if lo == hi else math.ceil(upper / (tol / 8)) * (tol / 8))
    t = n
    while t > 0 and uppers[t - 1] <= tol:
        t -= 1
    trace = tuple((i, uppers[i]) for i in range(max(0, n - 16), n))
    if n - t >= min(16, n):
        return Verdict.certified(
            n, max(uppers[t:]), trace,
            f"all pairing norms <= {tol} from index {t} up to horizon {n}", tail_start=t,
        )
    return Verdict.undecided(
        f"pairing norm {uppers[t - 1]} exceeds tolerance {tol} at index {t - 1} (horizon {n})",
        horizon=n, worst=uppers[t - 1], trace=trace, offending_index=t - 1,
    )


def _scan_points(rng: random.Random, k: int) -> tuple[CirclePoint, ...]:
    bases = rng.sample((2, 3, 5, 6, 7, 13), rng.randint(1, 3))
    x = [
        CirclePoint.rational(rng.randint(-9, 9), rng.randint(1, 20))
        if rng.random() < 0.2
        else CirclePoint.quadratic(
            rng.randint(-9, 9), rng.choice((-3, -1, 1, 2)), rng.randint(1, 9), rng.choice(bases)
        )
        for _ in range(k)
    ]
    return tuple(x)


def _reference_scan_case(rng: random.Random):
    """fact, geom or an explicit list over one to three bases, or cfden at
    alpha or alpha/2, whose values crowd integers and 1/2."""
    kind = rng.choice(("fact", "geom", "cfden", "cfden", "list"))
    h = rng.randint(1, 120)
    if kind == "cfden":
        alpha = rng.choice((GOLDEN, SQRT2M1, CirclePoint.quadratic(2, 1, 3, 7)))
        half = CirclePoint.quadratic(alpha.num, alpha.surd_coeff, 2 * alpha.den, alpha.surd)
        return CFDenominators(alpha), (rng.choice((alpha, half)),), h
    k = rng.randint(1, 3)
    x = _scan_points(rng, k)
    pattern = tuple(rng.choice((-3, -1, 1, 2, 4)) for _ in range(k))
    if kind == "fact":
        seq = Factorial(pattern)
    elif kind == "geom":
        seq = Geometric(rng.randint(2, 12), pattern)
    else:
        seq = Explicit(tuple(tuple(rng.randint(-99, 99) for _ in range(k)) for _ in range(h)))
    if kind != "list" and rng.random() < 0.3:
        seq = Subsequence(seq, rng.randint(1, 3), rng.randint(0, 5))
    return seq, x, h


def test_scan_brackets_match_the_per_term_reference():
    """One root table per scan gives every term the bracket that the exact
    floor, a fresh root and the exact 1/2 test give, and the same verdict;
    coarse tolerances make brackets straddle integers and 1/2 often."""
    rng = random.Random(20261027)
    straddles = {0: 0, Fraction(1, 2): 0}  # brackets across an integer, across 1/2 mod 1
    for _ in range(80):
        seq, x, h = _reference_scan_case(rng)
        tol = Fraction(1, rng.choice((3, 2**4, 2**8, 2**20, 2**40)))
        roots = {}
        for i in range(h):
            value = pair(eval_seq(seq, i), x)
            assert value.norm_bracket(tol / 4, roots) == reference_norm_bracket(value, tol / 4), (
                seq, x, i,
            )
            if value.terms:
                enc = value.enclosure(tol / 4)
                for shift in straddles:
                    straddles[shift] += math.floor(enc.lower + shift) != math.floor(enc.upper + shift)
        policy = Policy(horizon=h, tolerance=tol)
        assert _scan(seq, x, policy) == reference_scan(seq, x, policy), (seq, x, h)
    assert min(straddles.values()) >= 100, straddles


def test_scan_takes_a_root_per_doubling_not_per_term(monkeypatch):
    """A 512-term fact scan at an irrational point takes about log2(k_max)
    integer square roots per surd base, not two per term, and no root
    table outlives its scan."""
    calls = []

    def counting_isqrt(n):
        calls.append(n)
        return math.isqrt(n)

    monkeypatch.setattr(circle, "isqrt", counting_isqrt)
    x = CirclePoint.quadratic(-2, 1, 3, 7)
    for _ in range(2):
        calls.clear()
        assert t_membership(Factorial(), x).status == "undecided"
        # 511! has about 3,860 bits, so k_max < 2^12
        assert len(calls) <= 12, len(calls)
    two_bases = (CirclePoint.quadratic(1, 1, 3, 2), CirclePoint.quadratic(1, 2, 5, 3))
    calls.clear()
    assert s_membership(Factorial((1, 1)), two_bases).status == "undecided"
    assert len(calls) <= 2 * 12, len(calls)


def test_continued_fraction_cache_keeps_the_latest_points():
    points = [CirclePoint.quadratic(1, 1, c, 2) for c in range(3, 303)]
    for alpha in points:
        assert eval_seq(CFDenominators(alpha), 3)[0] == convergent_denominators(cf_expand(alpha), 4)[3]
    assert len(_CF_CACHE) <= _CF_CACHE_SIZE == 256
    assert all(isinstance(cf, CFExpansion) for cf in _CF_CACHE.values())
    assert points[0] not in _CF_CACHE and points[-256] in _CF_CACHE
    _cf_entry(points[-256])  # a hit makes it the most recent
    eval_seq(CFDenominators(CirclePoint.quadratic(1, 1, 303, 2)), 0)
    assert points[-256] in _CF_CACHE and points[-255] not in _CF_CACHE


# reference automata: one state per term, strides and interleaves stepped,
# every state kept until one repeats


@dataclass(frozen=True)
class _Cycle:
    """The residue orbit of an automaton whose states repeat from index first
    with period period; at(n) is the residue at any index n >= 0."""

    first: int
    period: int
    at: Callable[[int], int]


def _run_cycle(machine, cap: int = _STATE_CAP) -> _Cycle | None:
    """Drive the automaton to a state repetition: its orbit, or None when
    that takes more than cap states."""
    seen: dict = {}
    residues: list[int] = []
    while True:
        st = machine.state()
        if st in seen:
            first = seen[st]
            period = len(residues) - first
            return _Cycle(
                first, period, lambda n: residues[n if n < first else first + (n - first) % period]
            )
        if len(residues) >= cap:
            return None
        seen[st] = len(residues)
        residues.append(machine.residue())
        machine.advance()


def _reference_summary(orbit: _Cycle, q: int) -> tuple[int, Fraction, int]:
    """(best, norm, index) from the list of residues, as _summarize_cycle
    defines them."""
    first = orbit.first
    residues = [orbit.at(n) for n in range(first + orbit.period)]
    cycle = residues[first:]
    if not any(cycle):
        nz = [i for i, v in enumerate(residues) if v]
        return 0, Fraction(0), max(nz) + 1 if nz else 0
    best = max((v for v in cycle if v), key=lambda v: (min(v, q - v), -v))
    return best, Fraction(min(best, q - best), q), first + cycle.index(best)


class _CFMachine:
    # r_n = q_n * c mod q along the convergent recurrence
    def __init__(self, cf: CFExpansion, c: int, q: int):
        self.cf = cf
        self.c = c % q
        self.q = q
        self.prev, self.cur = 0, 1 % q
        self.idx = 1

    def state(self):
        return (self.cf.canonical_index(self.idx), self.prev, self.cur)

    def residue(self) -> int:
        return self.cur * self.c % self.q

    def advance(self):
        a = self.cf.quotient(self.idx)
        self.prev, self.cur = self.cur, (a * self.cur + self.prev) % self.q
        self.idx += 1


class _PairMachine:
    # R_n = (cp * p_n + cq * q_n) mod L along the convergent recurrences
    def __init__(self, cf: CFExpansion, cp: int, cq: int, L: int):
        self.cf = cf
        self.cp, self.cq, self.L = cp % L, cq % L, L
        self.pprev, self.pcur = 1 % L, cf.quotient(0) % L
        self.qprev, self.qcur = 0, 1 % L
        self.idx = 1

    def state(self):
        return (
            self.cf.canonical_index(self.idx),
            self.pprev,
            self.pcur,
            self.qprev,
            self.qcur,
        )

    def residue(self) -> int:
        return (self.cp * self.pcur + self.cq * self.qcur) % self.L

    def advance(self):
        a = self.cf.quotient(self.idx)
        self.pprev, self.pcur = self.pcur, (a * self.pcur + self.pprev) % self.L
        self.qprev, self.qcur = self.qcur, (a * self.qcur + self.qprev) % self.L
        self.idx += 1


class _GeoMachine:
    # s_n = start * step^n mod q; a constant is step 1
    def __init__(self, start: int, step: int, q: int):
        self.s = start % q
        self.step = step % q
        self.q = q

    def state(self):
        return self.s

    def residue(self) -> int:
        return self.s

    def advance(self):
        self.s = self.s * self.step % self.q


class _FactMachine:
    # r_n = n! * c mod q; the next multiplier is (n+1) mod q
    def __init__(self, c: int, q: int):
        self.r = c % q
        self.m = 0
        self.q = q

    def state(self):
        return (self.r, self.m)

    def residue(self) -> int:
        return self.r

    def advance(self):
        self.m = (self.m + 1) % self.q
        self.r = self.r * self.m % self.q


class _StrideMachine:
    def __init__(self, parent, stride: int, offset: int):
        self.parent = parent
        self.stride = stride
        for _ in range(offset):
            parent.advance()

    def state(self):
        return self.parent.state()

    def residue(self) -> int:
        return self.parent.residue()

    def advance(self):
        for _ in range(self.stride):
            self.parent.advance()


class _InterleaveMachine:
    def __init__(self, children, blocks):
        self.children = children
        self.blocks = blocks
        self.cycle = sum(blocks)
        self.slot = 0

    def _active(self) -> int:
        r = self.slot
        for j, b in enumerate(self.blocks):
            if r < b:
                return j
            r -= b
        raise AssertionError("unreachable")

    def state(self):
        return (self.slot, tuple(c.state() for c in self.children))

    def residue(self) -> int:
        return self.children[self._active()].residue()

    def advance(self):
        self.children[self._active()].advance()
        self.slot = (self.slot + 1) % self.cycle


def _reference_machine(u, w, q):
    """Automaton for n -> <u_n, w> mod q (cp*p_n + cq*q_n for a cfden leaf
    with w = (cp, cq)).  A strided geometric leaf is one jumped automaton."""
    if isinstance(u, Constant):
        return _GeoMachine(sum(a * b for a, b in zip(u.vector, w)), 1, q)
    if isinstance(u, Geometric):
        return _GeoMachine(sum(a * b for a, b in zip(u.pattern, w)), u.base, q)
    if isinstance(u, Factorial):
        return _FactMachine(sum(a * b for a, b in zip(u.pattern, w)), q)
    if isinstance(u, CFDenominators):
        cf = _cf_entry(u.alpha)
        return _CFMachine(cf, w[0], q) if len(w) == 1 else _PairMachine(cf, *w, q)
    if isinstance(u, Subsequence):
        inner = _reference_machine(u.parent, w, q)
        if isinstance(inner, _GeoMachine):
            return _GeoMachine(
                inner.s * pow(inner.step, u.offset, q), pow(inner.step, u.stride, q), q
            )
        return _StrideMachine(inner, u.stride, u.offset)
    return _InterleaveMachine([_reference_machine(c, w, q) for c in u.children], u.blocks)


def _reference_states(u, w, q) -> int:
    orbit = _run_cycle(_reference_machine(u, w, q))
    return orbit.first + orbit.period


def _largest_part(u, w, q) -> int:
    """States of the largest part of u's orbit: the whole, the root under its
    strides (for a geometric or constant root that is the whole), and every
    interleave and interleaved child."""
    root, _, _ = _chain(u)
    sizes = [_reference_states(u, w, q)]
    if isinstance(root, Interleave):
        sizes.append(_reference_states(root, w, q))
        sizes += [_largest_part(c, w, q) for c in root.children]
    elif not isinstance(root, (Constant, Geometric)):
        sizes.append(_reference_states(root, w, q))
    return max(sizes)


# the last two have CF pre-periods: their periods start at indices 4 and 2
CF_ALPHAS = (
    GOLDEN,
    SQRT2M1,
    CirclePoint.quadratic(1, 1, 2, 3),
    CirclePoint.quadratic(3, 1, 7, 2),
    CirclePoint.quadratic(1, 1, 5, 7),
)


def _orbit_sequence(rng: random.Random, depth: int):
    kinds = ("geom", "const", "fact", "cfden", "interleave")
    kind = rng.choice(kinds if depth else kinds[:-1])
    if kind == "geom":
        seq = Geometric(rng.randint(2, 12))
    elif kind == "const":
        seq = Constant((rng.randint(-3, 3),))
    elif kind == "fact":
        seq = Factorial()
    elif kind == "cfden":
        seq = CFDenominators(rng.choice(CF_ALPHAS))
    else:
        seq = _orbit_interleave(rng, depth - 1)
    for _ in range(rng.choice((0, 1, 1, 2))):
        seq = Subsequence(seq, rng.randint(1, 5), rng.randint(0, 6))
    return seq


def _orbit_interleave(rng: random.Random, depth: int):
    children = tuple(_orbit_sequence(rng, depth) for _ in range(rng.randint(1, 3)))
    return Interleave(children, tuple(rng.randint(1, 3) for _ in children))


def _orbit_cases():
    """(sequence, point): strided interleaves at rational points, and strided
    cfden at points of its own quadratic field (pair orbits)."""
    rng = random.Random(20261026)
    cases = []
    for i in range(150):
        if i % 3 == 0:
            alpha = rng.choice(CF_ALPHAS)
            seq = CFDenominators(alpha)
            for _ in range(rng.randint(1, 2)):
                seq = Subsequence(seq, rng.randint(1, 5), rng.randint(0, 6))
            b = rng.choice((-2, -1, 1, 2)) * alpha.surd_coeff
            x = CirclePoint.quadratic(rng.randint(-9, 9), b, rng.randint(1, 12), alpha.surd)
        else:
            seq = Subsequence(_orbit_interleave(rng, 1), rng.randint(1, 4), rng.randint(0, 5))
            q = rng.randint(2, 40)
            x = CirclePoint.rational(rng.randrange(1, q), q)
        cases.append((seq, x))
    return rng, cases


def test_orbit_matches_the_stepping_automata():
    # the stride and interleave algebra gives the (first, period) and the
    # residues that stepping every state gives, whenever every part fits
    rng, cases = _orbit_cases()
    for u, x in cases:
        w, q = ((x.num,), x.den) if x.is_rational else _cf_pairing(_chain(u)[0].alpha, x)
        largest = _largest_part(u, w, q)
        reference = _run_cycle(_reference_machine(u, w, q))
        first, period = reference.first, reference.period
        residues = [reference.at(n) for n in range(first + period)]
        summary = _reference_summary(reference, q)
        caps = rng.sample(range(1, 81), 10) if rng.random() < 0.8 else range(1, 81)
        for cap in [*caps, _STATE_CAP]:
            got = _orbit(u, w, q, cap)
            if largest > cap:
                assert got is None, (u.describe(), x, cap)
                continue
            assert (got.first, got.period) == (first, period), (u.describe(), x, cap)
            assert list(islice(got.walk(0, 1), first + period)) == residues
            assert _summarize_cycle(got, q) == summary
        got = _orbit(u, w, q)
        for n in range(0, first + period, max(1, (first + period) // 8)):
            assert next(got.walk(n, 1)) == residues[n], (u.describe(), x, n)
        for _ in range(3):
            n0, s = rng.randrange(first + period + 3), rng.randint(2, 12)
            expected = [reference.at(n0 + i * s) for i in range(12)]
            assert list(islice(got.walk(n0, s), 12)) == expected, (u.describe(), x, n0, s)
        v = t_membership(u, x)
        if not x.is_rational:
            assert v.is_exact and v.fact("period") == period and v.fact("modulus") == q
        elif isinstance(_chain(u)[0], (Interleave, CFDenominators)):
            # fact, geom and const roots take their closed forms instead
            best, _, idx = summary
            assert v == _orbit_verdict(q, first, period, best, idx), (u.describe(), x)


def _automaton_cycle(start, step, q, cap):
    orbit = _run_cycle(_GeoMachine(start, step, q), cap)
    if orbit is None:
        return None
    best, _, index = _reference_summary(orbit, q)
    return orbit.first, orbit.period, best, index


def _geometric_cycle(start, step, q, cap=_STATE_CAP):
    """(first, period, best, index) of the closed-form orbit, through the
    summariser."""
    orbit = _geometric_orbit(start, step, q, cap)
    if orbit is None:
        return None
    best, _, index = _summarize_cycle(orbit, q)
    return orbit.first, orbit.period, best, index


def _geometric_cycle_cases():
    """(start, step, q): step 0 and 1, start = 0 mod q2, and seeded orbits
    with q = f^k*m for f in 2, 6 and the base, so q shares primes with step."""
    rng = random.Random(20261023)
    cases = []
    for q in (1, 2, 9, 12, 97, 224, 1080, 2**6 * 7, 6**4 * 5):
        for step in (0, 1, q - 1, q, q + 1, -1):
            cases += [(start, step, q) for start in (0, 1, q // 2, rng.randrange(-q, 2 * q))]
    for m, f, k in ((7, 2, 5), (35, 6, 3), (9, 6, 2), (11, 10, 4)):
        # step f*u with u coprime to m leaves q2 = m
        q = f**k * m
        cases += [(m * rng.randint(1, f**k), f * u, q) for u in (1, m + 1, 2 * m + 1)]
    for _ in range(300):
        base = rng.randint(2, 12)
        m = rng.choice((1, rng.randint(2, 60), rng.choice((101, 997, 4999))))
        q = rng.choice((2, 6, base)) ** rng.randint(0, 6) * m
        step = pow(base, rng.randint(1, 4), q) if rng.random() < 0.8 else rng.randrange(q)
        cases.append((rng.randrange(-q, 2 * q), step, q))
    return rng, cases


def test_geometric_cycle_matches_the_automaton():
    rng, cases = _geometric_cycle_cases()
    for start, step, q in cases:
        full = _automaton_cycle(start, step, q, _STATE_CAP)
        assert _geometric_cycle(start, step, q) == full, (start, step, q)
        first, period = full[:2]
        edge = first + period
        # the cap admits first + period states, and one fewer is too few
        assert _geometric_cycle(start, step, q, edge) == full, (start, step, q)
        if edge > 1:
            assert _geometric_cycle(start, step, q, edge - 1) is None
            assert _automaton_cycle(start, step, q, edge - 1) is None
        for cap in rng.sample(range(1, 81), 10):
            expected = _automaton_cycle(start, step, q, cap)
            assert _geometric_cycle(start, step, q, cap) == expected, (start, step, q, cap)


def test_cf_orbit_with_a_pre_period_at_every_small_cap():
    # first = start - 1 > 0 and period = length*t, against the automata
    rng = random.Random(20261101)
    for alpha in CF_ALPHAS[3:]:
        cf = _cf_entry(alpha)
        assert cf.period[0] > 1
        for L in range(1, 200):
            w = rng.choice(((rng.randrange(L),), (rng.randrange(L), rng.randrange(L))))
            machine = _CFMachine(cf, w[0], L) if len(w) == 1 else _PairMachine(cf, *w, L)
            reference = _run_cycle(machine)
            states = reference.first + reference.period
            residues = [reference.at(n) for n in range(states)]
            for cap in (*range(1, 81), states - 1, states, _STATE_CAP):
                got = _cf_orbit(cf, w, L, cap)
                if states > cap:
                    assert got is None, (alpha, w, L, cap)
                    continue
                assert (got.first, got.period) == (reference.first, reference.period)
                assert list(islice(got.walk(0, 1), states)) == residues, (alpha, w, L)
            # strides below, at and past the CF period length, from the
            # pre-period and from inside the cycle
            length = cf.period[1]
            for s in (2, length, length + 1, 2 * length + 3, 5 * states + 1):
                for n0 in (0, 1, rng.randrange(states + 3)):
                    expected = [reference.at(n0 + i * s) for i in range(9)]
                    assert list(islice(got.walk(n0, s), 9)) == expected, (alpha, w, L, n0, s)


def test_geometric_cycle_at_every_small_cap():
    _, cases = _geometric_cycle_cases()
    for start, step, q in cases[::6]:
        for cap in range(1, 81):
            expected = _automaton_cycle(start, step, q, cap)
            assert _geometric_cycle(start, step, q, cap) == expected, (start, step, q, cap)


def test_smem_vector():
    u = Geometric(2, (1, 3))
    v = s_membership(u, (CirclePoint.rational(1, 4), CirclePoint.rational(1, 8)))
    assert v.status == "exact" and v.member is True
    assert v.fact("from_index") == 3
    v = s_membership(u, (CirclePoint.rational(1, 3), CirclePoint.zero()))
    assert v.status == "exact" and v.member is False


def test_smem_dimension_mismatch():
    with pytest.raises(TorsionError):
        s_membership(Geometric(2), (CirclePoint.zero(), CirclePoint.zero()))


# soundness of Exact: re-simulation to 10^4 -------------------------------------


def _residues(u, a, q, count):
    out = []
    for n in range(count):
        out.append((eval_seq(u, n)[0] * a) % q)
    return out


def _resimulate_rational(u, x, v, count=10_000):
    """Re-check an Exact verdict on rational x against the raw orbit."""
    a, q = x.num, x.den
    if isinstance(u, Factorial) or (
        isinstance(u, Subsequence) and isinstance(u.parent, Factorial)
    ):
        count = min(count, 3000)  # factorial terms get enormous; mod q instead
        r, out = 1 % q, []
        for n in range(count):
            out.append((r * a) % q)
            r = (r * (n + 1)) % q
        if isinstance(u, Subsequence):
            out = [out[u.stride * i + u.offset] for i in range((count - u.offset) // u.stride)]
        residues = out
    else:
        residues = _residues(u, a, q, min(count, 2000))
    if v.member:
        start = v.fact("from_index", 0)
        assert all(r == 0 for r in residues[start:])
    else:
        idx = v.fact("escape_index")
        period = v.fact("period")
        assert idx is not None and period is not None
        vals = residues[idx::period]
        assert vals and all(r == residues[idx] for r in vals)
        assert residues[idx] != 0


def test_exact_soundness_resimulation():
    cases = [
        (Geometric(2), CirclePoint.rational(1, 3)),
        (Geometric(2), CirclePoint.rational(5, 8)),
        (Geometric(3), CirclePoint.rational(1, 2)),
        (Geometric(6), CirclePoint.rational(7, 12)),
        (Factorial(), CirclePoint.rational(22, 7)),
        (CFDenominators(GOLDEN), CirclePoint.rational(1, 2)),
        (CFDenominators(GOLDEN), CirclePoint.rational(2, 5)),
        (CFDenominators(SQRT2M1), CirclePoint.rational(1, 3)),
        (Subsequence(Geometric(2), 2, 1), CirclePoint.rational(1, 3)),
        (Interleave((Geometric(2), Geometric(3)), (1, 1)), CirclePoint.rational(1, 5)),
    ]
    for u, x in cases:
        v = t_membership(u, x)
        assert v.status == "exact", (u.describe(), x)
        _resimulate_rational(u, x, v)


def test_exact_soundness_tier2_norms():
    # In: norms must fall below any fixed bound; Out: the bound recurs
    u = CFDenominators(GOLDEN)
    x = int_mul(3, GOLDEN)
    v = t_membership(u, x)
    assert v.member is True
    for n in range(40, 46):
        qn = eval_seq(u, n)[0]
        s = SurdSum.from_point(x, qn)
        assert s.norm_cmp(Fraction(1, 2**20)) < 0
    y = CirclePoint.quadratic(-1, 1, 4, 5)  # golden / 2
    w = t_membership(u, y)
    assert w.member is False
    e0, period, bound = w.fact("escape_index"), w.fact("period"), w.fact("escape_bound")
    for t in range(3):
        n = e0 + t * period
        s = SurdSum.from_point(y, eval_seq(u, n)[0])
        assert s.norm_cmp(bound) >= 0


# verdict set properties ---------------------------------------------------------

rational_points = st.builds(
    CirclePoint.rational,
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=24),
)
scalar_generators = st.one_of(
    st.builds(Geometric, st.integers(min_value=2, max_value=10)),
    st.just(Factorial()),
    st.just(CFDenominators(GOLDEN)),
    st.just(CFDenominators(SQRT2M1)),
)


@given(scalar_generators, rational_points)
@settings(max_examples=80, deadline=None)
def test_rational_verdicts_match_oracle(u, x):
    v = t_membership(u, x)
    assert v.status == "exact"
    if isinstance(u, Geometric):
        assert v.member == geometric_in(u.base, x.num, x.den)
    elif isinstance(u, Factorial):
        assert v.member is True
    else:
        assert v.member == cfden_in(u.alpha, x.num, x.den)[0]


@given(
    scalar_generators,
    rational_points,
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_subsequence_monotonicity(u, x, stride, offset):
    if t_membership(u, x).member is True:
        sub = Subsequence(u, stride, offset)
        v = t_membership(sub, x)
        assert v.status == "exact" and v.member is True


@given(scalar_generators, rational_points, rational_points)
@settings(max_examples=60, deadline=None)
def test_members_form_a_group(u, x, y):
    if t_membership(u, x).member and t_membership(u, y).member:
        v = t_membership(u, x + y)
        assert v.status == "exact" and v.member is True


# rational torsion profile --------------------------------------------------------


def test_profile_geometric():
    p = rational_torsion_profile(Geometric(2), 10)
    assert p.admitted == (1, 2, 4, 8)
    assert p.flagged == ()
    assert [q for q, _ in p.entries] == list(range(1, 11))
    for q, v in p.entries:
        assert v.member == geometric_in(2, 1, q)


def test_profile_factorial():
    p = rational_torsion_profile(Factorial(), 10)
    assert p.admitted == tuple(range(1, 11))


def test_profile_trivial_bound():
    p = rational_torsion_profile(Geometric(2), 1)
    assert p.admitted == (1,)


def test_profile_rejects_bad_bound():
    with pytest.raises(TorsionError):
        rational_torsion_profile(Geometric(2), 0)


def test_profile_requires_dimension_one():
    with pytest.raises(TorsionError):
        rational_torsion_profile(Geometric(2, (1, 2)), 4)


# null sequences -------------------------------------------------------------------


def _topology(*chars):
    k = len(chars[0]) if chars else 1
    return PrecompactTopology.on_free(k, list(chars))


def test_null_sequence_golden():
    t = _topology((GOLDEN,))
    out = null_sequence(t)
    assert isinstance(out, NullSequenceResult)
    assert out.certificate.strategy == "cf-denominators"
    terms = [eval_seq(out.sequence, n)[0] for n in range(6)]
    assert terms == [1, 2, 5, 13, 34, 89]  # every other Fibonacci denominator
    assert recheck_null_certificate(t, out)
    for tc in out.certificate.terms:
        assert tc.envelope == Fraction(1, 2**tc.index)
        s = SurdSum.from_point(GOLDEN, tc.term[0])
        assert s.norm_cmp(tc.envelope) <= 0


def test_null_sequence_annihilator():
    t = _topology((CirclePoint.rational(1, 6),))
    out = null_sequence(t)
    assert isinstance(out, NullSequenceResult)
    assert out.certificate.strategy == "annihilator"
    assert isinstance(out.sequence, Constant) and out.sequence.vector == (6,)
    assert recheck_null_certificate(t, out)


def test_null_sequence_indiscrete():
    t = PrecompactTopology.on_free(1, [])
    out = null_sequence(t)
    assert isinstance(out, NullSequenceResult)
    assert out.certificate.strategy == "indiscrete"
    assert isinstance(out.sequence, Constant) and out.sequence.vector == (1,)


def test_null_sequence_on_z0_is_an_error():
    with pytest.raises(TorsionError):
        null_sequence(PrecompactTopology.on_free(0, []))


def test_null_sequence_rational_lattice():
    t = _topology((CirclePoint.rational(1, 2), CirclePoint.rational(0, 1)),
                  (CirclePoint.rational(0, 1), CirclePoint.rational(1, 3)))
    out = null_sequence(t)
    assert isinstance(out, NullSequenceResult)
    assert out.certificate.strategy == "annihilator"
    vec = out.sequence.vector
    assert vec != (0, 0)
    assert (vec[0] % 2, vec[1] % 3) == (0, 0)
    assert recheck_null_certificate(t, out)


def test_null_sequence_two_quadratics_lattice_search():
    t = _topology((GOLDEN,), (SQRT2M1,))
    out = null_sequence(t, Budget(max_terms=10, max_candidates=256))
    assert isinstance(out, NullSequenceResult)
    assert out.certificate.strategy == "lattice-approximation"
    assert recheck_null_certificate(t, out)
    for tc in out.certificate.terms:
        assert tc.term != (0,)
        for point in (GOLDEN, SQRT2M1):
            s = SurdSum.from_point(point, tc.term[0])
            assert s.norm_cmp(tc.envelope) <= 0


def test_null_certificate_tamper_detected():
    t = _topology((GOLDEN,))
    out = null_sequence(t)
    third = _topology((CirclePoint.rational(1, 3),))
    ones = Constant((1,))

    def forged(*index_envelope):
        # const:1 against 1/3: norm 1/3 at every index, so only envelopes
        # of at least 1/3 hold, i.e. indices 0 and 1 when envelope = 2^-n
        return NullSequenceResult(ones, NullCertificate("forged", tuple(
            NullTermCert(i, (1,), (Fraction(1, 3),), e) for i, e in index_envelope
        )))

    assert recheck_null_certificate(third, forged((0, Fraction(1)), (1, Fraction(1, 2))))
    tampered = {
        "shifted sequence": (t, NullSequenceResult(
            Subsequence(CFDenominators(GOLDEN), 2, 1), out.certificate
        )),
        "envelopes all 1/2": (third, forged(*((n, Fraction(1, 2)) for n in range(4)))),
        "index 0 repeated": (third, forged(*((0, Fraction(1)) for _ in range(4)))),
        "index 1 missing": (t, NullSequenceResult(out.sequence, NullCertificate(
            out.certificate.strategy,
            out.certificate.terms[:1] + out.certificate.terms[2:],
        ))),
        "empty certificate": (third, forged()),
        "sequence one term short": (t, NullSequenceResult(
            Explicit(tuple(tc.term for tc in out.certificate.terms[:-1])), out.certificate
        )),
    }
    for name, (topology, bad) in tampered.items():
        assert not recheck_null_certificate(topology, bad), name


def test_null_sequence_two_quadratics_default_budget():
    t = _topology((GOLDEN,), (SQRT2M1,))
    out = null_sequence(t)
    assert isinstance(out, NullSequenceResult)
    assert out.certificate.strategy == "lattice-approximation"
    assert len(out.certificate.terms) == Budget().max_terms
    assert recheck_null_certificate(t, out)


def test_capped_null_search_builds_each_pool_once(monkeypatch):
    calls = Counter()
    original = torsion.approximation_candidates

    def counted(chars, scale):
        calls[scale] += 1
        return original(chars, scale)

    monkeypatch.setattr(torsion, "approximation_candidates", counted)
    sqrt3m1 = CirclePoint.quadratic(-1, 1, 1, 3)
    t = _topology((GOLDEN,), (SQRT2M1,), (sqrt3m1,))
    out = null_sequence(t, Budget(max_terms=512, max_candidates=16384))
    assert isinstance(out, NotFound)
    assert out.reason.startswith("no candidate met envelope")
    assert calls and all(n == 1 for n in calls.values())
    assert set(calls) <= {2**e for e in torsion._SCALE_EXPONENTS}


def test_repeated_term_changed_is_refused():
    third = _topology((CirclePoint.rational(1, 3),))
    out = null_sequence(third, Budget(max_terms=6, max_candidates=8))
    assert isinstance(out.sequence, Constant) and out.sequence.vector == (3,)
    assert recheck_null_certificate(third, out)

    def consistent(terms):
        # a certificate that names exactly the given terms, so only the
        # norms of u_3 can refuse it
        return NullSequenceResult(Explicit(terms), NullCertificate("forged", tuple(
            NullTermCert(n, a, (Fraction(0),), Fraction(1, 2**n)) for n, a in enumerate(terms)
        )))

    assert recheck_null_certificate(third, consistent(((3,),) * 6))
    for changed in ((1,), (4,)):
        terms = ((3,),) * 3 + (changed,) + ((3,),) * 2
        assert not recheck_null_certificate(third, consistent(terms)), changed


def test_null_sequence_determinism():
    t = _topology((GOLDEN,), (SQRT2M1,))
    a = null_sequence(t, Budget(max_terms=6, max_candidates=128))
    b = null_sequence(t, Budget(max_terms=6, max_candidates=128))
    assert isinstance(a, NullSequenceResult)
    assert a.sequence.describe() == b.sequence.describe()
    assert a.certificate == b.certificate
