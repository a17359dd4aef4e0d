"""Membership ladder and null sequences: frozen examples, independent
residue-orbit oracles, and the soundness invariants for Exact verdicts.

Oracles here are written from scratch: geometric orbits by cycle detection
on r -> base*r mod q, factorial membership by q | n!, continued-fraction
residues by the convergent recurrence mod q.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclose.circle import (
    BoundedExpansionError,
    CirclePoint,
    SurdSum,
    cf_expand,
    convergent_denominators,
    int_mul,
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
    eval_seq,
    null_sequence,
    rational_torsion_profile,
    recheck_null_certificate,
    s_membership,
    t_membership,
    _STATE_CAP,
    _GeoMachine,
    _geometric_cycle,
    _run_cycle,
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
    assert time.perf_counter() - started < 1


def _automaton_cycle(start, step, q, cap):
    run = _run_cycle(_GeoMachine(start, step, q), cap)
    if run is None:
        return None
    residues, first, period = run
    best, _, index = _summarize_cycle(residues, first, period, q)
    return first, period, best, index


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
    }
    for name, (topology, bad) in tampered.items():
        assert not recheck_null_certificate(topology, bad), name


def test_null_sequence_determinism():
    t = _topology((GOLDEN,), (SQRT2M1,))
    a = null_sequence(t, Budget(max_terms=6, max_candidates=128))
    b = null_sequence(t, Budget(max_terms=6, max_candidates=128))
    assert isinstance(a, NullSequenceResult)
    assert a.sequence.describe() == b.sequence.describe()
    assert a.certificate == b.certificate
