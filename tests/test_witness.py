"""Escape witnesses: frozen worked examples, recurrence oracles, and the
soundness invariants (every witness re-verifies; members never get one).

Fibonacci and Pell values are generated by from-scratch recurrences here,
never read back from the implementation.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from gclose.circle import CirclePoint, SurdSum, int_mul
from gclose.duality import PrecompactTopology
from gclose.torsion import Budget, Constant, Explicit, eval_seq, t_membership
from gclose.witness import (
    DEFAULT_DELTA_LADDER,
    ConsistentWithMembership,
    Exhausted,
    NotInGClosure,
    Witness,
    WitnessError,
    bds_experiment,
    check_witness,
    find_witness,
    g_membership_experiment,
)

GOLDEN = CirclePoint.quadratic(-1, 1, 2, 5)
SQRT2M1 = CirclePoint.quadratic(-1, 1, 1, 2)


def fibonacci(count):
    out = [1, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def pell_denominators(count):
    out = [1, 2]
    while len(out) < count:
        out.append(2 * out[-1] + out[-2])
    return out[:count]


def topo(*chars):
    k = len(chars[0]) if chars else 1
    return PrecompactTopology.on_free(k, list(chars))


def rat(p, q=1):
    return CirclePoint.rational(p, q)


# the golden/half worked example ----------------------------------------------


def test_fibonacci_witness():
    w = find_witness(topo((GOLDEN,)), (rat(1, 2),), Fraction(1, 2))
    assert isinstance(w, Witness)
    assert w.strategy == "cf-subsequence"
    assert w.escape_threshold == Fraction(1, 2)
    # terms are q_{3n} = F_{3n+1}: every Fibonacci number at index 1 mod 3
    fib = fibonacci(40)
    expected = [fib[3 * n] for n in range(6)]
    got = [eval_seq(w.sequence, n)[0] for n in range(6)]
    assert got == expected == [1, 3, 13, 55, 233, 987]
    # Fibonacci parity has period 3 (odd, odd, even): the selected terms are odd
    assert all(t % 2 == 1 for t in got)
    assert check_witness(w, topo((GOLDEN,)), (rat(1, 2),))


def test_fibonacci_witness_certificates():
    w = find_witness(topo((GOLDEN,)), (rat(1, 2),), Fraction(1, 2))
    assert len(w.null_certificate) == len(w.escape_certificate) == 48
    for tc in w.null_certificate:
        assert tc.envelope == Fraction(1, 2**tc.index)
        s = SurdSum.from_point(GOLDEN, tc.term[0])
        assert s.norm_cmp(tc.envelope) <= 0
    for tc in w.escape_certificate:
        assert tc.threshold == Fraction(1, 2)
        assert tc.term[0] % 2 == 1  # odd numerator over 2 has norm exactly 1/2


def test_fibonacci_witness_rejects_wrong_chi():
    w = find_witness(topo((GOLDEN,)), (rat(1, 2),), Fraction(1, 2))
    assert check_witness(w, topo((GOLDEN,)), (rat(1, 2),))
    assert not check_witness(w, topo((GOLDEN,)), (rat(1, 3),))


def test_witness_realizes_membership_split():
    # the witness sequence u has H <= s_u while chi escapes, per Eq-style split
    w = find_witness(topo((GOLDEN,)), (rat(1, 2),), Fraction(1, 2))
    inside = t_membership(w.sequence, GOLDEN)
    assert inside.status == "exact" and inside.member is True
    outside = t_membership(w.sequence, rat(1, 2))
    assert outside.status == "exact" and outside.member is False


# annihilator shortcut ----------------------------------------------------------


def test_constant_witness_s1():
    w = find_witness(topo((rat(1, 3),)), (rat(1, 2),), Fraction(1, 2))
    assert isinstance(w, Witness)
    assert w.strategy == "annihilator"
    assert isinstance(w.sequence, Constant) and w.sequence.vector == (3,)
    assert check_witness(w, topo((rat(1, 3),)), (rat(1, 2),))


def test_constant_witness_k2():
    t = topo((rat(1, 2), rat(0)), (rat(0), rat(1, 3)))
    chi = (rat(1, 5), rat(1, 5))
    w = find_witness(t, chi, Fraction(1, 3))
    assert isinstance(w, Witness)
    assert w.strategy == "annihilator"
    assert w.sequence.vector == (2, 0)
    assert check_witness(w, t, chi)


def test_member_never_witnessed():
    cases = [
        (topo((rat(1, 3),)), (rat(2, 3),)),  # 2 * generator
        (topo((GOLDEN,)), (int_mul(2, GOLDEN),)),
        (topo((rat(1, 2),), (rat(1, 3),)), (rat(5, 6),)),
        (topo((rat(1, 4), rat(1, 6))), (rat(3, 4), rat(1, 2))),  # 3 * generator
    ]
    for t, chi in cases:
        for delta in DEFAULT_DELTA_LADDER:
            out = find_witness(t, chi, delta, Budget(max_terms=12, max_candidates=64))
            assert isinstance(out, Exhausted), (chi, delta)
            assert out.reason and out.candidates_tested >= 0


def test_delta_validation():
    t = topo((GOLDEN,))
    for bad in (Fraction(0), Fraction(-1, 2), Fraction(2, 3), Fraction(1)):
        with pytest.raises(WitnessError):
            find_witness(t, (rat(1, 2),), bad)


def test_witness_determinism():
    t = topo((GOLDEN,))
    a = find_witness(t, (rat(1, 2),), Fraction(1, 2))
    b = find_witness(t, (rat(1, 2),), Fraction(1, 2))
    assert a == b
    g1 = g_membership_experiment(t, (rat(1, 3),))
    g2 = g_membership_experiment(t, (rat(1, 3),))
    assert g1 == g2


def test_check_witness_rejects_tampering():
    t = topo((GOLDEN,))
    chi = (rat(1, 2),)
    w = find_witness(t, chi, Fraction(1, 2))
    worse = Witness(
        w.sequence,
        w.escape_threshold,
        w.null_certificate,
        tuple(
            type(tc)(tc.index, tc.term, tc.norm_lower, Fraction(3, 4))
            for tc in w.escape_certificate
        ),
        w.strategy,
    )
    shifted = Witness(
        w.sequence,
        w.escape_threshold,
        tuple(
            type(tc)(tc.index, tc.term, tc.norms, tc.envelope / 2**10)
            for tc in w.null_certificate
        ),
        w.escape_certificate,
        w.strategy,
    )
    # every term padded with a zero coordinate: the first coordinate alone
    # still meets every bound, but the terms no longer live in Z^1
    padded = Witness(
        Explicit(tuple(tc.term + (0,) for tc in w.null_certificate)),
        w.escape_threshold,
        tuple(replace(tc, term=tc.term + (0,)) for tc in w.null_certificate),
        tuple(replace(tc, term=tc.term + (0,)) for tc in w.escape_certificate),
        w.strategy,
    )
    tampered = {
        "escape threshold raised": (worse, chi),
        "envelopes shrunk": (shifted, chi),
        "chi with three coordinates on Z^1": (w, chi + (rat(0), rat(0))),
        "terms of dimension 2 on Z^1": (padded, chi),
    }
    for name, (bad, bad_chi) in tampered.items():
        assert not check_witness(bad, t, bad_chi), name


# the ladder experiment ----------------------------------------------------------


def test_gmem_golden_half():
    out = g_membership_experiment(topo((GOLDEN,)), (rat(1, 2),))
    assert isinstance(out, NotInGClosure)
    assert out.delta == Fraction(1, 2)
    assert check_witness(out.witness, topo((GOLDEN,)), (rat(1, 2),))


def test_gmem_golden_self():
    out = g_membership_experiment(topo((GOLDEN,)), (GOLDEN,))
    assert isinstance(out, ConsistentWithMembership)
    assert [d for d, _ in out.attempts] == list(DEFAULT_DELTA_LADDER)
    assert all(isinstance(e, Exhausted) for _, e in out.attempts)
    assert "does not prove" in out.note


def test_gmem_one_fifth_against_sixth_group():
    t = topo((rat(1, 2),), (rat(1, 3),))
    out = g_membership_experiment(t, (rat(1, 5),))
    assert isinstance(out, NotInGClosure)
    assert out.delta == Fraction(1, 3)
    assert out.witness.strategy == "annihilator"
    assert out.witness.sequence.vector == (12,)
    assert check_witness(out.witness, t, (rat(1, 5),))


# bds experiment ------------------------------------------------------------------


def test_bds_golden():
    report = bds_experiment(GOLDEN, [rat(1, 2), rat(1, 3)])
    assert report.alpha == GOLDEN
    assert report.inclusion_verified
    assert len(report.multiples) == 21
    assert all(v.status == "exact" and v.member for _, v in report.multiples)
    for probe, res in report.probes:
        assert isinstance(res, NotInGClosure), probe
    assert "not claimed" in report.note


def test_bds_golden_self_probe():
    report = bds_experiment(GOLDEN, [GOLDEN], multiple_bound=2)
    (probe, res), = report.probes
    assert isinstance(res, ConsistentWithMembership)


def test_bds_pell():
    report = bds_experiment(SQRT2M1, [rat(1, 2)], multiple_bound=3)
    assert report.inclusion_verified
    (_, res), = report.probes
    assert isinstance(res, NotInGClosure)
    w = res.witness
    pell = pell_denominators(12)
    got = [eval_seq(w.sequence, n)[0] for n in range(5)]
    assert got == [pell[2 * n] for n in range(5)] == [1, 5, 29, 169, 985]
    assert all(t % 2 == 1 for t in got)
    assert check_witness(w, topo((SQRT2M1,)), (rat(1, 2),))


def test_bds_validation():
    with pytest.raises(WitnessError):
        bds_experiment(rat(1, 3), [rat(1, 2)])
    with pytest.raises(WitnessError):
        bds_experiment(GOLDEN, [])
