"""Escape witnesses: frozen worked examples, recurrence oracles, and the
soundness invariants (every witness re-verifies; members never get one).

Fibonacci and Pell values are generated by from-scratch recurrences here,
never read back from the implementation.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from gclose import torsion
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
    # the sequence ends one term before its certificates do
    short = replace(w, sequence=Explicit(tuple(tc.term for tc in w.null_certificate[:-1])))
    # 0.5 == Fraction(1, 2), but a certificate holds no floating point
    floats = {
        "threshold as a float": replace(w, escape_threshold=0.5),
        "envelopes as floats": replace(w, null_certificate=tuple(
            replace(tc, envelope=float(tc.envelope)) for tc in w.null_certificate
        )),
        "term thresholds as floats": replace(w, escape_certificate=tuple(
            replace(tc, threshold=0.5) for tc in w.escape_certificate
        )),
    }
    tampered = {name: (bad, chi) for name, bad in floats.items()} | {
        "escape threshold raised": (worse, chi),
        "envelopes shrunk": (shifted, chi),
        "chi with three coordinates on Z^1": (w, chi + (rat(0), rat(0))),
        "terms of dimension 2 on Z^1": (padded, chi),
        "sequence one term short": (short, chi),
    }
    for name, (bad, bad_chi) in tampered.items():
        assert not check_witness(bad, t, bad_chi), name


# the ladder experiment ----------------------------------------------------------


def test_float_fields_are_refused_without_raising():
    t = topo((rat(1, 3),))
    chi = (rat(1, 2),)
    w = find_witness(t, chi, Fraction(1, 2))
    assert check_witness(w, t, chi)
    float_envelopes = tuple(replace(tc, envelope=float(tc.envelope)) for tc in w.null_certificate)
    for bad in (
        replace(w, escape_threshold=0.5),
        replace(w, null_certificate=float_envelopes),
    ):
        assert check_witness(bad, t, chi) is False


def test_constant_witness_makes_one_bracket_per_value(monkeypatch):
    # a rational (2, 2) topology whose witness is a 48-term annihilator
    t = PrecompactTopology.on_free(2, [(rat(1, 2), rat(1, 3)), (rat(1, 4), rat(0))])
    chi = (rat(1, 5), rat(0))
    calls = Counter()
    for name in ("norm_bracket", "norm_enclosure"):
        original = getattr(SurdSum, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(SurdSum, name, counted)
    w = find_witness(t, chi, Fraction(1, 5))
    assert w.strategy == "annihilator" and isinstance(w.sequence, Constant)
    assert len(w.null_certificate) == 48
    # one bracket per generator pairing and one for the chi pairing
    assert calls["norm_bracket"] <= len(t.characters) + 1
    assert calls["norm_enclosure"] == 0
    monkeypatch.undo()
    assert check_witness(w, t, chi)


def test_repeated_term_changed_is_refused():
    t = topo((rat(1, 3),))
    chi = (rat(1, 2),)
    w = find_witness(t, chi, Fraction(1, 2), Budget(6, 32))
    assert w.strategy == "annihilator" and w.sequence.vector == (3,)

    def consistent(terms):
        # certificates that name exactly the given terms, so only the norms
        # of a_3 can refuse them: 6 is null for 1/3 but does not escape 1/2,
        # 1 escapes 1/2 but is not null for 1/3
        return Witness(
            Explicit(terms),
            w.escape_threshold,
            tuple(replace(tc, term=a) for tc, a in zip(w.null_certificate, terms)),
            tuple(replace(tc, term=a) for tc, a in zip(w.escape_certificate, terms)),
            w.strategy,
        )

    assert check_witness(consistent(((3,),) * 6), t, chi)
    for changed in ((6,), (1,)):
        terms = ((3,),) * 3 + (changed,) + ((3,),) * 2
        assert not check_witness(consistent(terms), t, chi), changed


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


# one topology's work, shared within a call --------------------------------------


def seeded_rational_cases(seed, per_shape=4):
    """(topology, chi) on Z^k with m rational characters, denominators <= 30,
    for every shape (k, m) in {1, 2}^2; chi alternates between a random point
    and a sum of generators, which lies in H and so climbs the whole ladder."""
    rng = random.Random(seed)

    def point():
        return rat(rng.randrange(30), rng.randint(1, 30))

    cases = []
    for k in (1, 2):
        for m in (1, 2):
            for i in range(per_shape):
                chars = [tuple(point() for _ in range(k)) for _ in range(m)]
                if i % 2:
                    chi = tuple(point() for _ in range(k))
                else:
                    coeffs = [rng.randint(1, 3) for _ in chars]
                    chi = tuple(
                        sum((int_mul(c, h[j]) for c, h in zip(coeffs, chars)), rat(0))
                        for j in range(k)
                    )
                cases.append((topo(*chars), chi))
    return cases


def independent_ladder(t, chi, budget):
    """g_membership_experiment rebuilt from one find_witness call per rung."""
    attempts = []
    for delta in DEFAULT_DELTA_LADDER:
        result = find_witness(t, chi, delta, budget)
        if isinstance(result, Witness):
            return NotInGClosure(result, delta)
        attempts.append((delta, result))
    return ConsistentWithMembership(tuple(attempts))


def test_shared_ladder_equals_independent_rungs():
    budget = Budget(16, 128)
    seen = Counter()
    for t, chi in seeded_rational_cases(14):
        shared = g_membership_experiment(t, chi, budget)
        assert shared == independent_ladder(t, chi, budget), (t.characters, chi)
        if isinstance(shared, NotInGClosure):
            seen["witness"] += 1
        else:
            seen["lattice rung"] += sum(
                e.reason.startswith("no candidate") for _, e in shared.attempts
            )
    # both outcomes, and rungs that searched the lattice pools
    assert seen["witness"] and seen["lattice rung"]


def test_bds_probes_share_work_and_equal_separate_ladders():
    probes = [rat(1, 2), rat(1, 3), GOLDEN, rat(2, 7)]
    budget = Budget(6, 32)
    report = bds_experiment(GOLDEN, probes, budget, multiple_bound=1)
    assert report.probes == tuple(
        (p, independent_ladder(topo((GOLDEN,)), (p,), budget)) for p in probes
    )
    outcomes = {type(res) for _, res in report.probes}
    assert outcomes == {NotInGClosure, ConsistentWithMembership}


def count_calls(monkeypatch, name, calls):
    """Count the calls the torsion module, home of the staged search, makes
    to one of its names, keyed by the name and the arguments after the first
    (the scale or radius)."""
    original = getattr(torsion, name)

    def counted(*args):
        calls[(name, *args[1:])] += 1
        return original(*args)

    monkeypatch.setattr(torsion, name, counted)


def test_one_ladder_builds_each_piece_of_work_once(monkeypatch):
    calls = Counter()
    for name in ("von_neumann_radical", "approximation_candidates", "_annihilator_candidates"):
        count_calls(monkeypatch, name, calls)
    t = topo((rat(1, 3), rat(1, 5)))
    out = g_membership_experiment(t, (rat(2, 3), rat(2, 5)), Budget(16, 128))
    assert isinstance(out, ConsistentWithMembership)
    assert sum(e.reason.startswith("no candidate") for _, e in out.attempts) >= 2
    assert calls[("von_neumann_radical",)] == 1
    scales = [key for key in calls if key[0] == "approximation_candidates"]
    radii = [key for key in calls if key[0] == "_annihilator_candidates"]
    assert len(scales) >= 2 and radii
    assert all(calls[key] == 1 for key in scales + radii)


def test_each_public_call_builds_its_own_work(monkeypatch):
    calls = Counter()
    for name in ("von_neumann_radical", "approximation_candidates"):
        count_calls(monkeypatch, name, calls)
    t = topo((rat(1, 3), rat(1, 5)))
    chi, delta, budget = (rat(2, 3), rat(2, 5)), Fraction(1, 6), Budget(16, 128)
    first = find_witness(t, chi, delta, budget)
    once = Counter(calls)
    assert once[("von_neumann_radical",)] == 1 and len(once) >= 2
    assert find_witness(t, chi, delta, budget) == first
    assert calls == once + once
    calls.clear()
    g_membership_experiment(t, chi, budget)
    g_membership_experiment(t, chi, budget)
    assert all(n == 2 for n in calls.values())
