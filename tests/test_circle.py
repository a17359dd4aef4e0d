"""Exact circle arithmetic: frozen examples plus property tests.

Expected values are frozen from independent computation: rational cases by
hand or with Fraction arithmetic, continued fractions against a from-scratch
Euclidean oracle, quadratic norms against interval evaluation of the surd.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclose.circle import (
    BoundedExpansionError,
    CFExpansion,
    CircleError,
    CirclePoint,
    Enclosure,
    SurdSum,
    add,
    cf_expand,
    convergent_denominators,
    convergents,
    int_mul,
    norm,
)

GOLDEN = CirclePoint.quadratic(-1, 1, 2, 5)
SQRT2M1 = CirclePoint.quadratic(-1, 1, 1, 2)


# independent oracles ------------------------------------------------------


def cf_oracle(p: int, q: int) -> list[int]:
    """Euclidean continued fraction of p/q in [0,1), final quotient >= 2."""
    digits = []
    while q:
        digits.append(p // q)
        p, q = q, p % q
    if len(digits) > 1 and digits[-1] == 1:
        digits.pop()
        digits[-1] += 1
    return digits


def cf_value(digits: list[int]) -> Fraction:
    acc = Fraction(digits[-1])
    for a in reversed(digits[:-1]):
        acc = a + 1 / acc
    return acc


def surd_interval(a: int, b: int, c: int, d: int, bits: int = 100):
    """Rational bracket of (a + b*sqrt(d))/c via integer square root."""
    import math

    scale = 1 << bits
    lo_root = math.isqrt(d * scale * scale)
    lo, hi = Fraction(lo_root, scale), Fraction(lo_root + 1, scale)
    if b < 0:
        lo, hi = hi, lo
    return (a + b * lo) / c, (a + b * hi) / c


def floor_oracle(a: int, b: int, c: int, d: int) -> int:
    """floor((a + b*sqrt(d))/c) for c > 0: an isqrt estimate corrected by
    exact comparisons of squares."""
    import math

    def at_least(m: int) -> bool:  # b*sqrt(d) >= m*c - a
        t = m * c - a
        if b >= 0:
            return t <= 0 or b * b * d >= t * t
        return t < 0 and b * b * d <= t * t

    root = math.isqrt(b * b * d)
    m = (a + (root if b >= 0 else -root)) // c
    while not at_least(m):
        m -= 1
    while at_least(m + 1):
        m += 1
    return m


# rational normal form -----------------------------------------------------


def test_normalize_negative():
    p = CirclePoint.rational(-1, 3)
    assert (p.num, p.den) == (2, 3)


def test_normalize_reduce_and_wrap():
    p = CirclePoint.rational(10, 8)
    assert (p.num, p.den) == (1, 4)


def test_normalize_zero_denominator():
    with pytest.raises(CircleError):
        CirclePoint.rational(1, 0)


def test_quadratic_canonical_range():
    # golden = (-1 + sqrt(5))/2 is already in [0, 1)
    assert GOLDEN.value_cmp(Fraction(0)) > 0
    assert GOLDEN.value_cmp(Fraction(1)) < 0
    # a shifted representative lands on the same canonical point
    assert CirclePoint.quadratic(3, 1, 2, 5) == GOLDEN
    # square radicand collapses to a rational point
    assert CirclePoint.quadratic(1, 1, 2, 4).is_rational


# add / int_mul ------------------------------------------------------------


def test_add_order_two():
    half = CirclePoint.rational(1, 2)
    assert add(half, half) == CirclePoint.zero()


def test_add_rationals():
    assert add(CirclePoint.rational(1, 3), CirclePoint.rational(1, 2)) == (
        CirclePoint.rational(5, 6)
    )


def test_add_golden_to_itself():
    # golden + golden = -1 + sqrt(5) = (-4 + 2*sqrt(5))/2 after wrapping
    doubled = add(GOLDEN, GOLDEN)
    assert doubled == CirclePoint.quadratic(-4, 2, 2, 5)
    assert doubled == int_mul(2, GOLDEN)
    lo, hi = surd_interval(-4, 2, 2, 5)
    assert Fraction(23, 100) < lo <= hi < Fraction(24, 100)  # about 0.236


def test_add_mixed_fields_rejected():
    with pytest.raises(CircleError):
        add(GOLDEN, SQRT2M1)


def test_int_mul_annihilates():
    assert int_mul(6, CirclePoint.rational(1, 6)) == CirclePoint.zero()


def test_int_mul_wraps():
    assert int_mul(2, CirclePoint.rational(2, 3)) == CirclePoint.rational(1, 3)


def test_int_mul_golden():
    # 3*golden = (-3 + 3*sqrt(5))/2, minus 1 to canonicalize; about 0.854
    tripled = int_mul(3, GOLDEN)
    assert tripled == CirclePoint.quadratic(-5, 3, 2, 5)
    lo, hi = surd_interval(-5, 3, 2, 5)
    assert Fraction(854, 1000) < lo <= hi < Fraction(855, 1000)


# norm ----------------------------------------------------------------------


def test_norm_zero():
    n = norm(CirclePoint.zero())
    assert n.exact and n.lower == 0 and n.upper == 0


def test_norm_symmetry_exact():
    n = norm(CirclePoint.rational(2, 3))
    assert n.exact and n.lower == Fraction(1, 3)


def test_norm_golden_interval():
    n = norm(GOLDEN)
    # ||golden|| = 1 - golden = (3 - sqrt(5))/2, about 0.38196
    lo, hi = surd_interval(3, -1, 2, 5)
    assert n.lower <= hi and lo <= n.upper
    assert n.width <= Fraction(1, 2**64)
    assert Fraction(3819, 10000) < n.lower <= n.upper < Fraction(3820, 10000)


def test_norm_cmp_exact_signs():
    # ||golden|| vs landmarks, decided by sign tests rather than intervals
    assert GOLDEN.norm_cmp(Fraction(1, 3)) > 0
    assert GOLDEN.norm_cmp(Fraction(2, 5)) < 0
    assert GOLDEN.norm_cmp(Fraction(1, 2)) < 0


# cf_expand ------------------------------------------------------------------


def test_cf_rational_example():
    cf = cf_expand(CirclePoint.rational(7, 16))
    assert cf.quotients == (0, 2, 3, 2)
    assert cf.is_finite
    assert cf_value([2, 3, 2]) == Fraction(16, 7)  # reconstruction check


def test_cf_golden():
    cf = cf_expand(GOLDEN, 8)
    assert cf.period is not None
    start, length = cf.period
    assert (start, length) == (1, 1)
    assert cf.quotients[0] == 0
    assert all(cf.quotient(i) == 1 for i in range(1, 20))


def test_cf_zero():
    cf = cf_expand(CirclePoint.zero())
    assert cf.quotients == (0,) and cf.is_finite


def test_cf_sqrt2m1():
    cf = cf_expand(SQRT2M1, 6)
    assert cf.quotients[0] == 0
    assert all(cf.quotient(i) == 2 for i in range(1, 12))


# convergents ----------------------------------------------------------------


def test_convergents_golden_fibonacci():
    cf = cf_expand(GOLDEN, 8)
    qs = [q for _, q in convergents(cf, 5)]
    assert qs == [1, 1, 2, 3, 5, 8]
    assert convergent_denominators(cf, 6) == [1, 1, 2, 3, 5, 8]


def test_convergents_7_16():
    cf = cf_expand(CirclePoint.rational(7, 16))
    assert convergents(cf, 3) == [(0, 1), (1, 2), (3, 7), (7, 16)]


def test_convergents_zero():
    cf = cf_expand(CirclePoint.zero())
    assert convergents(cf, 0) == [(0, 1)]


def test_convergents_past_finite_expansion():
    cf = cf_expand(CirclePoint.rational(1, 2))
    with pytest.raises(BoundedExpansionError):
        convergents(cf, 5)


# property tests -------------------------------------------------------------

rationals = st.builds(
    CirclePoint.rational,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
small_quadratics = st.builds(
    CirclePoint.quadratic,
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-9, max_value=9).filter(lambda b: b != 0),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
)


@given(rationals, rationals, rationals)
def test_add_associative_commutative(x, y, z):
    assert add(add(x, y), z) == add(x, add(y, z))
    assert add(x, y) == add(y, x)


@given(rationals)
def test_add_inverse_and_idempotent_normalization(x):
    assert add(x, -x) == CirclePoint.zero()
    assert CirclePoint.rational(x.num, x.den) == x


@given(st.one_of(rationals, small_quadratics))
def test_norm_symmetry(x):
    a, b = norm(x), norm(-x)
    assert a.lower <= b.upper and b.lower <= a.upper
    if a.exact:
        assert a == b


@given(rationals, rationals)
def test_norm_triangle_rational(x, y):
    assert norm(add(x, y)).lower <= norm(x).upper + norm(y).upper


@given(small_quadratics, small_quadratics)
def test_norm_triangle_interval_consistent(x, y):
    if x.surd != y.surd:
        return
    s = add(x, y)
    assert norm(s).lower <= norm(x).upper + norm(y).upper


@given(rationals)
def test_cf_round_trip(x):
    cf = cf_expand(x)
    assert cf_value(list(cf.quotients)) % 1 == x.as_fraction()
    assert list(cf.quotients) == cf_oracle(x.num, x.den)


@given(st.one_of(rationals, small_quadratics))
@settings(max_examples=60)
def test_determinant_identity(x):
    cf = cf_expand(x, 12)
    top = len(cf.quotients) - 1 if cf.is_finite else 12
    conv = convergents(cf, top)
    for k in range(1, len(conv)):
        p, q = conv[k]
        pp, qq = conv[k - 1]
        assert p * qq - pp * q == (-1) ** (k - 1)


@given(small_quadratics)
@settings(max_examples=40)
def test_approximation_bound_strict(x):
    cf = cf_expand(x, 14)
    conv = convergents(cf, 12)
    for k in range(len(conv) - 1):
        _, q = conv[k]
        q_next = conv[k + 1][1]
        assert int_mul(q, x).norm_cmp(Fraction(1, q_next)) < 0


@given(small_quadratics)
@settings(max_examples=40)
def test_denominators_double_every_two_steps(x):
    cf = cf_expand(x, 14)
    qs = convergent_denominators(cf, 12)
    for m in range(len(qs) - 2):
        assert qs[m + 2] >= 2 * qs[m]


# SurdSum --------------------------------------------------------------------


def test_surdsum_mixed_field_arithmetic():
    s = SurdSum.from_point(GOLDEN) + SurdSum.from_point(SQRT2M1)
    assert not s.is_rational()
    assert s.sign() > 0
    # golden + (sqrt2 - 1) is about 1.032; floor must be exact
    assert s.floor() == 1
    assert s.mod1().sign() > 0


def test_surdsum_cancellation_to_rational():
    s = SurdSum.from_point(GOLDEN) + SurdSum.from_point(GOLDEN, -1)
    assert s.is_rational() and s.rat == 0


def test_one_base_floor_is_one_isqrt(monkeypatch):
    """floor and norm_cmp of a one-base sum never refine an enclosure, even
    within 1/q_(n+1) of an integer or with 512! in the numerators."""
    import math

    qs = convergent_denominators(cf_expand(GOLDEN), 303)
    sums = [SurdSum.from_point(GOLDEN, sign * q) for q in qs[:301] for sign in (1, -1)]
    sums.append(SurdSum.from_point(CirclePoint.quadratic(1, 1, 3, 2), math.factorial(512)))

    def refuse(self, tol):
        raise AssertionError("enclosure refined for a one-base sum")

    monkeypatch.setattr(SurdSum, "enclosure", refuse)
    for s in sums:
        ((d, b),) = s.terms
        assert s.floor() == floor_oracle(s.num, b, s.den, d)
    for n in range(301):
        s = SurdSum.from_point(GOLDEN, qs[n])
        # 1/(q_n + q_(n+1)) < ||q_n * golden|| < 1/q_(n+1), for n >= 1
        assert s.norm_cmp(Fraction(1, qs[n + 1])) < 0
        if n:
            assert s.norm_cmp(Fraction(1, qs[n] + qs[n + 1])) > 0


def test_surdsum_norm_cmp():
    s = SurdSum.from_point(GOLDEN, 2)  # 2*golden, about 1.236
    assert s.mod1().norm_cmp(Fraction(1, 4)) < 0
    assert s.mod1().norm_cmp(Fraction(1, 5)) > 0


def test_rational_norm_cmp_matches_the_general_path(monkeypatch):
    """The integer branch of norm_cmp, on sums with no surd terms, against
    the general path it bypasses: mod1() and then _unit_norm_cmp."""
    rng = random.Random(14)
    cases = []
    for _ in range(2000):
        den = rng.choice((1, 2, rng.randint(1, 60), 2 * rng.randint(1, 30)))
        num = rng.choice(
            (0, rng.randint(-3 * den, 3 * den), den // 2 + den * rng.randint(-3, 3))
        )
        x = Fraction(num, den) % 1
        q = rng.randint(1, 60)
        for fr in (Fraction(0), Fraction(1, 2), min(x, 1 - x), Fraction(rng.randint(0, q), q)):
            cases.append((SurdSum(num, (), den), fr))
    expected = [s.mod1()._unit_norm_cmp(fr) for s, fr in cases]

    def general_path(self):
        raise AssertionError("a rational sum took the general path")

    monkeypatch.setattr(SurdSum, "mod1", general_path)
    assert [s.norm_cmp(fr) for s, fr in cases] == expected
    # the seeds reach every edge the branch has
    assert any(s.num < 0 for s, _ in cases) and any(s.num == 0 for s, _ in cases)
    assert any(s.den == 1 for s, _ in cases)
    assert any(s.den % 2 == 0 and 2 * (s.num % s.den) == s.den for s, _ in cases)
    assert any(e == 0 and 0 < fr < Fraction(1, 2) for (_, fr), e in zip(cases, expected))
    assert {-1, 0, 1} == set(expected)


def test_enclosure_validation():
    with pytest.raises(CircleError):
        Enclosure(Fraction(1), Fraction(0), False)
    with pytest.raises(CircleError):
        Enclosure(Fraction(0), Fraction(1), True)


def test_cfexpansion_quotient_fold():
    cf = CFExpansion((0, 1, 2, 1, 2), (1, 2))
    assert [cf.quotient(i) for i in range(8)] == [0, 1, 2, 1, 2, 1, 2, 1]
    assert cf.canonical_index(7) == 1
    assert cf.canonical_index(6) == 2
