"""Exact arithmetic on the circle group R/Z.

Points are rationals p/q or real quadratic irrationals (a + b*sqrt(d))/c,
kept in a unique normal form with value in [0, 1).  Every ordering decision
reduces to an integer sign test, so the arithmetic never consults floating
point; interval enclosures with rational endpoints are produced only where
a caller asks for a numeric bound.

Continued-fraction expansions are computed exactly as well: finite Euclidean
expansions for rationals (last partial quotient >= 2) and eventually periodic
expansions for quadratic irrationals via the classical (P + sqrt(D))/Q
complete-quotient recursion with state-repetition period detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

__all__ = [
    "CircleError",
    "BoundedExpansionError",
    "CirclePoint",
    "Enclosure",
    "SurdSum",
    "CFExpansion",
    "DEFAULT_TOLERANCE",
    "pair",
    "add",
    "int_mul",
    "norm",
    "cf_expand",
    "convergents",
    "sqrt_enclosure",
]

DEFAULT_TOLERANCE = Fraction(1, 2**64)

_HALF = Fraction(1, 2)


class CircleError(ValueError):
    """Invalid construction or unsupported exact operation."""


class BoundedExpansionError(CircleError):
    """More convergents were requested than a finite expansion provides."""


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _squarefree_decompose(d: int) -> tuple[int, int]:
    """Return (s, d0) with d = s*s*d0 and d0 squarefree."""
    s, d0, n, f = 1, 1, d, 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d0 *= f
        f += 1 if f == 2 else 2
    return s, d0 * n


def _floor_mul_sqrt(b: int, d: int) -> int:
    """floor(b * sqrt(d)) for positive non-square d."""
    if b >= 0:
        return isqrt(b * b * d)
    # b*sqrt(d) is irrational here, so the floor is one below the negated ceiling
    return -isqrt(b * b * d) - 1


def _sign_surd(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for positive non-square d.  Exact."""
    if b == 0:
        return _sign(a)
    if a == 0 or (a > 0) == (b > 0):
        return _sign(b)
    # opposite signs; equality is impossible since d is not a square
    if a > 0:
        return 1 if a * a > b * b * d else -1
    return 1 if b * b * d > a * a else -1


def sqrt_enclosure(d: int, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bounds lo < sqrt(d) < hi with hi - lo <= tol.

    Computed in one integer square root at dyadic precision 2^-k: both
    bounds are strict because d * 4^k is never a perfect square.
    """
    if d <= 0 or isqrt(d) ** 2 == d:
        raise CircleError(f"sqrt enclosure requires positive non-square d, got {d}")
    tol = Fraction(tol)
    if tol <= 0:
        raise CircleError("tolerance must be positive")
    k = max(1, (tol.denominator // tol.numerator).bit_length() + 1)
    root = isqrt(d << (2 * k))
    lo = Fraction(root, 1 << k)
    return lo, lo + Fraction(1, 1 << k)


@dataclass(frozen=True)
class Enclosure:
    """Rational interval [lower, upper] containing a real value.

    ``exact`` means lower == upper and the value is known exactly.
    """

    lower: Fraction
    upper: Fraction
    exact: bool

    def __post_init__(self):
        if self.lower > self.upper:
            raise CircleError("enclosure endpoints out of order")
        if self.exact and self.lower != self.upper:
            raise CircleError("exact enclosure must be a point")

    @classmethod
    def point(cls, value: Fraction) -> "Enclosure":
        value = Fraction(value)
        return cls(value, value, True)

    @classmethod
    def interval(cls, lower: Fraction, upper: Fraction) -> "Enclosure":
        return cls(Fraction(lower), Fraction(upper), False)

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


@dataclass(frozen=True)
class CirclePoint:
    """Point of R/Z in canonical form (num + surd_coeff*sqrt(surd)) / den.

    Invariants: den > 0; surd is 1 for rationals (surd_coeff == 0) and a
    squarefree non-square >= 2 otherwise (surd_coeff != 0);
    gcd(num, surd_coeff, den) == 1; the real value lies in [0, 1).
    Two points are equal iff their canonical fields coincide.
    """

    num: int
    den: int
    surd_coeff: int = 0
    surd: int = 1

    @classmethod
    def rational(cls, num: int, den: int = 1) -> "CirclePoint":
        if den == 0:
            raise CircleError("zero denominator")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = gcd(num, den)
        return cls(num // g, den // g)

    @classmethod
    def quadratic(cls, a: int, b: int, c: int, d: int) -> "CirclePoint":
        """Canonical point for (a + b*sqrt(d))/c; collapses to rational if possible."""
        if c == 0:
            raise CircleError("zero denominator")
        if b != 0 and d <= 0:
            raise CircleError(f"surd base must be positive, got {d}")
        if b != 0:
            s, d = _squarefree_decompose(d)
            b *= s
        if b == 0 or d == 1:
            return cls.rational(a + b, c)
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(gcd(abs(a), abs(b)), c)
        a, b, c = a // g, b // g, c // g
        # reduce mod 1: floor((a + b*sqrt(d))/c) = floor((a + floor(b*sqrt(d)))/c)
        m = (a + _floor_mul_sqrt(b, d)) // c
        return cls(a - m * c, c, b, d)

    @classmethod
    def zero(cls) -> "CirclePoint":
        return cls(0, 1)

    def __post_init__(self):
        if self.den <= 0:
            raise CircleError("denominator must be positive")

    @property
    def is_rational(self) -> bool:
        return self.surd_coeff == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise CircleError("not a rational point")
        return Fraction(self.num, self.den)

    def is_zero(self) -> bool:
        return self.num == 0 and self.surd_coeff == 0

    def value_cmp(self, fr: Fraction) -> int:
        """Sign of (value - fr).  Exact."""
        return SurdSum.from_point(self).cmp(fr)

    def norm_cmp(self, fr: Fraction) -> int:
        """Sign of (||x|| - fr) where ||x|| = min(x, 1-x).  Exact."""
        return SurdSum.from_point(self)._unit_norm_cmp(fr)

    def enclosure(self, tol: Fraction = DEFAULT_TOLERANCE) -> Enclosure:
        """Enclosure of the representative in [0, 1), width <= tol if inexact."""
        return SurdSum.from_point(self).enclosure(tol)

    def __neg__(self) -> "CirclePoint":
        return CirclePoint.quadratic(-self.num, -self.surd_coeff, self.den, self.surd)

    def __add__(self, other):
        if not isinstance(other, CirclePoint):
            return NotImplemented
        return add(self, other)

    def __str__(self) -> str:
        if self.is_rational:
            return f"{self.num}/{self.den}"
        b = self.surd_coeff
        sign = "+" if b >= 0 else "-"
        return f"quad:({self.num}{sign}{abs(b)}*sqrt({self.surd}))/{self.den}"


def add(x: CirclePoint, y: CirclePoint) -> CirclePoint:
    """Sum in R/Z.  Quadratic inputs must share the same surd base."""
    if not x.is_rational and not y.is_rational and x.surd != y.surd:
        raise CircleError(
            f"cannot add points over distinct surd bases {x.surd} and {y.surd}"
        )
    d = x.surd if not x.is_rational else y.surd
    a = x.num * y.den + y.num * x.den
    b = x.surd_coeff * y.den + y.surd_coeff * x.den
    return CirclePoint.quadratic(a, b, x.den * y.den, d)


def int_mul(n: int, x: CirclePoint) -> CirclePoint:
    """n*x in R/Z for an integer n."""
    return CirclePoint.quadratic(n * x.num, n * x.surd_coeff, x.den, x.surd)


def norm(x: CirclePoint, tol: Fraction = DEFAULT_TOLERANCE) -> Enclosure:
    """Enclosure of ||x|| = min(x, 1-x), the distance to the nearest integer.

    Exact for rational points.  For quadratic points the result is an
    interval of width <= tol, refinable by calling again with a smaller tol.
    """
    return SurdSum.from_point(x)._unit_norm_enclosure(tol)


@dataclass(frozen=True)
class SurdSum:
    """Exact real number rat + sum of coeff_d * sqrt(d), distinct squarefree d >= 2.

    Closed under the additive operations needed to evaluate characters with
    mixed surd bases.  Nonzero sums are never equal to a rational, because
    the square roots of distinct squarefree integers are linearly independent
    over Q; sign tests therefore terminate.
    """

    rat: Fraction = Fraction(0)
    terms: tuple[tuple[int, Fraction], ...] = ()

    @classmethod
    def build(cls, rat: Fraction, parts: dict[int, Fraction]) -> "SurdSum":
        terms = tuple(sorted((d, c) for d, c in parts.items() if c != 0))
        return cls(Fraction(rat), terms)

    @classmethod
    def from_point(cls, x: CirclePoint, mult: int = 1) -> "SurdSum":
        rat = Fraction(mult * x.num, x.den)
        if x.is_rational or not mult:
            return cls(rat)
        return cls(rat, ((x.surd, Fraction(mult * x.surd_coeff, x.den)),))

    def __add__(self, other):
        if not isinstance(other, SurdSum):
            return NotImplemented
        parts = dict(self.terms)
        for d, c in other.terms:
            parts[d] = parts.get(d, Fraction(0)) + c
        return SurdSum.build(self.rat + other.rat, parts)

    def shift(self, fr: Fraction) -> "SurdSum":
        return SurdSum(self.rat + Fraction(fr), self.terms)

    def is_rational(self) -> bool:
        return not self.terms

    def enclosure(self, tol: Fraction) -> Enclosure:
        if not self.terms:
            return Enclosure.point(self.rat)
        share = Fraction(tol) / len(self.terms)
        lo = hi = self.rat
        for d, c in self.terms:
            slo, shi = sqrt_enclosure(d, share / abs(c))
            if c > 0:
                lo, hi = lo + c * slo, hi + c * shi
            else:
                lo, hi = lo + c * shi, hi + c * slo
        return Enclosure.interval(lo, hi)

    def sign(self) -> int:
        if not self.terms:
            return _sign(self.rat.numerator)
        if len(self.terms) == 1:
            d, c = self.terms[0]
            den = self.rat.denominator * c.denominator
            a = self.rat.numerator * c.denominator
            b = c.numerator * self.rat.denominator
            return _sign_surd(a, b, d)
        # several surd bases: refine an interval until it excludes zero;
        # terminates because a nonzero sum is never exactly zero
        tol = Fraction(1, 2**16)
        while True:
            e = self.enclosure(tol)
            if e.lower > 0:
                return 1
            if e.upper < 0:
                return -1
            tol /= 2**16

    def cmp(self, fr: Fraction) -> int:
        return self.shift(-fr).sign()

    def floor(self) -> int:
        if not self.terms:
            return self.rat.numerator // self.rat.denominator
        tol = Fraction(1, 2**16)
        while True:
            e = self.enclosure(tol)
            flo = e.lower.numerator // e.lower.denominator
            fhi = e.upper.numerator // e.upper.denominator
            if flo == fhi:
                return flo
            tol /= 2**16

    def mod1(self) -> "SurdSum":
        return self.shift(-self.floor())

    def norm_cmp(self, fr: Fraction) -> int:
        """Sign of (||value mod 1|| - fr).  Exact."""
        return self.mod1()._unit_norm_cmp(fr)

    def norm_enclosure(self, tol: Fraction = DEFAULT_TOLERANCE) -> Enclosure:
        if not self.terms:
            r = self.rat % 1
            return Enclosure.point(min(r, 1 - r))
        return self.mod1()._unit_norm_enclosure(tol)

    # The _unit_ forms take a value already in [0, 1), such as a CirclePoint,
    # and skip the floor that mod1() finds by refining enclosures.

    def _unit_norm_cmp(self, fr: Fraction) -> int:
        if self.cmp(_HALF) <= 0:
            return self.cmp(fr)
        return -self.cmp(1 - Fraction(fr))

    def _unit_norm_enclosure(self, tol: Fraction) -> Enclosure:
        if not self.terms:
            return Enclosure.point(min(self.rat, 1 - self.rat))
        e = self.enclosure(tol)
        if self.cmp(_HALF) < 0:
            return Enclosure.interval(max(Fraction(0), e.lower), min(e.upper, _HALF))
        return Enclosure.interval(max(Fraction(0), 1 - e.upper), min(1 - e.lower, _HALF))


def pair(term: tuple[int, ...], points: tuple[CirclePoint, ...]) -> SurdSum:
    """<term, points> = sum of term_i * points_i as an exact real, to be read
    mod 1: the one pairing of integer vectors with characters and points."""
    total = SurdSum()
    for coeff, point in zip(term, points):
        if coeff:
            total = total + SurdSum.from_point(point, coeff)
    return total


@dataclass(frozen=True)
class CFExpansion:
    """Continued fraction [a0; a1, a2, ...] of a point in [0, 1).

    ``period`` is None for finite (rational) expansions, else (start, length)
    marking the eventually periodic tail of a quadratic irrational.  The
    stored quotients always cover at least one full period.
    """

    quotients: tuple[int, ...]
    period: tuple[int, int] | None = None

    @property
    def is_finite(self) -> bool:
        return self.period is None

    def __len__(self) -> int:
        return len(self.quotients)

    def quotient(self, i: int) -> int:
        if i < 0:
            raise CircleError("negative quotient index")
        if i < len(self.quotients):
            return self.quotients[i]
        if self.period is None:
            raise BoundedExpansionError(
                f"finite expansion has {len(self.quotients)} quotients, index {i} requested"
            )
        start, length = self.period
        return self.quotients[start + (i - start) % length]

    def canonical_index(self, i: int) -> int:
        """Fold index i into the first full period of a periodic expansion."""
        if self.period is None:
            return i
        start, length = self.period
        if i < start + length:
            return i
        return start + (i - start) % length


def _cf_rational(p: int, q: int) -> CFExpansion:
    # p/q in [0, 1); Euclidean algorithm, last quotient kept >= 2
    digits = [0]
    a, b = q, p
    while b:
        digits.append(a // b)
        a, b = b, a % b
    if len(digits) > 1 and digits[-1] == 1:
        digits.pop()
        digits[-1] += 1
    return CFExpansion(tuple(digits), None)


def _cf_quadratic(x: CirclePoint, min_terms: int) -> CFExpansion:
    # complete quotients (P + sqrt(D))/Q with Q | D - P*P throughout
    b, d = x.surd_coeff, x.surd
    D = b * b * d
    if b > 0:
        P, Q = x.num, x.den
    else:
        P, Q = -x.num, -x.den
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    s = isqrt(D)
    digits: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    period = None
    while period is None or len(digits) < min_terms:
        if period is None:
            if (P, Q) in seen:
                period = (seen[(P, Q)], len(digits) - seen[(P, Q)])
                continue
            seen[(P, Q)] = len(digits)
        a = (P + s) // Q if Q > 0 else (-P - s - 1) // -Q
        digits.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return CFExpansion(tuple(digits), period)


def cf_expand(x: CirclePoint, max_terms: int = 64) -> CFExpansion:
    """Continued fraction of x: full finite expansion for rationals, at
    least max_terms quotients with detected period for quadratics."""
    if max_terms < 1:
        raise CircleError("max_terms must be >= 1")
    if x.is_rational:
        return _cf_rational(x.num, x.den)
    return _cf_quadratic(x, max_terms)


def convergents(cf: CFExpansion, n: int) -> list[tuple[int, int]]:
    """Convergents p_k/q_k for k = 0..n (inclusive) from the expansion.

    Satisfies p_k = a_k p_{k-1} + p_{k-2}, likewise for q, with the
    determinant identity p_k q_{k-1} - p_{k-1} q_k = (-1)^(k-1).
    """
    if n < 0:
        raise CircleError("negative convergent index")
    if cf.is_finite and n >= len(cf.quotients):
        raise BoundedExpansionError(
            f"finite expansion supports convergent indices up to {len(cf.quotients) - 1}"
        )
    out = []
    pm1, pm2 = 1, 0  # p_{k-1}, p_{k-2} seeds: p_{-1} = 1, p_{-2} = 0
    qm1, qm2 = 0, 1
    for k in range(n + 1):
        a = cf.quotient(k)
        p = a * pm1 + pm2
        q = a * qm1 + qm2
        out.append((p, q))
        pm1, pm2 = p, pm1
        qm1, qm2 = q, qm1
    return out


def convergent_denominators(cf: CFExpansion, count: int) -> list[int]:
    """First ``count`` convergent denominators q_0, ..., q_{count-1}."""
    if count <= 0:
        return []
    return [q for _, q in convergents(cf, count - 1)]
