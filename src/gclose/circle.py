"""Exact arithmetic on the circle group R/Z.

Points are rationals p/q or real quadratic irrationals (a + b*sqrt(d))/c,
kept in a unique normal form with value in [0, 1).  Pairings of integer
vectors with points are ``SurdSum`` values: integer numerators, one for the
rational part and one per squarefree surd base, over one common
denominator.  Every floor and ordering decision reduces to integer
arithmetic -- one integer square root for a single surd base -- so the
arithmetic never consults floating point.  ``Fraction`` appears only at the
boundary: ``Enclosure`` endpoints, produced only where a caller asks for a
numeric bound, ``CirclePoint.as_fraction`` and ``SurdSum.rat``.

Continued-fraction expansions are computed exactly as well: finite Euclidean
expansions for rationals (last partial quotient >= 2) and eventually periodic
expansions for quadratic irrationals via the classical (P + sqrt(D))/Q
complete-quotient recursion; the period closes when the first reduced
complete quotient returns.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

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
]

DEFAULT_TOLERANCE = Fraction(1, 2**64)


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
    return SurdSum.from_point(x).norm_enclosure(tol)


def _surd_terms(parts: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """SurdSum.terms from numerators keyed by base: the nonzero ones, by base."""
    return tuple(sorted((d, b) for d, b in parts.items() if b))


@dataclass(frozen=True, slots=True)
class SurdSum:
    """Exact real number (num + sum of b_d * sqrt(d)) / den over distinct
    squarefree bases d >= 2, in integers only.

    ``num`` is the rational numerator; ``terms`` holds one nonzero numerator
    b_d per surd base, sorted by d, so ``len(terms)`` is the number of bases;
    ``den`` > 0 is their common denominator, not necessarily in lowest terms.
    Closed under the additive operations needed to evaluate characters with
    mixed surd bases.  Nonzero surd parts never sum to a rational, because
    the square roots of distinct squarefree integers are linearly
    independent over Q; sign and floor therefore terminate.

    For an integer s != 0, s*value is SurdSum(s*num, s*terms, den): zeros
    stay zeros and nonzero numerators nonzero, so <s*v, x> = s*<v, x> with
    the same terms and den, and ``norm_brackets`` streams such multiples.

    A one-base sum takes its floor in one integer square root,
    floor((a + b*sqrt(d))/c) = (a + floor(b*sqrt(d))) // c, and its sign from
    ``_sign_surd``.  Several bases refine integer brackets of
    value * den * 2^k, doubling k, until they decide.  ``Fraction`` appears
    only where a value leaves the class: ``rat`` and the ``Enclosure``
    endpoints.
    """

    num: int = 0
    terms: tuple[tuple[int, int], ...] = ()
    den: int = 1

    @classmethod
    def from_point(cls, x: CirclePoint, mult: int = 1) -> "SurdSum":
        if x.is_rational or not mult:
            return cls(mult * x.num, (), x.den)
        return cls(mult * x.num, ((x.surd, mult * x.surd_coeff),), x.den)

    @property
    def rat(self) -> Fraction:
        """The rational part as a Fraction."""
        return Fraction(self.num, self.den)

    def __add__(self, other):
        if not isinstance(other, SurdSum):
            return NotImplemented
        g = gcd(self.den, other.den)
        up, down = other.den // g, self.den // g
        parts = {d: b * up for d, b in self.terms}
        for d, b in other.terms:
            parts[d] = parts.get(d, 0) + b * down
        return SurdSum(self.num * up + other.num * down, _surd_terms(parts), self.den * up)

    def _plus(self, p: int, q: int) -> "SurdSum":
        """value + p/q for q > 0."""
        if q == 1:
            return SurdSum(self.num + p * self.den, self.terms, self.den)
        g = gcd(self.den, q)
        up = q // g
        terms = tuple((d, b * up) for d, b in self.terms)
        return SurdSum(self.num * up + p * (self.den // g), terms, self.den * up)

    def _times(self, s: int) -> "SurdSum":
        """s*value over the same den, for an integer s != 0."""
        if s == 1:
            return self
        return SurdSum(s * self.num, tuple((d, s * b) for d, b in self.terms), self.den)

    def is_rational(self) -> bool:
        return not self.terms

    def is_integer(self) -> bool:
        return not self.terms and self.num % self.den == 0

    def _bounds(self, tol, roots=None, s=1, prev=None) -> tuple[int, int, int]:
        """(lo, hi, scale) with lo/scale < s*value < hi/scale for an irrational
        sum and an integer s != 0, hi - lo <= tol * scale.  Each term
        b*sqrt(d)/den, b = s*b_d, is bracketed to within tol/len(terms) by
        R_k = isqrt(d << 2k), k = bit_length(len(terms)*|b| // (den*tol)) + 1;
        scale is den * 2^(largest k).

        ``roots`` maps d to (K, R_K), filled in as it goes: k <= K reads R_k
        as R_K >> (K - k), since floor(floor(y)/m) = floor(y/m), and k > K
        takes a new root at max(k, 2K), about log2(largest k) roots per run.

        ``prev``, a list that starts empty, keeps the last s' and per base
        (k', b'*R_k', R_k', b').  If s = r*s', then |s| >= |s'| makes
        k = k' + delta, delta >= 0, and R_k = (R_k' << delta) + e, 0 <= e < 2^delta,
        so b*R_k = r*((b'*R_k') << delta) + b*e: short factors only, linear in
        the bit length, where b*R_k is k by k bits.  R_k depends on k alone,
        so refreshing a root changes nothing.  Any other s multiplies afresh."""
        tn, td = tol.numerator, tol.denominator
        if tn <= 0:
            raise CircleError("tolerance must be positive")
        if roots is None:
            roots = {}
        r, rest = divmod(s, prev[0]) if prev else (0, 1)
        span, cut = td * len(self.terms), tn * self.den
        top, per_term = 0, []
        for i, (d, b) in enumerate(self.terms):
            b *= s
            k = (span * abs(b) // cut).bit_length() + 1
            K, R = roots.get(d, (0, 0))
            if K < k:
                K = max(k, 2 * K)
                R = isqrt(d << (2 * K))
                roots[d] = K, R
            R >>= K - k
            if rest:
                low = b * R
            else:
                k0, low, last, _ = prev[1][i]
                low = r * (low << (k - k0)) + b * (R - (last << (k - k0)))
            per_term.append((k, low, R, b))
            top = max(top, k)
        if prev is not None:
            prev[:] = s, per_term
        lo = hi = (self.num * s) << top
        for k, low, _, b in per_term:
            high = low + b
            if b < 0:
                low, high = high, low
            lo += low << (top - k)
            hi += high << (top - k)
        return lo, hi, self.den << top

    def enclosure(self, tol: Fraction) -> Enclosure:
        if not self.terms:
            return Enclosure.point(self.rat)
        lo, hi, scale = self._bounds(tol)
        return Enclosure(Fraction(lo, scale), Fraction(hi, scale), False)

    def _brackets(self):
        """Integer brackets lo < value * scale < hi of an irrational sum,
        scale = den * 2^k at k = 32, 64, 128, ...; hi - lo = len(terms)."""
        k = 32
        while True:
            lo = (self.num << k) + sum(_floor_mul_sqrt(b << k, d) for d, b in self.terms)
            yield lo, lo + len(self.terms), self.den << k
            k *= 2

    def sign(self) -> int:
        if not self.terms:
            return _sign(self.num)
        if len(self.terms) == 1:
            ((d, b),) = self.terms
            return _sign_surd(self.num, b, d)
        for lo, hi, _ in self._brackets():
            if lo >= 0:
                return 1
            if hi <= 0:
                return -1

    def cmp(self, fr: Fraction) -> int:
        return self._plus(-fr.numerator, fr.denominator).sign()

    def floor(self) -> int:
        if not self.terms:
            return self.num // self.den
        if len(self.terms) == 1:
            ((d, b),) = self.terms
            return (self.num + _floor_mul_sqrt(b, d)) // self.den
        for lo, hi, scale in self._brackets():
            if lo // scale == (hi - 1) // scale:
                return lo // scale

    def mod1(self) -> "SurdSum":
        return self._plus(-self.floor(), 1)

    def norm_cmp(self, fr: Fraction) -> int:
        """Sign of (||value mod 1|| - fr).  Exact.

        A rational sum compares r = num mod den, reflected to
        min(r, den - r), with fr in one integer cross-multiplication."""
        if not self.terms:
            r = self.num % self.den
            return _sign(min(r, self.den - r) * fr.denominator - fr.numerator * self.den)
        return self.mod1()._unit_norm_cmp(fr)

    def norm_bracket(self, tol: Fraction, roots=None) -> tuple[int, int, int]:
        """(lo, hi, scale) with lo/scale <= ||value mod 1|| <= hi/scale:
        lo == hi for a rational sum, else hi - lo <= tol * scale.

        The bracket is ``_bounds`` shifted by the floor, and reflected when
        value mod 1 > 1/2.  Both the floor and that test are read off the
        bracket; only a bracket that straddles an integer, or 1/2 after the
        shift, falls back to the exact ``floor`` or ``sign``.  ``roots`` is
        the root table of ``_bounds``, shared by the terms of one scan."""
        if not self.terms:
            r = self.num % self.den
            r = min(r, self.den - r)
            return r, r, self.den
        return self._fold(self._bounds(tol, roots), 1)

    def norm_brackets(self, scalars: Iterable[int], tol: Fraction, roots) -> Iterator:
        """The norm brackets of s*value = SurdSum(s*num, s*terms, den) for each
        integer s != 0 in turn, through one root table: (r, r, den) for a
        rational sum, r = min(s*num mod den, den - s*num mod den).  No
        multiple is built but for the exact floor or 1/2 test, and ``_bounds``
        carries its products from each s to the next."""
        a, c, prev = self.num, self.den, []
        if not self.terms:
            return ((r, r, c) for r in (min(s * a % c, -s * a % c) for s in scalars))
        return (self._fold(self._bounds(tol, roots, s, prev), s) for s in scalars)

    def _fold(self, bounds: tuple[int, int, int], s: int) -> tuple[int, int, int]:
        """The norm bracket of s*value from its ``_bounds``."""
        lo, hi, scale = bounds
        # scale = den << k: shift first, so no long division by scale
        k = scale.bit_length() - self.den.bit_length()
        f = (lo >> k) // self.den
        if f != ((hi - 1) >> k) // self.den:
            f = self._times(s).floor()
        shift = (f * self.den) << k
        lo -= shift
        hi -= shift
        if 2 * lo >= scale or (2 * hi > scale and self._times(s)._plus(-2 * f - 1, 2).sign() > 0):
            lo, hi = scale - hi, scale - lo
        return max(0, lo), min(hi, scale >> 1), scale

    def norm_enclosure(self, tol: Fraction = DEFAULT_TOLERANCE) -> Enclosure:
        lo, hi, scale = self.norm_bracket(tol)
        if lo == hi:
            return Enclosure.point(Fraction(lo, scale))
        return Enclosure(Fraction(lo, scale), Fraction(hi, scale), False)

    # _unit_norm_cmp takes a value already in [0, 1), such as a CirclePoint,
    # and skips the floor that mod1() takes.

    def _unit_norm_cmp(self, fr: Fraction) -> int:
        p, q = fr.numerator, fr.denominator
        if self._plus(-1, 2).sign() <= 0:
            return self._plus(-p, q).sign()
        return -self._plus(p - q, q).sign()


def pair(term: tuple[int, ...], points: tuple[CirclePoint, ...]) -> SurdSum:
    """<term, points> = sum of term_i * points_i as an exact real, to be read
    mod 1: the one pairing of integer vectors with characters and points.
    Numerators are summed over the lcm of the points' denominators."""
    used = [(c, p) for c, p in zip(term, points) if c]
    den = lcm(*(p.den for _, p in used))
    num, parts = 0, {}
    for c, p in used:
        scale = c * (den // p.den)
        num += scale * p.num
        if p.surd_coeff:
            parts[p.surd] = parts.get(p.surd, 0) + scale * p.surd_coeff
    return SurdSum(num, _surd_terms(parts) if parts else (), den)


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
    # the expansion is purely periodic from the first reduced complete
    # quotient, 0 < P <= s and s - P < Q <= s + P (Galois; Perron), so the
    # period closes when (P, Q) returns to it
    s = isqrt(D)
    digits: list[int] = []
    start = period = None
    while period is None or len(digits) < min_terms:
        if period is None:
            if start is None and 0 < P <= s and s - P < Q <= s + P:
                start, mark = len(digits), (P, Q)
            elif start is not None and (P, Q) == mark:
                period = (start, len(digits) - start)
                continue
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
