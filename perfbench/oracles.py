"""Independent arithmetic for checking the kernel's answers.

Nothing here calls into ``gclose``: points are read by their fields only,
and every check is recomputed with plain integers, ``Fraction`` and
``math.isqrt``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

HALF = Fraction(1, 2)


# -- number theory ------------------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n up to about 1e12)."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def multiplicative_order(b: int, p: int, factors_of_p_minus_1: dict[int, int]) -> int:
    """Order of b modulo the prime p, given the factorization of p - 1."""
    order = p - 1
    for f in factors_of_p_minus_1:
        while order % f == 0 and pow(b, order // f, p) == 1:
            order //= f
    return order


def kempner(q: int) -> int:
    """Smallest m with q | m!, from Legendre's formula."""
    best = 0
    for p, e in factorize(q).items():
        m = 0
        while True:
            m += p
            v, t = 0, m
            while t:
                t //= p
                v += t
            if v >= e:
                break
        best = max(best, m)
    return best


def eventually_zero_geometric(c: int, base: int, q: int) -> bool:
    """Is c * base^n = 0 (mod q) for all large n?"""
    r = q // gcd(q, c)
    while r > 1:
        g = gcd(r, base)
        if g == 1:
            return False
        r //= g
    return True


# -- finite subgroups of (Q/Z)^k ---------------------------------------------------


def _scaled(point, modulus: int) -> tuple[int, ...]:
    return tuple(n * (modulus // d) % modulus for n, d in point)


def _multiples(v, modulus: int) -> list[tuple[int, ...]]:
    out = [tuple(0 for _ in v)]
    for _ in range(modulus // gcd(modulus, *v) - 1):
        out.append(tuple((a + b) % modulus for a, b in zip(out[-1], v)))
    return out


def _in_span(vecs, target, modulus: int) -> bool:
    """Is target an integer combination of vecs, all read mod modulus?"""
    last = set(_multiples(vecs[-1], modulus))
    shifts = [tuple(0 for _ in target)]
    for v in vecs[:-1]:
        shifts = [
            tuple((a + b) % modulus for a, b in zip(s, m))
            for s in shifts
            for m in _multiples(v, modulus)
        ]
    return any(tuple((t - s) % modulus for t, s in zip(target, sh)) in last for sh in shifts)


def in_finite_subgroup(gens, chi) -> bool:
    """Is chi in the finite group the rational generators span?

    Points are tuples of reduced (numerator, denominator) pairs.  Brute
    force over the generators' multiples.
    """
    modulus = lcm(*(d for g in gens for _, d in g))
    if any(modulus % d for _, d in chi):
        return False
    return _in_span([_scaled(g, modulus) for g in gens], _scaled(chi, modulus), modulus)


# -- quadratic irrationals ------------------------------------------------------


def point_value(p) -> tuple[Fraction, dict[int, Fraction]]:
    """A CirclePoint as (rational part, {radicand: coefficient})."""
    rat = Fraction(p.num, p.den)
    if p.surd_coeff == 0:
        return rat, {}
    return rat, {p.surd: Fraction(p.surd_coeff, p.den)}


def combine(terms) -> tuple[Fraction, dict[int, Fraction]]:
    """Sum of integer multiples: terms is an iterable of (int, CirclePoint)."""
    rat = Fraction(0)
    parts: dict[int, Fraction] = {}
    for coeff, point in terms:
        r, s = point_value(point)
        rat += coeff * r
        for d, c in s.items():
            parts[d] = parts.get(d, Fraction(0)) + coeff * c
    return rat, {d: c for d, c in parts.items() if c}


def _interval(rat: Fraction, parts: dict[int, Fraction], bits: int):
    lo = hi = rat
    scale = 1 << bits
    for d, c in parts.items():
        r = isqrt(d * scale * scale)
        slo, shi = Fraction(r, scale), Fraction(r + 1, scale)
        if c > 0:
            lo, hi = lo + c * slo, hi + c * shi
        else:
            lo, hi = lo + c * shi, hi + c * slo
    return lo, hi


def norm_cmp(value: tuple[Fraction, dict[int, Fraction]], t: Fraction) -> int:
    """Sign of (||value mod 1|| - t), by interval refinement.

    Exact for rationals; for irrational values it terminates because a sum
    of independent square roots never equals a rational.
    """
    rat, parts = value
    if not parts:
        f = rat - (rat.numerator // rat.denominator)
        n = min(f, 1 - f)
        return (n > t) - (n < t)
    bits = 64
    while True:
        lo, hi = _interval(rat, parts, bits)
        flo = lo.numerator // lo.denominator
        if flo == hi.numerator // hi.denominator:
            # the tent min(f, 1 - f) is smallest at an end of [f_lo, f_hi]
            f_lo, f_hi = lo - flo, hi - flo
            ends = (min(f_lo, 1 - f_lo), min(f_hi, 1 - f_hi))
            n_lo = min(ends)
            n_hi = HALF if f_lo <= HALF <= f_hi else max(ends)
            if n_lo > t:
                return 1
            if n_hi < t:
                return -1
        bits *= 2


class QuadraticCF:
    """Continued fraction of (a + b*sqrt(d))/c by the (P + sqrt(D))/Q recursion."""

    def __init__(self, point):
        a, b, c, d = point.num, point.surd_coeff, point.den, point.surd
        s = 1 if b > 0 else -1
        P, D, Q = a * s, b * b * d, c * s
        if (D - P * P) % Q:
            P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
        self._state = (P, D, Q)
        self._root = isqrt(D)
        self.quotients: list[int] = []

    def quotient(self, k: int) -> int:
        P, D, Q = self._state
        while len(self.quotients) <= k:
            a = (P + self._root) // Q if Q > 0 else (P + self._root + 1) // Q
            self.quotients.append(a)
            P = a * Q - P
            Q = (D - P * P) // Q
        self._state = (P, D, Q)
        return self.quotients[k]

    def denominators(self, count: int, modulus: int | None = None) -> list[int]:
        """q_0 .. q_{count-1}, optionally reduced mod ``modulus``."""
        out = []
        prev, cur = 0, 1
        for k in range(count):
            if k:
                prev, cur = cur, self.quotient(k) * cur + prev
            else:
                cur = 1
            if modulus is not None:
                prev, cur = prev % modulus, cur % modulus
            out.append(cur)
        return out


# -- integer matrices -----------------------------------------------------------


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def determinant(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n = len(m)
    a = [list(r) for r in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def is_smith_form(u, d, v, m) -> bool:
    """D = U*M*V with U, V unimodular and D diagonal, d1 | d2 | ..., d_i >= 0."""
    if matmul(matmul(u, m), v) != d:
        return False
    if abs(determinant(u)) != 1 or abs(determinant(v)) != 1:
        return False
    diag = []
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j and x:
                return False
            if i == j:
                diag.append(x)
    if any(x < 0 for x in diag):
        return False
    return all((y == 0) if x == 0 else y % x == 0 for x, y in zip(diag, diag[1:]))
