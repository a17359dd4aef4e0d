"""torsion-rational: membership verdicts for rational points.

``t_membership``, ``s_membership`` and ``rational_torsion_profile`` on
``geom`` (several bases, strided ``sub(...)``, vector patterns), ``fact``,
``cfden:quad:...`` and ``interleave`` sequences, at prime denominators from
2 to about 1e5.  For ``geom`` the base is a primitive root, so the orbit is
as long as the denominator and the cost grows with it.

A round of 50 queries is laid out in cost tiers (see ``Workload.round``).
The median and the 90th percentile each fall inside a band of like ``geom``
queries: 8 at a denominator near 600 hold ranks 22-29, and 5 near 15000
hold ranks 43-47.  Every other query is sized to stay clearly below or
above its band.  The seed draws numerators, bases, patterns, strides and
points, but not the tiers, so the percentiles measure the kernel, not the
draw.  One query in 50 is a point whose orbit has more than a million
states, which runs the residue automaton into its state cap: round 0 uses
a modulus of 2^61 - 1, and the rounds alternate it with a prime just above
1e6.

The residue automata do nearly all the work: no lattice, no surds.
``peak_rss_mb`` and ``decided_ratio`` show the state-dict growth.
"""

from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction
from math import gcd

import oracles
from common import Query

NAME = "torsion-rational"
POOL_ROUNDS = 16
MAX_Q = 100_000
STATE_CAP = 1_000_000
MERSENNE_61 = 2**61 - 1
BASES = (2, 3, 5, 6, 7, 10, 12)
# quadratic irrationals (a, b, c, d) = (a + b*sqrt(d))/c for cfden sequences
ALPHAS = ((-1, 1, 2, 5), (0, 1, 1, 2), (1, 1, 3, 7), (0, 1, 2, 3), (2, 1, 5, 13), (0, 1, 3, 6))


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\0\0"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i, f in enumerate(flags) if f]


PRIMES = _sieve(MAX_Q + 2_000)


def _primitive_root(base: int, p: int) -> bool:
    return base % p != 0 and all(
        pow(base, (p - 1) // f, p) != 1 for f in oracles.factorize(p - 1)
    )


def _prime(x: int, base: int | None = None) -> int:
    """The least prime >= x, with ``base`` a primitive root mod it if given.

    Prime moduli whose orbit runs through every residue make the automaton's
    work grow with the denominator, so a stratified denominator also
    stratifies the cost.
    """
    i = bisect.bisect_left(PRIMES, x)
    while base is not None and not _primitive_root(base, PRIMES[i]):
        i += 1
    return PRIMES[i]


def _stratified(rng, count: int, lo: int, hi: int) -> list[int]:
    """One integer near the middle of each of ``count`` equal log-strata of [lo, hi].

    Drawing near the middle, not anywhere in the stratum, keeps the
    per-round cost profile alike across seeds.
    """
    span = math.log(hi) - math.log(lo)
    out = []
    for i in range(count):
        u = (i + 0.4 + 0.2 * rng.random()) / count
        out.append(max(lo, min(hi, round(lo * math.exp(u * span)))))
    return out


def _band(rng, count: int, center: int) -> list[int]:
    """``count`` integers within 4% above ``center``: one cost band."""
    return [center + int(0.04 * center * rng.random()) for _ in range(count)]


# -- oracle specs: ("geom", b, pattern) | ("fact", pattern) | ("cfden", point)
#    | ("sub", stride, offset, spec) | ("inter", ((spec, block), ...))


class _Residues:
    """r(n) = <u_n, w> mod Q, recomputed from the sequence definition."""

    def __init__(self, spec, w: tuple[int, ...], Q: int, cfs):
        self.spec, self.w, self.Q, self.cfs = spec, w, Q, cfs
        self._qn: dict = {}  # point -> [q_0 mod Q, q_1 mod Q, ...]

    def at(self, n: int, spec=None) -> int:
        spec = spec or self.spec
        kind, Q = spec[0], self.Q
        if kind == "sub":
            return self.at(spec[1] * n + spec[2], spec[3])
        if kind == "inter":
            cycle = sum(b for _, b in spec[1])
            c, s = divmod(n, cycle)
            for child, block in spec[1]:
                if s < block:
                    return self.at(c * block + s, child)
                s -= block
        if kind == "geom":
            return _dot(spec[2], self.w) * pow(spec[1], n, Q) % Q
        if kind == "fact":
            f = 1
            for m in range(2, n + 1):
                f = f * m % Q
                if not f:
                    break
            return _dot(spec[1], self.w) * f % Q
        qn = self._qn.get(spec[1])
        if qn is None or len(qn) <= n:
            qn = self._qn[spec[1]] = self.cfs(spec[1]).denominators(2 * n + 2, Q)
        return self.w[0] * qn[n] % Q

    def member(self, spec=None) -> bool:
        spec = spec or self.spec
        kind = spec[0]
        if kind == "sub":
            return self.member(spec[3])
        if kind == "inter":
            return all(self.member(child) for child, _ in spec[1])
        if kind == "geom":
            return oracles.eventually_zero_geometric(_dot(spec[2], self.w), spec[1], self.Q)
        if kind == "fact":
            return True
        return self.w[0] % self.Q == 0


def _dot(pattern, w) -> int:
    return sum(a * b for a, b in zip(pattern, w))


def _check_verdict(v, res: _Residues) -> bool:
    """An exact verdict agrees with an independent orbit simulation."""
    if v.status != "exact" or v.member != res.member():
        return False
    if res.Q == 1:
        return v.member
    kind = res.spec[0]
    if v.member:
        start = v.fact("from_index")
        if kind == "fact" or (kind == "sub" and res.spec[3][0] == "fact"):
            return start == _fact_start(res)
        if any(res.at(n) for n in range(start, start + 24)):
            return False
        return kind == "inter" or start == 0 or res.at(start - 1) != 0
    e, p = v.fact("escape_index"), v.fact("period")
    r = res.at(e)
    if not r or res.at(e + p) != r or res.at(e + 2 * p) != r:
        return False
    value = v.fact("escape_value")
    return value is None or value == Fraction(min(r, res.Q - r), res.Q)


def _fact_start(res: _Residues) -> int:
    """First n with Q | (A*n + B)! * c, from Legendre's formula."""
    spec = res.spec
    A, B = (spec[1], spec[2]) if spec[0] == "sub" else (1, 0)
    pattern = (spec[3] if spec[0] == "sub" else spec)[1]
    c = _dot(pattern, res.w) % res.Q
    m = oracles.kempner(res.Q // gcd(res.Q, c))
    return 0 if B >= m else -((B - m) // A)


class Workload:
    def __init__(self, gclose, seed: int):
        self.gc = gclose
        self.seed = seed
        self._cf: dict = {}

    # -- building blocks ----------------------------------------------------

    def _alpha(self, rng):
        return self.gc.CirclePoint.quadratic(*rng.choice(ALPHAS))

    def _cf_of(self, point):
        cf = self._cf.get(point)
        if cf is None:
            cf = self._cf[point] = oracles.QuadraticCF(point)
        return cf

    def _seq(self, spec):
        gc, kind = self.gc, spec[0]
        if kind == "geom":
            return gc.Geometric(spec[1], spec[2])
        if kind == "fact":
            return gc.Factorial(spec[1])
        if kind == "cfden":
            return gc.CFDenominators(spec[1])
        if kind == "sub":
            return gc.Subsequence(self._seq(spec[3]), spec[1], spec[2])
        return gc.Interleave(
            tuple(self._seq(c) for c, _ in spec[1]), tuple(b for _, b in spec[1])
        )

    def _membership(self, kind, spec, fracs) -> Query:
        gc = self.gc
        seq = self._seq(spec)
        points = tuple(gc.CirclePoint.rational(f.numerator, f.denominator) for f in fracs)
        Q = math.lcm(*(p.den for p in points))
        res = _Residues(spec, tuple(p.num * (Q // p.den) for p in points), Q, self._cf_of)

        def run():
            if len(points) == 1:
                return gc.t_membership(seq, points[0])
            return gc.s_membership(seq, points)

        def check(v):
            ok = _check_verdict(v, res)
            return ok, ok

        return Query(kind, f"{seq.describe()}|{','.join(map(str, points))}", run, check)

    def _profile(self, spec, max_den: int) -> Query:
        gc = self.gc
        seq = self._seq(spec)

        def run():
            return gc.rational_torsion_profile(seq, max_den)

        def check(profile):
            if [q for q, _ in profile.entries] != list(range(1, max_den + 1)):
                return False, False
            for q, v in profile.entries:
                if not _check_verdict(v, _Residues(spec, (1,), q, self._cf_of)):
                    return False, False
            admitted = tuple(q for q, v in profile.entries if v.member)
            ok = profile.admitted == admitted and not profile.flagged
            return ok, ok

        return Query("profile", f"{seq.describe()}|{max_den}", run, check)

    def _capped(self, rng, big: bool) -> Query:
        """A point whose residue orbit has more than STATE_CAP states."""
        if big:
            p = MERSENNE_61
            factors = oracles.factorize(p - 1)
            while True:
                base = rng.choice((3, 5, 6, 7, 10, 11, 12, 13))
                if oracles.multiplicative_order(base, p, factors) > STATE_CAP:
                    break
        else:
            base = 2
            p = rng.randrange(STATE_CAP + 3, 1_100_000) | 1
            while not (
                oracles.is_prime(p)
                and oracles.multiplicative_order(2, p, oracles.factorize(p - 1)) > STATE_CAP
            ):
                p += 2
        num = rng.randrange(1, p)
        gc = self.gc
        seq, point = gc.Geometric(base), gc.CirclePoint.rational(num, p)

        def run():
            return gc.t_membership(seq, point)

        def check(v):
            # the orbit's period is the order of the base, beyond the cap
            return v.status == "undecided", False

        return Query("state-cap", f"{seq.describe()}|{point}", run, check)

    # -- rounds -------------------------------------------------------------

    def round(self, index: int) -> list[Query]:
        """One round, in cost tiers (times on a 2-core x86 VM):

        - 21 below the median band, under 0.4 ms: ``geom`` and strided
          ``geom`` at denominators up to 100, vector patterns at primes
          near 13 and below, ``cfden`` at primes up to 23, ``fact`` up to
          1000;
        - the median band, 8 ``geom`` near 600 (about 0.7 ms);
        - 13 between the bands, 1.5-7 ms: ``geom`` and strided ``geom``
          at a few thousand, ``interleave`` of ``geom`` and ``fact``, and
          the 4 profiles;
        - the 90th-percentile band, 5 ``geom`` near 15000 (about 17 ms);
        - 3 above it: ``geom`` and strided ``geom`` near 1e5, and the
          state-cap query.
        """
        rng = random.Random(f"{NAME}:{self.seed}:{index}")

        def frac(q):
            return Fraction(rng.randrange(1, q), q)

        def geom(kind, q):
            base = rng.choice(BASES)
            spec = ("geom", base, (1,))
            if kind == "geom-strided":
                spec = ("sub", rng.randint(2, 4), rng.randint(0, 5), spec)
            return self._membership(kind, spec, (frac(_prime(q, base)),))

        out = [self._capped(rng, big=index % 2 == 0)]
        # below the median band
        for i, q in enumerate(_stratified(rng, 3, 2, 100)):
            if i == 2:
                # a base-smooth denominator: the orbit dies out (Exact In)
                base = rng.choice(BASES)
                q = base ** rng.randint(2, 4)
                out.append(self._membership("geom", ("geom", base, (1,)), (frac(q),)))
            else:
                out.append(geom("geom", q))
        for q in _stratified(rng, 2, 2, 60):
            out.append(geom("geom-strided", q))
        for q1, q2 in zip(_stratified(rng, 5, 2, 13), _stratified(rng, 5, 2, 13)):
            base = rng.choice(BASES)
            pattern = (rng.randint(1, 5), rng.randint(-5, 5))
            pts = (frac(_prime(q1, base)), frac(_prime(q2, base)))
            out.append(self._membership("geom-vector", ("geom", base, pattern), pts))
        for i, q in enumerate(_stratified(rng, 6, 2, 1000)):
            if i % 3 == 1:
                spec = ("sub", rng.randint(2, 3), rng.randint(0, 4), ("fact", (1,)))
                pts = (frac(_prime(q)),)
            elif i % 3 == 2:
                spec = ("fact", (rng.randint(1, 4), rng.randint(1, 4)))
                pts = (frac(_prime(rng.randint(2, 30))), frac(_prime(rng.randint(2, 30))))
            else:
                spec, pts = ("fact", (1,)), (frac(_prime(q)),)
            out.append(self._membership("fact", spec, pts))
        for q in _stratified(rng, 5, 2, 23):
            spec = ("cfden", self._alpha(rng))
            out.append(self._membership("cfden", spec, (frac(_prime(q)),)))
        # the median band
        for q in _band(rng, 8, 600):
            out.append(geom("geom", q))
        # between the bands
        for q in _stratified(rng, 2, 2_000, 5_000):
            out.append(geom("geom", q))
        for q in _stratified(rng, 2, 1_000, 3_000):
            out.append(geom("geom-strided", q))
        for q in _stratified(rng, 5, 1_500, 4_000):
            base = rng.choice(BASES)
            spec = (
                "inter",
                ((("geom", base, (1,)), rng.randint(1, 3)), (("fact", (1,)), rng.randint(1, 3))),
            )
            out.append(self._membership("interleave", spec, (frac(_prime(q, base)),)))
        profiles = [
            (("geom", rng.choice(BASES), (1,)), 60),
            (("fact", (1,)), 100),
            (("sub", 2, 1, ("geom", rng.choice(BASES), (1,))), 60),
            (("cfden", self._alpha(rng)), 40),
        ]
        for spec, max_den in profiles:
            out.append(self._profile(spec, max_den))
        # the 90th-percentile band and above it
        for q in _band(rng, 5, 15_000):
            out.append(geom("geom", q))
        out.append(geom("geom", MAX_Q))
        out.append(geom("geom-strided", MAX_Q))
        return out

    def warmup(self) -> list[Query]:
        rng = random.Random(f"{NAME}:{self.seed}:warmup")
        half = Fraction(1, 2)
        return [
            self._membership("geom", ("geom", 2, (1,)), (Fraction(1, 97),)),
            self._membership("geom", ("sub", 2, 1, ("geom", 3, (1,))), (Fraction(2, 91),)),
            self._membership("fact", ("fact", (1,)), (Fraction(1, 60),)),
            self._membership("cfden", ("cfden", self._alpha(rng)), (Fraction(1, 7),)),
            self._membership(
                "interleave",
                ("inter", ((("geom", 2, (1,)), 1), (("fact", (1,)), 2))),
                (Fraction(3, 11),),
            ),
            self._membership("geom-vector", ("geom", 6, (1, 3)), (half, Fraction(1, 9))),
            self._profile(("geom", 10, (1,)), 12),
        ]
