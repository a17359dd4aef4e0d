"""quadratic-surd: verdicts, null sequences and witnesses on quadratic points.

Each run draws one point (a + sqrt(d))/c, c <= 3, for each of the 30
squarefree radicands d <= 50, in a seeded order.  Queries take their points
from that pool in turn, so every run spreads its queries evenly over all
radicands, and the kernel's continued-fraction cache both misses (first
use) and hits.  Warm-up uses points with c = 5, which no timed query
uses.  A round holds 16 queries, cheapest first:

- 2 ``cfden`` pair-automaton verdicts for x = m*alpha + r (strided when
  r = 0), 1 constant ``s_membership`` across two radicands, 1
  ``bds_experiment`` with one rational probe, and 2 ``find_witness`` calls
  (Budget(16, 128)) against a rational probe at delta = 1/denominator,
  then ``check_witness``;
- 4 one-character ``null_sequence`` calls, then ``recheck_null_certificate``;
- 2 512-term ``geom`` scans against alpha, 1 two-character
  ``null_sequence`` (Budget(12, 256)) with its recheck, and 1 ``geom``
  ``s_membership`` across two radicands;
- 2 512-term ``fact`` scans against alpha, the costliest queries.

As many queries sit below the null-sequence group as above it, so the
median falls inside that group; the 90th percentile is the median of the
two ``fact`` scans' pooled times.  Neither sits on a boundary between
query kinds.

Exact surd enclosure, floor and sign do the work here; lattice reduction
runs for the two-character null sequences at higher scales.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

import oracles
from common import Query

NAME = "quadratic-surd"
POOL_ROUNDS = 20
RADICANDS = tuple(
    d for d in range(2, 51) if all(d % (p * p) for p in range(2, 8))
)  # the 30 squarefree d in [2, 50]
ALPHAS_PER_ROUND = 19  # points a round takes from the pool
TOLERANCE = Fraction(1, 2**20)  # the kernel's default scan tolerance
NULL_TERMS_CHECKED = 12
SCAN_BASES = (2, 3, 5)


def _norm_le(value, t) -> bool:
    return oracles.norm_cmp(value, t) <= 0


def _null_terms_hold(chars, certs) -> bool:
    """Certificate terms are indexed 0, 1, ... and the first ones obey 2^-n,
    rechecked independently of the kernel."""
    for tc in certs[:NULL_TERMS_CHECKED]:
        if not any(tc.term):
            return False
        for char in chars:
            value = oracles.combine(zip(tc.term, char))
            if not _norm_le(value, Fraction(1, 2**tc.index)):
                return False
    return [tc.index for tc in certs] == list(range(len(certs)))


def _escapes_hold(certs, probe, delta) -> bool:
    """Escape terms against a rational probe, with plain fractions."""
    for ec in certs:
        value = (ec.term[0] * Fraction(probe.num, probe.den), {})
        if oracles.norm_cmp(value, delta) < 0:
            return False
    return True


class Workload:
    def __init__(self, gclose, seed: int):
        self.gc = gclose
        self.seed = seed
        rng = random.Random(f"{NAME}:{seed}:pool")
        self.pool = [self._alpha_for(rng, d, rng.randint(1, 3)) for d in RADICANDS]
        rng.shuffle(self.pool)
        self._cf: dict = {}

    def _alpha_for(self, rng, d, c):
        return self.gc.CirclePoint.quadratic(rng.randint(-3, 3), 1, c, d)

    def _cf_of(self, point):
        cf = self._cf.get(point)
        if cf is None:
            cf = self._cf[point] = oracles.QuadraticCF(point)
        return cf

    def _q(self, point, n: int) -> int:
        return self._cf_of(point).denominators(n + 1)[-1]

    # -- query kinds ----------------------------------------------------------

    def _cfden_pair(self, rng, alpha) -> Query:
        gc = self.gc
        m = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
        if rng.random() < 0.25:
            u, q = 0, 1
            A, B = rng.randint(1, 3), rng.randint(0, 3)
        else:
            q = rng.randint(2, 12)
            u = rng.choice([v for v in range(1, q) if gcd(v, q) == 1])
            A, B = 1, 0
        a, b, c, d = alpha.num, alpha.surd_coeff, alpha.den, alpha.surd
        x = gc.CirclePoint.quadratic(m * a * q + u * c, m * b * q, c * q, d)
        seq = gc.CFDenominators(alpha)
        if (A, B) != (1, 0):
            seq = gc.Subsequence(seq, A, B)

        def run():
            return gc.t_membership(seq, x)

        def check(v):
            # x - m*alpha = u/q and q_n*alpha -> 0 mod 1, so x is a member
            # iff u/q is an integer (consecutive q_n are coprime)
            if v.status != "exact" or v.member != (u == 0):
                return False, False
            if v.member:
                start = v.fact("from_index")
                for n in range(start, start + 6):
                    value = oracles.combine([(self._q(alpha, A * n + B), x)])
                    bound = Fraction(abs(m), self._q(alpha, A * n + B + 1))
                    if oracles.norm_cmp(value, bound) >= 0:
                        return False, False
                return True, True
            e, p, bound = v.fact("escape_index"), v.fact("period"), v.fact("escape_bound")
            for n in (e, e + p):
                value = oracles.combine([(self._q(alpha, n), x)])
                if oracles.norm_cmp(value, bound) < 0:
                    return False, False
            return True, True

        return Query("cfden-pair", f"{seq.describe()}|{x}", run, check)

    def _scan_check(self, term_of, points):
        def check(v):
            # a 512-term scan of an irrational orbit: never exact
            if v.status == "undecided":
                i = v.fact("offending_index")
                value = oracles.combine(zip(term_of(i), points))
                ok = oracles.norm_cmp(value, TOLERANCE) > 0 and _norm_le(value, v.worst_bound)
                return ok, False
            if v.status == "certified_up_to":
                for i in range(v.horizon - 4, v.horizon):
                    if not _norm_le(oracles.combine(zip(term_of(i), points)), TOLERANCE):
                        return False, False
                return True, False
            return False, False

        return check

    def _scan(self, rng, alpha, base: int | None) -> Query:
        """512-term scan of alpha along ``geom:base``, or ``fact`` if base is None."""
        gc = self.gc
        if base is None:
            seq = gc.Factorial()

            def term_of(i):
                f = 1
                for k in range(2, i + 1):
                    f *= k
                return (f,)
        else:
            seq = gc.Geometric(base)

            def term_of(i):
                return (base**i,)

        def run():
            return gc.t_membership(seq, alpha)

        return Query("scan", f"{seq.describe()}|{alpha}", run, self._scan_check(term_of, (alpha,)))

    def _two_radicands(self, rng):
        # consecutive pool entries have different radicands
        return next(self.alphas), next(self.alphas)

    def _smem_constant(self, rng) -> Query:
        gc = self.gc
        pts = self._two_radicands(rng)
        vec = (rng.choice((1, 2, 3)), rng.choice((-3, -2, -1, 1, 2, 3)))
        seq = gc.Constant(vec)

        def run():
            return gc.s_membership(seq, pts)

        def check(v):
            if v.status != "exact" or v.member:
                return False, False
            value = oracles.combine(zip(vec, pts))
            ok = oracles.norm_cmp(value, v.fact("escape_bound")) >= 0
            return ok, ok

        return Query("smem-constant", f"{seq.describe()}|{pts}", run, check)

    def _smem_geom(self, rng) -> Query:
        gc = self.gc
        pts = self._two_radicands(rng)
        base = rng.choice((2, 3))
        pattern = (rng.choice((1, 2)), rng.choice((-1, 1, 2)))
        seq = gc.Geometric(base, pattern)

        def run():
            return gc.s_membership(seq, pts)

        def term_of(i):
            return tuple(base**i * c for c in pattern)

        return Query("smem-geom", f"{seq.describe()}|{pts}", run, self._scan_check(term_of, pts))

    def _nullseq(self, chars, k, budget, kind) -> Query:
        gc = self.gc
        topology = gc.PrecompactTopology.on_free(k, chars)

        def run():
            result = gc.null_sequence(topology, budget)
            rechecked = isinstance(result, gc.NullSequenceResult) and (
                gc.recheck_null_certificate(topology, result)
            )
            return result, rechecked

        def check(outcome):
            result, rechecked = outcome
            if isinstance(result, gc.NotFound):
                return kind == "nullseq-2", False  # a bounded search may give up
            ok = rechecked and _null_terms_hold(chars, result.certificate.terms)
            return ok, ok

        return Query(kind, f"{chars}|{budget}", run, check)

    def _nullseq_one(self, rng, budget=None) -> Query:
        return self._nullseq([(next(self.alphas),)], 1, budget, "nullseq-1")

    def _nullseq_two(self, rng, shape: int) -> Query:
        a1, a2 = self._two_radicands(rng)
        zero, r = self.gc.CirclePoint.zero(), self.gc.CirclePoint.rational(1, rng.randint(2, 7))
        if shape == 0:
            chars, k = [(a1,), (r,)], 1
        elif shape == 1:
            chars, k = [(a1, zero), (zero, a2)], 2
        else:
            chars, k = [(a1, r), (r, a2)], 2
        return self._nullseq(chars, k, self.gc.Budget(12, 256), "nullseq-2")

    def _probe(self, rng):
        q = rng.randint(2, 7)
        u = rng.choice([v for v in range(1, q) if gcd(v, q) == 1])
        return self.gc.CirclePoint.rational(u, q)

    def _bds(self, rng) -> Query:
        gc = self.gc
        alpha, probe = next(self.alphas), self._probe(rng)
        budget = gc.Budget(16, 256)
        topology = gc.PrecompactTopology.on_free(1, [(alpha,)])

        def run():
            return gc.bds_experiment(alpha, [probe], budget, 2)

        def check(report):
            multiples_ok = all(v.is_exact and v.member for _, v in report.multiples)
            if not (report.inclusion_verified and multiples_ok):
                return False, False
            (_, outcome), = report.probes
            if not isinstance(outcome, gc.NotInGClosure):
                return True, False
            w = outcome.witness
            ok = (
                gc.check_witness(w, topology, (probe,))
                and _escapes_hold(w.escape_certificate, probe, outcome.delta)
                and _null_terms_hold([(alpha,)], w.null_certificate)
            )
            return ok, ok

        return Query("bds", f"{alpha}|{probe}", run, check)

    def _witness(self, rng, budget=None) -> Query:
        gc = self.gc
        alpha, probe = next(self.alphas), self._probe(rng)
        delta = Fraction(1, probe.den)
        topology = gc.PrecompactTopology.on_free(1, [(alpha,)])
        budget = budget or gc.Budget(16, 128)

        def run():
            w = gc.find_witness(topology, (probe,), delta, budget)
            return w, isinstance(w, gc.Witness) and gc.check_witness(w, topology, (probe,))

        def check(outcome):
            w, checked = outcome
            if isinstance(w, gc.Exhausted):
                return True, False
            ok = (
                checked
                and _escapes_hold(w.escape_certificate, probe, delta)
                and _null_terms_hold([(alpha,)], w.null_certificate)
            )
            return ok, ok

        return Query("witness", f"{alpha}|{probe}|{delta}|{budget}", run, check)

    # -- rounds -------------------------------------------------------------

    def round(self, index: int) -> list[Query]:
        rng = random.Random(f"{NAME}:{self.seed}:{index}")
        # the query constructors take their points from self.alphas, this round's window
        start = index * ALPHAS_PER_ROUND % len(self.pool)
        self.alphas = itertools.islice(itertools.cycle(self.pool), start, None)
        out = [self._cfden_pair(rng, next(self.alphas)) for _ in range(2)]
        out.append(self._smem_constant(rng))
        out.append(self._bds(rng))
        out += [self._witness(rng) for _ in range(2)]
        out += [self._nullseq_one(rng) for _ in range(4)]
        # the scan bases and the two-character shape rotate with the round
        for j in range(2):
            out.append(self._scan(rng, next(self.alphas), SCAN_BASES[(index + j) % 3]))
        out.append(self._nullseq_two(rng, index % 3))
        out.append(self._smem_geom(rng))
        out += [self._scan(rng, next(self.alphas), None) for _ in range(2)]
        return out

    def warmup(self) -> list[Query]:
        rng = random.Random(f"{NAME}:{self.seed}:warmup")
        spare = [self._alpha_for(rng, d, 5) for d in rng.sample(RADICANDS, 3)]
        self.alphas = itertools.cycle(spare)
        small = self.gc.Budget(4, 32)
        return [
            self._cfden_pair(rng, spare[0]),
            self._smem_constant(rng),
            self._nullseq_one(rng, small),
            self._witness(rng, small),
        ]
