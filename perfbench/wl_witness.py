"""witness-rational: escape witnesses on random rational topologies of Z^k.

Criterion-5-style inputs: topologies on Z^k given by m rational characters,
k, m in {1, 2}, denominators <= 30.  A round holds 15 queries:

- 10 non-members (``find_witness`` at delta = 1/lcm, then
  ``check_witness``), two for each of the shapes (1, 1), (1, 2), (2, 1) and
  four for (2, 2);
- 5 members (``g_membership_experiment`` with Budget(16, 128) down the
  full delta ladder), one for each of (1, 1), (1, 2), (2, 1) and two for
  (2, 2).  The (2, 2) members have an even lcm of denominators, so their
  search starts at the delta = 1/2 rung.

Non-members and the (1, 1) member take 5-30 ms and hold ranks 1-11, so the
median falls inside them.  The (1, 2) and (2, 1) members take about 90 ms.
The two (2, 2) members take 200-600 ms and hold ranks 14-15, so the 90th
percentile is the median of their pooled times.  Fixing the shapes per
round keeps that cost mix the same from seed to seed; the seed draws the
points.

Lattice reduction does most of the work here and the residue automata none:
members exhaust the ladder (p90) and non-members exit early (p50).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import oracles
from common import Query

NAME = "witness-rational"
# (k, m) of a round's non-members
NON_MEMBER_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 2)) * 2
# (k, m, even lcm of the member's denominators); the (2, 2) members are the
# costliest, and a fixed parity keeps their cost from being bimodal
MEMBER_SHAPES = ((1, 1, None), (1, 2, None), (2, 1, None), (2, 2, True), (2, 2, True))
POOL_ROUNDS = 32
MAX_DEN = 30


def _point(rng) -> tuple[int, int]:
    q = rng.randint(1, MAX_DEN)
    n = rng.randrange(q)
    g = gcd(n, q)
    return n // g, q // g


class Workload:
    def __init__(self, gclose, seed: int):
        self.gc = gclose
        self.seed = seed

    def _topology(self, rng, k, m):
        while True:
            gens = [tuple(_point(rng) for _ in range(k)) for _ in range(m)]
            if any(n for g in gens for n, _ in g):
                return gens

    def _points(self, raw):
        return tuple(self.gc.CirclePoint.rational(n, d) for n, d in raw)

    def _non_member(self, rng, k, m) -> Query:
        while True:
            gens = self._topology(rng, k, m)
            chi = None
            for _ in range(200):
                cand = tuple(_point(rng) for _ in range(k))
                if not oracles.in_finite_subgroup(gens, cand):
                    chi = cand
                    break
            if chi is not None:
                break
        gc = self.gc
        topology = gc.PrecompactTopology.on_free(k, [self._points(g) for g in gens])
        chi_pts = self._points(chi)
        delta = Fraction(1, lcm(*(p.den for p in chi_pts)))

        def run():
            w = gc.find_witness(topology, chi_pts, delta)
            ok = isinstance(w, gc.Witness) and gc.check_witness(w, topology, chi_pts)
            return w, ok

        def check(result):
            w, ok = result
            # chi is outside H by construction, so a witness must exist
            good = ok and _certificate_holds(w, gens, chi, delta)
            return good, good

        return Query("non-member", f"{gens}|{chi}|{delta}", run, check)

    def _member(self, rng, k, m, parity=None) -> Query:
        """A nonzero chi in H; ``parity`` fixes whether lcm(chi denominators)
        is even, which decides if the delta = 1/2 rung is searched."""
        while True:
            gens = self._topology(rng, k, m)
            coeffs = [rng.randrange(60) for _ in gens]
            chi = []
            for j in range(k):
                value = sum(c * Fraction(g[j][0], g[j][1]) for c, g in zip(coeffs, gens))
                value -= value.numerator // value.denominator
                chi.append((value.numerator, value.denominator))
            even = lcm(*(d for _, d in chi)) % 2 == 0
            if any(n for n, _ in chi) and parity in (None, even):
                break
        gc = self.gc
        topology = gc.PrecompactTopology.on_free(k, [self._points(g) for g in gens])
        chi_pts = self._points(chi)
        budget = gc.Budget(16, 128)

        def run():
            return gc.g_membership_experiment(topology, chi_pts, budget=budget)

        def check(result):
            # chi lies in the finite group H, which is g-closed: no witness
            return isinstance(result, gc.ConsistentWithMembership), False

        return Query("member", f"{gens}|{tuple(chi)}", run, check)

    def round(self, index: int) -> list[Query]:
        rng = random.Random(f"{NAME}:{self.seed}:{index}")
        out = [self._non_member(rng, k, m) for k, m in NON_MEMBER_SHAPES]
        out += [self._member(rng, k, m, parity) for k, m, parity in MEMBER_SHAPES]
        return out

    def warmup(self) -> list[Query]:
        rng = random.Random(f"{NAME}:{self.seed}:warmup")
        return [self._non_member(rng, 1, 1), self._member(rng, 1, 1)]


def _certificate_holds(w, gens, chi, delta) -> bool:
    """Recheck every certificate term with plain fractions."""
    if len(w.null_certificate) != len(w.escape_certificate) or not w.null_certificate:
        return False

    def norm(term, point):
        value = sum(a * Fraction(n, d) for a, (n, d) in zip(term, point))
        frac = value - (value.numerator // value.denominator)
        return min(frac, 1 - frac)

    for n, (nc, ec) in enumerate(zip(w.null_certificate, w.escape_certificate)):
        term = nc.term
        if nc.index != n or ec.term != term or not any(term):
            return False
        if any(norm(term, g) > Fraction(1, 2**n) for g in gens):
            return False
        if norm(term, chi) < delta:
            return False
    return True
