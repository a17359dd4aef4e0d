"""Escape witnesses: certified demonstrations that a character is not in the
g-closure of a finitely generated subgroup of the torus.

A witness for (H, chi) is a nonzero integer sequence (a_n) that is null for
every generator of H (max norm <= 2^-n per term) while chi stays uniformly
far from 0 on it (norm >= delta per term).

Only torsion._verify_terms is trusted.  For each n below the certificate
length (>= 1) it checks exactly: a_n is nonzero of length k; norm(<a_n, h>)
<= 2^-n for every generator h of H; len(chi) = k, 0 < delta <= 1/2 and
norm(<a_n, chi>) >= delta.  Searches may use any heuristic; they run it on
each candidate, and check_witness reruns it on a stored witness.

An Exhausted result asserts nothing: failure to find a witness is consistent
with membership, never proof of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .circle import CirclePoint, int_mul, pair
from .duality import PrecompactTopology, von_neumann_radical
from .lattice import approximation_candidates
from .torsion import (
    Budget,
    CFDenominators,
    Constant,
    Explicit,
    IntVecSeq,
    NullTermCert,
    Subsequence,
    Verdict,
    _cf_pairing,
    _null_terms,
    _orbit,
    _verify_terms,
    t_membership,
)

__all__ = [
    "WitnessError",
    "EscapeTermCert",
    "Witness",
    "Exhausted",
    "find_witness",
    "check_witness",
    "NotInGClosure",
    "ConsistentWithMembership",
    "g_membership_experiment",
    "DEFAULT_DELTA_LADDER",
    "BdsReport",
    "bds_experiment",
]

DEFAULT_DELTA_LADDER = (
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(1, 6),
    Fraction(1, 12),
)

_SCALE_EXPONENTS = (4, 8, 16, 32, 64, 128)


class WitnessError(ValueError):
    """Invalid witness-search input."""


@dataclass(frozen=True)
class EscapeTermCert:
    """One verified escape: norm(<a_n, chi>) >= threshold, exactly."""

    index: int
    term: tuple[int, ...]
    norm_lower: Fraction  # display bound; the exact claim is >= threshold
    threshold: Fraction


@dataclass(frozen=True)
class Witness:
    sequence: IntVecSeq
    escape_threshold: Fraction
    null_certificate: tuple[NullTermCert, ...]
    escape_certificate: tuple[EscapeTermCert, ...]
    strategy: str


@dataclass(frozen=True)
class Exhausted:
    """Search budget consumed without a certified witness.  No claim made."""

    reason: str
    candidates_tested: int


@dataclass(frozen=True)
class NotInGClosure:
    witness: Witness
    delta: Fraction


@dataclass(frozen=True)
class ConsistentWithMembership:
    """Every threshold exhausted its budget.  Explicitly not a proof."""

    attempts: tuple[tuple[Fraction, Exhausted], ...]
    note: str = (
        "no escape witness found at any threshold; this is consistent with "
        "membership in the g-closure but does not prove it"
    )


def _validate(topology: PrecompactTopology, chi, delta: Fraction):
    k = topology.ambient.free_rank
    chi = tuple(chi)
    if len(chi) != k:
        raise WitnessError(f"candidate character has {len(chi)} coordinates, need {k}")
    delta = Fraction(delta)
    if not 0 < delta <= Fraction(1, 2):
        raise WitnessError("escape threshold must lie in (0, 1/2]")
    return chi, delta


def _certify(
    seq: IntVecSeq,
    topology: PrecompactTopology,
    chi: tuple[CirclePoint, ...],
    delta: Fraction,
    count: int,
    strategy: str,
) -> Witness | None:
    """The witness for seq if it passes _verify_terms, else None; escape
    norms are display lower bounds computed to within delta/8."""
    checked = _verify_terms(seq, topology, count, chi, delta)
    if checked is None:
        return None
    escapes = tuple(
        EscapeTermCert(n, term, escape.norm_enclosure(delta / 8).lower, delta)
        for n, (term, _, escape) in enumerate(checked)
    )
    return Witness(seq, delta, _null_terms(checked), escapes, strategy)


class _CandidateCounter:
    def __init__(self, limit: int):
        self.used = 0
        self.limit = limit

    def spend(self) -> bool:
        self.used += 1
        return self.used <= self.limit


def _annihilator_candidates(generators, radius: int) -> list[tuple[int, ...]]:
    """Sign-canonical integer combinations with coefficients in [-r, r]."""
    dim = len(generators[0])
    combos: set[tuple[int, ...]] = set()
    stack = [()]
    for g in generators:
        stack = [s + (c,) for s in stack for c in range(-radius, radius + 1)]
    for coeffs in stack:
        vec = tuple(
            sum(c * g[i] for c, g in zip(coeffs, generators)) for i in range(dim)
        )
        if not any(vec):
            continue
        lead = next(x for x in vec if x)
        if lead < 0:
            vec = tuple(-x for x in vec)
        combos.add(vec)
    return sorted(combos, key=lambda v: (max(abs(x) for x in v), v))


class _TopologyWork:
    """What the searches of one public call derive from the topology alone,
    each built on first use: the radical's generators, the annihilator
    candidates per radius and the lattice pool per scale exponent.  Every
    rung of a ladder, and every probe of a bds run, shares one; nothing
    outlives the call that made it."""

    def __init__(self, topology: PrecompactTopology):
        self.topology = topology
        self._generators = None
        self._combos: dict[int, list[tuple[int, ...]]] = {}
        self._pools: dict[int, list[tuple[int, ...]]] = {}

    def generators(self):
        if self._generators is None:
            self._generators = von_neumann_radical(self.topology).element_generators()
        return self._generators

    def combos(self, radius: int) -> list[tuple[int, ...]]:
        if radius not in self._combos:
            self._combos[radius] = _annihilator_candidates(self.generators(), radius)
        return self._combos[radius]

    def pool(self, exponent: int) -> list[tuple[int, ...]]:
        if exponent not in self._pools:
            self._pools[exponent] = approximation_candidates(
                self.topology.characters, 2**exponent
            )
        return self._pools[exponent]


def _stage_annihilator(work, chi, delta, count, counter) -> Witness | None:
    if not work.generators():
        return None
    tried: set[tuple[int, ...]] = set()
    for radius in (1, 2, 3):
        for a in work.combos(radius):
            if a in tried:
                continue
            tried.add(a)
            if not counter.spend():
                return None
            if pair(a, chi).norm_cmp(delta) >= 0:
                witness = _certify(
                    Constant(a), work.topology, chi, delta, count, "annihilator"
                )
                if witness is not None:
                    return witness
    return None


def _stage_cf_subsequence(work, chi, delta, count, counter) -> Witness | None:
    topology = work.topology
    chars = topology.characters
    if topology.ambient.free_rank != 1 or len(chars) != 1:
        return None
    alpha = chars[0][0]
    if alpha.is_rational:
        return None
    pairing = _cf_pairing(alpha, chi[0])
    if pairing is None:
        return None
    w, modulus = pairing
    orbit = _orbit(CFDenominators(alpha), w, modulus)
    if orbit is None:
        return None
    first, period = orbit.first, orbit.period
    classes = []
    for pos, v in zip(range(period), orbit.walk(first, 1)):
        norm = Fraction(min(v, modulus - v), modulus)
        if v and norm >= delta:
            classes.append((norm, pos))
    classes.sort(key=lambda t: (-t[0], t[1]))
    stride = period if period >= 2 else 2
    for _, pos in classes:
        for shift in (0, 1, 2, 4, 8, 16):
            if not counter.spend():
                return None
            seq = Subsequence(CFDenominators(alpha), stride, first + pos + shift * stride)
            witness = _certify(seq, topology, chi, delta, count, "cf-subsequence")
            if witness is not None:
                return witness
    return None


def _stage_lattice(work, chi, delta, count, counter) -> Witness | Exhausted:
    chars = work.topology.characters
    terms: list[tuple[int, ...]] = []
    escape_failed: set[tuple[int, ...]] = set()
    for n in range(count):
        envelope = Fraction(1, 2**n)
        found = None
        seen: set[tuple[int, ...]] = set()
        for exponent in _SCALE_EXPONENTS:
            for a in work.pool(exponent):
                if a in seen or a in escape_failed:
                    continue
                seen.add(a)
                if not counter.spend():
                    return Exhausted(
                        f"candidate budget exhausted at term {n}", counter.used
                    )
                # escape first: for rational chi it is one integer
                # comparison, and a failure rules the candidate out forever
                if pair(a, chi).norm_cmp(delta) < 0:
                    escape_failed.add(a)
                    continue
                if any(pair(a, h).norm_cmp(envelope) > 0 for h in chars):
                    continue
                found = a
                break
            if found is not None:
                break
        if found is None:
            return Exhausted(
                f"no candidate met envelope {envelope} with escape >= {delta} "
                f"at term {n}",
                counter.used,
            )
        terms.append(found)
    witness = _certify(
        Explicit(tuple(terms)), work.topology, chi, delta, count, "lattice"
    )
    if witness is None:  # defensive; terms were verified individually
        return Exhausted("assembled terms failed final certification", counter.used)
    return witness


def find_witness(
    topology: PrecompactTopology,
    chi: tuple[CirclePoint, ...] | list[CirclePoint],
    delta: Fraction,
    budget: Budget | None = None,
) -> Witness | Exhausted:
    """Search for a certified escape witness, deterministically.

    Strategy order: annihilator shortcut, continued-fraction subsequences
    (single irrational generator on Z), then per-term lattice approximation
    over the scale ladder with lexicographically smallest candidates first.
    """
    return _search(_TopologyWork(topology), chi, delta, budget)


def _search(work: _TopologyWork, chi, delta, budget) -> Witness | Exhausted:
    """find_witness on the topology of work, reusing what work has built."""
    topology = work.topology
    chi, delta = _validate(topology, chi, delta)
    budget = budget or Budget()
    count = budget.max_terms
    counter = _CandidateCounter(budget.max_candidates)
    if all(p.is_rational for p in chi):
        c = lcm(*(p.den for p in chi))
        best = Fraction(c // 2, c)
        if best < delta:
            return Exhausted(
                f"every pairing with the candidate lies in (1/{c})Z/Z, whose "
                f"largest norm {best} is below the threshold {delta}",
                0,
            )
    for stage, name in (
        (_stage_annihilator, "annihilator"),
        (_stage_cf_subsequence, "subsequence"),
    ):
        witness = stage(work, chi, delta, count, counter)
        if witness is not None:
            return witness
        if counter.used >= counter.limit:
            return Exhausted(f"candidate budget exhausted in {name} stage", counter.used)
    if not topology.characters:
        # indiscrete topology: the annihilator stage already enumerated Z^k
        return Exhausted("no escaping vector found for the indiscrete topology", counter.used)
    return _stage_lattice(work, chi, delta, count, counter)


def check_witness(
    witness: Witness,
    topology: PrecompactTopology,
    chi: tuple[CirclePoint, ...] | list[CirclePoint],
) -> bool:
    """Recompute every certificate claim from scratch: True iff _verify_terms
    passes and stored term n has, in both certificates, index n and term
    a_n, with envelope 2^-n and threshold delta."""
    delta = witness.escape_threshold
    nulls, escapes = witness.null_certificate, witness.escape_certificate
    if len(nulls) != len(escapes):
        return False
    checked = _verify_terms(witness.sequence, topology, len(nulls), tuple(chi), delta)
    return checked is not None and all(
        nc.index == ec.index == n
        and nc.term == ec.term == term
        and nc.envelope == Fraction(1, 2**n)
        and ec.threshold == delta
        for n, (nc, ec, (term, _, _)) in enumerate(zip(nulls, escapes, checked))
    )


def g_membership_experiment(
    topology: PrecompactTopology,
    chi: tuple[CirclePoint, ...] | list[CirclePoint],
    budget: Budget | None = None,
    deltas: tuple[Fraction, ...] = DEFAULT_DELTA_LADDER,
) -> NotInGClosure | ConsistentWithMembership:
    """Run find_witness down the threshold ladder; a single witness decides.
    The rungs share one topology's work."""
    return _ladder(_TopologyWork(topology), tuple(chi), budget, deltas)


def _ladder(work, chi, budget, deltas) -> NotInGClosure | ConsistentWithMembership:
    attempts = []
    for delta in deltas:
        result = _search(work, chi, delta, budget)
        if isinstance(result, Witness):
            return NotInGClosure(result, Fraction(delta))
        attempts.append((Fraction(delta), result))
    return ConsistentWithMembership(tuple(attempts))


@dataclass(frozen=True)
class BdsReport:
    """Exact verification that <alpha> lies in t_u for u = (q_n), plus
    per-probe escape experiments.  Never claims t_u equals <alpha>."""

    alpha: CirclePoint
    multiple_bound: int
    multiples: tuple[tuple[int, Verdict], ...]
    inclusion_verified: bool
    probes: tuple[tuple[CirclePoint, NotInGClosure | ConsistentWithMembership], ...]
    note: str = (
        "verified: every listed multiple of alpha is topologically annihilated "
        "by the convergent denominators; equality of the two groups is not claimed"
    )


def bds_experiment(
    alpha: CirclePoint,
    probes: list[CirclePoint] | tuple[CirclePoint, ...],
    budget: Budget | None = None,
    multiple_bound: int = 10,
) -> BdsReport:
    """Exercise the countable-subgroup closedness phenomenon for <alpha>."""
    if alpha.is_rational:
        raise WitnessError("the base point must be a quadratic irrational")
    if not probes:
        raise WitnessError("at least one probe point is required")
    if multiple_bound < 1:
        raise WitnessError("multiple bound must be >= 1")
    u = CFDenominators(alpha)
    multiples = []
    verified = True
    for j in range(-multiple_bound, multiple_bound + 1):
        verdict = t_membership(u, int_mul(j, alpha))
        multiples.append((j, verdict))
        if not (verdict.is_exact and verdict.member):
            verified = False
    # every probe runs on the same topology, so they share its work
    work = _TopologyWork(PrecompactTopology.on_free(1, [(alpha,)]))
    probe_results = tuple(
        (p, _ladder(work, (p,), budget, DEFAULT_DELTA_LADDER)) for p in probes
    )
    return BdsReport(
        alpha, multiple_bound, tuple(multiples), verified, probe_results
    )
