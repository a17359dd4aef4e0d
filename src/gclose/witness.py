"""Escape witnesses: certified demonstrations that a character is not in the
g-closure of a finitely generated subgroup of the torus.

A witness for (H, chi) is a nonzero integer sequence (a_n) that is null for
every generator of H (max norm <= 2^-n per term) while chi stays uniformly
far from 0 on it (norm >= delta per term).

Only torsion._verify_terms is trusted.  For each n below the certificate
length (>= 1) it checks exactly: a_n is nonzero of length k; norm(<a_n, h>)
<= 2^-n for every generator h of H; len(chi) = k, delta is a Fraction in
(0, 1/2] and norm(<a_n, chi>) >= delta.  One norm bracket per value decides
each claim and gives its display bound; only a bracket that straddles its
threshold is compared exactly.  The search is torsion's staged search, run
with chi as its escape character (null_sequence runs it without one).  It
runs _verify_terms on each candidate and writes the certificates from the
bounds it returns; check_witness reruns it on a stored witness.

An Exhausted result asserts nothing: failure to find a witness is consistent
with membership, never proof of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .circle import CirclePoint, int_mul
from .duality import PrecompactTopology
from .torsion import (
    Budget,
    CFDenominators,
    IntVecSeq,
    NullTermCert,
    Verdict,
    _Failed,
    _is_fraction,
    _null_terms,
    _staged_search,
    _TopologyWork,
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


def find_witness(
    topology: PrecompactTopology,
    chi: tuple[CirclePoint, ...] | list[CirclePoint],
    delta: Fraction,
    budget: Budget | None = None,
) -> Witness | Exhausted:
    """Search for a certified escape witness, deterministically.

    Below a rational chi whose pairings cannot reach delta, no search runs.
    Otherwise torsion's staged search: annihilator shortcut,
    continued-fraction subsequences (single irrational generator on Z), then
    per-term lattice approximation over the scale pools, smallest
    candidates first.
    """
    return _search(_TopologyWork(topology), chi, delta, budget)


def _search(work: _TopologyWork, chi, delta, budget) -> Witness | Exhausted:
    """find_witness on the topology of work, reusing what work has built.
    Escape norms are the display lower bounds of the brackets, at delta/8,
    that decided each escape claim."""
    chi, delta = _validate(work.topology, chi, delta)
    if all(p.is_rational for p in chi):
        c = lcm(*(p.den for p in chi))
        best = Fraction(c // 2, c)
        if best < delta:
            return Exhausted(
                f"every pairing with the candidate lies in (1/{c})Z/Z, whose "
                f"largest norm {best} is below the threshold {delta}",
                0,
            )
    result = _staged_search(work, budget or Budget(), chi, delta)
    if isinstance(result, _Failed):
        return Exhausted(result.reason, result.candidates_used)
    escapes = tuple(
        EscapeTermCert(n, term, lower, delta) for n, (term, _, lower) in enumerate(result.rows)
    )
    return Witness(result.sequence, delta, _null_terms(result.rows), escapes, result.strategy)


def check_witness(
    witness: Witness,
    topology: PrecompactTopology,
    chi: tuple[CirclePoint, ...] | list[CirclePoint],
) -> bool:
    """Recompute every certificate claim from scratch: True iff _verify_terms
    passes and stored term n has, in both certificates, index n and term
    a_n, with the Fraction envelope 2^-n and the Fraction threshold delta."""
    delta = witness.escape_threshold
    nulls, escapes = witness.null_certificate, witness.escape_certificate
    if len(nulls) != len(escapes):
        return False
    checked = _verify_terms(witness.sequence, topology, len(nulls), tuple(chi), delta)
    if checked is None:
        return False
    p, q = delta.numerator, delta.denominator
    return all(
        nc.index == ec.index == n
        and nc.term == ec.term == term
        and _is_fraction(nc.envelope, 1, 1 << n)
        and _is_fraction(ec.threshold, p, q)
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
