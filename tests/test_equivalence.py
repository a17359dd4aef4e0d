"""Recorded equivalence corpora for the exact kernels of circle, duality and
the rational branch of the torsion ladder.

Each corpus in ``tests/golden/`` is rendered from seeded inputs and compared
byte for byte; the test never rewrites it.  Re-record with
``PYTHONPATH=src python tests/test_equivalence.py record`` and review the
diff line by line.

* ``duality_systems.txt``: for seeded groups (free rank 0-3, torsion
  factors, rational and quadratic coordinates, 0-3 generators) every integer
  system that ``annihilator`` and ``DualSubgroup.contains`` hand to
  ``kernel_basis`` and ``system_solvable``, then ``str(annihilator)``, the
  ``contains`` answers and ``str(closure_in_dual)``.  With no generators only
  the results are recorded, not the systems.
* ``echelon_systems.txt``: ``kernel_basis`` and ``system_solvable`` on 150
  seeded integer systems of shapes 0x0 to 16x32 (and 32x16), full rank or
  a product of a small left factor and a right factor.  The right factor
  has entries up to 1, 10 or 1000, its rows scaled by 2, 3 or 6, so the
  column lattice often has index above 1.  The kernel is recorded as the
  ``row_hnf`` of the returned basis, so any basis of the same lattice
  renders alike; solvability is recorded for b = m*x, for b = m*x plus a
  small multiple of a unit vector, and for a random b.
* ``circle_numerics.txt``: ``enclosure``, ``norm``, ``value_cmp`` and
  ``norm_cmp`` of seeded points, at tolerances from 2^-1 to 2^-80.
* ``pattern_verdicts.txt``: ``s_membership`` verdicts for irrational points
  whose pairing with the pattern of a geometric or factorial sequence is
  rational, plain and strided.
* ``surd_numerics.txt``: ``floor``, ``sign``, ``cmp``, ``norm_cmp``,
  ``enclosure`` and ``norm_enclosure`` of seeded ``SurdSum`` values over no,
  one, two and three surd bases, built with ``pair`` from multipliers 2^n to
  5^n and n! (n <= 512) and convergent denominators q_n (n <= 200), so many
  lie within 2^-n of an integer; at tolerances 2^-1 to 2^-80 and the scan
  tolerance 2^-22.  Renderings longer than 96 characters are recorded as
  their length and SHA-256 prefix.
* ``geometric_cycles.txt``: ``t_membership`` and ``s_membership`` verdicts
  (status, reason, horizon, worst bound and facts) on rational residue
  orbits: ``geom`` plain and strided, vector patterns, pattern-cancelling
  irrational points, constants and strided interleaves.  Moduli are 2^k*m,
  6^k*m, base^k*m or m, so many share primes with the base and many orbits
  end in an all-zero cycle.  The last two cases, and one seeded case,
  pass the state cap and fall back to the scan.
* ``strided_orbits.txt``: ``t_membership`` verdicts on the residue orbits
  that strides and interleaves build over every kind of leaf: strided
  ``cfden`` at rational points, strided pair orbits at points of the
  continued fraction's own quadratic field, and strided interleaves whose
  children are ``geom``, ``const``, ``fact``, ``cfden`` and further
  interleaves.  The last cases are orbits of about 10^6 states, just inside
  and just past the state cap.
* ``scan_verdicts.txt``: ``_scan`` and ``_finite_scan`` verdicts (status,
  horizon, worst bound, reason, facts and the 16-entry trace) for ``fact``
  and ``geom`` (bases 2-12) with vector patterns, negative coefficients and
  strides over one to three surd bases; ``cfden`` at alpha, alpha/2 and
  other points of alpha's field, whose values crowd integers and 1/2; and
  ``Explicit`` lists of small vectors and convergent denominators, some
  ending in zero terms.  Tolerances 2^-8, 2^-40 and 1/3, horizons 1-600.
"""

import hashlib
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gclose import duality
from gclose.circle import (
    CircleError,
    CirclePoint,
    add,
    cf_expand,
    convergent_denominators,
    int_mul,
    norm,
    pair,
)
from gclose.duality import (
    Character,
    DualSubgroup,
    FgAbelianGroup,
    IntMatrix,
    annihilator,
    closure_in_dual,
    row_hnf,
)
from gclose.torsion import (
    CFDenominators,
    Constant,
    Explicit,
    Factorial,
    Geometric,
    Interleave,
    Policy,
    Subsequence,
    _finite_scan,
    _scan,
    s_membership,
    t_membership,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

SURD_BASES = (2, 3, 5)


def _coordinate(rng: random.Random, base: int) -> CirclePoint:
    """Rational, or quadratic over the coordinate's base (sometimes another)."""
    kind = rng.random()
    if kind < 0.4:
        return CirclePoint.rational(rng.randint(-6, 6), rng.randint(1, 12))
    d = base if kind < 0.85 else rng.choice(SURD_BASES)
    return CirclePoint.quadratic(
        rng.randint(-6, 6), rng.choice((-2, -1, 1, 2, 3)), rng.randint(1, 6), d
    )


def _combination(rng, ambient, gens) -> Character | None:
    """A random integer combination of the generators, or None when two
    summands of one coordinate lie over distinct surd bases."""
    coeffs = [rng.randint(-3, 3) for _ in gens]
    free = []
    try:
        for j in range(ambient.free_rank):
            total = CirclePoint.zero()
            for c, g in zip(coeffs, gens):
                total = add(total, int_mul(c, g.free[j]))
            free.append(total)
    except CircleError:
        return None
    torsion = [
        sum(c * g.torsion[l] for c, g in zip(coeffs, gens))
        for l in range(len(ambient.invariant_factors))
    ]
    return Character.make(ambient, free, torsion)


def _duality_case(rng: random.Random):
    r = rng.randint(0, 3)
    ambient = FgAbelianGroup.from_torsion(
        r, tuple(rng.choice((2, 3, 4, 6)) for _ in range(rng.randint(0, 2)))
    )
    bases = [rng.choice(SURD_BASES) for _ in range(r)]

    def character():
        return Character.make(
            ambient,
            [_coordinate(rng, b) for b in bases],
            [rng.randint(0, 11) for _ in ambient.invariant_factors],
        )

    gens = [character() for _ in range(rng.randint(0, 3))]
    chis = list(gens[:1])
    for _ in range(2):
        combo = _combination(rng, ambient, gens)
        if combo is not None:
            chis.append(combo)
            if ambient.ncoords:
                shifted = list(combo.free), list(combo.torsion)
                if r:
                    shifted[0][0] = add(shifted[0][0], CirclePoint.rational(1, 2))
                else:
                    shifted[1][0] += 1
                chis.append(Character.make(ambient, *shifted))
    chis.append(character())
    return ambient, gens, chis


def render_duality_systems(monkeypatch) -> str:
    calls: list[str] = []
    kernel_basis, system_solvable = duality.kernel_basis, duality.system_solvable

    def recorded_kernel(m):
        calls.append(f"  kernel_basis {m.rows}x{m.cols} [{m}]")
        return kernel_basis(m)

    def recorded_solvable(m, b):
        calls.append(f"  system_solvable {m.rows}x{m.cols} [{m}] = ({','.join(map(str, b))})")
        return system_solvable(m, b)

    monkeypatch.setattr(duality, "kernel_basis", recorded_kernel)
    monkeypatch.setattr(duality, "system_solvable", recorded_solvable)
    rng = random.Random(20261018)
    lines = []
    for case in range(160):
        ambient, gens, chis = _duality_case(rng)
        h = DualSubgroup.make(ambient, gens)
        lines.append(f"case {case}: {ambient} H = {h}")

        def emit(label, value):
            if gens:
                lines.extend(calls)
            calls.clear()
            lines.append(f"  {label} {value}")

        emit("annihilator", annihilator(h))
        for chi in chis:
            emit(f"contains {chi}", h.contains(chi))
        emit("closure", closure_in_dual(h))
    return "\n".join(lines) + "\n"


ECHELON_EDGE_SHAPES = ((0, 0), (0, 5), (5, 0), (16, 32), (32, 16))


def _echelon_case(
    rng: random.Random, shape: tuple[int, int] | None
) -> tuple[IntMatrix, list[tuple[str, tuple[int, ...]]]]:
    """A seeded integer system and the right-hand sides to test on it."""
    rows, cols = shape or (rng.randint(0, 16), rng.randint(0, 32))
    bound = rng.choice((1, 10, 1000))
    rank = rng.randint(0, min(rows, cols)) if rng.random() < 0.4 else min(rows, cols)
    # each row of the right factor is a multiple of its own factor, so the
    # column lattice often has index > 1 and perturbed systems fail
    factors = [rng.choice((1, 1, 2, 3, 6)) for _ in range(rank)]
    right = IntMatrix.from_rows(
        [
            [f * rng.randint(-bound // f, bound // f) for _ in range(cols)]
            for f in factors
        ],
        cols,
    )
    if rank == rows:
        left = IntMatrix.identity(rows)
    else:
        left = IntMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rows)], rank
        )
    m = left @ right
    x = [rng.randint(-5, 5) for _ in range(cols)]
    image = m.apply(x)
    sides = [("m*x", image)]
    if rows:
        k = rng.randrange(rows)
        bumped = tuple(v + (i == k) * rng.choice((1, 2, 3)) for i, v in enumerate(image))
        sides.append((f"m*x+e{k}", bumped))
        sides.append(("random", tuple(rng.randint(-bound, bound) for _ in range(rows))))
    return m, sides


def render_echelon_systems() -> str:
    rng = random.Random(20261103)
    lines = []
    for case in range(150):
        shape = ECHELON_EDGE_SHAPES[case] if case < len(ECHELON_EDGE_SHAPES) else None
        m, sides = _echelon_case(rng, shape)
        digest = hashlib.sha256(str((m, sides)).encode()).hexdigest()[:16]
        lines.append(f"case {case}: {m.rows}x{m.cols} sha256:{digest}")
        kernel = row_hnf(IntMatrix.from_rows(duality.kernel_basis(m), m.cols))
        lines.append(f"  kernel rank {kernel.rows} [{_fit(str(kernel))}]")
        lines.append(
            "  solvable "
            + " ".join(f"{label}={duality.system_solvable(m, b)}" for label, b in sides)
        )
    return "\n".join(lines) + "\n"


def _point(rng: random.Random) -> CirclePoint:
    if rng.random() < 0.3:
        return CirclePoint.rational(rng.randint(-50, 50), rng.randint(1, 60))
    return CirclePoint.quadratic(
        rng.randint(-40, 40),
        rng.choice((-1, 1)) * rng.randint(1, 9),
        rng.choice((-1, 1)) * rng.randint(1, 30),
        rng.randint(2, 40),
    )


def _interval(e) -> str:
    return f"[{e.lower}, {e.upper}]{'=' if e.exact else ''}"


def render_circle_numerics() -> str:
    rng = random.Random(20261019)
    lines = []
    for case in range(150):
        x = _point(rng)
        if case % 10 == 0:
            exponents = sorted({1, rng.randint(2, 79), 80})
        else:
            exponents = sorted({rng.randint(1, 80), rng.randint(1, 80)})
        lines.append(f"{x} default {_interval(x.enclosure())} norm {_interval(norm(x))}")
        for k in exponents:
            tol = Fraction(1, 2**k)
            enc, nenc = x.enclosure(tol), norm(x, tol)
            lines.append(f"  2^-{k} enclosure {_interval(enc)} norm {_interval(nenc)}")
            probes = [enc.lower, enc.upper, nenc.lower, nenc.upper]
            probes += [Fraction(rng.randint(-20, 40), rng.randint(1, 20)), Fraction(1, 2**k)]
            probes += [Fraction(0), Fraction(1, 2), Fraction(1)]
            lines.append(
                "    value_cmp "
                + " ".join(f"{p}:{x.value_cmp(p)}" for p in probes)
            )
            lines.append(
                "    norm_cmp "
                + " ".join(f"{p}:{x.norm_cmp(p)}" for p in probes)
            )
    return "\n".join(lines) + "\n"


def _pattern_case(rng: random.Random):
    """A strided geometric or factorial sequence and an irrational point x
    whose pairing with the sequence pattern is rational."""
    k = rng.randint(2, 3)
    d = rng.choice((2, 3, 5, 6, 7, 10))
    pattern = [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))]
    pattern += [rng.randint(-4, 4) for _ in range(k - 1)]
    rest = [
        CirclePoint.quadratic(rng.randint(-9, 9), rng.randint(-3, 3), rng.randint(1, 9), d)
        if rng.random() < 0.75
        else CirclePoint.rational(rng.randint(0, 9), rng.randint(1, 9))
        for _ in range(k - 1)
    ]
    # first coordinate a/c + s*sqrt(d), with s cancelling the other surd parts
    s = -sum(p * Fraction(x.surd_coeff, x.den) for p, x in zip(pattern[1:], rest))
    s /= pattern[0]
    a, c = rng.randint(-9, 9), rng.randint(1, 9)
    first = CirclePoint.quadratic(a * s.denominator, s.numerator * c, c * s.denominator, d)
    x = (first, *rest)
    if all(p.is_rational for p in x):
        return None
    if rng.random() < 0.7:
        seq = Geometric(rng.randint(2, 12), tuple(pattern))
    else:
        seq = Factorial(tuple(pattern))
    for _ in range(rng.choice((0, 1, 1, 2))):
        seq = Subsequence(seq, rng.randint(1, 4), rng.randint(0, 5))
    return seq, x


def render_pattern_verdicts() -> str:
    rng = random.Random(20261020)
    lines = []
    while len(lines) < 240:
        case = _pattern_case(rng)
        if case is None:
            continue
        seq, x = case
        v = s_membership(seq, x)
        lines.append(
            f"{seq} @ {','.join(map(str, x))}: {v.status} {v.member} | {v.reason} | "
            + " ".join(f"{key}={value}" for key, value in v.detail)
        )
    return "\n".join(lines) + "\n"


SURD_SUM_BASES = (2, 3, 5, 6, 7, 13)


def _fit(text: str) -> str:
    if len(text) <= 96:
        return text
    return f"<{len(text)} chars sha256:{hashlib.sha256(text.encode()).hexdigest()[:16]}>"


def _multiplier(rng: random.Random, point: CirclePoint) -> tuple[str, int]:
    """A large integer multiplier for point: b^n, n!, or for an irrational
    point one of its convergent denominators, which puts q_n * point within
    1/q_(n+1) of Z."""
    kind = rng.choice(("pow", "fact") + (("qn",) * 4 if not point.is_rational else ()))
    if kind == "pow":
        b, n = rng.randint(2, 5), rng.randint(0, 512)
        return f"{b}^{n}", b**n
    if kind == "fact":
        n = rng.randint(0, 512)
        return f"{n}!", math.factorial(n)
    n = rng.randint(0, 200)
    return f"q_{n}", convergent_denominators(cf_expand(point), n + 1)[-1]


def _surd_case(rng: random.Random):
    """(label, value): <term, points> over 0-3 distinct surd bases."""
    nbases = rng.randint(0, 3)
    bases = rng.sample(SURD_SUM_BASES, nbases)
    points = [
        CirclePoint.quadratic(
            rng.randint(-9, 9), rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 12), d
        )
        for d in bases
    ]
    points += [
        CirclePoint.rational(rng.randint(-20, 20), rng.randint(1, 30))
        for _ in range(rng.randint(0 if points else 1, 2))
    ]
    rng.shuffle(points)
    labels, term = [], []
    for point in points:
        if not point.is_rational or rng.random() < 0.5:
            label, m = _multiplier(rng, point)
            if rng.random() < 0.3:
                label, m = f"-{label}", -m
        else:
            m = rng.randint(-20, 20)
            label = str(m)
        labels.append(label)
        term.append(m)
    value = pair(tuple(term), tuple(points))
    return f"<({','.join(labels)}), ({','.join(map(str, points))})>", value


def render_surd_numerics() -> str:
    rng = random.Random(20261021)
    lines = []
    for _ in range(200):
        label, s = _surd_case(rng)
        f = s.floor()
        lines.append(f"{label} bases {len(s.terms)}")
        lines.append(f"  floor {_fit(str(f))} sign {s.sign()}")
        for k in sorted({rng.randint(1, 80), rng.randint(1, 80), 22}):
            tol = Fraction(1, 2**k)
            enc, nenc = s.enclosure(tol), s.norm_enclosure(tol)
            lines.append(
                f"  2^-{k} enclosure {_fit(_interval(enc))} norm {_fit(_interval(nenc))}"
            )
            eighths = rng.randint(0, 8)
            probes = {
                "lo": enc.lower,
                "hi": enc.upper,
                "floor": Fraction(f),
                "floor+1": Fraction(f + 1),
                f"floor+{eighths}/8": f + Fraction(eighths, 8),
                "floor+tol": f + tol,
            }
            lines.append("    cmp " + " ".join(f"{name}:{s.cmp(p)}" for name, p in probes.items()))
            probe = Fraction(rng.randint(1, 16), 32)
            probes = {
                "lo": nenc.lower,
                "hi": nenc.upper,
                "tol": tol,
                "0": Fraction(0),
                "1/2": Fraction(1, 2),
                str(probe): probe,
            }
            lines.append(
                "    norm_cmp "
                + " ".join(f"{name}:{s.norm_cmp(p)}" for name, p in probes.items())
            )
    return "\n".join(lines) + "\n"


def _geometric_modulus(rng: random.Random, base: int) -> int:
    """m, or m times a power of 2, of 6 or of the base; m = 1 in a quarter of
    the cases, so the orbit can end in an all-zero cycle."""
    r = rng.random()
    m = 1 if r < 0.25 else rng.randint(2, 400) if r < 0.85 else rng.choice((4999, 7919, 10007))
    if m > 1 and rng.random() < 0.25:
        return m
    return rng.choice((2, 6, base)) ** rng.randint(1, 6) * m


def _strided(rng: random.Random, seq):
    for _ in range(rng.choice((1, 1, 2))):
        if rng.random() < 0.1:
            stride, offset = rng.choice((10**6, 10**12)), rng.choice((0, 7, 10**12))
        else:
            stride, offset = rng.randint(1, 6), rng.randint(0, 8)
        seq = Subsequence(seq, stride, offset)
    return seq


def _geometric_cycle_case(rng: random.Random, kind: str):
    """(sequence, point) for one kind of rational residue orbit."""
    base = rng.randint(2, 12)
    q = _geometric_modulus(rng, base)
    if kind in ("geom", "strided"):
        seq = Geometric(base)
        if kind == "strided":
            seq = _strided(rng, seq)
        return seq, (CirclePoint.rational(rng.randint(0, q), q),)
    if kind == "vector":
        k = rng.randint(2, 3)
        seq = Geometric(base, tuple(rng.randint(-4, 4) for _ in range(k)))
        if rng.random() < 0.5:
            seq = _strided(rng, seq)
        dens = [q] + [rng.choice((q, rng.randint(1, 12))) for _ in range(k - 1)]
        return seq, tuple(CirclePoint.rational(rng.randint(-q, q), den) for den in dens)
    if kind == "cancel":
        # (a/c + s*sqrt(d), rest) with s cancelling the surd parts of rest
        k = rng.randint(2, 3)
        d = rng.choice((2, 3, 5, 7))
        pattern = [rng.choice((-3, -2, -1, 1, 2, 3))] + [rng.randint(-3, 3) for _ in range(k - 1)]
        rest = [
            CirclePoint.quadratic(rng.randint(-9, 9), rng.randint(1, 3), rng.randint(1, 6), d)
            for _ in range(k - 1)
        ]
        s = -sum(p * Fraction(x.surd_coeff, x.den) for p, x in zip(pattern[1:], rest))
        s /= pattern[0]
        if not s:
            return None
        a = rng.randint(-q, q)
        first = CirclePoint.quadratic(a * s.denominator, s.numerator * q, q * s.denominator, d)
        seq = Geometric(base, tuple(pattern))
        if rng.random() < 0.5:
            seq = _strided(rng, seq)
        return seq, (first, *rest)
    if kind == "const":
        seq = _strided(rng, Constant((rng.randint(-q, q),)))
        return seq, (CirclePoint.rational(1, q),)
    # a strided interleave is one automaton over its children
    children = (Geometric(base), Constant((rng.randint(-3, 3),)), _strided(rng, Geometric(base)))
    blocks = tuple(rng.randint(1, 3) for _ in children)
    seq = Subsequence(Interleave(children, blocks), rng.randint(1, 4), rng.randint(0, 5))
    return seq, (CirclePoint.rational(rng.randint(1, q), q),)


def _verdict_line(seq, x, v) -> str:
    extra = "".join(
        f" {name}={value}"
        for name, value in (("horizon", v.horizon), ("worst", v.worst_bound))
        if value is not None
    )
    return (
        f"{seq} @ {','.join(map(str, x))}: {v.status} {v.member}{extra} | {v.reason} | "
        + " ".join(f"{key}={value}" for key, value in v.detail)
    )


def render_geometric_cycles() -> str:
    rng = random.Random(20261022)
    lines = []
    kinds = ("geom", "strided", "vector", "cancel", "const", "interleave")
    while len(lines) < 360:
        case = _geometric_cycle_case(rng, kinds[len(lines) % len(kinds)])
        if case is None:
            continue
        seq, x = case
        call = t_membership if len(x) == 1 and rng.random() < 0.5 else s_membership
        v = call(seq, x[0]) if call is t_membership else call(seq, x)
        lines.append(f"{call.__name__[0]} " + _verdict_line(seq, x, v))
    # orbits longer than the state cap fall back to the scan
    for seq, x in (
        (Subsequence(Geometric(2), 1, 3), (CirclePoint.rational(5, 1000003),)),
        (Geometric(2, (1, 1)), (CirclePoint.rational(1, 1000003), CirclePoint.rational(2, 1000003))),
    ):
        lines.append("s " + _verdict_line(seq, x, s_membership(seq, x)))
    return "\n".join(lines) + "\n"


CF_POINTS = (
    CirclePoint.quadratic(-1, 1, 2, 5),
    CirclePoint.quadratic(-1, 1, 1, 2),
    CirclePoint.quadratic(1, 1, 2, 3),
    CirclePoint.quadratic(2, 1, 3, 7),
)


def _small_strides(rng: random.Random, seq):
    for _ in range(rng.choice((1, 1, 2))):
        seq = Subsequence(seq, rng.randint(1, 6), rng.randint(0, 8))
    return seq


def _orbit_leaf(rng: random.Random, depth: int):
    kinds = ("geom", "const", "fact", "cfden", "interleave")
    kind = rng.choice(kinds if depth else kinds[:-1])
    if kind == "geom":
        seq = Geometric(rng.randint(2, 12))
    elif kind == "const":
        seq = Constant((rng.randint(-3, 3),))
    elif kind == "fact":
        seq = Factorial()
    elif kind == "cfden":
        seq = CFDenominators(rng.choice(CF_POINTS))
    else:
        seq = _orbit_interleave(rng, depth - 1)
    return _small_strides(rng, seq) if rng.random() < 0.4 else seq


def _orbit_interleave(rng: random.Random, depth: int):
    children = tuple(_orbit_leaf(rng, depth) for _ in range(rng.randint(1, 3)))
    return Interleave(children, tuple(rng.randint(1, 3) for _ in children))


def _strided_orbit_case(rng: random.Random, kind: str):
    """(sequence, point) for one kind of strided residue orbit."""
    if kind == "cfden":
        seq = _small_strides(rng, CFDenominators(rng.choice(CF_POINTS)))
        q = rng.randint(2, 400)
        return seq, CirclePoint.rational(rng.randrange(1, q), q)
    if kind == "pair":
        # x = m*alpha + r in alpha's quadratic field
        alpha = rng.choice(CF_POINTS)
        seq = _small_strides(rng, CFDenominators(alpha))
        b = rng.choice((-3, -2, -1, 1, 2, 3)) * alpha.surd_coeff
        return seq, CirclePoint.quadratic(rng.randint(-20, 20), b, rng.randint(1, 30), alpha.surd)
    seq = Subsequence(_orbit_interleave(rng, 1), rng.randint(1, 4), rng.randint(0, 5))
    q = rng.choice((rng.randint(2, 60), rng.randint(2, 8) ** rng.randint(1, 4)))
    return seq, CirclePoint.rational(rng.randrange(1, q), q)


def render_strided_orbits() -> str:
    rng = random.Random(20261025)
    lines = []
    kinds = ("cfden", "pair", "interleave")
    while len(lines) < 300:
        seq, x = _strided_orbit_case(rng, kinds[len(lines) % len(kinds)])
        lines.append(_verdict_line(seq, (x,), t_membership(seq, x)))
    # the order of 2 is 499991 mod 999983 and 500079 mod 1000159, so the
    # interleave's orbit has 999982 and 1000158 states
    near_cap = Subsequence(Interleave((Geometric(2), Constant((1,))), (1, 1)), 1, 0)
    for q in (999983, 1000159):
        x = CirclePoint.rational(1, q)
        lines.append(_verdict_line(near_cap, (x,), t_membership(near_cap, x)))
    return "\n".join(lines) + "\n"


SCAN_TOLERANCES = (Fraction(1, 2**8), Fraction(1, 2**40), Fraction(1, 3))


def _scan_coordinates(rng: random.Random, k: int) -> tuple[CirclePoint, ...]:
    """k coordinates over one to three distinct surd bases, some rational."""
    bases = rng.sample(SURD_SUM_BASES, rng.randint(1, 3))
    x = [
        CirclePoint.rational(rng.randint(-20, 20), rng.randint(1, 30))
        if rng.random() < 0.2
        else CirclePoint.quadratic(
            rng.randint(-9, 9), rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 12),
            rng.choice(bases),
        )
        for _ in range(k)
    ]
    if all(p.is_rational for p in x):
        x[0] = CirclePoint.quadratic(1, 1, 2, bases[0])
    return tuple(x)


def _scan_case(rng: random.Random, kind: str):
    """(sequence, points, horizon): a fact or geom scan with a pattern, a
    stride or both; a cfden scan at alpha, alpha/2 (many values near 1/2)
    or a point of alpha's field; or an explicit list of small vectors and
    convergent denominators, sometimes ending in zero terms."""
    r = rng.random()
    h = rng.randint(1, 16) if r < 0.25 else rng.randint(17, 200) if r < 0.85 else rng.randint(201, 600)
    if kind in ("fact", "geom"):
        k = rng.randint(1, 3)
        x = _scan_coordinates(rng, k)
        pattern = tuple(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(k))
        seq = Factorial(pattern) if kind == "fact" else Geometric(rng.randint(2, 12), pattern)
        if rng.random() < 0.3 and h <= 200:
            seq = Subsequence(seq, rng.randint(1, 3), rng.randint(0, 5))
        return seq, x, h
    if kind == "cfden":
        alpha = rng.choice(CF_POINTS)
        m = rng.choice((1, 1, -1, 2, 3))
        x = rng.choice((
            alpha,
            CirclePoint.quadratic(alpha.num, alpha.surd_coeff, 2 * alpha.den, alpha.surd),
            CirclePoint.quadratic(
                m * alpha.num * 7 + rng.randint(0, 6) * alpha.den, m * alpha.surd_coeff * 7,
                7 * alpha.den, alpha.surd,
            ),
        ))
        seq = CFDenominators(alpha)
        if rng.random() < 0.3:
            seq = Subsequence(seq, rng.randint(1, 3), rng.randint(0, 5))
        return seq, (x,), min(h, 300)
    k = rng.randint(1, 3)
    x = _scan_coordinates(rng, k)
    n = min(h, 120)
    share = rng.choice((0.0, 0.5, 1.0))  # of terms that are convergent denominators of x_0
    qs = convergent_denominators(cf_expand(x[0]), n + 2) if not x[0].is_rational else [1] * (n + 2)
    terms = [
        (qs[i + 2],) + (0,) * (k - 1)
        if rng.random() < share
        else tuple(rng.randint(-9, 9) for _ in range(k))
        for i in range(n)
    ]
    if rng.random() < 0.3:
        z = rng.randint(1, n)
        terms[n - z:] = [(0,) * k] * z
    seq = Explicit(tuple(terms))
    if rng.random() < 0.15:
        seq = Subsequence(seq, rng.randint(1, 3), rng.randint(0, n + 2))
    return seq, x, None


def render_scan_verdicts() -> str:
    rng = random.Random(20261026)
    lines = []
    kinds = ("fact", "geom", "cfden", "explicit")
    while len(lines) < 200:
        kind = kinds[len(lines) % len(kinds)]
        seq, x, h = _scan_case(rng, kind)
        tol = rng.choice(SCAN_TOLERANCES)
        if h is None:
            v = _finite_scan(seq, x, Policy(tolerance=tol))
        else:
            v = _scan(seq, x, Policy(horizon=h, tolerance=tol))
        trace = " ".join(f"{i}:{upper}" for i, upper in v.trace)
        lines.append(
            f"{_fit(str(seq))} @ {','.join(map(str, x))} h={h} tol={tol}: "
            f"{v.status} {v.member} horizon={v.horizon} worst={_fit(str(v.worst_bound))} | "
            f"{_fit(v.reason)} | "
            + " ".join(f"{key}={_fit(str(value))}" for key, value in v.detail)
            + f" | trace {_fit(trace)}"
        )
    return "\n".join(lines) + "\n"


def _recorded(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def test_duality_systems_match_recording(monkeypatch):
    assert render_duality_systems(monkeypatch) == _recorded("duality_systems.txt")


def test_echelon_systems_match_recording():
    assert render_echelon_systems() == _recorded("echelon_systems.txt")


def test_circle_numerics_match_recording():
    assert render_circle_numerics() == _recorded("circle_numerics.txt")


def test_pattern_verdicts_match_recording():
    assert render_pattern_verdicts() == _recorded("pattern_verdicts.txt")


def test_surd_numerics_match_recording():
    assert render_surd_numerics() == _recorded("surd_numerics.txt")


def test_geometric_cycles_match_recording():
    assert render_geometric_cycles() == _recorded("geometric_cycles.txt")


def test_strided_orbits_match_recording():
    assert render_strided_orbits() == _recorded("strided_orbits.txt")


def test_scan_verdicts_match_recording():
    assert render_scan_verdicts() == _recorded("scan_verdicts.txt")


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_equivalence.py record")
    with pytest.MonkeyPatch.context() as mp:
        (GOLDEN_DIR / "duality_systems.txt").write_text(render_duality_systems(mp), encoding="utf-8")
    (GOLDEN_DIR / "echelon_systems.txt").write_text(render_echelon_systems(), encoding="utf-8")
    (GOLDEN_DIR / "circle_numerics.txt").write_text(render_circle_numerics(), encoding="utf-8")
    (GOLDEN_DIR / "pattern_verdicts.txt").write_text(render_pattern_verdicts(), encoding="utf-8")
    (GOLDEN_DIR / "surd_numerics.txt").write_text(render_surd_numerics(), encoding="utf-8")
    (GOLDEN_DIR / "geometric_cycles.txt").write_text(render_geometric_cycles(), encoding="utf-8")
    (GOLDEN_DIR / "strided_orbits.txt").write_text(render_strided_orbits(), encoding="utf-8")
    (GOLDEN_DIR / "scan_verdicts.txt").write_text(render_scan_verdicts(), encoding="utf-8")
