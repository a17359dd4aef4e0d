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
* ``circle_numerics.txt``: ``enclosure``, ``norm``, ``value_cmp`` and
  ``norm_cmp`` of seeded points, at tolerances from 2^-1 to 2^-80.
* ``pattern_verdicts.txt``: ``s_membership`` verdicts for irrational points
  whose pairing with the pattern of a geometric or factorial sequence is
  rational, plain and strided.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gclose import duality
from gclose.circle import CircleError, CirclePoint, add, int_mul, norm
from gclose.duality import (
    Character,
    DualSubgroup,
    FgAbelianGroup,
    annihilator,
    closure_in_dual,
)
from gclose.torsion import Factorial, Geometric, Subsequence, s_membership

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


def _recorded(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def test_duality_systems_match_recording(monkeypatch):
    assert render_duality_systems(monkeypatch) == _recorded("duality_systems.txt")


def test_circle_numerics_match_recording():
    assert render_circle_numerics() == _recorded("circle_numerics.txt")


def test_pattern_verdicts_match_recording():
    assert render_pattern_verdicts() == _recorded("pattern_verdicts.txt")


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_equivalence.py record")
    with pytest.MonkeyPatch.context() as mp:
        (GOLDEN_DIR / "duality_systems.txt").write_text(render_duality_systems(mp), encoding="utf-8")
    (GOLDEN_DIR / "circle_numerics.txt").write_text(render_circle_numerics(), encoding="utf-8")
    (GOLDEN_DIR / "pattern_verdicts.txt").write_text(render_pattern_verdicts(), encoding="utf-8")
