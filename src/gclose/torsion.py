"""Integer-vector sequences in the dual of Z^k and certified decisions about
which circle-group elements they annihilate in the limit.

A sequence u = (u_n) of integer vectors acts on a point x (one CirclePoint
per coordinate) by n |-> <u_n, x> mod 1.  Membership of x in s_u means this
scalar orbit converges to 0 in R/Z.  Verdicts come in three strengths:

* Exact: decided, with a finitely checkable reason (an eventual-zero index,
  or an escaping residue that recurs with a stated period).
* CertifiedUpTo: every norm in a trailing window up to the horizon is below
  tolerance; no claim beyond the horizon.
* Undecided: the scan saw norms above tolerance and no exact route applied.

The exact routes never consult floating point.  A rational point makes
n -> <u_n, x> a residue orbit mod q: a pre-period, then a period of states.
Geometric orbits c*b^n mod q (plain, strided or constant) are closed form:
a gcd split of q gives the pre-period, baby-step giant-step the period, and
no state is stored.  A factorial orbit is absorbed at the least a with
q | a!*c and then has period q.  Only convergent-denominator orbits are run,
by an automaton with cycle detection.  Strides and interleaves of these are
index arithmetic: a stride (A, B) over (first, period) starts at the least n
with A*n + B >= first and repeats every period/gcd(A, period); an interleave
with blocks b_j starts once every child is in its cycle and repeats every
sum(b_j)*lcm_j(p_j/gcd(b_j, p_j)).  The state cap bounds every part of an
orbit (each leaf, each interleave and the whole); past it the ladder scans.
Quadratic orbits along continued-fraction denominators are decided through
the classical approximation bound |q_n*alpha - p_n| < 1/q_{n+1}.

One function, _verify_terms, evaluates every certificate claim.  For a
sequence u on Z^k, generators h and N >= 1 terms it checks exactly, for
each n < N: u_n = eval_seq(u, n) is a nonzero vector of length k;
norm(<u_n, h>) <= 2^-n for every h; given an escape character chi,
len(chi) = k, 0 < delta <= 1/2 and norm(<u_n, chi>) >= delta.  Producers
run it on their own output; re-checkers run it and compare each stored
index, term, envelope and threshold with n, u_n, 2^-n and delta.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import factorial, gcd, isqrt, lcm

from .circle import (
    BoundedExpansionError,
    CFExpansion,
    CirclePoint,
    SurdSum,
    cf_expand,
    pair,
)
from .duality import PrecompactTopology, von_neumann_radical
from .lattice import approximation_candidates

__all__ = [
    "TorsionError",
    "IntVecSeq",
    "Geometric",
    "Factorial",
    "CFDenominators",
    "Explicit",
    "Constant",
    "Subsequence",
    "Interleave",
    "eval_seq",
    "Policy",
    "Verdict",
    "EXACT",
    "CERTIFIED_UP_TO",
    "UNDECIDED",
    "s_membership",
    "t_membership",
    "RationalTorsionProfile",
    "rational_torsion_profile",
    "Budget",
    "NullTermCert",
    "NullCertificate",
    "NullSequenceResult",
    "NotFound",
    "null_sequence",
    "recheck_null_certificate",
]

# residue-automaton state cap before degrading to a numeric scan
_STATE_CAP = 1_000_000


class TorsionError(ValueError):
    """Invalid sequence or membership query."""


# ---------------------------------------------------------------------------
# sequences


class IntVecSeq:
    """Total function n -> u_n in Z^k (finite generators carry a horizon)."""

    def dimension(self) -> int:
        raise NotImplementedError

    def term(self, n: int) -> tuple[int, ...]:
        raise NotImplementedError

    def horizon(self) -> int | None:
        """Number of defined terms, or None when the sequence is infinite."""
        return None

    def describe(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class Geometric(IntVecSeq):
    """u_n = base^n * pattern, base >= 2."""

    base: int
    pattern: tuple[int, ...] = (1,)

    def __post_init__(self):
        if self.base < 2:
            raise TorsionError("geometric base must be >= 2")
        if not self.pattern:
            raise TorsionError("empty coordinate pattern")

    def dimension(self) -> int:
        return len(self.pattern)

    def term(self, n: int) -> tuple[int, ...]:
        m = self.base**n
        return tuple(m * p for p in self.pattern)

    def describe(self) -> str:
        if self.pattern == (1,):
            return f"geom:{self.base}"
        return f"geom:{self.base}*({','.join(map(str, self.pattern))})"


@dataclass(frozen=True)
class Factorial(IntVecSeq):
    """u_n = n! * pattern."""

    pattern: tuple[int, ...] = (1,)

    def __post_init__(self):
        if not self.pattern:
            raise TorsionError("empty coordinate pattern")

    def dimension(self) -> int:
        return len(self.pattern)

    def term(self, n: int) -> tuple[int, ...]:
        f = factorial(n)
        return tuple(f * p for p in self.pattern)

    def describe(self) -> str:
        if self.pattern == (1,):
            return "fact"
        return f"fact*({','.join(map(str, self.pattern))})"


# Continued fraction and convergent denominators q_0, q_1, ... of the
# _CF_CACHE_SIZE points used most recently, least recent first.
_CF_CACHE_SIZE = 256
_CF_CACHE: OrderedDict[CirclePoint, tuple[CFExpansion, list[int]]] = OrderedDict()


def _cf_entry(alpha: CirclePoint) -> tuple[CFExpansion, list[int]]:
    entry = _CF_CACHE.get(alpha)
    if entry is not None:
        _CF_CACHE.move_to_end(alpha)
        return entry
    entry = _CF_CACHE[alpha] = cf_expand(alpha), [1]  # q_0 = 1 regardless of the expansion
    if len(_CF_CACHE) > _CF_CACHE_SIZE:
        _CF_CACHE.popitem(last=False)
    return entry


def _expansion(alpha: CirclePoint) -> CFExpansion:
    return _cf_entry(alpha)[0]


def _q_denominator(alpha: CirclePoint, n: int) -> int:
    cf, qs = _cf_entry(alpha)
    while len(qs) <= n:
        i = len(qs)
        prev = qs[i - 2] if i >= 2 else 0  # q_{-1} = 0
        qs.append(cf.quotient(i) * qs[i - 1] + prev)
    return qs[n]


@dataclass(frozen=True)
class CFDenominators(IntVecSeq):
    """u_n = q_n, the convergent denominators of an irrational alpha."""

    alpha: CirclePoint

    def __post_init__(self):
        if self.alpha.is_rational:
            raise TorsionError("convergent denominators need an irrational point")

    def dimension(self) -> int:
        return 1

    def term(self, n: int) -> tuple[int, ...]:
        return (_q_denominator(self.alpha, n),)

    def describe(self) -> str:
        return f"cfden:{self.alpha}"


@dataclass(frozen=True)
class Explicit(IntVecSeq):
    """Finite list of terms; evaluation past the horizon is an error."""

    terms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.terms:
            raise TorsionError("explicit sequence needs at least one term")
        k = len(self.terms[0])
        if k < 1 or any(len(t) != k for t in self.terms):
            raise TorsionError("explicit terms must share a positive dimension")

    def dimension(self) -> int:
        return len(self.terms[0])

    def term(self, n: int) -> tuple[int, ...]:
        if n >= len(self.terms):
            raise BoundedExpansionError(
                f"explicit sequence has {len(self.terms)} terms, index {n} requested"
            )
        return self.terms[n]

    def horizon(self) -> int | None:
        return len(self.terms)

    def describe(self) -> str:
        body = ";".join(",".join(map(str, t)) for t in self.terms)
        return f"list:{body}"


@dataclass(frozen=True)
class Constant(IntVecSeq):
    """u_n = vector for every n."""

    vector: tuple[int, ...]

    def __post_init__(self):
        if not self.vector:
            raise TorsionError("constant sequence needs a positive dimension")

    def dimension(self) -> int:
        return len(self.vector)

    def term(self, n: int) -> tuple[int, ...]:
        return self.vector

    def describe(self) -> str:
        return f"const:{','.join(map(str, self.vector))}"


@dataclass(frozen=True)
class Subsequence(IntVecSeq):
    """u_n = parent_{stride*n + offset} along an arithmetic progression."""

    parent: IntVecSeq
    stride: int
    offset: int = 0

    def __post_init__(self):
        if self.stride < 1:
            raise TorsionError("subsequence stride must be >= 1")
        if self.offset < 0:
            raise TorsionError("subsequence offset must be >= 0")

    def dimension(self) -> int:
        return self.parent.dimension()

    def term(self, n: int) -> tuple[int, ...]:
        return self.parent.term(self.stride * n + self.offset)

    def horizon(self) -> int | None:
        h = self.parent.horizon()
        if h is None:
            return None
        if h <= self.offset:
            return 0
        return (h - 1 - self.offset) // self.stride + 1

    def describe(self) -> str:
        return f"sub({self.stride},{self.offset}):{self.parent.describe()}"


@dataclass(frozen=True)
class Interleave(IntVecSeq):
    """Round-robin over children: child i contributes blocks[i] consecutive
    terms per cycle, advancing through its own terms in order."""

    children: tuple[IntVecSeq, ...]
    blocks: tuple[int, ...]

    def __post_init__(self):
        if not self.children:
            raise TorsionError("interleave needs at least one child")
        if len(self.blocks) != len(self.children):
            raise TorsionError("one block size per child required")
        if any(b < 1 for b in self.blocks):
            raise TorsionError("block sizes must be >= 1")
        k = self.children[0].dimension()
        if any(c.dimension() != k for c in self.children):
            raise TorsionError("interleaved children must share a dimension")

    def dimension(self) -> int:
        return self.children[0].dimension()

    def _locate(self, n: int) -> tuple[int, int]:
        """Global index -> (child index, child-local term index)."""
        cycle = sum(self.blocks)
        c, r = divmod(n, cycle)
        for j, b in enumerate(self.blocks):
            if r < b:
                return j, c * b + r
            r -= b
        raise AssertionError("unreachable")

    def global_index(self, child: int, m: int) -> int:
        """Child-local term index -> global index of that term."""
        cycle = sum(self.blocks)
        b = self.blocks[child]
        c, p = divmod(m, b)
        return c * cycle + sum(self.blocks[:child]) + p

    def term(self, n: int) -> tuple[int, ...]:
        j, m = self._locate(n)
        return self.children[j].term(m)

    def horizon(self) -> int | None:
        finite = [
            self.global_index(j, h)
            for j, c in enumerate(self.children)
            if (h := c.horizon()) is not None
        ]
        return min(finite) if finite else None

    def describe(self) -> str:
        body = ";".join(
            f"{c.describe()}@{b}" for c, b in zip(self.children, self.blocks)
        )
        return f"interleave({body})"


def eval_seq(u: IntVecSeq, n: int) -> tuple[int, ...]:
    """u_n, exactly.  Explicit generators error beyond their horizon."""
    if n < 0:
        raise TorsionError("sequence index must be >= 0")
    return u.term(n)


# ---------------------------------------------------------------------------
# verdicts

EXACT = "exact"
CERTIFIED_UP_TO = "certified_up_to"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class Policy:
    """Scan horizon and tolerance for the non-exact tier."""

    horizon: int = 512
    tolerance: Fraction = Fraction(1, 2**20)

    def __post_init__(self):
        if self.horizon < 1:
            raise TorsionError("horizon must be >= 1")
        if not 0 < self.tolerance < 1:
            raise TorsionError("tolerance must lie in (0, 1)")


@dataclass(frozen=True)
class Verdict:
    status: str
    member: bool | None
    reason: str
    horizon: int | None = None
    worst_bound: Fraction | None = None
    trace: tuple[tuple[int, Fraction], ...] = ()
    detail: tuple[tuple[str, object], ...] = ()

    @classmethod
    def exact_in(cls, reason: str, **facts) -> "Verdict":
        return cls(EXACT, True, reason, detail=tuple(sorted(facts.items())))

    @classmethod
    def exact_out(cls, reason: str, **facts) -> "Verdict":
        return cls(EXACT, False, reason, detail=tuple(sorted(facts.items())))

    @classmethod
    def certified(cls, horizon, worst, trace, reason, **facts) -> "Verdict":
        return cls(
            CERTIFIED_UP_TO,
            None,
            reason,
            horizon=horizon,
            worst_bound=worst,
            trace=tuple(trace),
            detail=tuple(sorted(facts.items())),
        )

    @classmethod
    def undecided(cls, reason, horizon=None, worst=None, trace=(), **facts) -> "Verdict":
        return cls(
            UNDECIDED,
            None,
            reason,
            horizon=horizon,
            worst_bound=worst,
            trace=tuple(trace),
            detail=tuple(sorted(facts.items())),
        )

    def fact(self, key: str, default=None):
        for k, v in self.detail:
            if k == key:
                return v
        return default

    @property
    def is_exact(self) -> bool:
        return self.status == EXACT

    def __str__(self) -> str:
        if self.status == EXACT:
            head = "Exact In" if self.member else "Exact Out"
            return f"{head}: {self.reason}"
        if self.status == CERTIFIED_UP_TO:
            return f"CertifiedUpTo(horizon={self.horizon}): {self.reason}"
        return f"Undecided: {self.reason}"


# ---------------------------------------------------------------------------
# residue orbits for rational points


class _CFMachine:
    # r_n = q_n * c mod q along the convergent recurrence
    def __init__(self, cf: CFExpansion, c: int, q: int):
        self.cf = cf
        self.c = c % q
        self.q = q
        self.prev, self.cur = 0, 1 % q
        self.idx = 1

    def state(self):
        return (self.cf.canonical_index(self.idx), self.prev, self.cur)

    def residue(self) -> int:
        return self.cur * self.c % self.q

    def advance(self):
        a = self.cf.quotient(self.idx)
        self.prev, self.cur = self.cur, (a * self.cur + self.prev) % self.q
        self.idx += 1


class _PairMachine:
    # R_n = (cp * p_n + cq * q_n) mod L along the convergent recurrences
    def __init__(self, cf: CFExpansion, cp: int, cq: int, L: int):
        self.cf = cf
        self.cp, self.cq, self.L = cp % L, cq % L, L
        self.pprev, self.pcur = 1 % L, cf.quotient(0) % L
        self.qprev, self.qcur = 0, 1 % L
        self.idx = 1

    def state(self):
        return (
            self.cf.canonical_index(self.idx),
            self.pprev,
            self.pcur,
            self.qprev,
            self.qcur,
        )

    def residue(self) -> int:
        return (self.cp * self.pcur + self.cq * self.qcur) % self.L

    def advance(self):
        a = self.cf.quotient(self.idx)
        self.pprev, self.pcur = self.pcur, (a * self.pcur + self.pprev) % self.L
        self.qprev, self.qcur = self.qcur, (a * self.qcur + self.qprev) % self.L
        self.idx += 1


@dataclass(frozen=True)
class _Orbit:
    """The residue orbit of an automaton whose states repeat from index first
    with period period; at(n) is the residue at any index n >= 0."""

    first: int
    period: int
    at: Callable[[int], int]


def _run_cycle(machine, cap: int = _STATE_CAP) -> _Orbit | None:
    """Drive the automaton to a state repetition: its orbit, or None when
    that takes more than cap states."""
    seen: dict = {}
    residues: list[int] = []
    while True:
        st = machine.state()
        if st in seen:
            first = seen[st]
            period = len(residues) - first
            return _Orbit(
                first, period, lambda n: residues[n if n < first else first + (n - first) % period]
            )
        if len(residues) >= cap:
            return None
        seen[st] = len(residues)
        residues.append(machine.residue())
        machine.advance()


def _summarize_cycle(orbit: _Orbit, q: int) -> tuple[int, Fraction, int]:
    """(best, norm, index) of a residue orbit mod q with cycle [first, first+period):
    (0, 0, n0) for an all-zero cycle, n0 one past the last nonzero residue;
    else the cycle residue of largest norm (smaller on ties) at its first index."""
    first = orbit.first
    residues = [orbit.at(n) for n in range(first + orbit.period)]
    cycle = residues[first:]
    if not any(cycle):
        nz = [i for i, v in enumerate(residues) if v]
        return 0, Fraction(0), max(nz) + 1 if nz else 0
    best = max((v for v in cycle if v), key=lambda v: (min(v, q - v), -v))
    return best, Fraction(min(best, q - best), q), first + cycle.index(best)


def _order(g: int, m: int, bound: int) -> int | None:
    """Least k in [1, bound] with g^k = 1 mod m, for g a unit mod m, or None
    when the order exceeds bound.  Baby-step giant-step (Shanks 1971) with
    isqrt(min(bound, m)) + 1 baby steps."""
    if m == 1:
        return 1
    n = min(bound, m)
    t = isqrt(n) + 1
    baby, e = {}, 1
    for j in range(t):
        if j and e == 1:
            return j
        baby[e] = j
        e = e * g % m
    # the order is at least t, so the baby steps are distinct; e = g^t
    giant = e
    for i in range(1, -(-n // t) + 1):
        j = baby.get(giant)
        if j is not None:
            k = i * t - j
            return k if k <= bound else None
        giant = giant * e % m
    return None


def _geometric_shape(start: int, step: int, q: int, cap: int) -> tuple[int, int] | None:
    """(first, period) of the orbit s_n = start*step^n mod q, or None exactly
    when first + period > cap.

    q = q1*q2 with q2 the largest divisor of q coprime to step.  Modulo q1 the
    orbit is distinct until it reaches 0, where it stays; modulo q2 step is a
    unit, so that part is purely periodic.  Hence first is the least n with
    q1 | s_n, and period is the order of step modulo q2/gcd(s_first, q2)."""
    step %= q
    q2, g = q, gcd(q, step)
    while g > 1:
        q2 //= g
        g = gcd(q2, g)
    q1 = q // q2
    first, r = 0, start % q1
    while r:
        r = r * step % q1
        first += 1
    if first >= cap:
        return None
    s = start * pow(step, first, q) % q
    period = _order(step, q2 // gcd(s, q2), cap - first)
    return None if period is None else (first, period)


def _geometric_cycle(
    start: int, step: int, q: int, cap: int = _STATE_CAP
) -> tuple[int, int, int, int] | None:
    """(first, period, best, index) of the orbit s_n = start*step^n mod q, as
    _summarize_cycle gives them, or None exactly when first + period > cap.
    One walk over the cycle, no residue stored.  An all-zero cycle has best 0
    and index first, since no residue before it is 0."""
    shape = _geometric_shape(start, step, q, cap)
    if shape is None:
        return None
    first, period = shape
    s = start * pow(step, first, q) % q
    best, index, v = s, first, s
    top = min(s, q - s)
    for n in range(first + 1, first + period):
        v = v * step % q
        d = min(v, q - v)
        if d > top or (d == top and v < best):
            best, index, top = v, n, d
    return first, period, best, index


def _geometric_start(
    root: IntVecSeq, A: int, B: int, w: tuple[int, ...], q: int
) -> tuple[int, int]:
    """(start, step) with <root_(A*n+B), w> = start*step^n mod q for a
    geometric or constant root, by jumping with pow rather than stepping."""
    if isinstance(root, Constant):
        return _dot(root.vector, w) % q, 1
    return _dot(root.pattern, w) * pow(root.base, B, q) % q, pow(root.base, A, q)


def _dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _factorial_residues(c: int, q: int):
    """n!*c mod q for n = 0, 1, ... up to, not including, the first zero."""
    r, n = c % q, 0
    while r:
        yield r
        n += 1
        r = r * n % q


def _orbit(u: IntVecSeq, w: tuple[int, ...], q: int, cap: int = _STATE_CAP) -> _Orbit | None:
    """The orbit n -> <u_n, w> mod q (see the module docstring), or None when
    u has finite terms or some part of it has more than cap states.  A cfden
    root with w = (cp, cq) gives the orbit of cp*p_n + cq*q_n instead."""
    root, A, B = _chain(u)
    if isinstance(root, (Constant, Geometric)):
        start, step = _geometric_start(root, A, B, w, q)
        shape = _geometric_shape(start, step, q, cap)
        if shape is None:
            return None
        return _Orbit(*shape, lambda n: start * pow(step, n, q) % q)
    if isinstance(root, Factorial):
        absorbed = list(islice(_factorial_residues(_dot(root.pattern, w), q), max(0, cap - q + 1)))
        if len(absorbed) + q > cap:
            return None
        orbit = _Orbit(len(absorbed), q, lambda n: absorbed[n] if n < len(absorbed) else 0)
    elif isinstance(root, CFDenominators):
        cf = _expansion(root.alpha)
        machine = _CFMachine(cf, w[0], q) if len(w) == 1 else _PairMachine(cf, *w, q)
        orbit = _run_cycle(machine, cap)
    elif isinstance(root, Interleave):
        orbit = _interleave_orbit(root, w, q, cap)
    else:
        return None
    if orbit is None:
        return None
    return _Orbit(
        max(0, -((B - orbit.first) // A)),
        orbit.period // gcd(A, orbit.period),
        lambda n: orbit.at(A * n + B),
    )


def _interleave_orbit(u: Interleave, w: tuple[int, ...], q: int, cap: int) -> _Orbit | None:
    """Interleave of the children's orbits (f_j, p_j) with blocks b_j and
    cycle C = sum(b_j): the state repeats once every child is in its cycle,
    from max_j(global_index(j, f_j - 1) + 1), and every C*lcm_j(p_j/gcd(b_j, p_j))
    indices."""
    parts = [_orbit(c, w, q, cap) for c in u.children]
    if any(o is None for o in parts):
        return None
    first = max(u.global_index(j, o.first - 1) + 1 for j, o in enumerate(parts))
    period = sum(u.blocks) * lcm(*(o.period // gcd(b, o.period) for o, b in zip(parts, u.blocks)))
    if first + period > cap:
        return None

    def at(n: int) -> int:
        j, m = u._locate(n)
        return parts[j].at(m)

    return _Orbit(first, period, at)


def _orbit_verdict(q: int, first: int, period: int, best: int, idx: int) -> Verdict:
    """Exact verdict for a residue orbit mod q with cycle [first, first+period)
    whose best residue best first appears at idx (see _summarize_cycle)."""
    if not best:
        return Verdict.exact_in(
            f"pairing = 0 (mod 1) for all n >= {idx}; the residue orbit mod {q} "
            f"enters an all-zero cycle (pre-period {first}, period {period})",
            from_index=idx,
            preperiod=first,
            period=period,
            modulus=q,
        )
    norm = Fraction(min(best, q - best), q)
    return Verdict.exact_out(
        f"pairing norm = {norm} at n = {idx}, recurring with period {period} "
        f"(residue {best} mod {q})",
        escape_index=idx,
        escape_value=norm,
        period=period,
        modulus=q,
        residue=best,
    )


# ---------------------------------------------------------------------------
# the decision ladder


def _upper(bracket: tuple[int, int, int], tol: Fraction) -> Fraction:
    """The reported upper bound of a norm bracket (lo, hi, scale): an exact
    norm as it is, an inexact one rounded up to a multiple of tol/8.  The
    report stays short and sound: tol is on the grid, so a bound <= tol
    stays <= tol and one > tol stays > tol."""
    lo, hi, scale = bracket
    if lo == hi:
        return Fraction(hi, scale)
    tn, grid = tol.numerator, 8 * tol.denominator
    return Fraction(-(-hi * grid // (scale * tn)) * tn, grid)


def _tail_scan(
    brackets: Iterable[tuple[int, int, int]], horizon: int, tol: Fraction
) -> Verdict:
    """Verdict on the norm brackets (lo, hi, scale) of terms 0, 1, ..., read
    as they stream in.  The tail follows the last term whose upper bound
    hi/scale exceeds tol, tested in integers as hi*tol.den > tol.num*scale.
    Only reported bounds become Fractions, by ``_upper``: the tail's worst,
    the 16-entry trace and the offending term."""
    tn, td = tol.numerator, tol.denominator
    last = deque(maxlen=16)
    bad = worst = None
    n = 0
    for n, b in enumerate(brackets, 1):
        last.append((n - 1, b))
        _, hi, scale = b
        if hi * td > tn * scale:
            bad, worst = (n - 1, b), None
        else:
            upper = _upper(b, tol)
            worst = upper if worst is None else max(worst, upper)
    t = 0 if bad is None else bad[0] + 1
    trace = tuple((i, _upper(b, tol)) for i, b in last)
    if n - t >= min(16, n):
        return Verdict.certified(
            horizon,
            worst,
            trace,
            f"all pairing norms <= {tol} from index {t} up to horizon {horizon}",
            tail_start=t,
        )
    i, upper = bad[0], _upper(bad[1], tol)
    return Verdict.undecided(
        f"pairing norm {upper} exceeds tolerance {tol} at index {i} "
        f"(horizon {horizon})",
        horizon=horizon,
        worst=upper,
        trace=trace,
        offending_index=i,
    )


def _finite_scan(u: IntVecSeq, x: tuple[CirclePoint, ...], policy: Policy) -> Verdict:
    h = u.horizon()
    if h == 0:
        return Verdict.exact_in(
            "sequence defines no terms; convergence holds vacuously",
            from_index=0,
            sequence_horizon=0,
        )
    t = h
    while t > 0 and pair(u.term(t - 1), x).is_integer():
        t -= 1
    if t < h:
        return Verdict.exact_in(
            f"pairing = 0 (mod 1) from index {t} through the final index {h - 1} "
            f"of a finite sequence",
            from_index=t,
            sequence_horizon=h,
        )
    return _scan(u, x, Policy(h, policy.tolerance))


def _scan(u: IntVecSeq, x: tuple[CirclePoint, ...], policy: Policy) -> Verdict:
    """Stream the norm brackets of the first policy.horizon pairings, at
    tolerance/4, through one root table."""
    n, tol, roots = policy.horizon, policy.tolerance / 4, {}
    brackets = (pair(u.term(i), x).norm_bracket(tol, roots) for i in range(n))
    return _tail_scan(brackets, n, policy.tolerance)


def _chain(u: IntVecSeq) -> tuple[IntVecSeq, int, int]:
    """(root, A, B) with u.term(n) == root.term(A*n + B) for every n."""
    A, B = 1, 0
    while isinstance(u, Subsequence):
        A, B = A * u.stride, u.stride * B + u.offset
        u = u.parent
    return u, A, B


def _factorial_in(c: int, q: int, A: int, B: int) -> Verdict:
    """Absorbing divisibility: (An+B)! * c = 0 mod q from some index on.  The
    least m with q | m!*c is searched up to the state cap; past it m = q,
    since q | q! (and q is the least m when q is prime)."""
    m = sum(1 for _ in islice(_factorial_residues(c, q), _STATE_CAP + 1))
    if m > _STATE_CAP:
        m = q
    start = 0 if B >= m else -((B - m) // A)
    return Verdict.exact_in(
        f"q = {q} divides (A*n+B)!*{c} for all n >= {start} "
        f"(A = {A}, B = {B}; factorials absorb every modulus)",
        from_index=start,
        modulus=q,
        absorbed_at=m,
    )


def _decide_rational(u: IntVecSeq, x: tuple[CirclePoint, ...], policy: Policy) -> Verdict:
    q = lcm(*(p.den for p in x))
    w = tuple(p.num * (q // p.den) for p in x)
    root, A, B = _chain(u)
    if isinstance(root, Factorial):
        return _factorial_in(_dot(root.pattern, w) % q, q, A, B)
    if isinstance(root, (Constant, Geometric)):
        orbit = _geometric_cycle(*_geometric_start(root, A, B, w, q), q)
    elif (o := _orbit(u, w, q)) is not None:
        best, _, idx = _summarize_cycle(o, q)
        orbit = o.first, o.period, best, idx
    else:
        orbit = None
    if orbit is None:
        return _scan(u, x, policy)
    return _orbit_verdict(q, *orbit)


def _cf_pairing(alpha: CirclePoint, x: CirclePoint) -> tuple[tuple[int, ...], int] | None:
    """(w, L) such that _orbit(cfden:alpha, w, L) is the residue orbit of
    q_n*x: w = (num,) and L = den for a rational x.  For x = m*alpha + r in
    alpha's quadratic field, q_n*x = (m*p_n + r*q_n) + m*(q_n*alpha - p_n),
    the bracket lives in (1/L)Z and w = (m*L, r*L).  None for any other x."""
    if x.is_rational:
        return (x.num,), x.den
    if x.surd != alpha.surd:
        return None
    m = Fraction(x.surd_coeff * alpha.den, x.den * alpha.surd_coeff)
    r = Fraction(x.num, x.den) - m * Fraction(alpha.num, alpha.den)
    L = lcm(m.denominator, r.denominator)
    return (int(m * L), int(r * L)), L


def _decide_cf_quadratic(
    u: IntVecSeq, x: CirclePoint, pairing: tuple[tuple[int, ...], int], policy: Policy
) -> Verdict:
    """Decide q_(A*n+B)*x for x in alpha's field through the pair orbit of
    _cf_pairing, or scan when that orbit passes the state cap."""
    root, A, B = _chain(u)
    w, L = pairing
    orbit = _orbit(u, w, L)
    if orbit is None:
        return _scan(u, (x,), policy)
    m, r = Fraction(w[0], L), Fraction(w[1], L)
    first, period = orbit.first, orbit.period
    best, vnorm, idx = _summarize_cycle(orbit, L)
    if not best:
        return Verdict.exact_in(
            f"<u_n, x> = R_n/{L} + m*theta_n with R_n = 0 for all n >= {idx} "
            f"and |theta_n| < 1/q_(A*n+B+1) -> 0 (m = {m}, r = {r})",
            from_index=idx,
            preperiod=first,
            period=period,
            modulus=L,
            slope=m,
            intercept=r,
        )
    # past the tail index the CF perturbation is below vnorm/2
    threshold = 2 * abs(m) / vnorm
    M = 0
    while Fraction(_q_denominator(root.alpha, M)) < threshold:
        M += 1
    # escape indices idx + t*period once A*n + B + 1 >= M
    lowest = max(idx, 0 if B + 1 >= M else -((B + 1 - M) // A))
    e0 = idx + (-(-(lowest - idx) // period)) * period if lowest > idx else idx
    bound = vnorm / 2
    return Verdict.exact_out(
        f"pairing norm >= {bound} at n = {e0} and every {period} steps thereafter "
        f"(recurring residue {best}/{L}, CF tail below {bound} from n = {lowest})",
        escape_index=e0,
        escape_bound=bound,
        escape_value=vnorm,
        period=period,
        modulus=L,
        residue=best,
        tail_index=lowest,
    )


def _decide_constant_value(value: SurdSum) -> Verdict:
    if value.is_integer():
        return Verdict.exact_in(
            "constant pairing = 0 (mod 1) at every index", from_index=0
        )
    if value.is_rational():
        norm = value.norm_enclosure().lower
        return Verdict.exact_out(
            f"constant pairing norm = {norm} at every index",
            escape_index=0,
            escape_value=norm,
            period=1,
        )
    tol = Fraction(1, 2**16)
    while True:
        enc = value.norm_enclosure(tol)
        if enc.lower > 0:
            return Verdict.exact_out(
                f"constant irrational pairing has norm >= {enc.lower} at every index",
                escape_index=0,
                escape_bound=enc.lower,
                period=1,
            )
        tol /= 2**16


def _combine_interleave(
    u: Interleave, verdicts: list[Verdict], policy: Policy
) -> Verdict:
    for j, v in enumerate(verdicts):
        if v.status == EXACT and v.member is False:
            e0 = v.fact("escape_index", 0)
            period = v.fact("period", 1)
            big = lcm(period, u.blocks[j])
            gper = (big // u.blocks[j]) * sum(u.blocks)
            g0 = u.global_index(j, e0)
            return Verdict.exact_out(
                f"interleaved component {j} escapes: {v.reason} "
                f"(globally at n = {g0}, period {gper})",
                escape_index=g0,
                period=gper,
                component=j,
            )
    if all(v.status == EXACT and v.member for v in verdicts):
        start = max(
            u.global_index(j, f) if (f := v.fact("from_index", 0)) > 0 else 0
            for j, v in enumerate(verdicts)
        )
        return Verdict.exact_in(
            f"every interleaved component is eventually 0; combined from n >= {start}",
            from_index=start,
        )
    if any(v.status == UNDECIDED for v in verdicts):
        j = next(i for i, v in enumerate(verdicts) if v.status == UNDECIDED)
        return Verdict.undecided(
            f"interleaved component {j} undecided: {verdicts[j].reason}",
            horizon=verdicts[j].horizon,
            worst=verdicts[j].worst_bound,
            component=j,
        )
    horizon = min(
        u.global_index(j, v.horizon)
        for j, v in enumerate(verdicts)
        if v.status == CERTIFIED_UP_TO
    )
    worst = max(
        (v.worst_bound for v in verdicts if v.worst_bound is not None),
        default=Fraction(0),
    )
    return Verdict.certified(
        horizon,
        worst,
        (),
        f"every interleaved component is exact-in or certified below tolerance "
        f"(combined horizon {horizon})",
    )


def s_membership(
    u: IntVecSeq,
    x: tuple[CirclePoint, ...] | list[CirclePoint],
    policy: Policy | None = None,
) -> Verdict:
    """Does <u_n, x> mod 1 converge to 0?  Exact where the ladder applies."""
    policy = policy or Policy()
    x = tuple(x)
    if len(x) != u.dimension():
        raise TorsionError(
            f"sequence has dimension {u.dimension()}, point has {len(x)} coordinates"
        )
    if all(p.is_zero() for p in x):
        return Verdict.exact_in("x = 0: every character kills it", from_index=0)
    return _decide(u, x, policy)


def _decide(u: IntVecSeq, x: tuple[CirclePoint, ...], policy: Policy) -> Verdict:
    if isinstance(u, Interleave) and u.horizon() is None:
        verdicts = [_decide(c, x, policy) for c in u.children]
        return _combine_interleave(u, verdicts, policy)
    if u.horizon() is not None:
        return _finite_scan(u, x, policy)
    if all(p.is_rational for p in x):
        return _decide_rational(u, x, policy)
    root, A, B = _chain(u)
    if isinstance(root, Constant):
        return _decide_constant_value(pair(root.vector, x))
    if (
        isinstance(root, CFDenominators)
        and len(x) == 1
        and (pairing := _cf_pairing(root.alpha, x[0])) is not None
    ):
        return _decide_cf_quadratic(u, x[0], pairing, policy)
    if isinstance(root, (Geometric, Factorial)):
        y = pair(root.pattern, x)
        if y.is_rational():
            # u_n = s_(A*n+B) * pattern for a scalar sequence s: <u_n, x> = s_(A*n+B) * y
            scalar = Geometric(root.base) if isinstance(root, Geometric) else Factorial()
            point = CirclePoint.rational(y.num, y.den)
            return _decide_rational(Subsequence(scalar, A, B), (point,), policy)
    return _scan(u, x, policy)


def t_membership(
    u: IntVecSeq, x: CirclePoint, policy: Policy | None = None
) -> Verdict:
    """Membership of a single circle point: s_membership specialized to k = 1."""
    if u.dimension() != 1:
        raise TorsionError("t-membership requires a one-dimensional sequence")
    return s_membership(u, (x,), policy)


# ---------------------------------------------------------------------------
# rational torsion profile


@dataclass(frozen=True)
class RationalTorsionProfile:
    entries: tuple[tuple[int, Verdict], ...]
    admitted: tuple[int, ...]
    flagged: tuple[int, ...]


def rational_torsion_profile(
    u: IntVecSeq, max_den: int, policy: Policy | None = None
) -> RationalTorsionProfile:
    """Verdicts for x = 1/q over all q <= max_den, plus the admitted set.

    Entries outside the exact ladder are flagged, never dropped.
    """
    if u.dimension() != 1:
        raise TorsionError("profile requires a one-dimensional sequence")
    if max_den < 1:
        raise TorsionError("max_den must be >= 1")
    entries = []
    admitted = []
    flagged = []
    for q in range(1, max_den + 1):
        v = s_membership(u, (CirclePoint.rational(1, q),), policy)
        entries.append((q, v))
        if v.status == EXACT and v.member:
            admitted.append(q)
        elif v.status != EXACT:
            flagged.append(q)
    return RationalTorsionProfile(tuple(entries), tuple(admitted), tuple(flagged))


# ---------------------------------------------------------------------------
# null sequences for precompact topologies


@dataclass(frozen=True)
class Budget:
    max_terms: int = 48
    max_candidates: int = 512

    def __post_init__(self):
        if self.max_terms < 1 or self.max_candidates < 1:
            raise TorsionError("budget bounds must be >= 1")


@dataclass(frozen=True)
class NullTermCert:
    """One verified term: every generator norm is exactly <= the envelope."""

    index: int
    term: tuple[int, ...]
    norms: tuple[Fraction, ...]  # per-generator upper bounds (display)
    envelope: Fraction  # 2^-index; the exact verified claim


@dataclass(frozen=True)
class NullCertificate:
    strategy: str
    terms: tuple[NullTermCert, ...]


@dataclass(frozen=True)
class NullSequenceResult:
    sequence: IntVecSeq
    certificate: NullCertificate


@dataclass(frozen=True)
class NotFound:
    """Budget exhausted; deliberately carries no nonexistence claim."""

    reason: str


def _verify_terms(
    seq: IntVecSeq,
    topology: PrecompactTopology,
    count: int,
    chi: tuple[CirclePoint, ...] | None = None,
    delta: Fraction | None = None,
) -> list[tuple[tuple[int, ...], tuple[SurdSum, ...], SurdSum | None]] | None:
    """The certificate verifier of the module docstring, on the first count
    terms of seq.  Returns per n (u_n, the generator pairings, the chi pairing
    or None), so producers derive display bounds without pairing again; None
    as soon as one claim fails."""
    k = topology.ambient.free_rank
    if count < 1:
        return None
    if chi is not None and (len(chi) != k or not 0 < delta <= Fraction(1, 2)):
        return None
    checked = []
    try:
        for n in range(count):
            term = eval_seq(seq, n)
            if len(term) != k or not any(term):
                return None
            envelope = Fraction(1, 2**n)
            values = []
            for h in topology.characters:
                value = pair(term, h)
                if value.norm_cmp(envelope) > 0:
                    return None
                values.append(value)
            escape = None
            if chi is not None:
                escape = pair(term, chi)
                if escape.norm_cmp(delta) < 0:
                    return None
            checked.append((term, tuple(values), escape))
    except ValueError:  # a finite sequence ended early, or a malformed point
        return None
    return checked


def _null_terms(checked) -> tuple[NullTermCert, ...]:
    """Certificates for verified terms; norms are display upper bounds
    computed to within 2^-(n+3)."""
    return tuple(
        NullTermCert(
            n,
            term,
            tuple(v.norm_enclosure(Fraction(1, 2 ** (n + 3))).upper for v in values),
            Fraction(1, 2**n),
        )
        for n, (term, values, _) in enumerate(checked)
    )


def null_sequence(
    topology: PrecompactTopology, budget: Budget | None = None
) -> NullSequenceResult | NotFound:
    """A nonzero integer sequence converging to 0 in the given topology,
    with a per-term exact certificate (envelope 2^-n), or NotFound.

    Strategies, in order: a nonzero annihilator vector gives a constant
    sequence; a single quadratic character on Z is handled by every other
    continued-fraction denominator of that point; otherwise per-term lattice
    reduction searches for simultaneous approximations.
    """
    budget = budget or Budget()
    k = topology.ambient.free_rank
    chars = topology.characters
    count = budget.max_terms
    if not chars:
        seq, strategy = Constant((1,) + (0,) * (k - 1)), "indiscrete"
    elif gens := von_neumann_radical(topology).element_generators():
        seq = Constant(min(gens, key=lambda g: (max(abs(c) for c in g), g)))
        strategy = "annihilator"
    elif k == 1 and len(chars) == 1 and not chars[0][0].is_rational:
        # q_{2n+1} >= 2^n, so norm(q_{2n} * alpha) < 1/q_{2n+1} <= 2^-n
        seq = Subsequence(CFDenominators(chars[0][0]), 2, 0)
        strategy = "cf-denominators"
    else:
        used = 0
        terms: list[tuple[int, ...]] = []
        for n in range(count):
            envelope = Fraction(1, 2**n)
            found = None
            scale = 2 ** (n + 4)
            while found is None and scale <= 2**192:
                for cand in approximation_candidates(chars, scale):
                    used += 1
                    if used > budget.max_candidates:
                        return NotFound(
                            f"candidate budget {budget.max_candidates} exhausted "
                            f"at term {n}"
                        )
                    ok = all(pair(cand, h).norm_cmp(envelope) <= 0 for h in chars)
                    if ok and any(cand):
                        found = cand
                        break
                scale *= 2**8
            if found is None:
                return NotFound(f"no candidate met envelope {envelope} at term {n}")
            terms.append(found)
        seq, strategy = Explicit(tuple(terms)), "lattice-approximation"
    checked = _verify_terms(seq, topology, count)
    if checked is None:  # every strategy above is exact; defensive
        raise TorsionError(f"{strategy} null sequence failed its own certificate")
    return NullSequenceResult(seq, NullCertificate(strategy, _null_terms(checked)))


def recheck_null_certificate(
    topology: PrecompactTopology, result: NullSequenceResult
) -> bool:
    """Recompute every certificate claim from scratch: True iff _verify_terms
    passes and stored term n has index n, term u_n and envelope 2^-n."""
    terms = result.certificate.terms
    checked = _verify_terms(result.sequence, topology, len(terms))
    return checked is not None and all(
        tc.index == n and tc.term == term and tc.envelope == Fraction(1, 2**n)
        for n, (tc, (term, _, _)) in enumerate(zip(terms, checked))
    )
