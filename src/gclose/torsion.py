"""Integer-vector sequences in the dual of Z^k and certified decisions about
which circle-group elements they annihilate in the limit.

A sequence u = (u_n) of integer vectors acts on a point x (one CirclePoint
per coordinate) by n |-> <u_n, x> mod 1.  Membership of x in s_u means this
scalar orbit converges to 0 in R/Z.  Sequences walk their terms: walk(n0, s)
yields u_n0, u_(n0+s), ..., each built from the one before, and a finite
sequence's walk ends after its last term; length counts the terms in closed
form, None for an infinite sequence.  Verdicts come in three strengths:

* Exact: decided, with a finitely checkable reason (an eventual-zero index,
  or an escaping residue that recurs with a stated period).
* CertifiedUpTo: every norm in a trailing window up to the horizon is below
  tolerance; no claim beyond the horizon.
* Undecided: the scan saw norms above tolerance and no exact route applied.

The exact routes never consult floating point.  A rational point makes
n -> <u_n, x> a residue orbit mod q: a pre-period, then a period of states.
Every such orbit is in closed form and none stores its states.  Geometric
orbits c*b^n mod q (plain, strided or constant): a gcd split of q gives the
pre-period, baby-step giant-step the period.  A factorial orbit is absorbed
at the least a with q | a!*c and then has period q.  Convergent-denominator
orbits step by 2x2 matrices of determinant -1: past the CF pre-period they
are purely periodic, and baby-step giant-step on the product over one CF
period gives the period; a strided walk reads its residues through one
product row per quotient of that period.  Strides and interleaves of these
are index arithmetic: a stride (A, B) over (first, period) starts at the
least n with A*n + B >= first and repeats every period/gcd(A, period); an
interleave with blocks b_j starts once every child is in its cycle and
repeats every sum(b_j)*lcm_j(p_j/gcd(b_j, p_j)).  One summariser finds each
cycle's residue of largest norm.  For a geometric cycle it searches the
units of Z/m nearest m/2 by baby-step giant-step, in O(sqrt(period)) steps
when they lie in the cycle; any other cycle, or a search that gives up,
takes a single walk.  The state cap bounds every part of an orbit (each
leaf, each interleave and the whole).  The ladder is exact only: past the
cap, or where no route applies, it gives no verdict, and the sequence that
was asked about is scanned.  An interleave is exact when its parts are (Out
from the first part that escapes, In when every part is eventually 0), and
is otherwise scanned as one sequence.
Quadratic orbits along continued-fraction denominators are decided through
the classical approximation bound |q_n*alpha - p_n| < 1/q_{n+1}.

One function, _verify_terms, evaluates every certificate claim.  For a
sequence u on Z^k, generators h and N >= 1 terms it reads u_0, ..., u_(N-1)
from walk(0, 1) and checks exactly, for each n < N: u_n exists and is a
nonzero vector of length k; norm(<u_n, h>) <= 2^-n for every h; given an
escape character chi, len(chi) = k, delta is a Fraction in (0, 1/2] and
norm(<u_n, chi>) >= delta.  One norm bracket per value decides its claim
and gives its display bound (at 2^-(n+3) for a generator, at delta/8 for
chi); only a bracket that straddles its threshold is compared exactly.
Producers run it on their own output; re-checkers run it and require each
stored index, term, envelope and threshold to be n, u_n, the Fraction 2^-n
and the Fraction delta.  A term equal to the one before reuses its
pairings and its escape bound, and its null bounds when they are rational.

One staged search, _staged_search, produces null sequences and escape
witnesses alike: a null sequence is a witness without the escape condition.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, count, cycle, islice, repeat
from math import factorial, gcd, isqrt, lcm, prod

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

# most states (pre-period plus period) of a residue orbit, or of any part
# of it, before the ladder degrades to a numeric scan
_STATE_CAP = 1_000_000


class TorsionError(ValueError):
    """Invalid sequence or membership query."""


# ---------------------------------------------------------------------------
# sequences


class IntVecSeq:
    """Integer vectors u_0, u_1, ... in Z^k, read in order by walk."""

    # number of terms, in closed form; None for an infinite sequence (only
    # Explicit leaves end)
    length: int | None = None

    def dimension(self) -> int:
        raise NotImplementedError

    def walk(self, n0: int, s: int) -> Iterator[tuple[int, ...]]:
        """u_n0, u_(n0+s), u_(n0+2s), ..., each built from the one before;
        the walk of a finite sequence ends after its last term."""
        raise NotImplementedError

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

    def walk(self, n0: int, s: int) -> Iterator[tuple[int, ...]]:
        m, jump = self.base**n0, self.base**s
        while True:
            yield tuple(m * p for p in self.pattern)
            m *= jump

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

    def walk(self, n0: int, s: int) -> Iterator[tuple[int, ...]]:
        f = factorial(n0)
        for n in count(n0 + 1, s):
            yield tuple(f * p for p in self.pattern)
            f *= prod(range(n, n + s))

    def describe(self) -> str:
        if self.pattern == (1,):
            return "fact"
        return f"fact*({','.join(map(str, self.pattern))})"


# Continued fractions of the _CF_CACHE_SIZE points used most recently,
# least recent first.
_CF_CACHE_SIZE = 256
_CF_CACHE: OrderedDict[CirclePoint, CFExpansion] = OrderedDict()


def _cf_entry(alpha: CirclePoint) -> CFExpansion:
    cf = _CF_CACHE.pop(alpha) if alpha in _CF_CACHE else cf_expand(alpha)
    _CF_CACHE[alpha] = cf  # hit or miss, alpha is now the most recent
    if len(_CF_CACHE) > _CF_CACHE_SIZE:
        _CF_CACHE.popitem(last=False)
    return cf


@dataclass(frozen=True)
class CFDenominators(IntVecSeq):
    """u_n = q_n, the convergent denominators of an irrational alpha."""

    alpha: CirclePoint

    def __post_init__(self):
        if self.alpha.is_rational:
            raise TorsionError("convergent denominators need an irrational point")

    def dimension(self) -> int:
        return 1

    def walk(self, n0: int, s: int) -> Iterator[tuple[int, ...]]:
        # (q_(n-1), q_n) from (q_(-1), q_0) = (0, 1), whatever the expansion
        pairs = accumulate(
            _quotients(_cf_entry(self.alpha), 1),
            lambda r, a: (r[1], a * r[1] + r[0]),
            initial=(0, 1),
        )
        return ((q,) for _, q in islice(pairs, n0, None, s))

    def describe(self) -> str:
        return f"cfden:{self.alpha}"


@dataclass(frozen=True)
class Explicit(IntVecSeq):
    """Finite list of terms."""

    terms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.terms:
            raise TorsionError("explicit sequence needs at least one term")
        k = len(self.terms[0])
        if k < 1 or any(len(t) != k for t in self.terms):
            raise TorsionError("explicit terms must share a positive dimension")

    def dimension(self) -> int:
        return len(self.terms[0])

    @property
    def length(self) -> int:
        return len(self.terms)

    def walk(self, n0: int, s: int) -> Iterator[tuple[int, ...]]:
        return iter(self.terms[n0::s])

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

    def walk(self, n0: int, s: int) -> Iterator[tuple[int, ...]]:
        return repeat(self.vector)

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

    @property
    def length(self) -> int | None:
        n = self.parent.length
        return None if n is None else max(0, -((self.offset - n) // self.stride))

    def walk(self, n0: int, s: int) -> Iterator[tuple[int, ...]]:
        return self.parent.walk(self.offset + self.stride * n0, self.stride * s)

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

    @property
    def length(self) -> int | None:
        """The first global index whose child has no term."""
        children = enumerate(self.children)
        ends = [self.global_index(j, n) for j, c in children if (n := c.length) is not None]
        return min(ends, default=None)

    def walk(self, n0: int, s: int) -> Iterator[tuple[int, ...]]:
        """One walk per child, started once and advanced to each local index
        asked; a finite interleave ends at its length."""
        end = self.length
        indices = count(n0, s) if end is None else range(n0, end, s)
        walks = {}
        for j, m in map(self._locate, indices):
            walk, at = walks.get(j) or (self.children[j].walk(m, 1), m)
            yield next(islice(walk, m - at, None))
            walks[j] = walk, m + 1

    def describe(self) -> str:
        body = ";".join(
            f"{c.describe()}@{b}" for c, b in zip(self.children, self.blocks)
        )
        return f"interleave({body})"


def eval_seq(u: IntVecSeq, n: int) -> tuple[int, ...]:
    """u_n, exactly: the first term of walk(n, 1), an error past the end."""
    if n < 0:
        raise TorsionError("sequence index must be >= 0")
    for term in u.walk(n, 1):
        return term
    raise BoundedExpansionError(f"{u.describe()} has no term at index {n}")


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


@dataclass(frozen=True)
class _Orbit:
    """A residue orbit whose states repeat from index first with period
    period.  walk(n0, s) yields the residues at n0, n0 + s, n0 + 2s, ...
    without end, in O(1) amortised time per residue, and stores no state.
    A geometric orbit also has peak(): the cycle's residue of largest norm
    (smaller on ties, 0 for an all-zero cycle) and its first index, or None
    when the search gives up (see _geometric_orbit)."""

    first: int
    period: int
    walk: Callable[[int, int], Iterator[int]]
    peak: Callable[[], tuple[int, int] | None] | None = None


def _summarize_cycle(orbit: _Orbit, q: int) -> tuple[int, Fraction, int]:
    """(best, norm, index) of a residue orbit mod q with cycle [first, first+period):
    (0, 0, n0) for an all-zero cycle, n0 one past the last nonzero residue;
    else the cycle residue of largest norm (smaller on ties) at its first index.
    The pre-period is walked; a geometric cycle is then searched by
    orbit.peak(), and any other cycle, or one whose search gives up, is read
    in one pass over the walk.  No residue is kept."""
    residues = orbit.walk(0, 1)
    last = max((n + 1 for n, v in zip(range(orbit.first), residues) if v), default=0)
    found = orbit.peak and orbit.peak()
    if found:
        best, index = found
        top = min(best, q - best)
    else:
        best = top = index = 0
        for n, v in enumerate(islice(residues, orbit.period), orbit.first):
            d = q - v if v + v > q else v
            if d >= top and (d > top or v < best):
                best, index, top = v, n, d
    if not best:
        return 0, Fraction(0), last
    return best, Fraction(top, q), index


def _act(mul, g, k: int, x):
    """g^k applied to x, by repeated squaring of g."""
    while k:
        if k & 1:
            x = mul(g, x)
        k >>= 1
        if k:
            g = mul(g, g)
    return x


def _order(mul, g, x, bound: int, size: int) -> int | None:
    """Least k in [1, bound] with g^k x = x, or None when there is none.
    mul(a, b) applies a to b and multiplies two powers of g; g permutes a set
    of size elements that holds x.  Baby-step giant-step (Shanks 1971) with
    isqrt(min(bound, size)) + 1 baby steps."""
    n = min(bound, size)
    t = isqrt(n) + 1
    baby, e = {}, x
    for j in range(t):
        if j and e == x:
            return j
        baby[e] = j
        e = mul(g, e)
    # the order is at least t, so the baby steps are distinct; e = g^t x
    giant = _act(mul, g, t - 1, g)
    for i in range(1, -(-n // t) + 1):
        j = baby.get(e)
        if j is not None:
            k = i * t - j
            return k if k <= bound else None
        e = mul(giant, e)
    return None


def _coset_peak(a: int, g: int, m: int, period: int) -> tuple[int, int] | None:
    """(c, k) for the element c = a*g^k mod m of the coset a<g> in (Z/m)^*,
    where g has order period, of largest norm ||c/m||, the smaller c on ties,
    with 0 <= k < period.  The units c = d, m - d for d = m//2, m//2 - 1, ...
    are looked up in turn by baby-step giant-step in one table of a*g^j,
    j < isqrt(period) + 1; the first found is the answer.  None once the
    giant steps spent pass period."""
    t = isqrt(period) + 1
    baby, x = {}, a
    for j in range(t):
        baby.setdefault(x, j)
        x = x * g % m
    giant, steps, spent = pow(g, -t, m), -(-period // t), 0
    for d in range(m // 2, -1, -1):
        if gcd(d, m) > 1:
            continue
        for c in (d, m - d) if d + d < m else (d,):
            x = c
            for i in range(steps):
                j = baby.get(x)
                if j is not None:
                    return c, i * t + j
                x = x * giant % m
            spent += steps
            if spent > period:
                return None
    return None


def _geometric_orbit(start: int, step: int, q: int, cap: int) -> _Orbit | None:
    """The orbit s_n = start*step^n mod q, or None exactly when first + period
    > cap.  It walks with one multiplication per residue.

    q = q1*q2 with q2 the largest divisor of q coprime to step.  Modulo q1 the
    orbit is distinct until it reaches 0, where it stays; modulo q2 step is a
    unit, so that part is purely periodic.  Hence first is the least n with
    q1 | s_n, and period is the order of step modulo m = q2/e, e = gcd(s_first, q2).

    The cycle's residues are q1*e*c for c in the coset a<step> of (Z/m)^*,
    a = s_first/(q1*e), and ||q1*e*c/q|| = ||c/m|| with c and the residue in
    the same order.  So peak() reads the best residue and its index off
    _coset_peak, in about 2*sqrt(period) steps when the coset is all of
    (Z/m)^*; when the search gives up, the walk that follows it makes the
    worst case about sqrt(period) + 2*period steps against period."""
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
    s_first = start * pow(step, first, q) % q
    e = gcd(s_first, q2)
    m = q2 // e
    period = _order(lambda a, b: a * b % m, step % m, 1 % m, cap - first, m)
    if period is None:
        return None

    def peak() -> tuple[int, int] | None:
        found = _coset_peak(s_first // (q1 * e), step % m, m, period)
        return found and (q1 * e * found[0], first + found[1])

    def walk(n0: int, s: int) -> Iterator[int]:
        v, jump = start * pow(step, n0, q) % q, pow(step, s, q)
        while True:
            yield v
            v = v * jump % q

    return _Orbit(first, period, walk, peak)


def _dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _factorial_residues(c: int, q: int):
    """n!*c mod q for n = 0, 1, ... up to, not including, the first zero."""
    r, n = c % q, 0
    while r:
        yield r
        n += 1
        r = r * n % q


def _quotients(cf: CFExpansion, i: int) -> Iterator[int]:
    """The quotients a_i, a_(i+1), ... of a periodic expansion."""
    start, length = cf.period
    end = start + length
    return chain(cf.quotients[cf.canonical_index(i) : end], cycle(cf.quotients[start:end]))


def _cf_orbit(cf: CFExpansion, w: tuple[int, ...], L: int, cap: int) -> _Orbit | None:
    """The orbit of c*q_n mod L for w = (c,), or of cp*p_n + cq*q_n for
    w = (cp, cq), or None when first + period > cap.  Matrices are tuples of
    columns.  The state at n has columns (p_(n-1), p_n), (q_(n-1), q_n) mod L
    (or only the q column) at the index n+1 folded into the CF period (start,
    length); a step multiplies by [[0, 1], [1, a_(n+1)]].  States before
    first = max(0, start - 1) never recur, and from there the orbit is purely
    periodic: its period is length*t for the least t with M^t X = X, M the
    product over one CF period and X the state at first."""
    start, length = cf.period
    first = max(0, start - 1)
    if length > cap - first:
        return None

    def mul(a, x):
        (a00, a10), (a01, a11) = a
        return tuple(((a00 * u + a01 * v) % L, (a10 * u + a11 * v) % L) for u, v in x)

    def states(x, i: int):
        # the states at indices i, i + 1, ... from the state x at index i
        yield x
        for a in _quotients(cf, i + 1):
            x = tuple((v, (a * v + u) % L) for u, v in x)
            yield x

    x0 = tuple((u % L, v % L) for u, v in ((1, cf.quotient(0)), (0, 1))[-len(w) :])
    x_first = next(islice(states(x0, 0), first, None))
    eye = ((1, 0), (0, 1))
    m = next(islice(states(eye, first), length, None))
    t = _order(mul, m, x_first, (cap - first) // length, L ** (2 * len(w)))
    if t is None:
        return None

    def residues(i: int, rp: int, rc: int) -> Iterator[int]:
        # R_i, R_(i+1), ... from (R_(i-1), R_i) = (rp, rc), by the scalar
        # recurrence R_n = a_n*R_(n-1) + R_(n-2) that every residue obeys
        yield rc
        for a in _quotients(cf, i + 1):
            rp, rc = rc, (a * rc + rp) % L
            yield rc

    # offsets[r] = (b0, b1) with R_(j+r) = b0*R_(j-1) + b1*R_j whenever j =
    # first + k*length, and jumps[dk] = [M^dk, M^(dk+1)]: built on the first
    # strided walk that needs them, so that a strided residue costs O(1)
    offsets: list[tuple[int, int]] = []
    jumps: dict[int, list] = {}
    head = [_dot(w, row) % L for row in zip(*x0)]  # (R_(-1), R_0)

    def walk(n: int, s: int) -> Iterator[int]:
        while n < first:
            yield next(islice(residues(0, *head), n, None))
            n += s
        k, r = divmod(n - first, length)
        z0, z1 = (_dot(w, row) % L for row in zip(*_act(mul, m, k, x_first)))
        if s == 1:
            yield from islice(residues(first, z0, z1), r, None)  # endless
        dk, dr = divmod(s, length)
        if not offsets:
            offsets.extend(zip(*(islice(residues(first, *e), length) for e in eye)))
        if dk not in jumps:
            jumps[dk] = [_act(mul, m, e, eye) for e in (dk, dk + 1)]
        # jump (R_(j-1), R_j) by whole periods and read the residue at n = j + r
        while True:
            b0, b1 = offsets[r]
            yield (b0 * z0 + b1 * z1) % L
            carry, r = divmod(r + dr, length)
            (a00, a10), (a01, a11) = jumps[dk][carry]
            z0, z1 = (a00 * z0 + a01 * z1) % L, (a10 * z0 + a11 * z1) % L

    return _Orbit(first, length * t, walk)


def _orbit(u: IntVecSeq, w: tuple[int, ...], q: int, cap: int = _STATE_CAP) -> _Orbit | None:
    """The orbit n -> <u_n, w> mod q (see the module docstring), or None when
    u is finite or some part of it has more than cap states.  A cfden
    root with w = (cp, cq) gives the orbit of cp*p_n + cq*q_n instead.  No
    part stores its states."""
    root, A, B = _chain(u)
    if isinstance(root, Constant):
        return _geometric_orbit(_dot(root.vector, w), 1, q, cap)
    if isinstance(root, Geometric):
        start = _dot(root.pattern, w) * pow(root.base, B, q)
        return _geometric_orbit(start, pow(root.base, A, q), q, cap)
    if isinstance(root, Factorial):
        c = _dot(root.pattern, w)
        first = sum(1 for _ in islice(_factorial_residues(c, q), max(0, cap - q + 1)))
        if first + q > cap:
            return None
        orbit = _Orbit(
            first, q, lambda n0, s: chain(islice(_factorial_residues(c, q), n0, None, s), repeat(0))
        )
    elif isinstance(root, CFDenominators):
        orbit = _cf_orbit(_cf_entry(root.alpha), w, q, cap)
    elif isinstance(root, Interleave):
        orbit = _interleave_orbit(root, w, q, cap)
    else:
        return None
    if orbit is None:
        return None
    return _Orbit(
        max(0, -((B - orbit.first) // A)),
        orbit.period // gcd(A, orbit.period),
        lambda n0, s: orbit.walk(A * n0 + B, A * s),
    )


def _interleave_orbit(u: Interleave, w: tuple[int, ...], q: int, cap: int) -> _Orbit | None:
    """Interleave of the children's orbits (f_j, p_j) with blocks b_j and
    cycle C = sum(b_j): the state repeats once every child is in its cycle,
    from max_j(global_index(j, f_j - 1) + 1), and every C*lcm_j(p_j/gcd(b_j, p_j))
    indices.  A walk with step s visits C/gcd(s, C) slots in turn, and each
    slot walks its child with step b_j*s/gcd(s, C)."""
    parts = [_orbit(c, w, q, cap) for c in u.children]
    if any(o is None for o in parts):
        return None
    first = max(u.global_index(j, o.first - 1) + 1 for j, o in enumerate(parts))
    C = sum(u.blocks)
    period = C * lcm(*(o.period // gcd(b, o.period) for o, b in zip(parts, u.blocks)))
    if first + period > cap:
        return None

    def walk(n0: int, s: int) -> Iterator[int]:
        g = gcd(s, C)
        slots = map(u._locate, range(n0, n0 + C // g * s, s))
        return chain.from_iterable(zip(*(parts[j].walk(m, u.blocks[j] * s // g) for j, m in slots)))

    return _Orbit(first, period, walk)


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


def _tail_scan(brackets: Iterable[tuple[int, int, int]], tol: Fraction) -> Verdict:
    """Verdict on the norm brackets (lo, hi, scale) of terms 0, 1, ..., read
    as they stream in, up to the horizon n where they stop.  The tail
    follows the last term whose upper bound hi/scale exceeds tol, tested in
    integers as hi*tol.den > tol.num*scale.
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
            n,
            worst,
            trace,
            f"all pairing norms <= {tol} from index {t} up to horizon {n}",
            tail_start=t,
        )
    i, upper = bad[0], _upper(bad[1], tol)
    return Verdict.undecided(
        f"pairing norm {upper} exceeds tolerance {tol} at index {i} "
        f"(horizon {n})",
        horizon=n,
        worst=upper,
        trace=trace,
        offending_index=i,
    )


def _finite_scan(u: IntVecSeq, x: tuple[CirclePoint, ...], policy: Policy) -> Verdict:
    """Exact In when the pairings of all h = u.length terms vanish from some
    index t on, else the scan under the policy.  A sequence longer than the
    horizon is scanned; a pass pairs every term only when the last pairing
    is 0."""
    h = u.length
    if not h:
        return Verdict.exact_in(
            "sequence defines no terms; convergence holds vacuously",
            from_index=0,
            sequence_horizon=0,
        )
    if h > policy.horizon or not pair(eval_seq(u, h - 1), x).is_integer():
        return _scan(u, x, policy)
    t = max((n for n, v in enumerate(u.walk(0, 1), 1) if not pair(v, x).is_integer()), default=0)
    return Verdict.exact_in(
        f"pairing = 0 (mod 1) from index {t} through the final index {h - 1} "
        f"of a finite sequence",
        from_index=t,
        sequence_horizon=h,
    )


def _scan(u: IntVecSeq, x: tuple[CirclePoint, ...], policy: Policy) -> Verdict:
    """Stream the norm brackets of the first policy.horizon pairings, at
    tolerance/4, through one root table.  A Geometric or Factorial chain
    pairs once: u_n = s_(A*n+B)*pattern, and pair(s*pattern, x) is
    s*pair(pattern, x) for s != 0, with the same nonzero parts and lcm."""
    tol, roots = policy.tolerance / 4, {}
    root, A, B = _chain(u)
    if isinstance(root, (Geometric, Factorial)):
        scalars = (s for (s,) in islice(_scalars(root).walk(B, A), policy.horizon))
        brackets = pair(root.pattern, x).norm_brackets(scalars, tol, roots)
    else:
        terms = islice(u.walk(0, 1), policy.horizon)
        brackets = (pair(t, x).norm_bracket(tol, roots) for t in terms)
    return _tail_scan(brackets, policy.tolerance)


def _scalars(root: Geometric | Factorial) -> IntVecSeq:
    """The scalars s_n of root_n = s_n * root.pattern."""
    return Geometric(root.base) if isinstance(root, Geometric) else Factorial()


def _chain(u: IntVecSeq) -> tuple[IntVecSeq, int, int]:
    """(root, A, B) with u_n = root_(A*n+B) for every n: u.walk(n0, s) is
    root.walk(A*n0 + B, A*s)."""
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


def _decide_rational(u: IntVecSeq, x: tuple[CirclePoint, ...]) -> Verdict | None:
    """The residue orbit's verdict, or None when it passes the state cap."""
    q = lcm(*(p.den for p in x))
    w = tuple(p.num * (q // p.den) for p in x)
    root, A, B = _chain(u)
    if isinstance(root, Factorial):
        return _factorial_in(_dot(root.pattern, w) % q, q, A, B)
    orbit = _orbit(u, w, q)
    if orbit is None:
        return None
    best, _, idx = _summarize_cycle(orbit, q)
    return _orbit_verdict(q, orbit.first, orbit.period, best, idx)


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


def _decide_cf_quadratic(u: IntVecSeq, pairing: tuple[tuple[int, ...], int]) -> Verdict | None:
    """Decide q_(A*n+B)*x for x in alpha's field through the pair orbit of
    _cf_pairing, or None when that orbit passes the state cap."""
    root, A, B = _chain(u)
    w, L = pairing
    orbit = _orbit(u, w, L)
    if orbit is None:
        return None
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
    M = next(n for n, (q,) in enumerate(root.walk(0, 1)) if q >= threshold)
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


def _combine_interleave(u: Interleave, x: tuple[CirclePoint, ...]) -> Verdict | None:
    """Exact Out from the first child whose exact verdict escapes, Exact In
    when every child's exact verdict is In, else None."""
    verdicts = []
    for j, child in enumerate(u.children):
        v = _exact(child, x)
        if v is not None and not v.member:
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
        verdicts.append(v)
    if any(v is None for v in verdicts):
        return None
    start = max(
        u.global_index(j, f) if (f := v.fact("from_index", 0)) > 0 else 0
        for j, v in enumerate(verdicts)
    )
    return Verdict.exact_in(
        f"every interleaved component is eventually 0; combined from n >= {start}",
        from_index=start,
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
    """_finite_scan for a finite u; else the exact ladder, or one scan of u
    itself where the ladder gives no verdict."""
    if u.length is not None:
        return _finite_scan(u, x, policy)
    return _exact(u, x) or _scan(u, x, policy)


def _exact(u: IntVecSeq, x: tuple[CirclePoint, ...]) -> Verdict | None:
    """The exact verdict on an infinite u, or None where no route applies or
    an orbit passes the state cap."""
    if isinstance(u, Interleave):
        return _combine_interleave(u, x)
    if all(p.is_rational for p in x):
        return _decide_rational(u, x)
    root, A, B = _chain(u)
    if isinstance(root, Constant):
        return _decide_constant_value(pair(root.vector, x))
    if (
        isinstance(root, CFDenominators)
        and len(x) == 1
        and (pairing := _cf_pairing(root.alpha, x[0])) is not None
    ):
        return _decide_cf_quadratic(u, pairing)
    if isinstance(root, (Geometric, Factorial)):
        y = pair(root.pattern, x)
        if y.is_rational():
            # u_n = s_(A*n+B) * pattern for a scalar sequence s: <u_n, x> = s_(A*n+B) * y
            point = CirclePoint.rational(y.num, y.den)
            return _decide_rational(Subsequence(_scalars(root), A, B), (point,))
    return None


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
) -> list[tuple[tuple[int, ...], tuple[Fraction, ...], Fraction | None]] | None:
    """The certificate verifier of the module docstring, on the first count
    terms of seq.  Returns per n (u_n, the display upper bounds of its
    generator norms, the display lower bound of its chi norm or None), so
    producers write certificates without pairing again; None as soon as one
    claim fails, or when delta is not a Fraction.

    One norm bracket (lo, hi, scale) per value decides its claim and gives
    its display bound.  norm(<u_n, h>) <= 2^-n reads the bracket at
    2^-(n+3): it holds if hi*2^n <= scale, fails if lo*2^n > scale, and its
    bound is hi/scale.  norm(<u_n, chi>) >= delta = p/q reads the bracket at
    delta/8: it holds if lo*q >= p*scale, fails if hi*q < p*scale, and its
    bound is lo/scale.  Only a bracket that straddles its threshold is
    compared exactly, by norm_cmp.  The brackets of one call share one root
    table, as a scan's do.  A rational bracket is exact at any tolerance,
    so a repeated term with rational generator pairings keeps its brackets
    and tests only hi*2^n <= scale again."""
    k = topology.ambient.free_rank
    if count < 1:
        return None
    if chi is not None and (
        len(chi) != k or not isinstance(delta, Fraction) or not 0 < delta <= Fraction(1, 2)
    ):
        return None
    rows, roots = [], {}
    previous = None
    try:
        for n, term in enumerate(islice(seq.walk(0, 1), count)):
            if term != previous:
                if len(term) != k or not any(term):
                    return None
                values = tuple(pair(term, h) for h in topology.characters)
                exact = all(v.is_rational() for v in values)
                brackets = lower = None
                if chi is not None:
                    lower = _escape_lower(pair(term, chi), delta, roots)
                    if lower is None:
                        return None
                previous = term
            if brackets is None or not exact:
                brackets = _null_brackets(values, n, roots)
                if brackets is None:
                    return None
                uppers = tuple(Fraction(hi, scale) for hi, scale in brackets)
            elif any(hi << n > scale for hi, scale in brackets):
                return None
            rows.append((term, uppers, lower))
    except ValueError:  # a malformed point
        return None
    return rows if len(rows) == count else None  # None if seq ended early


def _null_brackets(
    values: tuple[SurdSum, ...], n: int, roots: dict
) -> list[tuple[int, int]] | None:
    """(hi, scale) of each value's norm bracket at 2^-(n+3), or None when a
    claim norm <= 2^-n fails."""
    tol = Fraction(1, 1 << (n + 3))
    out = []
    for v in values:
        lo, hi, scale = v.norm_bracket(tol, roots)
        if hi << n > scale and (lo << n > scale or v.norm_cmp(Fraction(1, 1 << n)) > 0):
            return None
        out.append((hi, scale))
    return out


def _escape_lower(value: SurdSum, delta: Fraction, roots: dict) -> Fraction | None:
    """lo/scale of value's norm bracket at delta/8, or None when the claim
    norm >= delta fails."""
    p, q = delta.numerator, delta.denominator
    lo, hi, scale = value.norm_bracket(delta / 8, roots)
    if lo * q < p * scale and (hi * q < p * scale or value.norm_cmp(delta) < 0):
        return None
    return Fraction(lo, scale)


def _is_fraction(x, p: int, q: int) -> bool:
    """True iff a stored field x is the Fraction p/q, for p/q in lowest
    terms with q > 0; a float or an int of equal value is not."""
    return isinstance(x, Fraction) and x.numerator == p and x.denominator == q


def _null_terms(rows) -> tuple[NullTermCert, ...]:
    """Certificates for verified terms, from the rows of _verify_terms: the
    norms are the display upper bounds of the brackets that decided each
    claim, within 2^-(n+3) of the exact norm."""
    return tuple(
        NullTermCert(n, term, uppers, Fraction(1, 1 << n))
        for n, (term, uppers, _) in enumerate(rows)
    )


# ---------------------------------------------------------------------------
# the staged search, for null sequences (no chi) and escape witnesses (chi)

# scales 2^e of the lattice pools, in the order the lattice stage reads them
_SCALE_EXPONENTS = (4, 8, 16, 32, 64, 128, 192)


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


@dataclass(frozen=True)
class _Found:
    """A sequence that passed _verify_terms, the strategy that found it and
    the rows _verify_terms returned."""

    sequence: IntVecSeq
    strategy: str
    rows: list


@dataclass(frozen=True)
class _Failed:
    """The search gave up; no claim is made."""

    reason: str
    candidates_used: int


def _try(seq, strategy, work, count, chi, delta) -> _Found | None:
    rows = _verify_terms(seq, work.topology, count, chi, delta)
    return None if rows is None else _Found(seq, strategy, rows)


def _stage_annihilator(work, chi, delta, count, counter) -> _Found | None:
    """The first sign-canonical radical combination whose chi pairing
    escapes; with no chi, the first one."""
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
            if chi is None or pair(a, chi).norm_cmp(delta) >= 0:
                found = _try(Constant(a), "annihilator", work, count, chi, delta)
                if found is not None:
                    return found
    return None


def _stage_cf(work, chi, delta, count, counter) -> _Found | None:
    """One irrational character on Z: every other convergent denominator
    with no chi, otherwise strided walks over the residue classes of the chi
    orbit that escape, largest norm first."""
    topology = work.topology
    chars = topology.characters
    if topology.ambient.free_rank != 1 or len(chars) != 1 or chars[0][0].is_rational:
        return None
    alpha = chars[0][0]
    if chi is None:
        # q_{2n+1} >= 2^n, so norm(q_{2n} * alpha) < 1/q_{2n+1} <= 2^-n
        seq = Subsequence(CFDenominators(alpha), 2, 0)
        return _try(seq, "cf-denominators", work, count, None, None)
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
            found = _try(seq, "cf-subsequence", work, count, chi, delta)
            if found is not None:
                return found
    return None


def _stage_lattice(work, chi, delta, count, counter) -> _Found | _Failed:
    """Per term n, the first candidate of the pools, smallest scale first,
    that meets the envelope 2^-n (and escapes chi).  A candidate that fails
    either test is ruled out for good: its chi pairing does not change, and
    the envelope only shrinks."""
    chars = work.topology.characters
    terms: list[tuple[int, ...]] = []
    ruled_out: set[tuple[int, ...]] = set()
    for n in range(count):
        envelope = Fraction(1, 2**n)
        term = None
        for a in chain.from_iterable(work.pool(e) for e in _SCALE_EXPONENTS):
            if a in ruled_out:
                continue
            if not counter.spend():
                return _Failed(f"candidate budget exhausted at term {n}", counter.used)
            # escape first: for rational chi it is one integer comparison
            if (chi is not None and pair(a, chi).norm_cmp(delta) < 0) or any(
                pair(a, h).norm_cmp(envelope) > 0 for h in chars
            ):
                ruled_out.add(a)
                continue
            term = a
            break
        if term is None:
            escape = "" if chi is None else f" with escape >= {delta}"
            return _Failed(
                f"no candidate met envelope {envelope}{escape} at term {n}",
                counter.used,
            )
        terms.append(term)
    found = _try(Explicit(tuple(terms)), "lattice-approximation", work, count, chi, delta)
    # defensive: every term was verified on its own
    return found or _Failed("assembled terms failed final certification", counter.used)


def _staged_search(
    work: _TopologyWork,
    budget: Budget,
    chi: tuple[CirclePoint, ...] | None = None,
    delta: Fraction | None = None,
) -> _Found | _Failed:
    """A null sequence for work's topology, escaping chi by delta when chi
    is given.  Stages in order: a constant e_1 when there are no characters
    (null search only), annihilator, continued fraction, lattice.  One
    candidate counter of budget.max_candidates serves every stage."""
    topology = work.topology
    count = budget.max_terms
    if chi is None and not topology.characters:
        e1 = (1,) + (0,) * (topology.ambient.free_rank - 1)
        return _try(Constant(e1), "indiscrete", work, count, None, None)
    counter = _CandidateCounter(budget.max_candidates)
    for stage, name in ((_stage_annihilator, "annihilator"), (_stage_cf, "subsequence")):
        found = stage(work, chi, delta, count, counter)
        if found is not None:
            return found
        if counter.used >= counter.limit:
            return _Failed(f"candidate budget exhausted in {name} stage", counter.used)
    if not topology.characters:
        # indiscrete topology: the annihilator stage already enumerated Z^k
        return _Failed("no escaping vector found for the indiscrete topology", counter.used)
    return _stage_lattice(work, chi, delta, count, counter)


def null_sequence(
    topology: PrecompactTopology, budget: Budget | None = None
) -> NullSequenceResult | NotFound:
    """A nonzero integer sequence converging to 0 in the given topology,
    with a per-term exact certificate (envelope 2^-n), or NotFound.

    This is the staged search with no escape character: e_1 when there are
    no characters; else a nonzero annihilator vector as a constant
    sequence; else, for a single quadratic character on Z, every other
    continued-fraction denominator of that point; else per-term lattice
    approximation over the shared scale pools.
    """
    if not topology.ambient.free_rank:
        raise TorsionError("Z^0 has no nonzero vector, so no null sequence")
    result = _staged_search(_TopologyWork(topology), budget or Budget())
    if isinstance(result, _Failed):
        return NotFound(result.reason)
    return NullSequenceResult(
        result.sequence, NullCertificate(result.strategy, _null_terms(result.rows))
    )


def recheck_null_certificate(
    topology: PrecompactTopology, result: NullSequenceResult
) -> bool:
    """Recompute every certificate claim from scratch: True iff _verify_terms
    passes and stored term n has index n, term u_n and the Fraction
    envelope 2^-n."""
    terms = result.certificate.terms
    checked = _verify_terms(result.sequence, topology, len(terms))
    return checked is not None and all(
        tc.index == n and tc.term == term and _is_fraction(tc.envelope, 1, 1 << n)
        for n, (tc, (term, _, _)) in enumerate(zip(terms, checked))
    )
