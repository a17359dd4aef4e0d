"""Finitely generated abelian groups, their duals, and annihilator lattices.

The ambient group A = Z^r + Z/d1 + ... + Z/dm is encoded by its free rank and
invariant factors.  Elements are integer coordinate vectors (free coordinates
first, torsion coordinates read mod their factor).  Characters of A pair a
CirclePoint per free coordinate with a residue per torsion factor.

Everything runs over exact integer linear algebra.  The row Hermite normal
form is the one echelon core: it gives kernels, solvability, canonical
sublattice bases and membership tests.  Taken modulo a multiple D of the
lattice's exponent, it keeps every entry below D; annihilators use it that
way.  A dual subgroup answers membership from one Hermite lattice built for
the call.  Smith normal form is kept only where invariant factors are read:
group presentations and closures.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .circle import CirclePoint, SurdSum, pair

__all__ = [
    "DualityError",
    "IntMatrix",
    "smith_normal_form",
    "row_hnf",
    "kernel_basis",
    "system_solvable",
    "FgAbelianGroup",
    "group_from_presentation",
    "Character",
    "DualSubgroup",
    "Sublattice",
    "DualClosure",
    "PrecompactTopology",
    "annihilator",
    "closure_in_dual",
    "von_neumann_radical",
]

class DualityError(ValueError):
    """Invalid group, character, or lattice input."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with explicit shape (rows may be zero)."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: list[list[int]], cols: int | None = None) -> "IntMatrix":
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DualityError("ragged matrix rows")
        else:
            width = cols if cols is not None else 0
        if cols is not None and rows and cols != width:
            raise DualityError("explicit column count disagrees with rows")
        return cls(len(rows), width, tuple(tuple(int(x) for x in r) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        if self.rows == 0:
            return IntMatrix(self.cols, 0, tuple(() for _ in range(self.cols)))
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DualityError("shape mismatch in matrix product")
        cols = other.transpose().entries
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.entries
        )
        return IntMatrix(self.rows, other.cols, out)

    def apply(self, vec: tuple[int, ...] | list[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise DualityError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise DualityError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign, prev = 1, 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
                if pivot is None:
                    return 0
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def __str__(self) -> str:
        return ";".join(",".join(str(x) for x in row) for row in self.entries)


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _negate_row(a, u, i):
    a[i] = [-x for x in a[i]]
    u[i] = [-x for x in u[i]]


def _add_row(a, u, dst, src, mult):
    a[dst] = [x + mult * y for x, y in zip(a[dst], a[src])]
    u[dst] = [x + mult * y for x, y in zip(u[dst], u[src])]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _add_col(a, v, dst, src, mult):
    for row in a:
        row[dst] += mult * row[src]
    for row in v:
        row[dst] += mult * row[src]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with D = U @ m @ V, U and V unimodular, D diagonal
    with nonnegative entries d1 | d2 | ... .

    The pivot at each elimination step is the nonzero entry of minimal
    absolute value in the remaining block, ties broken by lowest (row, col),
    which makes the reduction deterministic.
    """
    rows, cols = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [list(r) for r in IntMatrix.identity(rows).entries]
    v = [list(r) for r in IntMatrix.identity(cols).entries]
    for t in range(min(rows, cols)):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            _swap_rows(a, u, t, best[0])
        if best[1] != t:
            _swap_cols(a, v, t, best[1])
        while True:
            if a[t][t] < 0:
                _negate_row(a, u, t)
            p = a[t][t]
            leftover = None
            for i in range(rows):
                if i != t and a[i][t]:
                    _add_row(a, u, i, t, -(a[i][t] // p))
                    if a[i][t]:
                        leftover = i
            if leftover is not None:
                # a remainder strictly smaller than p becomes the new pivot
                _swap_rows(a, u, t, leftover)
                continue
            for j in range(cols):
                if j != t and a[t][j]:
                    _add_col(a, v, j, t, -(a[t][j] // p))
                    if a[t][j]:
                        leftover = j
            if leftover is not None:
                _swap_cols(a, v, t, leftover)
                continue
            offender = next(
                (
                    i
                    for i in range(t + 1, rows)
                    for j in range(t + 1, cols)
                    if a[i][j] % p
                ),
                None,
            )
            if offender is None:
                break
            _add_row(a, u, t, offender, 1)
    um = IntMatrix.from_rows(u, rows)
    dm = IntMatrix.from_rows(a, cols)
    vm = IntMatrix.from_rows(v, cols)
    return um, dm, vm


def _reduced(row: list[int], q: int, other: list[int], modulus: int, c: int) -> list[int]:
    """row - q*other for a row other that is 0 before column c, its entries
    taken mod the modulus when there is one."""
    if modulus:
        return row[:c] + [(x - q * y) % modulus for x, y in zip(row[c:], other[c:])]
    return row[:c] + [x - q * y for x, y in zip(row[c:], other[c:])]


def row_hnf(m: IntMatrix, modulus: int = 0) -> IntMatrix:
    """Canonical row Hermite normal form: echelon, positive pivots, entries
    above each pivot reduced into [0, pivot).  Zero rows are dropped, so the
    result is a unique basis of the row lattice.

    A modulus D > 0 adds D*Z^cols to the lattice, which then has full rank,
    and keeps every entry in [0, D): the HNF modulo D of Domich, Kannan &
    Trotter (1987) and Cohen (1993, Alg. 2.4.8), equal to the HNF of m
    stacked with D*I.  Column c's pivot is gcd(p, D) = u*p mod D, for p the
    pivot the rows give, and (D/gcd)*row, 0 in column c, stays among the
    rows still to be reduced, so the lattice loses nothing."""
    if modulus < 0:
        raise DualityError("negative modulus")
    cols = m.cols
    a = [[x % modulus for x in r] if modulus else list(r) for r in m.entries]
    r = 0
    for c in range(cols):
        pivot = None
        while True:
            nz = [i for i in range(r, len(a)) if a[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            if a[i0][c] < 0:
                a[i0] = [-x for x in a[i0]]
            if len(nz) == 1:
                pivot = i0
                break
            for i in nz:
                if i != i0:
                    q = a[i][c] // a[i0][c]
                    if q:
                        a[i] = _reduced(a[i], q, a[i0], modulus, c)
        if modulus:
            row = a.pop(pivot) if pivot is not None else [0] * cols
            h = gcd(row[c], modulus)
            u = pow(row[c] // h, -1, modulus // h) if row[c] else 0
            rest = [x * (modulus // h) % modulus for x in row]
            if any(rest):
                a.append(rest)
            a.insert(r, [h if j == c else u * x % modulus for j, x in enumerate(row)])
        elif pivot is None:
            continue
        else:
            a[r], a[pivot] = a[pivot], a[r]
        p = a[r][c]
        for i in range(r):
            q = a[i][c] // p
            if q:
                a[i] = _reduced(a[i], q, a[r], modulus, c)
        r += 1
        if r == len(a) and not modulus:
            break
    return IntMatrix.from_rows(a[:r], cols)


def _rowspan_contains(hnf: IntMatrix, vec: tuple[int, ...]) -> bool:
    v = list(vec)
    for row in hnf.entries:
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            continue
        if v[c] % row[c]:
            return False
        q = v[c] // row[c]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Hermite basis of the integer kernel {x : m @ x = 0}: the rows of
    row_hnf([m^T | I]) whose m^T part is zero, read in their I part."""
    stacked = [c + e for c, e in zip(m.columns(), IntMatrix.identity(m.cols).entries)]
    hnf = row_hnf(IntMatrix.from_rows(stacked, m.rows + m.cols))
    return [row[m.rows :] for row in hnf.entries if not any(row[: m.rows])]


def system_solvable(m: IntMatrix, b: tuple[int, ...] | list[int]) -> bool:
    """Does m @ x = b admit an integer solution?  That is, does b lie in the
    column lattice of m, the row lattice of m^T?"""
    if len(b) != m.rows:
        raise DualityError("vector length mismatch")
    return _rowspan_contains(row_hnf(m.transpose()), tuple(b))


@dataclass(frozen=True)
class FgAbelianGroup:
    """Z^free_rank + Z/d1 + ... + Z/dm with 2 <= d1 | d2 | ... | dm."""

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise DualityError("negative free rank")
        prev = None
        for d in self.invariant_factors:
            if d < 2:
                raise DualityError(f"invariant factor {d} below 2")
            if prev is not None and d % prev:
                raise DualityError("invariant factors must form a divisibility chain")
            prev = d

    @classmethod
    def from_torsion(cls, free_rank: int, moduli: tuple[int, ...]) -> "FgAbelianGroup":
        """Canonicalize an arbitrary torsion list into invariant factors."""
        if any(d < 1 for d in moduli):
            raise DualityError("torsion moduli must be positive")
        diag = IntMatrix.from_rows(
            [[moduli[i] if i == j else 0 for j in range(len(moduli))] for i in range(len(moduli))],
            len(moduli),
        )
        _, d, _ = smith_normal_form(diag)
        factors = tuple(x for x in d.diagonal() if x > 1)
        return cls(free_rank, factors)

    @property
    def ncoords(self) -> int:
        return self.free_rank + len(self.invariant_factors)

    @property
    def is_free(self) -> bool:
        return not self.invariant_factors

    def relation_columns(self) -> list[tuple[int, ...]]:
        n = self.ncoords
        cols = []
        for l, d in enumerate(self.invariant_factors):
            col = [0] * n
            col[self.free_rank + l] = d
            cols.append(tuple(col))
        return cols

    def reduce_vector(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        if len(vec) != self.ncoords:
            raise DualityError("coordinate vector has wrong length")
        out = list(int(x) for x in vec)
        for l, d in enumerate(self.invariant_factors):
            out[self.free_rank + l] %= d
        return tuple(out)

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append("Z" if self.free_rank == 1 else f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def group_from_presentation(relations: IntMatrix, generators: int) -> FgAbelianGroup:
    """Quotient of Z^generators by the subgroup its relation rows span.

    ``relations`` must have exactly ``generators`` columns; each row states
    one Z-linear relation among the generators.
    """
    if generators < 0:
        raise DualityError("negative generator count")
    if relations.cols != generators:
        raise DualityError(
            f"relation matrix has {relations.cols} columns for {generators} generators"
        )
    _, d, _ = smith_normal_form(relations)
    diag = d.diagonal()
    factors = tuple(x for x in diag if x > 1)
    free = generators - sum(1 for x in diag if x != 0)
    return FgAbelianGroup(free, factors)


@dataclass(frozen=True)
class Character:
    """Character of an ambient group: one CirclePoint per free coordinate,
    one residue per torsion factor (the residue k on Z/d means x -> k*x/d)."""

    free: tuple[CirclePoint, ...]
    torsion: tuple[int, ...]

    @classmethod
    def make(
        cls,
        ambient: FgAbelianGroup,
        free: tuple[CirclePoint, ...] | list[CirclePoint],
        torsion: tuple[int, ...] | list[int] = (),
    ) -> "Character":
        if len(free) != ambient.free_rank:
            raise DualityError("wrong number of free coordinates")
        if len(torsion) != len(ambient.invariant_factors):
            raise DualityError("wrong number of torsion residues")
        residues = tuple(
            int(k) % d for k, d in zip(torsion, ambient.invariant_factors)
        )
        return cls(tuple(free), residues)

    def value(self, ambient: FgAbelianGroup, vec: tuple[int, ...]) -> SurdSum:
        """chi(vec) as an exact real, to be read mod 1."""
        if len(vec) != ambient.ncoords:
            raise DualityError("coordinate vector has wrong length")
        total = pair(vec[: ambient.free_rank], self.free)
        for k, d, coord in zip(
            self.torsion, ambient.invariant_factors, vec[ambient.free_rank :]
        ):
            if k and coord:
                total = total + SurdSum(int(coord) * k, (), d)
        return total

    def vanishes_on(self, ambient: FgAbelianGroup, vec: tuple[int, ...]) -> bool:
        return self.value(ambient, vec).is_integer()

    def is_trivial(self) -> bool:
        return all(p.is_zero() for p in self.free) and not any(self.torsion)

    def __str__(self) -> str:
        parts = [str(p) for p in self.free] + [str(k) for k in self.torsion]
        return ",".join(parts)


@dataclass(frozen=True)
class Sublattice:
    """Subgroup of the ambient group, stored as the canonical column Hermite
    basis of its preimage in Z^n (ambient torsion relations folded in)."""

    ambient: FgAbelianGroup
    basis: IntMatrix  # n x t, column HNF, includes relation columns

    @classmethod
    def from_generators(
        cls,
        ambient: FgAbelianGroup,
        columns: list[tuple[int, ...]] | list[list[int]],
    ) -> "Sublattice":
        n = ambient.ncoords
        cols = [tuple(int(x) for x in c) for c in columns]
        for c in cols:
            if len(c) != n:
                raise DualityError("generator vector has wrong length")
        cols = cols + ambient.relation_columns()
        if not cols:
            return cls(ambient, IntMatrix.zeros(n, 0))
        stacked = IntMatrix.from_rows([list(c) for c in cols], n)
        return cls(ambient, row_hnf(stacked).transpose())

    def contains(self, vec: tuple[int, ...] | list[int]) -> bool:
        v = tuple(int(x) for x in vec)
        if len(v) != self.ambient.ncoords:
            raise DualityError("coordinate vector has wrong length")
        return _rowspan_contains(self.basis.transpose(), v)

    def is_trivial(self) -> bool:
        return self == Sublattice.from_generators(self.ambient, [])

    def element_generators(self) -> list[tuple[int, ...]]:
        """Basis columns reduced into the ambient group, pure relations dropped."""
        out = []
        for col in self.basis.columns():
            red = self.ambient.reduce_vector(col)
            if any(red):
                out.append(red)
        return out

    def __str__(self) -> str:
        gens = self.element_generators()
        if not gens:
            return "{0}"
        return "span{" + "; ".join(",".join(str(x) for x in g) for g in gens) + "}"


def _cleared(fractions: list[tuple[int, int]]) -> tuple[list[int], int]:
    """Fractions n/d, given as pairs, times the lcm m of their denominators
    in lowest terms: (integer row, m)."""
    lowest = [(n // g, d // g) for n, d in fractions for g in (gcd(n, d),)]
    m = lcm(*(d for _, d in lowest))
    return [n * (m // d) for n, d in lowest], m


class _Membership:
    """The membership lattice of one dual subgroup, built once per public
    call; nothing outlives the call that made it.

    chi = sum x_i g_i (mod 1, exactly) is an integer system in x.  Free
    coordinate j is scaled by D_j, the lcm of the generators' denominators
    there, and gives one exact row per surd base the generators use at j
    and one congruence mod D_j; each torsion factor gives one congruence.
    The lattice the system's columns span, one per generator and one per
    congruence holding its modulus, is kept in row Hermite form."""

    def __init__(self, subgroup: "DualSubgroup"):
        ambient = subgroup.ambient
        self.ambient = ambient
        gens = subgroup.generators
        self.scales: list[int] = []
        self.bases: list[list[int]] = []
        rows = []  # (coefficient per generator, modulus or 0 when exact)
        for j in range(ambient.free_rank):
            points = [g.free[j] for g in gens]
            scale = lcm(*(p.den for p in points))
            bases = sorted({p.surd for p in points if not p.is_rational})
            for d in bases:
                rows.append(
                    ([p.surd_coeff * (scale // p.den) * (p.surd == d) for p in points], 0)
                )
            rows.append(([p.num * (scale // p.den) for p in points], scale))
            self.scales.append(scale)
            self.bases.append(bases)
        for l, d in enumerate(ambient.invariant_factors):
            rows.append(([g.torsion[l] for g in gens], d))
        width = len(rows)
        columns = [[row[i] for row, _ in rows] for i in range(len(gens))]
        columns += [[m * (k == t) for k in range(width)] for t, (_, m) in enumerate(rows) if m]
        self.lattice = row_hnf(IntMatrix.from_rows(columns, width))

    def contains(self, chi: Character) -> bool:
        chi = Character.make(self.ambient, chi.free, chi.torsion)
        target = []
        for p, scale, bases in zip(chi.free, self.scales, self.bases):
            if scale % p.den or not (p.is_rational or p.surd in bases):
                return False
            up = scale // p.den
            target += [p.surd_coeff * up * (p.surd == d) for d in bases]
            target.append(p.num * up)
        return _rowspan_contains(self.lattice, tuple(target) + chi.torsion)


@dataclass(frozen=True)
class DualSubgroup:
    """Finitely generated subgroup of the dual of the ambient group."""

    ambient: FgAbelianGroup
    generators: tuple[Character, ...]

    @classmethod
    def make(
        cls, ambient: FgAbelianGroup, generators: list[Character] | tuple[Character, ...]
    ) -> "DualSubgroup":
        made = tuple(
            Character.make(ambient, g.free, g.torsion) for g in generators
        )
        return cls(ambient, made)

    def contains(self, chi: Character) -> bool:
        """Is chi an integer combination of the generators (mod 1, exactly)?"""
        return _Membership(self).contains(chi)

    def contains_all(self, chis: list[Character] | tuple[Character, ...]) -> bool:
        """Does every character in chis lie in the subgroup?  One membership
        lattice serves them all."""
        lattice = _Membership(self)
        return all(lattice.contains(chi) for chi in chis)

    def __eq__(self, other):
        if not isinstance(other, DualSubgroup):
            return NotImplemented
        if self.ambient != other.ambient:
            return False
        return other.contains_all(self.generators) and self.contains_all(
            other.generators
        )

    def __hash__(self):
        # equality is extensional; hash only by ambient
        return hash(self.ambient)

    def __str__(self) -> str:
        return "<" + "; ".join(str(g) for g in self.generators) + ">"


@dataclass(frozen=True)
class PrecompactTopology:
    """Ambient Z^k together with the characters inducing its weak topology."""

    ambient: FgAbelianGroup
    characters: tuple[tuple[CirclePoint, ...], ...]

    @classmethod
    def on_free(
        cls, k: int, characters: list[tuple[CirclePoint, ...]] | tuple
    ) -> "PrecompactTopology":
        amb = FgAbelianGroup(k, ())
        chars = tuple(tuple(c) for c in characters)
        for c in chars:
            if len(c) != k:
                raise DualityError("character vector has wrong length")
        return cls(amb, chars)

    def __post_init__(self):
        if not self.ambient.is_free:
            raise DualityError("precompact topology requires a free ambient group")
        for c in self.characters:
            if len(c) != self.ambient.free_rank:
                raise DualityError("character vector has wrong length")

    def as_dual_subgroup(self) -> DualSubgroup:
        gens = tuple(Character.make(self.ambient, c, ()) for c in self.characters)
        return DualSubgroup(self.ambient, gens)


def annihilator(subgroup: DualSubgroup) -> Sublattice:
    """H-perp: all ambient elements on which every generator of H vanishes.

    A quadratic coordinate contributes exact linear equations (its surd
    coefficients must cancel), the rational content one congruence per
    generator.  The exact equations go first: their integer kernel has a
    basis B (the identity when there are none).  Over B, every congruence
    is brought to D, the lcm of the moduli, as a row of M; the rows of
    [M^T | I] span, together with D*Z^N, the lattice of [[M^T | I]; [D*I | 0]],
    so its HNF is taken modulo D.  Its rows with a zero congruence part,
    read in their I part and multiplied by B, span the annihilator.
    """
    ambient = subgroup.ambient
    n = ambient.ncoords
    exact, congruences = [], []
    for g in subgroup.generators:
        points = g.free + tuple(
            CirclePoint.rational(k, d) for k, d in zip(g.torsion, ambient.invariant_factors)
        )
        for d in sorted({p.surd for p in points if not p.is_rational}):
            exact.append(_cleared([(p.surd_coeff * (p.surd == d), p.den) for p in points])[0])
        congruences.append(_cleared([(p.num, p.den) for p in points]))
    if exact:
        basis = IntMatrix.from_rows(kernel_basis(IntMatrix.from_rows(exact, n)), n)
    else:
        basis = IntMatrix.identity(n)
    modulus = lcm(*(m for _, m in congruences))
    scaled = IntMatrix.from_rows([[modulus // m * x for x in row] for row, m in congruences], n)
    width, k = scaled.rows, basis.rows
    stacked = [
        list(row) + [int(i == j) for j in range(k)]
        for i, row in enumerate((basis @ scaled.transpose()).entries)
    ]
    hnf = row_hnf(IntMatrix.from_rows(stacked, width + k), modulus)
    kernel = IntMatrix.from_rows([row[width:] for row in hnf.entries if not any(row[:width])], k)
    return Sublattice.from_generators(ambient, list((kernel @ basis).entries))


@dataclass(frozen=True)
class DualClosure:
    """Closure of a dual subgroup inside the full dual: the characters
    vanishing on the annihilator lattice.

    ``finite_generators`` generate the finite-order part.  Each entry of
    ``torus_directions`` is an integer vector w over the free coordinates
    marking a full one-parameter circle factor {t*w : t in R/Z}; the closure
    is finitely generated as a group exactly when this list is empty.
    """

    ambient: FgAbelianGroup
    finite_generators: tuple[Character, ...]
    torus_directions: tuple[tuple[int, ...], ...]
    kernel: Sublattice

    @property
    def is_finitely_generated(self) -> bool:
        return not self.torus_directions

    def as_dual_subgroup(self) -> DualSubgroup:
        if self.torus_directions:
            raise DualityError("closure contains full circle factors")
        return DualSubgroup(self.ambient, self.finite_generators)

    def contains(self, chi: Character) -> bool:
        """Exact membership: chi lies in the closure iff it kills the kernel."""
        chi = Character.make(self.ambient, chi.free, chi.torsion)
        return all(
            chi.vanishes_on(self.ambient, col) for col in self.kernel.basis.columns()
        )

    def __str__(self) -> str:
        parts = [str(g) for g in self.finite_generators]
        parts.extend(
            "circle*(" + ",".join(str(x) for x in w) + ")" for w in self.torus_directions
        )
        return "<" + "; ".join(parts) + ">" if parts else "{0}"


def closure_in_dual(subgroup: DualSubgroup) -> DualClosure:
    """Double annihilator of H: the dual of ambient/H-perp, i.e. the closure
    of H in the dual group under the canonical identification."""
    ker = annihilator(subgroup)
    ambient = subgroup.ambient
    n = ambient.ncoords
    r = ambient.free_rank
    u, d, _ = smith_normal_form(ker.basis)
    finite: list[Character] = []
    torus: list[tuple[int, ...]] = []
    for i in range(n):
        di = d.entries[i][i] if i < min(n, ker.basis.cols) else 0
        row = u.row(i)
        if di == 1:
            continue
        if di == 0:
            # free quotient direction: torsion components vanish automatically
            if any(row[r:]):
                raise AssertionError("free closure direction touches torsion")
            torus.append(tuple(row[:r]))
            continue
        free = tuple(CirclePoint.rational(row[j], di) for j in range(r))
        residues = tuple(
            (row[r + l] * dl // di) % dl
            for l, dl in enumerate(ambient.invariant_factors)
        )
        finite.append(Character(free, residues))
    return DualClosure(ambient, tuple(finite), tuple(torus), ker)


def von_neumann_radical(topology: PrecompactTopology) -> Sublattice:
    """Intersection of the kernels of the topology's generating characters."""
    return annihilator(topology.as_dual_subgroup())
