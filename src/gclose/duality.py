"""Finitely generated abelian groups, their duals, and annihilator lattices.

The ambient group A = Z^r + Z/d1 + ... + Z/dm is encoded by its free rank and
invariant factors.  Elements are integer coordinate vectors (free coordinates
first, torsion coordinates read mod their factor).  Characters of A pair a
CirclePoint per free coordinate with a residue per torsion factor.

Everything runs over exact integer linear algebra.  The row Hermite normal
form is the one echelon core: it gives kernels, solvability, canonical
sublattice bases and membership tests.  Taken modulo a multiple D of the
lattice's exponent, it keeps every entry below D; annihilators use it that
way.  Invariant factors of a presentation come from Hermite forms taken
modulo its determinant.  A dual subgroup answers membership from one Hermite
lattice built for the call.  The Smith normal form and its transforms, for
the ``snf`` verb and ``closure_in_dual``, come from Hermite forms of the
matrix and its transpose in turn, each augmented by its transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

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


def _hermite_pass(a: IntMatrix, t: IntMatrix, modulus: int = 0) -> tuple[IntMatrix, IntMatrix]:
    """(W @ a, W @ t) for the row Hermite form of the augmented matrix
    [a | t], split after a's columns.  For a square invertible t no row
    drops out and W is unimodular."""
    h = row_hnf(
        IntMatrix.from_rows([x + y for x, y in zip(a.entries, t.entries)], a.cols + t.cols),
        modulus,
    )
    return (
        IntMatrix.from_rows([r[: a.cols] for r in h.entries], a.cols),
        IntMatrix.from_rows([r[a.cols :] for r in h.entries], t.cols),
    )


def _is_diagonal(a: IntMatrix) -> bool:
    return not any(x for i, row in enumerate(a.entries) for j, x in enumerate(row) if i != j)


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with D = U @ m @ V, U and V unimodular, D diagonal
    with nonnegative entries d1 | d2 | ... .

    Hermite passes alternate (Kannan & Bachem, 1979): the row Hermite form
    of [a | U] brings a to echelon form and records the row operations in
    U; the same pass on [a^T | V^T] does the columns.  Each pass makes the
    first pivot the gcd of its row or column, so it never grows and stays
    put only when it divides that line; the passes end when a is diagonal.
    A pass leaves its zero lines last, so the zero entries of the diagonal
    come last.  Then each pair x = d_i, y = d_j, i < j, with x not dividing
    y becomes (g, lcm) in the order of _divisibility_chain: with
    g = s*x + t*y, rows i, j of U take [[s, t], [-y/g, x/g]] and columns
    i, j of V take [[1, -t*y/g], [1, s*x/g]].
    """
    a, u = _hermite_pass(m, IntMatrix.identity(m.rows))
    vt = IntMatrix.identity(m.cols)
    while not _is_diagonal(a):
        a, vt = _hermite_pass(a.transpose(), vt)
        a = a.transpose()
        if _is_diagonal(a):
            break
        a, u = _hermite_pass(a, u)
    d = list(a.diagonal())
    u = [list(r) for r in u.entries]
    vt = [list(r) for r in vt.entries]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            x, y = d[i], d[j]
            if not x or y % x == 0:
                continue
            g = gcd(x, y)
            s = pow(x // g, -1, y // g)
            t = (g - s * x) // y
            xg, yg = x // g, y // g
            u[i], u[j] = (
                [s * p + t * q for p, q in zip(u[i], u[j])],
                [xg * q - yg * p for p, q in zip(u[i], u[j])],
            )
            vt[i], vt[j] = (
                [p + q for p, q in zip(vt[i], vt[j])],
                [s * xg * q - t * yg * p for p, q in zip(vt[i], vt[j])],
            )
            d[i], d[j] = g, x * yg
    diag = [[d[i] if i == j else 0 for j in range(m.cols)] for i in range(m.rows)]
    return (
        IntMatrix.from_rows(u, m.rows),
        IntMatrix.from_rows(diag, m.cols),
        IntMatrix.from_rows(vt, m.cols).transpose(),
    )


def _reduced(row: list[int], q: int, other: list[int], modulus: int, c: int) -> list[int]:
    """row - q*other for a row other that is 0 before column c, its entries
    taken mod the modulus when there is one."""
    if modulus:
        return row[:c] + [(x - q * y) % modulus for x, y in zip(row[c:], other[c:])]
    return row[:c] + [x - q * y for x, y in zip(row[c:], other[c:])]


def _sweep(a: list[list[int]], r: int, c: int) -> int | None:
    """Clear column c below row r exactly: reduce every row by the one with
    the least nonzero entry there, made positive, until one such row is
    left.  Its index, or None when the column is already clear."""
    while True:
        nz = [i for i in range(r, len(a)) if a[i][c]]
        if not nz:
            return None
        i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
        if a[i0][c] < 0:
            a[i0] = [-x for x in a[i0]]
        if len(nz) == 1:
            return i0
        for i in nz:
            if i != i0:
                q = a[i][c] // a[i0][c]
                if q:
                    a[i] = _reduced(a[i], q, a[i0], 0, c)


def _fold(a: list[list[int]], r: int, c: int, modulus: int) -> int | None:
    """Clear column c below row r modulo the modulus: fold every row into
    one pivot row P by the unimodular step [s, t; -x/g, p/g], for p and x
    the entries of P and the row in column c and s*p + t*x = g = gcd(p, x).
    The pivot goes to row r and rows left zero are dropped.  r, or None
    when the column is already clear."""
    pivot, rest = None, []
    for row in a[r:]:
        x = row[c]
        if x and pivot is None:
            pivot = row
            continue
        if x and x % pivot[c] == 0:
            row = _reduced(row, x // pivot[c], pivot, modulus, c)
        elif x:
            p = pivot[c]
            g = gcd(p, x)
            s = pow(p // g, -1, x // g)
            t, pg, xg = (g - s * p) // x, p // g, x // g
            pivot, row = (
                pivot[:c] + [(s * y + t * z) % modulus for y, z in zip(pivot[c:], row[c:])],
                row[:c] + [(pg * z - xg * y) % modulus for y, z in zip(pivot[c:], row[c:])],
            )
        if any(row):
            rest.append(row)
    a[r:] = rest if pivot is None else [pivot] + rest
    return None if pivot is None else r


def row_hnf(m: IntMatrix, modulus: int = 0) -> IntMatrix:
    """Canonical row Hermite normal form: echelon, positive pivots, entries
    above each pivot reduced into [0, pivot).  Zero rows are dropped, so the
    result is a unique basis of the row lattice.

    A modulus D > 0 adds D*Z^cols to the lattice, which then has full rank,
    and keeps every entry in [0, D): the HNF modulo D of Domich, Kannan &
    Trotter (1987) and Cohen (1993, Alg. 2.4.8), equal to the HNF of m
    stacked with D*I.  Column c's pivot is gcd(p, D) = u*p mod D, for p the
    pivot the rows give, and (D/gcd)*row, 0 in column c, stays among the
    rows still to be reduced, so the lattice loses nothing.

    One loop serves both forms; only the step that clears a column differs.
    Under a modulus every row is folded into the pivot by one extended-gcd
    step (_fold), its entries kept below D.  The exact form keeps
    least-remainder sweeps (_sweep): without a modulus the fold's Bezout
    coefficients compound from column to column, and rendering the echelon
    and duality-answer corpora took 24 s with an exact fold against 2.3 s
    with the sweep (CPython 3.11.7, shared 2-core host)."""
    if modulus < 0:
        raise DualityError("negative modulus")
    cols = m.cols
    a = [[x % modulus for x in r] if modulus else list(r) for r in m.entries]
    r = 0
    for c in range(cols):
        pivot = _fold(a, r, c, modulus) if modulus else _sweep(a, r, c)
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
    return _kernel_rows(m.transpose())


def _kernel_rows(a: IntMatrix, modulus: int = 0) -> list[tuple[int, ...]]:
    """The rows of W, W @ [a | I] in Hermite form (modulo the modulus), at
    which W @ a vanishes."""
    h, w = _hermite_pass(a, IntMatrix.identity(a.rows), modulus)
    return [wr for hr, wr in zip(h.entries, w.entries) if not any(hr)]


def system_solvable(m: IntMatrix, b: tuple[int, ...] | list[int]) -> bool:
    """Does m @ x = b admit an integer solution?  That is, does b lie in the
    column lattice of m, the row lattice of m^T?"""
    if len(b) != m.rows:
        raise DualityError("vector length mismatch")
    return _rowspan_contains(row_hnf(m.transpose()), tuple(b))


def _divisibility_chain(values) -> list[int]:
    """Positive integers d_i, each pair (d_i, d_j), i < j, replaced by
    (gcd, lcm) in turn: a selection sort of every prime's exponents, so the
    result d1 | d2 | ... is the invariant factors of diag(values)."""
    d = list(values)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return d


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
        """Canonicalize an arbitrary torsion list into invariant factors: the
        divisibility chain of diag(moduli)."""
        if any(d < 1 for d in moduli):
            raise DualityError("torsion moduli must be positive")
        return cls(free_rank, tuple(x for x in _divisibility_chain(moduli) if x > 1))

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

    The invariant factors come from Hermite forms alone (Kannan & Bachem,
    1979; Cohen, 1993, Alg. 2.4.14).  H = row_hnf(relations) has rank r,
    and K = row_hnf(H^T) is r x r, upper triangular, with the same nonzero
    Smith entries and |det K| = Delta, the product of its pivots.  Then K
    is replaced by the Hermite form of K^T, taken modulo Delta (K^T's
    lattice contains Delta*Z^r), until K is diagonal.  Each pass turns the
    first pivot into the gcd of K's first row, so it never grows and stays
    put only when it divides that row; one more pass then leaves K =
    diag(k11) + B, and the argument repeats on B, so the passes end.  The
    diagonal, made a divisibility chain, gives the factors, and the free
    rank is generators - r.
    """
    if generators < 0:
        raise DualityError("negative generator count")
    if relations.cols != generators:
        raise DualityError(
            f"relation matrix has {relations.cols} columns for {generators} generators"
        )
    h = row_hnf(relations)
    k = row_hnf(h.transpose())
    delta = prod(k.diagonal())
    while not _is_diagonal(k):
        k = row_hnf(k.transpose(), delta)
    factors = tuple(x for x in _divisibility_chain(k.diagonal()) if x > 1)
    return FgAbelianGroup(generators - h.rows, factors)


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
    basis B (the identity when there are none, which is then not applied).
    Over B, every congruence is brought to D, the lcm of the moduli, as a
    row of M; the rows of [M^T | I] span, together with D*Z^N, the lattice
    of [[M^T | I]; [D*I | 0]], so its HNF is taken modulo D.  Its rows with
    a zero congruence part, read in their I part and multiplied by B, span
    the annihilator.
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
    modulus = lcm(*(m for _, m in congruences))
    scaled = IntMatrix.from_rows([[modulus // m * x for x in row] for row, m in congruences], n)
    if exact:
        basis = IntMatrix.from_rows(kernel_basis(IntMatrix.from_rows(exact, n)), n)
        scaled = scaled @ basis.transpose()
    kernel = _kernel_rows(scaled.transpose(), modulus)
    if exact:
        kernel = list((IntMatrix.from_rows(kernel, scaled.cols) @ basis).entries)
    return Sublattice.from_generators(ambient, kernel)


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
