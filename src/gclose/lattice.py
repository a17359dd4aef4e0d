"""Exact lattice reduction over the integers.

LLL on linearly independent integer rows, in the integral form of Cohen, A
Course in Computational Algebraic Number Theory, Alg. 2.6.7 (de Weger 1987).
With B_i = |b*_i|^2 the squared Gram-Schmidt lengths, it keeps the leading
Gram determinants d_i = B_1 * ... * B_i and lambda_ij = d_j * mu_ij, which
are integers, and updates them in place on each size reduction and swap with
exact divisions, so no rational number is ever built.  The reduction is
deterministic and exact.  The candidate generator builds the standard
simultaneous-approximation lattice for a list of real characters: short
vectors give integer combinations whose pairings with every character are
small.
"""

from __future__ import annotations

from fractions import Fraction

from .circle import CirclePoint

__all__ = ["lll_reduce", "approximation_candidates"]


def lll_reduce(basis: list[list[int]], delta: Fraction = Fraction(3, 4)) -> list[list[int]]:
    """Lenstra-Lenstra-Lovasz reduction of linearly independent integer rows.

    Rows are b[0..n-1]; d[i] is the Gram determinant of rows 0..i-1 (d[0] =
    1), so B_i = d[i+1] / d[i], and lam[i][j] = d[j+1] * mu_ij.  Row k is
    size-reduced against rows k-1, ..., 0 (q = round(mu_kj), ties to even)
    before each Lovasz test B_k >= (delta - mu_k,k-1^2) * B_k-1; times
    d[k] * d[k-1] and delta's denominator it reads
    den * (d[k+1] * d[k-1] + lam[k][k-1]^2) >= num * d[k]^2.  A failed test
    swaps rows k and k-1 and steps back to max(k-1, 1).
    """
    b = [list(row) for row in basis]
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    # integral Gram-Schmidt; every division below is exact
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
    num, den = delta.numerator, delta.denominator
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            # q = round(lam/dj), ties to even; 0 unless |mu| > 1/2
            q, rem = divmod(2 * lam[k][j] + dj, 2 * dj)
            if rem == 0 and q & 1:
                q -= 1
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lam[k][j] -= q * dj
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
        t = lam[k][k - 1]
        if den * (d[k + 1] * d[k - 1] + t * t) >= num * d[k] * d[k]:
            k += 1
            continue
        # swap rows k-1 and k; lam[k][k-1] keeps its value, d[k] changes
        b[k], b[k - 1] = b[k - 1], b[k]
        lam[k][: k - 1], lam[k - 1][: k - 1] = lam[k - 1][: k - 1], lam[k][: k - 1]
        new_d = (d[k - 1] * d[k + 1] + t * t) // d[k]
        for i in range(k + 1, n):
            s = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - t * s) // d[k]
            lam[i][k - 1] = (new_d * s + t * lam[i][k]) // d[k + 1]
        d[k] = new_d
        k = max(k - 1, 1)
    return b


def _rational_approx(point: CirclePoint, scale: int) -> Fraction:
    """A fraction within 1/scale of the point's value."""
    if point.is_rational:
        return Fraction(point.num, point.den)
    enc = point.enclosure(Fraction(1, scale))
    return (enc.lower + enc.upper) / 2


def approximation_candidates(
    characters: tuple[tuple[CirclePoint, ...], ...], scale: int
) -> list[tuple[int, ...]]:
    """Nonzero integer vectors a with every norm(<a, h_i>) plausibly small.

    Rows of the reduced lattice [[I_k | scale*H^T], [0 | scale*I_m]] with H
    approximated rationally: a short row encodes a together with integers
    b_i making |<a, h_i> - b_i| small.  Callers must verify the candidates
    exactly; nothing returned here carries a certificate.
    """
    m = len(characters)
    if m == 0:
        return []
    k = len(characters[0])
    approx = [
        [_rational_approx(p, scale * scale) for p in char] for char in characters
    ]
    rows: list[list[int]] = []
    for j in range(k):
        head = [1 if t == j else 0 for t in range(k)]
        tail = [round(Fraction(scale) * approx[i][j]) for i in range(m)]
        rows.append(head + tail)
    for i in range(m):
        rows.append([0] * k + [scale if t == i else 0 for t in range(m)])
    reduced = lll_reduce(rows)
    seen: set[tuple[int, ...]] = set()
    candidates: list[tuple[int, ...]] = []

    def push(vec):
        a = tuple(vec[:k])
        if not any(a):
            return
        if a[next(i for i, x in enumerate(a) if x)] < 0:
            a = tuple(-x for x in a)
        if a not in seen:
            seen.add(a)
            candidates.append(a)

    for row in reduced:
        push(row)
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            push([x + y for x, y in zip(reduced[i], reduced[j])])
            push([x - y for x, y in zip(reduced[i], reduced[j])])
    candidates.sort(key=lambda a: (max(abs(x) for x in a), a))
    return candidates
