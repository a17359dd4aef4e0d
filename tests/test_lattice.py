"""Lattice reduction: a recorded candidate corpus and a Fraction LLL oracle.

``tests/golden/approximation_candidates.txt`` holds the output of
``approximation_candidates`` for rational and quadratic characters with
(k, m) in {1, 2}^2, at every scale of the search's lattice pools and at
2^100.  The test compares it byte for byte and never rewrites it;
re-record with ``PYTHONPATH=src python tests/test_lattice.py record`` and
review the diff.

``fraction_lll`` is the textbook algorithm with every Gram-Schmidt vector
recomputed in Fractions after each change of the basis.  It performs the
same operations in the same order as ``lll_reduce`` (full size reduction of
row k from j = k-1 down to 0, then the Lovasz test, k = max(k-1, 1) after a
swap, q = round(mu) with ties to even), so the two must return the same
basis, not merely an equivalent one.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gclose.circle import CirclePoint
from gclose.lattice import approximation_candidates, lll_reduce

CORPUS = Path(__file__).parent / "golden" / "approximation_candidates.txt"

# scale exponents of the recorded corpus, in its line order
CORPUS_EXPONENTS = (4, 8, 16, 32, 64, 128, 100, 192)


def rat(p, q):
    return CirclePoint.rational(p, q)


def quad(a, b, c, d):
    return CirclePoint.quadratic(a, b, c, d)


GOLDEN = quad(-1, 1, 2, 5)
SQRT2M1 = quad(-1, 1, 1, 2)

CHARACTER_SETS = {
    "rational-k1-m1": ((rat(7, 30),),),
    "rational-k1-m2": ((rat(7, 30),), (rat(5, 12),)),
    "rational-k2-m1": ((rat(7, 30), rat(11, 17)),),
    "rational-k2-m2": ((rat(7, 30), rat(11, 17)), (rat(3, 8), rat(20, 29))),
    "quadratic-k1-m1": ((GOLDEN,),),
    "quadratic-k1-m2": ((GOLDEN,), (SQRT2M1,)),
    "quadratic-k2-m1": ((GOLDEN, quad(1, 1, 3, 7)),),
    "quadratic-k2-m2": ((SQRT2M1, quad(1, 1, 3, 7)), (quad(2, -1, 5, 3), rat(1, 3))),
}


def render_corpus() -> str:
    lines = []
    for name, chars in CHARACTER_SETS.items():
        for exponent in CORPUS_EXPONENTS:
            cands = approximation_candidates(chars, 2**exponent)
            lines.append(f"{name} 2^{exponent}: " + " ".join(map(repr, cands)))
    return "\n".join(lines) + "\n"


def test_candidate_corpus_matches_recording():
    assert render_corpus() == CORPUS.read_text(encoding="utf-8")


def fraction_lll(basis, delta=Fraction(3, 4)):
    b = [list(row) for row in basis]
    n = len(b)

    def gram_schmidt():
        bstar, mu = [], [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                norm2 = sum(y * y for y in bstar[j])
                mu[i][j] = sum(x * y for x, y in zip(b[i], bstar[j])) / norm2
                v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
            bstar.append(v)
        return [sum(x * x for x in v) for v in bstar], mu

    k = 1
    while k < n:
        norms, mu = gram_schmidt()
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                norms, mu = gram_schmidt()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            k = max(k - 1, 1)
    return b


def _rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _random_bases(seed: int, count: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 6)
        width = rng.randint(n, n + 2)
        bound = rng.choice((3, 50, 2**20, 2**64))
        rows = [[rng.randint(-bound, bound) for _ in range(width)] for _ in range(n)]
        if _rank(rows) == n:
            out.append(rows)
    return out


SPECIAL_BASES = {
    "empty": [],
    "one-row": [[3, -4, 12]],
    "mu-half-tie": [[2, 0], [1, 5]],
    "mu-minus-half-tie": [[2, 0], [-1, 5]],
    "mu-three-halves-tie": [[2, 0], [3, 1]],
    "mu-minus-five-halves-tie": [[2, 0, 0], [-5, 1, 0], [3, -7, 1]],
    "swap-heavy": [[1, 0, 0, 1234567], [0, 1, 0, 7654321], [0, 0, 1, 3141592], [0, 0, 0, 10**8]],
    "knapsack": [[1, 0, 0, 0, 0, 0, 8], [0, 1, 0, 0, 0, 0, 13], [0, 0, 1, 0, 0, 0, 21],
                 [0, 0, 0, 1, 0, 0, 34], [0, 0, 0, 0, 1, 0, 55], [0, 0, 0, 0, 0, 1, 89]],
}


@pytest.mark.parametrize("name", SPECIAL_BASES)
@pytest.mark.parametrize("delta", [Fraction(3, 4), Fraction(99, 100), Fraction(1, 3)])
def test_lll_matches_fraction_oracle_on_special_bases(name, delta):
    basis = SPECIAL_BASES[name]
    assert lll_reduce(basis, delta) == fraction_lll(basis, delta)


@pytest.mark.parametrize("seed", range(4))
def test_lll_matches_fraction_oracle_on_random_bases(seed):
    for basis in _random_bases(1000 + seed, 25):
        snapshot = [list(row) for row in basis]
        assert lll_reduce(basis) == fraction_lll(basis)
        assert lll_reduce(basis, Fraction(99, 100)) == fraction_lll(basis, Fraction(99, 100))
        assert basis == snapshot


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_lattice.py record")
    CORPUS.write_text(render_corpus(), encoding="utf-8")
