"""Integer linear algebra and duality: frozen examples plus postconditions.

The SNF example diag(2,4) is frozen from the minor-gcd oracle: d1 = gcd of
all entries = 2, d1*d2 = |det| = 8.  ``reference_smith_form`` is a Smith
form by min-pivot elimination, with no Hermite form; the Hermite-built
``smith_normal_form``, kernels, solvability and invariant factors are
checked against it.  Annihilator and closure examples are frozen from hand
computation (cleared-denominator congruences).  Membership lattices and
annihilators are checked against the integer systems they replaced, kept
here as the reference: one chi-scaled system per ``contains`` call, and the
kernel of all equations and congruences at once.
"""

import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclose import duality
from gclose.circle import CirclePoint, SurdSum
from gclose.cli import Command, parse_int_matrix, run
from gclose.duality import (
    Character,
    DualSubgroup,
    DualityError,
    FgAbelianGroup,
    IntMatrix,
    PrecompactTopology,
    Sublattice,
    annihilator,
    closure_in_dual,
    group_from_presentation,
    kernel_basis,
    row_hnf,
    smith_normal_form,
    system_solvable,
    von_neumann_radical,
)
from test_equivalence import SURD_BASES, _duality_case

GOLDEN = CirclePoint.quadratic(-1, 1, 2, 5)


def half(p, q):
    return CirclePoint.rational(p, q)


def minor_gcd(m: IntMatrix, size: int) -> int:
    """gcd of all size x size minors; independent oracle for SNF diagonals."""
    from itertools import combinations

    g = 0
    for rows in combinations(range(m.rows), size):
        for cols in combinations(range(m.cols), size):
            sub = IntMatrix.from_rows(
                [[m.entries[r][c] for c in cols] for r in rows], size
            )
            g = gcd(g, sub.determinant())
    return g


# Smith normal form ----------------------------------------------------------


def reference_smith_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Reference Smith form (U, D, V) by an elimination of its own, with no
    Hermite form: the pivot is the nonzero entry of least absolute value in
    the remaining block, ties to the lowest (row, column).  Its row and
    column are cleared by remainders, a remainder becoming the new pivot,
    and a later entry the pivot does not divide has its row added to the
    pivot's row."""
    rows, cols = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [list(r) for r in IntMatrix.identity(rows).entries]
    vt = [list(r) for r in IntMatrix.identity(cols).entries]

    def add_row(dst, src, q):
        for mat in (a, u):
            mat[dst] = [x + q * y for x, y in zip(mat[dst], mat[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        vt[dst] = [x + q * y for x, y in zip(vt[dst], vt[src])]

    def swap(i, j, col):
        if col:
            for row in a:
                row[i], row[j] = row[j], row[i]
            vt[i], vt[j] = vt[j], vt[i]
        else:
            a[i], a[j], u[i], u[j] = a[j], a[i], u[j], u[i]

    for t in range(min(rows, cols)):
        block = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]]
        if not block:
            break
        _, i, j = min(block)
        swap(t, i, False)
        swap(t, j, True)
        while True:
            if a[t][t] < 0:
                a[t], u[t] = [-x for x in a[t]], [-x for x in u[t]]
            p = a[t][t]
            left = None
            for i in range(rows):
                if i != t and a[i][t]:
                    add_row(i, t, -(a[i][t] // p))
                    left = i if a[i][t] else left
            if left is not None:
                swap(t, left, False)
                continue
            for j in range(cols):
                if j != t and a[t][j]:
                    add_col(j, t, -(a[t][j] // p))
                    left = j if a[t][j] else left
            if left is not None:
                swap(t, left, True)
                continue
            offender = next(
                (i for i in range(t + 1, rows) for j in range(t + 1, cols) if a[i][j] % p), None
            )
            if offender is None:
                break
            add_row(t, offender, 1)
    return (
        IntMatrix.from_rows(u, rows),
        IntMatrix.from_rows(a, cols),
        IntMatrix.from_rows(vt, cols).transpose(),
    )


def assert_snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """smith_normal_form(m), after checking its postconditions: U*M*V = D
    with U, V unimodular, D diagonal with a nonnegative divisibility chain."""
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert abs(u.determinant()) == 1 and abs(v.determinant()) == 1
    diag = d.diagonal()
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if y:
            assert x != 0 and y % x == 0
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == 0
    return u, d, v


def test_snf_worked_example():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    _, d, _ = assert_snf(m)
    assert d.diagonal() == (2, 4)
    # oracle: d1 = gcd of entries, d1*d2 = |det|
    assert minor_gcd(m, 1) == 2 and abs(m.determinant()) == 8


def test_snf_identity():
    m = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    _, d, _ = assert_snf(m)
    assert d == m


def test_snf_zero_matrix():
    m = IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
    _, d, _ = assert_snf(m)
    assert all(x == 0 for row in d.entries for x in row)


def test_snf_empty_matrix():
    m = IntMatrix.from_rows([], cols=3)
    _, d, v = assert_snf(m)
    assert d.rows == 0 and d.cols == 3
    assert v.rows == 3


@given(
    st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=80)
def test_snf_postconditions(rows):
    assert_snf(IntMatrix.from_rows(rows))


@given(
    st.lists(
        st.lists(st.integers(min_value=-12, max_value=12), min_size=2, max_size=3),
        min_size=2,
        max_size=3,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=40)
def test_snf_matches_minor_gcd_oracle(rows):
    m = IntMatrix.from_rows(rows)
    _, d, _ = smith_normal_form(m)
    diag = d.diagonal()
    prod = 1
    for i in range(min(2, len(diag))):
        prod *= diag[i]
        assert prod == minor_gcd(m, i + 1)


@given(
    st.integers(min_value=0, max_value=6).flatmap(
        lambda cols: st.lists(
            st.one_of(
                st.just([0] * cols),
                st.lists(st.integers(min_value=-30, max_value=30), min_size=cols, max_size=cols),
            ),
            max_size=6,
        ).map(lambda rows: (rows, cols))
    ),
    st.sets(st.integers(min_value=0, max_value=5)),
)
@settings(max_examples=200)
def test_snf_matches_the_reference_form(shaped, zero_cols):
    # zero rows come from the first branch, zero columns from zero_cols
    rows, cols = shaped
    m = IntMatrix.from_rows([[0 if j in zero_cols else x for j, x in enumerate(r)] for r in rows], cols)
    _, d, _ = assert_snf(m)
    assert d == reference_smith_form(m)[1]


# Hermite form, kernels, solvability ----------------------------------------


def test_row_hnf_canonical():
    h = row_hnf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert h.entries == ((2, 0), (0, 4))
    # modulo 6 the lattice gains 6*Z^2: (2, 4), (6, 8) and (0, 6) give (0, 2)
    assert row_hnf(IntMatrix.from_rows([[2, 4], [6, 8]]), 6).entries == ((2, 0), (0, 2))
    with pytest.raises(DualityError):
        row_hnf(IntMatrix.from_rows([[2, 4]]), -6)


def test_kernel_basis():
    # the row Hermite basis of the kernel lattice, in order
    k = kernel_basis(IntMatrix.from_rows([[1, 2, 3]]))
    assert k == [(1, 1, -1), (0, 3, -2)]


def test_system_solvable():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert system_solvable(m, (4, 9))
    assert not system_solvable(m, (1, 3))


def snf_kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Reference kernel: the columns of V at the zero diagonal entries of
    the Smith form D = U @ m @ V."""
    _, d, v = reference_smith_form(m)
    out = []
    for j in range(m.cols):
        dj = d.entries[j][j] if j < min(m.rows, m.cols) else 0
        if dj == 0:
            out.append(v.column(j))
    return out


def snf_system_solvable(m: IntMatrix, b: tuple[int, ...]) -> bool:
    """Reference solvability: U @ b must vanish where D does and be
    divisible by D's entry elsewhere."""
    u, d, _ = reference_smith_form(m)
    c = u.apply(tuple(b))
    for i in range(m.rows):
        di = d.entries[i][i] if i < min(m.rows, m.cols) else 0
        if di == 0:
            if c[i] != 0:
                return False
        elif c[i] % di:
            return False
    return True


def _seeded_system(rng: random.Random) -> IntMatrix:
    """0-7 x 0-9.  Four in ten are a product through a narrower middle, so
    often rank-deficient; the others have entries up to 1000, half their
    rows scaled by 2 or 5."""
    rows, cols = rng.randint(0, 7), rng.randint(0, 9)
    if rng.random() < 0.4:
        rank = rng.randint(0, min(rows, cols))
        left = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)], rank)
        right = IntMatrix.from_rows([[rng.randint(-150, 150) for _ in range(cols)] for _ in range(rank)], cols)
        return left @ right
    scale = [rng.choice((1, 1, 2, 5)) for _ in range(rows)]
    return IntMatrix.from_rows(
        [[f * rng.randint(-1000 // f, 1000 // f) for _ in range(cols)] for f in scale], cols
    )


def test_hermite_kernel_and_solvability_match_the_smith_reference():
    rng = random.Random(20261103)
    solvable = unsolvable = 0
    for _ in range(400):
        m = _seeded_system(rng)
        k = kernel_basis(m)
        assert all(len(v) == m.cols and not any(m.apply(v)) for v in k)
        # the returned basis is canonical: its own row Hermite form
        assert row_hnf(IntMatrix.from_rows(k, m.cols)).entries == tuple(k)
        assert tuple(k) == row_hnf(IntMatrix.from_rows(snf_kernel_basis(m), m.cols)).entries
        image = m.apply([rng.randint(-9, 9) for _ in range(m.cols)])
        assert system_solvable(m, image)
        for i in range(m.rows):
            b = tuple(x + (j == i) * rng.randint(1, 6) for j, x in enumerate(image))
            answer = system_solvable(m, b)
            assert answer == snf_system_solvable(m, b)
            solvable += answer
            unsolvable += not answer
    assert solvable > 100 and unsolvable > 100


@given(
    st.integers(min_value=0, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-10**4, max_value=10**4), min_size=cols, max_size=cols),
            max_size=6,
        ).map(lambda rows: (rows, cols))
    ),
    st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=300)
def test_hnf_modulo_d_is_the_hnf_of_the_rows_stacked_with_d(shaped, d):
    rows, cols = shaped
    stacked = rows + [[d * (i == j) for j in range(cols)] for i in range(cols)]
    modular = row_hnf(IntMatrix.from_rows(rows, cols), d)
    assert modular == row_hnf(IntMatrix.from_rows(stacked, cols))
    assert all(0 <= x <= d for row in modular.entries for x in row)


def test_hnf_modulo_d_matches_the_stacked_hnf_at_annihilator_sizes():
    """10-16 rows by 20-32 columns, as radical-large builds [M^T | I], and
    dense rows of the same shape; D = 1, D = 2^64, random D below 2^64 and
    lcms of small moduli."""
    rng = random.Random(20261105)
    seen = set()
    for case in range(96):
        rows, width = rng.randint(10, 16), rng.randint(10, 16)
        d = (1, 2**64, rng.randint(2, 2**64), lcm(*range(1, rng.randint(3, 31))))[case % 4]
        if case % 8 < 4:
            entries = [
                [rng.randrange(d) for _ in range(width)] + [int(i == j) for j in range(rows)]
                for i in range(rows)
            ]
        else:
            entries = [[rng.randint(-d, d) for _ in range(width + rows)] for _ in range(rows)]
        cols = width + rows
        stacked = entries + [[d * (i == j) for j in range(cols)] for i in range(cols)]
        modular = row_hnf(IntMatrix.from_rows(entries, cols), d)
        assert modular == row_hnf(IntMatrix.from_rows(stacked, cols)), (case, d)
        assert all(0 <= x <= d for row in modular.entries for x in row)
        seen.add(modular.diagonal().count(1) < cols)
    assert seen == {True, False}


# groups and presentations ----------------------------------------------------


def test_presentation_single_relation():
    assert group_from_presentation(IntMatrix.from_rows([[6]]), 1) == FgAbelianGroup(
        0, (6,)
    )


def test_presentation_crt_merge():
    g = group_from_presentation(IntMatrix.from_rows([[2, 0], [0, 3]]), 2)
    assert g == FgAbelianGroup(0, (6,))
    assert str(g) == "Z/6"


def test_presentation_free():
    g = group_from_presentation(IntMatrix.from_rows([], cols=2), 2)
    assert g == FgAbelianGroup(2, ())
    assert str(g) == "Z^2"


def test_from_torsion_canonicalizes():
    assert FgAbelianGroup.from_torsion(0, (4, 6)) == FgAbelianGroup(0, (2, 12))


def test_invariant_chain_enforced():
    with pytest.raises(DualityError):
        FgAbelianGroup(0, (4, 6))


def smith_presentation(m: IntMatrix) -> FgAbelianGroup:
    """Reference: the quotient read off reference_smith_form's diagonal, free
    rank the columns less its nonzero entries, factors its entries above 1."""
    diag = reference_smith_form(m)[1].diagonal()
    return FgAbelianGroup(m.cols - sum(1 for x in diag if x), tuple(x for x in diag if x > 1))


def _seeded_presentation(rng: random.Random, rows: int, cols: int) -> IntMatrix:
    """One in twenty is zero; four in ten are a product through a narrower
    middle, so often rank-deficient; the others have entries up to 1000,
    their rows scaled by 2, 6 or 30 at random, which gives longer
    divisibility chains."""
    kind = rng.random()
    if kind < 0.05:
        return IntMatrix.zeros(rows, cols)
    if kind < 0.45:
        rank = rng.randint(0, min(rows, cols))
        left = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)], rank)
        right = IntMatrix.from_rows([[rng.randint(-150, 150) for _ in range(cols)] for _ in range(rank)], cols)
        return left @ right
    scale = [rng.choice((1, 1, 1, 2, 6, 30)) for _ in range(rows)]
    return IntMatrix.from_rows(
        [[f * rng.randint(-1000 // f, 1000 // f) for _ in range(cols)] for f in scale], cols
    )


def test_invariant_factors_match_the_smith_diagonal():
    rng = random.Random(20261104)
    cases = [_seeded_presentation(rng, rng.randint(0, 8), rng.randint(0, 8)) for _ in range(2400)]
    cases += [_seeded_presentation(rng, n, n) for n in (rng.randint(10, 16) for _ in range(60))]
    seen = {"empty": 0, "zero": 0, "mixed": 0, "chain": 0, "square": 0}
    for m in cases:
        g = group_from_presentation(m, m.cols)
        assert g == smith_presentation(m), str(m)
        seen["empty"] += not (m.rows and m.cols)
        seen["zero"] += bool(m.rows and m.cols) and not any(map(any, m.entries))
        seen["mixed"] += bool(g.free_rank and g.invariant_factors)
        seen["chain"] += len(g.invariant_factors) >= 3
        seen["square"] += m.rows == m.cols >= 10
    assert min(seen.values()) >= 50, seen


# Hermite alternation needs a second pass on these; after one pass their
# diagonal reads Z/6 + Z/54, Z + Z/4 + Z/24, Z/2 + Z/78 and Z/4 + Z/108
SECOND_PASS = [
    ("4,0,0;2,9,3;4,0,9", "Z/3 + Z/108"),
    ("0,16,0,0;9,4,2,0;0,0,4,6", "Z + Z/2 + Z/48"),
    ("16,8,1;3,0,0;0,12,8", "Z/156"),
    ("8,0,0;12,9,8;8,0,6", "Z/2 + Z/216"),
]


@pytest.mark.parametrize("relations,group", SECOND_PASS)
def test_presentations_that_need_a_second_hermite_pass(relations, group):
    m = parse_int_matrix(relations)
    assert str(group_from_presentation(m, m.cols)) == group == str(smith_presentation(m))


def test_invariant_factor_passes_run_modulo_the_determinant(monkeypatch):
    """Two exact Hermite forms, then every pass modulo Delta, the product
    of the invariant factors, with its entries at most Delta."""
    calls = []

    def spy(m, modulus=0):
        calls.append((modulus, row_hnf(m, modulus)))
        return calls[-1][1]

    monkeypatch.setattr(duality, "row_hnf", spy)
    rng = random.Random(20261107)
    cases = [parse_int_matrix(text) for text, _ in SECOND_PASS]
    cases += [parse_int_matrix("2,4,6,0,8;6,12,18,0,24;0,0,10,4,2"), IntMatrix.from_rows([], cols=3)]
    cases += [_seeded_presentation(rng, rng.randint(0, 8), rng.randint(0, 8)) for _ in range(200)]
    passes = 0
    for m in cases:
        calls.clear()
        g = group_from_presentation(m, m.cols)
        delta = prod(g.invariant_factors)
        assert [modulus for modulus, _ in calls[:2]] == [0, 0]
        for modulus, out in calls[2:]:
            assert modulus == delta and all(0 <= x <= delta for row in out.entries for x in row)
        passes += len(calls) > 2
    assert passes > 20


def test_from_torsion_matches_the_smith_diagonal():
    rng = random.Random(20261106)
    for _ in range(500):
        moduli = [rng.choice((1, 2, 3, 4, 6, 8, 9, 12, 25, 30, 1000)) for _ in range(rng.randint(0, 8))]
        diag = IntMatrix.from_rows([[d * (i == j) for j in range(len(moduli))] for i, d in enumerate(moduli)], len(moduli))
        expected = smith_presentation(diag).invariant_factors
        assert FgAbelianGroup.from_torsion(2, tuple(moduli)) == FgAbelianGroup(2, expected)


# annihilators ----------------------------------------------------------------


def test_annihilator_sixth():
    a = FgAbelianGroup(1, ())
    h = DualSubgroup(a, (Character.make(a, (half(1, 6),)),))
    lat = annihilator(h)
    assert lat.element_generators() == [(6,)]


def test_annihilator_componentwise():
    a = FgAbelianGroup(2, ())
    h = DualSubgroup(
        a,
        (
            Character.make(a, (half(1, 2), half(0, 1))),
            Character.make(a, (half(0, 1), half(1, 3))),
        ),
    )
    lat = annihilator(h)
    assert lat.contains((2, 0)) and lat.contains((0, 3))
    assert not lat.contains((1, 0)) and not lat.contains((0, 1))
    assert lat.contains((2, 3)) and not lat.contains((2, 1))


def test_annihilator_irrational_is_trivial():
    a = FgAbelianGroup(1, ())
    h = DualSubgroup(a, (Character.make(a, (GOLDEN,)),))
    assert annihilator(h).is_trivial()


def test_annihilator_mixed_coordinates():
    # chi = (golden, 1/2): n*golden + m/2 in Z forces n = 0, then 2 | m
    a = FgAbelianGroup(2, ())
    h = DualSubgroup(a, (Character.make(a, (GOLDEN, half(1, 2))),))
    lat = annihilator(h)
    assert lat.contains((0, 2))
    assert not lat.contains((1, 0)) and not lat.contains((0, 1))


# closures ---------------------------------------------------------------------


def test_closure_already_closed():
    a = FgAbelianGroup(1, ())
    h = DualSubgroup(a, (Character.make(a, (half(1, 6),)),))
    c = closure_in_dual(h)
    assert c.is_finitely_generated
    assert c.as_dual_subgroup() == h


def test_closure_dense_irrational():
    a = FgAbelianGroup(1, ())
    h = DualSubgroup(a, (Character.make(a, (GOLDEN,)),))
    c = closure_in_dual(h)
    assert not c.is_finitely_generated
    assert c.torus_directions == ((1,),)
    with pytest.raises(DualityError):
        c.as_dual_subgroup()


def test_closure_finite_ambient():
    a = FgAbelianGroup(0, (4,))
    h = DualSubgroup(a, (Character.make(a, (), (2,)),))
    c = closure_in_dual(h)
    assert c.is_finitely_generated
    assert c.as_dual_subgroup() == h


def test_closure_mixed_ambient():
    a = FgAbelianGroup(1, (2,))
    h = DualSubgroup(a, (Character.make(a, (half(1, 3),), (1,)),))
    c = closure_in_dual(h)
    assert c.is_finitely_generated
    assert c.as_dual_subgroup() == h


def test_double_annihilator_idempotent():
    a = FgAbelianGroup(2, ())
    cases = [
        (Character.make(a, (half(1, 2), half(1, 3))),),
        (Character.make(a, (GOLDEN, half(1, 2))),),
        (
            Character.make(a, (half(1, 4), half(0, 1))),
            Character.make(a, (half(0, 1), half(1, 6))),
        ),
    ]
    for gens in cases:
        h = DualSubgroup(a, gens)
        first = annihilator(h)
        c = closure_in_dual(h)
        if c.is_finitely_generated:
            again = annihilator(c.as_dual_subgroup())
            assert again == first
        else:
            # closure carries the kernel itself; it must equal the annihilator
            assert c.kernel == first


def test_dual_subgroup_equality_mutual_membership():
    a = FgAbelianGroup(1, ())
    h1 = DualSubgroup(a, (Character.make(a, (half(1, 2),)), Character.make(a, (half(1, 3),))))
    h2 = DualSubgroup(a, (Character.make(a, (half(1, 6),)),))
    assert h1 == h2
    h3 = DualSubgroup(a, (Character.make(a, (half(1, 5),)),))
    assert h1 != h3


def test_dual_subgroup_contains_integer_combinations():
    a = FgAbelianGroup(1, ())
    h = DualSubgroup(a, (Character.make(a, (GOLDEN,)),))
    assert h.contains(Character.make(a, (CirclePoint.quadratic(-3, 3, 2, 5),)))
    assert not h.contains(Character.make(a, (half(1, 2),)))


# radical -----------------------------------------------------------------------


def test_radical_componentwise():
    t = PrecompactTopology.on_free(2, [(half(1, 2), half(0, 1)), (half(0, 1), half(1, 3))])
    lat = von_neumann_radical(t)
    assert lat.contains((2, 0)) and lat.contains((0, 3)) and not lat.contains((1, 1))


def test_radical_hausdorff_irrational():
    t = PrecompactTopology.on_free(1, [(GOLDEN,)])
    assert von_neumann_radical(t).is_trivial()


def test_radical_indiscrete():
    t = PrecompactTopology.on_free(1, [])
    lat = von_neumann_radical(t)
    assert lat.contains((1,))


@given(
    st.builds(
        CirclePoint.quadratic,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-5, max_value=5).filter(lambda b: b != 0),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([2, 3, 5, 7, 11]),
    )
)
@settings(max_examples=30)
def test_radical_single_irrational_char_is_trivial(alpha):
    t = PrecompactTopology.on_free(1, [(alpha,)])
    assert von_neumann_radical(t).is_trivial()


# finite duality sample (the exhaustive sweep lives in the acceptance gate) -----


def brute_subgroup_elements(ambient: FgAbelianGroup, gens):
    """Additive closure of generator residue vectors, as a frozenset."""
    mods = ambient.invariant_factors
    seen = {tuple(0 for _ in mods)}
    frontier = [tuple(0 for _ in mods)]
    gvecs = [g.torsion for g in gens]
    while frontier:
        cur = frontier.pop()
        for g in gvecs:
            nxt = tuple((c + x) % m for c, x, m in zip(cur, g, mods))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


@pytest.mark.parametrize("m,n", [(2, 4), (3, 6), (4, 4)])
def test_finite_duality_sample(m, n):
    ambient = FgAbelianGroup.from_torsion(0, (m, n))
    mods = ambient.invariant_factors
    import itertools

    all_elems = list(itertools.product(*(range(d) for d in mods)))
    seen_subgroups = set()
    for g1 in all_elems:
        for g2 in all_elems:
            gens = (
                Character.make(ambient, (), g1),
                Character.make(ambient, (), g2),
            )
            h = DualSubgroup(ambient, gens)
            elems = brute_subgroup_elements(ambient, gens)
            if elems in seen_subgroups:
                continue
            seen_subgroups.add(elems)
            c = closure_in_dual(h)
            assert c.is_finitely_generated
            closed = c.as_dual_subgroup()
            assert closed == h
            assert brute_subgroup_elements(ambient, closed.generators) == elems


# membership lattices and annihilators against the integer systems they replaced


def _scaled(coeffs: list[tuple[int, int]]) -> tuple[list[int], int, int]:
    lowest = [(n // g, d // g) for n, d in coeffs for g in (gcd(n, d),)]
    den = lcm(*(d for _, d in lowest))
    ints = [n * (den // d) for n, d in lowest]
    return ints[:-1], ints[-1], den


def _mod_one_rows(values: list[SurdSum], target: SurdSum) -> list[tuple[list[int], int, int]]:
    """sum_i x_i * values[i] = target (mod 1) as integer rows (row, rhs,
    modulus): one exact equation (modulus 0) per surd base, then one
    congruence modulo the common denominator of the rational parts."""
    sums = values + [target]
    surds = [dict(v.terms) for v in sums]
    rows = []
    for d in sorted(set().union(*surds)):
        row, rhs, _ = _scaled([(s.get(d, 0), v.den) for s, v in zip(surds, sums)])
        rows.append((row, rhs, 0))
    return rows + [_scaled([(v.num, v.den) for v in sums])]


def _stack(rows: list[tuple[list[int], int, int]], width: int) -> tuple[IntMatrix, list[int]]:
    """The system over width unknowns, one slack column per congruence."""
    moduli = [m for _, _, m in rows if m]
    full, slot = [], 0
    for row, _, m in rows:
        slack = [0] * len(moduli)
        if m:
            slack[slot] = m
            slot += 1
        full.append(row + slack)
    return IntMatrix.from_rows(full, width + len(moduli)), [b for _, b, _ in rows]


def reference_contains(h: DualSubgroup, chi: Character) -> bool:
    """Membership by one chi-scaled integer system per call."""
    rows = []
    for j in range(h.ambient.free_rank):
        values = [SurdSum.from_point(g.free[j]) for g in h.generators]
        rows += _mod_one_rows(values, SurdSum.from_point(chi.free[j]))
    for l, d in enumerate(h.ambient.invariant_factors):
        rows.append(([g.torsion[l] for g in h.generators], chi.torsion[l], d))
    return system_solvable(*_stack(rows, len(h.generators)))


def reference_equal(h1: DualSubgroup, h2: DualSubgroup) -> bool:
    return all(reference_contains(h2, g) for g in h1.generators) and all(
        reference_contains(h1, g) for g in h2.generators
    )


def reference_annihilator(h: DualSubgroup) -> Sublattice:
    """The integer kernel of all equations and congruences at once."""
    ambient, n = h.ambient, h.ambient.ncoords
    equations, congruences = [], []
    for g in h.generators:
        values = [SurdSum.from_point(p) for p in g.free] + [
            SurdSum(k, (), d) for k, d in zip(g.torsion, ambient.invariant_factors)
        ]
        *eqs, cong = _mod_one_rows(values, SurdSum())
        equations += eqs
        congruences.append(cong)
    system, _ = _stack(equations + congruences, n)
    return Sublattice.from_generators(ambient, [v[:n] for v in kernel_basis(system)])


def _with_foreign_surd(h: DualSubgroup, chi: Character) -> Character | None:
    """chi plus sqrt(d) on its first free coordinate, for a base d no
    generator has there, when that coordinate of chi is rational."""
    if not h.ambient.free_rank or not chi.free[0].is_rational:
        return None
    used = {g.free[0].surd for g in h.generators}
    d = next((b for b in SURD_BASES if b not in used), None)
    if d is None:
        return None
    p = chi.free[0]
    moved = CirclePoint.quadratic(p.num, p.den, p.den, d)
    return Character.make(h.ambient, (moved,) + chi.free[1:], chi.torsion)


def test_membership_lattice_matches_the_reference():
    rng = random.Random(20261020)
    members = outsiders = foreign = 0
    for _ in range(2000):
        ambient, gens, chis = _duality_case(rng)
        h = DualSubgroup.make(ambient, gens)
        moved = [x for x in (_with_foreign_surd(h, c) for c in chis) if x is not None]
        foreign += len(moved)
        chis += moved
        for chi in chis:
            answer = h.contains(chi)
            assert answer == reference_contains(h, chi), (str(h), str(chi))
            members += answer
            outsiders += not answer
        assert h.contains_all(chis) == all(reference_contains(h, c) for c in chis)
    assert members > 2000 and outsiders > 2000 and foreign > 1000


def test_membership_refuses_denominators_and_surd_bases_the_generators_lack():
    a = FgAbelianGroup(1, ())
    h = DualSubgroup(a, (Character.make(a, (half(1, 2),)),))
    # D = 2: 1/4 is refused by its denominator, sqrt(2) + 1/2 by its base
    assert not h.contains(Character.make(a, (half(1, 4),)))
    assert not h.contains(Character.make(a, (CirclePoint.quadratic(1, 2, 2, 2),)))
    assert h.contains(Character.make(a, (half(1, 2),)))
    g = DualSubgroup(a, (Character.make(a, (CirclePoint.quadratic(0, 1, 3, 2),)),))
    assert not g.contains(Character.make(a, (CirclePoint.quadratic(0, 1, 3, 3),)))
    assert not g.contains(Character.make(a, (CirclePoint.quadratic(0, 1, 6, 2),)))
    assert g.contains(Character.make(a, (CirclePoint.quadratic(0, -2, 3, 2),)))


def test_closed_flag_matches_two_sided_equality():
    rng = random.Random(20261021)
    closed = open_ = 0
    for case in range(400):
        ambient, gens, _ = _duality_case(rng)
        h = DualSubgroup.make(ambient, gens)
        c = closure_in_dual(h)
        fg = c.is_finitely_generated
        expected = fg and reference_equal(c.as_dual_subgroup(), h)
        assert (fg and h.contains_all(c.finite_generators)) == expected
        if case % 4 == 0 and ambient.ncoords:
            gens_text = ";".join(str(g) for g in gens)
            report, code = run(Command("closure", {"group": str(ambient), "gens": gens_text}, {}))
            assert code == 0 and report.result["closed"] is expected
        closed += expected
        open_ += not expected
    assert closed > 50 and open_ > 50


def _radical_case(rng: random.Random) -> DualSubgroup:
    """Rational characters on Z^k, denominators up to 30, as radical-large
    draws them, or quadratic ones over one or two bases."""
    k = rng.randint(1, 6)
    surd = rng.random() < 0.4

    def point():
        if surd and rng.random() < 0.6:
            return CirclePoint.quadratic(
                rng.randint(-9, 9), rng.choice((-1, 1, 2)), rng.randint(1, 12), rng.choice((2, 3))
            )
        return CirclePoint.rational(rng.randint(0, 29), rng.randint(1, 30))

    chars = [tuple(point() for _ in range(k)) for _ in range(rng.randint(1, k))]
    t = PrecompactTopology.on_free(k, chars)
    return t.as_dual_subgroup()


def test_annihilator_matches_the_kernel_basis_reference():
    rng = random.Random(20261022)
    kinds = set()
    for _ in range(600):
        ambient, gens, _ = _duality_case(rng)
        h = DualSubgroup.make(ambient, gens)
        assert annihilator(h) == reference_annihilator(h), str(h)
        surd = any(not p.is_rational for g in gens for p in g.free)
        kinds.add((bool(ambient.free_rank), ambient.is_free, surd))
    for _ in range(150):
        h = _radical_case(rng)
        assert annihilator(h) == reference_annihilator(h), str(h)
    # (free rank > 0, no torsion, a surd coordinate): rational, torsion,
    # surd and mixed groups all occur
    assert {(True, True, False), (False, False, False), (True, True, True)} <= kinds
    assert (True, False, True) in kinds
