import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from k3lag import intlinalg as la


def test_xgcd_divisible_convention():
    # clearing steps rely on (sign(a), 0) when a | b
    assert la.xgcd(1, -1) == (1, 1, 0)
    assert la.xgcd(-1, 1) == (1, -1, 0)
    assert la.xgcd(3, -6) == (3, 1, 0)
    assert la.xgcd(-3, 6) == (3, -1, 0)
    g, x, y = la.xgcd(12, 18)
    assert g == 6 and 12 * x + 18 * y == 6


def test_smith_regression_two_cycle():
    # used to ping-pong forever between two states
    m = [[-6, -2, 2, 1], [0, 6, -2, 1], [-1, 3, -3, 2], [-4, -2, -4, 6]]
    inv = la.smith_invariants(m)
    prod = 1
    for f in inv:
        prod *= f
    assert len(inv) == 4 and prod == abs(la.det(m))
    for a, b in zip(inv, inv[1:]):
        assert b % a == 0


matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-8, max_value=8), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@given(m=matrices)
@settings(max_examples=150, deadline=None)
def test_hnf_transform_and_canonicality(m):
    nc = len(m[0])
    h, u = la.hnf_with_transform(m, nc)
    assert la.matmul(u, m) == h
    assert abs(la.det(u)) == 1
    hh = la.hnf(m, nc)
    assert la.hnf(hh, nc) == hh
    # pivots positive, entries above pivots reduced
    for i, row in enumerate(hh):
        p = next(j for j, x in enumerate(row) if x)
        assert row[p] > 0
        for k in range(i):
            assert 0 <= hh[k][p] < row[p]


tall_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=m, max_size=m),
        min_size=m + 1,
        max_size=30,
    )
)


def _check_hnf_matches_transform(m):
    nc = len(m[0])
    h, u = la.hnf_with_transform(m, nc)
    assert la.matmul(u, m) == h
    assert la.hnf(m, nc) == tuple(r for r in h if any(r))


@given(m=tall_matrices)
@settings(max_examples=80, deadline=None)
def test_hnf_equals_nonzero_rows_of_transform_hnf(m):
    _check_hnf_matches_transform(m)


def test_hnf_equals_transform_hnf_30_by_6():
    rng = random.Random(30)
    for _ in range(5):
        m = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(30)]
        _check_hnf_matches_transform(m)
        h, u = la.hnf_with_transform(m, 6)
        assert abs(la.det(u)) == 1
        assert len(la.hnf(m, 6)) == 6


@given(m=matrices)
@settings(max_examples=150, deadline=None)
def test_kernel_annihilates_and_is_saturated(m):
    nc = len(m[0])
    k = la.int_kernel(m, nc)
    for row in k:
        assert all(
            sum(m[i][j] * row[j] for j in range(nc)) == 0 for i in range(len(m))
        )
    # saturation: the kernel equals the kernel of its own perp construction
    assert la.hnf(k, nc) == tuple(k)


@given(m=matrices, data=st.data())
@settings(max_examples=150, deadline=None)
def test_solve_left_roundtrip(m, data):
    nc = len(m[0])
    coeffs = data.draw(
        st.lists(
            st.integers(min_value=-5, max_value=5), min_size=len(m), max_size=len(m)
        )
    )
    target = tuple(
        sum(coeffs[i] * m[i][j] for i in range(len(m))) for j in range(nc)
    )
    x = la.solve_left(m, target, nc)
    assert x is not None
    assert (
        tuple(sum(x[i] * m[i][j] for i in range(len(m))) for j in range(nc)) == target
    )


@given(m=matrices)
@settings(max_examples=100, deadline=None)
def test_smith_invariants_divide_and_match_det(m):
    inv = la.smith_invariants(m)
    for a, b in zip(inv, inv[1:]):
        assert b % a == 0
    if len(m) == len(m[0]):
        d = abs(la.det(m))
        if d:
            prod = 1
            for f in inv:
                prod *= f
            assert prod == d


def test_frac_inverse_and_integral_row():
    inv = la.frac_inverse(((2, 1), (1, 1)))
    assert inv == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2)))
    assert la.integral_row((Fraction(1, 2), Fraction(2, 3), Fraction(0))) == (3, 4, 0)


def test_symmetric_diagonalize_congruence():
    gram = ((0, 1, 0), (1, 0, 2), (0, 2, -2))
    diag, basis = la.symmetric_diagonalize(gram)
    for i, vi in enumerate(basis):
        for j, vj in enumerate(basis):
            val = sum(vi[a] * Fraction(gram[a][b]) * vj[b] for a in range(3) for b in range(3))
            assert val == (diag[i] if i == j else 0)
