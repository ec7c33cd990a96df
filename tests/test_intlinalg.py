import random
from fractions import Fraction
from itertools import combinations, islice
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lag import enumeration
from k3lag import intlinalg as la
from k3lag.criteria import lag_lattice
from k3lag.enumeration import find_positive
from k3lag.exact import primitivize, rational_direction
from k3lag.lattice import Lattice, k3_lattice, norm, signature

from conftest import fraction_clear, sample_positive_primitive
from test_enumeration import _frac_inverse


def test_xgcd_divisible_convention():
    # clearing steps rely on (sign(a), 0) when a | b
    assert la.xgcd(1, -1) == (1, 1, 0)
    assert la.xgcd(-1, 1) == (1, -1, 0)
    assert la.xgcd(3, -6) == (3, 1, 0)
    assert la.xgcd(-3, 6) == (3, -1, 0)
    g, x, y = la.xgcd(12, 18)
    assert g == 6 and 12 * x + 18 * y == 6


def _gcd_combination_reference(values):
    """gcd_combination as it was with its own first-nonzero branch: the first
    nonzero entry set g = |v| and coefficient sign(v) without calling xgcd."""
    n = len(values)
    coeffs = [0] * n
    g = 0
    for i, val in enumerate(values):
        if val == 0:
            continue
        if g == 0:
            g = abs(val)
            coeffs = [0] * n
            coeffs[i] = 1 if val > 0 else -1
            continue
        gg, x, y = la.xgcd(g, val)
        coeffs = [x * c for c in coeffs]
        coeffs[i] += y
        g = gg
    return g, tuple(coeffs)


def test_gcd_combination_matches_the_first_nonzero_reference():
    # xgcd(0, v) = (|v|, 0, sign v), so the general step starts g the same way
    rng = random.Random(2501)
    cases = [(), (0,), (0, 0, 0), (5,), (-5,), (0, -7), (0, 0, 4, 6), (-2, -4), (2, -4)]
    for _ in range(3000):
        n = rng.randint(0, 8)
        bound = rng.choice((3, 30, 10**6))
        cases.append(tuple(
            0 if rng.random() < 0.4 else rng.randint(-bound, bound) for _ in range(n)
        ))
    for values in cases:
        g, coeffs = la.gcd_combination(values)
        assert (g, coeffs) == _gcd_combination_reference(values), values
        assert g == gcd(*values)
        assert sum(c * v for c, v in zip(coeffs, values)) == g


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


def _solve_left_via_transform(rows, target, ncols):
    """Reference solve: back-substitute over H, then x = c U with the whole
    transform U of hnf_with_transform."""
    if not rows:
        return () if not any(target) else None
    h, u = la.hnf_with_transform(rows, ncols)
    t = list(target)
    coeffs = [0] * len(h)
    for i, row in enumerate(h):
        if not any(row):
            break
        p = next(j for j, x in enumerate(row) if x)
        if t[p] % row[p]:
            return None
        coeffs[i] = t[p] // row[p]
        t = [a - coeffs[i] * b for a, b in zip(t, row)]
    if any(t):
        return None
    return tuple(sum(c * u[i][j] for i, c in enumerate(coeffs)) for j in range(len(rows)))


def _seeded_system(rng):
    nr, nc = rng.randint(1, 9), rng.randint(1, 6)
    rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
    kind = rng.randrange(4)
    if kind == 1:  # rank deficient: every row a combination of two
        a, b = rows[0], rows[-1]
        rows = [[rng.randint(-2, 2) * x + rng.randint(-2, 2) * y for x, y in zip(a, b)]
                for _ in range(nr)]
    elif kind == 2:  # zero rows mixed in
        for i in rng.sample(range(nr), rng.randint(1, nr)):
            rows[i] = [0] * nc
    elif kind == 3:  # a basis already in HNF, as Sublattice.coords_of passes it
        rows = [list(r) for r in la.hnf(rows, nc)] or [[0] * nc]
    coeffs = [rng.randint(-4, 4) for _ in rows]
    target = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(nc)]
    if rng.random() < 0.4:  # often outside the row lattice
        target[rng.randrange(nc)] += rng.randint(1, 3)
    return rows, tuple(target), nc


def test_solve_left_matches_the_transform_solve():
    rng = random.Random(8080)
    outcomes = set()
    for _ in range(600):
        rows, target, nc = _seeded_system(rng)
        x = la.solve_left(rows, target, nc)
        assert x == _solve_left_via_transform(rows, target, nc)
        if x is not None:
            assert tuple(sum(c * r[j] for c, r in zip(x, rows)) for j in range(nc)) == target
        outcomes.add(x is None)
    assert outcomes == {True, False}


def test_solve_left_edge_cases():
    assert la.solve_left((), (0, 0), 2) == ()
    assert la.solve_left((), (0, 1), 2) is None
    assert la.solve_left(((0, 0), (0, 0)), (0, 0), 2) == (0, 0)
    assert la.solve_left(((0, 0), (0, 0)), (1, 0), 2) is None
    assert la.solve_left(((2, 0), (0, 3)), (1, 0), 2) is None
    assert la.solve_left(((-2, 4),), (2, -4), 2) == (-1,)
    with pytest.raises(ValueError):
        la.solve_left(((1, 0),), (1,), 2)


def test_solve_left_on_the_e8_e8_roots():
    from k3lag.enumeration import roots_generate
    from k3lag.lattice import direct_sum, e8_lattice

    roots = roots_generate(direct_sum(e8_lattice(), e8_lattice())).roots
    assert len(roots) == 240
    rng = random.Random(16)
    for _ in range(3):
        picks = rng.sample(range(240), 3)
        target = tuple(
            sum(c * roots[i][j] for c, i in zip((1, 2, -1), picks)) for j in range(16)
        )
        x = la.solve_left(roots, target, 16)
        assert x == _solve_left_via_transform(roots, target, 16)
        assert tuple(sum(c * r[j] for c, r in zip(x, roots)) for j in range(16)) == target
    # the roots generate E8 + E8; those of the first factor miss the second
    assert la.solve_left(roots, (0,) * 15 + (1,), 16) is not None
    first = [r for r in roots if not any(r[8:])]
    assert len(first) == 120 and la.solve_left(first, (0,) * 15 + (1,), 16) is None


def test_solve_logged_replays_the_root_list_elimination():
    # roots_generate eliminates the root list once; solve_logged over its
    # basis and log must give solve_left's vector, or None with it
    from k3lag.enumeration import roots_generate
    from k3lag.lattice import direct_sum, e8_lattice, from_diagonal

    rep = roots_generate(direct_sum(e8_lattice(), e8_lattice()))
    roots = rep.roots
    first = [r for r in roots if not any(r[8:])]
    h, log = [list(r) for r in first], []
    la._echelon(h, 16, log)
    small = roots_generate(from_diagonal([-2, -8]))  # index 2: (0, 1) is outside
    systems = [
        (small.roots, small.generation_basis.basis, small._log, (0, 1)),
        (small.roots, small.generation_basis.basis, small._log, (3, 0)),
    ]
    rng = random.Random(2416)
    for _ in range(12):
        target = tuple(rng.randint(-5, 5) for _ in range(16))
        systems.append((roots, rep.generation_basis.basis, rep._log, target))
        systems.append((first, h, log, target))  # None unless target[8:] == 0
        half = target[:8] + (0,) * 8
        systems.append((first, h, log, half))
    outcomes = set()
    for rows, basis, ops, target in systems:
        x = la.solve_logged(basis, ops, len(rows), target)
        assert x == la.solve_left(rows, target, len(target))
        outcomes.add(x is None)
    assert outcomes == {True, False}


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


def _vecmat_reference(v, m):
    if not m:
        return ()
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0])))


def _same(got, want):
    return got == want and [type(x) for x in got] == [type(x) for x in want]


@st.composite
def vecmat_inputs(draw):
    rows = draw(st.integers(min_value=0, max_value=22))
    cols = draw(st.integers(min_value=1, max_value=22))
    entry = st.integers(min_value=-(2**70), max_value=2**70)
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    # every zero count: none set, one entry, half, all, or any in between
    nonzero = draw(st.sampled_from((0, min(1, rows), rows // 2, (rows + 1) // 2, rows))
                   | st.integers(min_value=0, max_value=rows))
    where = draw(st.permutations(range(rows)))[:nonzero]
    coeff = st.integers(min_value=-(2**40), max_value=2**40).filter(bool)
    v = [0] * rows
    for i in where:
        v[i] = draw(coeff)
    return tuple(v), tuple(map(tuple, m))


@given(vecmat_inputs())
@settings(max_examples=300, deadline=None)
def test_vecmat_matches_the_reference_at_every_zero_count(case):
    v, m = case
    assert _same(la.vecmat(v, m), _vecmat_reference(v, m))
    assert _same(la.vecmat(list(v), [list(r) for r in m]), _vecmat_reference(v, m))


def test_vecmat_sparse_and_dense_vectors_on_the_k3_gram():
    g = k3_lattice().gram
    rng = random.Random(17)
    for nonzero in (0, 1, 2, 10, 11, 12, 21, 22):
        for _ in range(20):
            v = [0] * 22
            for i in rng.sample(range(22), nonzero):
                v[i] = rng.choice((-3, -1, 1, 2, 5))
            v = tuple(v)
            assert _same(la.vecmat(v, g), _vecmat_reference(v, g))


def test_vecmat_fraction_vectors_keep_the_column_sums():
    g = k3_lattice().gram
    zero = (Fraction(0),) * 22
    got = la.vecmat(zero, g)
    assert got == (0,) * 22 and all(type(x) is Fraction for x in got)
    # a Fraction zero among mostly-zero ints turns every column into a Fraction
    v = (Fraction(0), 1) + (0,) * 20
    got = la.vecmat(v, g)
    assert _same(got, _vecmat_reference(v, g)) and all(type(x) is Fraction for x in got)
    v = (Fraction(1, 2), 0, Fraction(-3, 7)) + (0,) * 19
    assert _same(la.vecmat(v, g), _vecmat_reference(v, g))
    assert la.vecmat(v, g)[1] == Fraction(1, 2)
    v = (2, 0, 0, Fraction(5, 1))
    m = ((1, 2), (3, 4), (5, 6), (7, 8))
    assert _same(la.vecmat(v, m), (Fraction(37), Fraction(44)))


def test_vecmat_shape_mismatch_and_empty_matrix():
    with pytest.raises(ValueError):
        la.vecmat((1, 0, 0), ((1,), (2,)))
    with pytest.raises(ValueError):
        la.vecmat((1,), ())
    with pytest.raises(ValueError):
        la.vecmat((), ((1, 2),))
    assert la.vecmat((), ()) == ()


def test_int_vector_checks_instead_of_truncating():
    assert la.int_vector((Fraction(4, 2), 3, True, -2.0)) == (2, 3, 1, -2)
    assert all(type(x) is int for x in la.int_vector((Fraction(4, 2), True, 2.0)))
    assert la.int_vector(x for x in (1, Fraction(6, 3))) == (1, 2)
    for bad in ((Fraction(1, 2),), (0.9,), (1, Fraction(-7, 3)), ("3",)):
        with pytest.raises(ValueError):
            la.int_vector(bad)
    assert la.freeze([[1, Fraction(2, 1)], (3, 4)]) == ((1, 2), (3, 4))
    with pytest.raises(ValueError):
        la.freeze([[1, Fraction(1, 2)]])


def _cleared_reference(m):
    """(lcm of the denominators, that lcm times m^-1) from rational Gauss-Jordan."""
    ref = _frac_inverse(m)
    d = lcm(*(x.denominator for row in ref for x in row))
    return d, tuple(tuple(d * x for x in row) for row in ref)


def test_frac_inverse_and_integral_row():
    assert la.frac_inverse(((2, 1), (1, 1))) == (1, ((1, -1), (-1, 2)))
    for m in (((2, 0), (0, 3)), ((0, 2), (3, 0)), ((4, 2), (2, 4))):
        d, inv = la.frac_inverse(m)
        assert (d, inv) == _cleared_reference(m), m
        assert all(type(x) is int for row in inv for x in row)
    assert la.frac_inverse(((0, 2), (3, 0))) == (6, ((0, 2), (3, 0)))
    # d is the least denominator, here below |det| = 12
    assert la.frac_inverse(((4, 2), (2, 4))) == (6, ((2, -1), (-1, 2)))
    assert la.frac_inverse(()) == (1, ())
    assert la.integral_row((Fraction(1, 2), Fraction(2, 3), Fraction(0))) == (3, 4, 0)


def test_frac_inverse_against_rational_gauss_jordan():
    # (d, A): d the least common denominator of m^-1, A = d m^-1, all ints
    rng = random.Random(311)
    checked = swapped = 0
    while checked < 120:
        n = 1 + checked % 8
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if n > 1 and checked % 3 == 0:
            m[0][0] = 0  # the first pivot needs a row swap
        if la.det(m) == 0:
            continue
        d, inv = la.frac_inverse(m)
        assert (d, inv) == _cleared_reference(m), m
        assert all(type(x) is int for row in inv for x in row), m
        checked += 1
        swapped += m[0][0] == 0
    assert swapped >= 30


def test_frac_inverse_and_int_inverse_refusals():
    for m in (((0,),), ((1, 2), (2, 4)), ((0, 1, 1), (0, 2, 3), (0, 5, 7))):
        with pytest.raises(ZeroDivisionError):
            la.frac_inverse(m)
    assert la.int_inverse(((2, 1), (1, 1))) == ((1, -1), (-1, 2))
    for m in (((2,),), ((2, 1), (1, 2)), ((1, 0, 0), (0, 3, 1), (0, 1, 1))):
        with pytest.raises(ValueError):
            la.int_inverse(m)


def _det_reference(m):
    """intlinalg.det as first written: every Bareiss step on every row."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            j = next((i for i in range(k + 1, n) if a[i][k]), None)
            if j is None:
                return 0
            a[k], a[j] = a[j], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _frac_inverse_reference(m):
    """intlinalg.frac_inverse as first written: every row at every pivot."""
    n = len(m)
    a = [list(row) + list(e) for row, e in zip(m, la.identity(n))]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[k], a[piv] = a[piv], a[k]
        p, rk = a[k][k], a[k]
        for i in range(n):
            c = a[i][k]
            if i != k:
                a[i] = [(p * x - c * y) // prev for x, y in zip(a[i], rk)]
        prev = p
    d = abs(prev) // gcd(prev, *(x for row in a for x in row[n:]))
    q = prev // d
    return d, tuple(tuple(x // q for x in row[n:]) for row in a)


def _bareiss_cases():
    """Seeded dense, sparse, permutation, identity and singular matrices."""
    rng = random.Random(719)
    cases = []
    for n in range(1, 12):
        cases.append([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        cases.append([[rng.choice((0, 0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)])
        perm = rng.sample(range(n), n)
        cases.append([[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)])
        cases.append([list(row) for row in la.identity(n)])
        d = [[rng.choice((0, 0, 1)) * rng.randint(1, 3) if i <= j else 0 for j in range(n)]
             for i in range(n)]
        for i in range(n):
            d[i][i] = rng.choice((1, -1, 2))
        cases.append(d)  # triangular: many zero entries at unit and non-unit pivots
        if n > 1:
            sing = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
            c = rng.randint(-2, 2)
            sing.append([c * x for x in sing[rng.randrange(n - 1)]])
            rng.shuffle(sing)
            cases.append(sing)
            cases.append([[0] + [rng.randint(-3, 3) for _ in range(n - 1)] for _ in range(n)])
    return cases


def test_det_and_frac_inverse_match_their_references():
    singular = 0
    for m in _bareiss_cases():
        frozen = la.freeze(m)
        assert la.det(frozen) == _det_reference(m), m
        try:
            want = _frac_inverse_reference(m)
        except ZeroDivisionError:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                la.frac_inverse(frozen)
            continue
        assert la.frac_inverse(frozen) == want, m
    assert singular >= 15


def _laplace_det(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * x * _laplace_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j, x in enumerate(m[0]) if x
    )


def test_smith_invariants_match_determinantal_divisors():
    # d_1 ... d_k is the gcd of the k x k minors (Smith 1861)
    rng = random.Random(613)
    for trial in range(150):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-7, 7) for _ in range(nc)] for _ in range(nr)]
        if nr > 1 and trial % 3 == 0:
            m[-1] = [rng.randint(-2, 2) * x for x in m[0]]  # rank deficient
        divisors = []
        for k in range(1, min(nr, nc) + 1):
            g = 0
            for rows in combinations(range(nr), k):
                for cols in combinations(range(nc), k):
                    g = gcd(g, _laplace_det([[m[i][j] for j in cols] for i in rows]))
            if not g:
                break
            divisors.append(g)
        inv = la.smith_invariants(m)
        assert len(inv) == len(divisors), m
        prod = 1
        for f, dk in zip(inv, divisors):
            prod *= f
            assert prod == dk, m


def test_symmetric_diagonalize_congruence():
    gram = ((0, 1, 0), (1, 0, 2), (0, 2, -2))
    diag, basis = la.symmetric_diagonalize(gram)
    for i, vi in enumerate(basis):
        for j, vj in enumerate(basis):
            val = sum(vi[a] * Fraction(gram[a][b]) * vj[b] for a in range(3) for b in range(3))
            assert val == (diag[i] if i == j else 0)


# --- fraction-free diagonalization against the rational elimination -------


def _reference_diagonalize(gram):
    """Congruence diagonalization over Q by Fraction Gauss-Jordan steps."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def add_row(i, j, c):
        basis[i] = [x + c * y for x, y in zip(basis[i], basis[j])]
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[i] = row[i] + c * row[j]

    def swap(i, j):
        basis[i], basis[j] = basis[j], basis[i]
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    for k in range(n):
        if a[k][k] == 0:
            j = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if j is not None:
                swap(k, j)
            else:
                j = next((i for i in range(k + 1, n) if a[k][i] != 0), None)
                if j is None:
                    continue
                add_row(k, j, Fraction(1))
                if a[k][k] == 0:
                    add_row(k, j, Fraction(-2))
        d = a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                add_row(i, k, -a[i][k] / d)
    return tuple(a[i][i] for i in range(n)), tuple(tuple(row) for row in basis)


def _sign(x):
    return (x > 0) - (x < 0)


def _check_against_reference(gram):
    n = len(gram)
    diag, basis = la.symmetric_diagonalize(gram)
    ref_diag, ref_basis = _reference_diagonalize(gram)
    assert all(type(x) is int for x in diag)
    assert all(type(x) is int for row in basis for x in row)
    for i, vi in enumerate(basis):
        gv = la.vecmat(vi, gram)
        for j, vj in enumerate(basis):
            assert la.dot(gv, vj) == (diag[i] if i == j else 0)
    assert [_sign(x) for x in diag] == [_sign(x) for x in ref_diag]
    for row, ref in zip(basis, ref_basis):
        # a positive multiple of the rational row
        k = next(j for j, x in enumerate(ref) if x)
        ratio = Fraction(row[k]) / ref[k]
        assert ratio > 0 and all(x == ratio * y for x, y in zip(row, ref))
    p = sum(1 for d in ref_diag if d > 0)
    q = sum(1 for d in ref_diag if d < 0)
    assert signature(Lattice(gram)) == (p, q, n - p - q)


def _random_symmetric(rng, n, lo=-4, hi=4, zero_diagonal=False):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = 0 if zero_diagonal and i == j else rng.randint(lo, hi)
    return tuple(map(tuple, g))


def _with_radical(rng, n, r):
    """P D P^T for a random P and a form D whose last r rows are zero."""
    d = [[0] * n for _ in range(n)]
    for i in range(n - r):
        for j in range(i, n - r):
            d[i][j] = d[j][i] = rng.randint(-3, 3)
    p = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    return la.matmul(la.matmul(p, d), la.transpose(p))


symmetric_forms = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.lists(
        st.integers(min_value=-5, max_value=5),
        min_size=n * (n + 1) // 2,
        max_size=n * (n + 1) // 2,
    ).map(lambda upper: _from_upper(n, upper))
)


def _from_upper(n, upper):
    g = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = next(it)
    return tuple(map(tuple, g))


@given(gram=symmetric_forms)
@settings(max_examples=200, deadline=None)
def test_symmetric_diagonalize_matches_rational_reference(gram):
    _check_against_reference(gram)


@pytest.mark.parametrize("seed", range(12))
def test_symmetric_diagonalize_reference_seeds(seed):
    rng = random.Random(seed)
    for n in range(9):
        _check_against_reference(_random_symmetric(rng, n))
        _check_against_reference(_random_symmetric(rng, n, zero_diagonal=True))
        _check_against_reference(_random_symmetric(rng, n, -1, 1))
        if n:
            _check_against_reference(_with_radical(rng, n, rng.randint(1, n)))


def test_symmetric_diagonalize_degenerate_edges():
    for n in range(9):
        _check_against_reference(tuple((0,) * n for _ in range(n)))
    _check_against_reference(((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    _check_against_reference(((0, 0, 1), (0, 0, 0), (1, 0, 0)))
    u = ((0, 1), (1, 0))
    diag, basis = la.symmetric_diagonalize(u)
    assert diag == (2, -2) and basis == ((1, 1), (-1, 1))


# lattices on which find_positive needs the diagonalization: no basis vector
# and no sum or difference of two is positive; vectors recorded with the
# rational elimination
FALLBACK_POSITIVE = [
    (((-2, 2, 2), (2, -2, 2), (2, 2, -2)), (2, 1, 1)),
    (((-2, 1, 1), (1, -2, 0), (1, 0, 0)), (2, 1, 3)),
    (((-1, 1, 1), (1, -1, 1), (1, 1, -2)), (3, 1, 2)),
    (((-2, 0, 0, 2), (0, -1, 0, 1), (0, 0, 0, 0), (2, 1, 0, -2)), (1, 1, 0, 1)),
    (
        ((-2, -1, 0, -1), (-1, -2, 0, -1), (0, 0, -2, 1), (-1, -1, 1, 0)),
        (-2, -2, 3, 6),
    ),
    (
        (
            (-1, -1, 0, 0, 0),
            (-1, -1, 1, 1, -1),
            (0, 1, -1, 0, 0),
            (0, 1, 0, -2, 0),
            (0, -1, 0, 0, -1),
        ),
        (-1, 1, 1, 0, 0),
    ),
    (
        (
            (-1, 1, -1, 0, 1, -1),
            (1, -2, 0, 1, 0, -2),
            (-1, 0, -2, 0, -2, 0),
            (0, 1, 0, -2, 2, 0),
            (1, 0, -2, 2, -2, -2),
            (-1, -2, 0, 0, -2, -2),
        ),
        (-3, -2, 1, -1, 0, 0),
    ),
    (
        (
            (-2, 1, 0, -2, 1, -1),
            (1, -2, -1, 0, -1, 0),
            (0, -1, 0, 0, 0, 0),
            (-2, 0, 0, -2, 0, 0),
            (1, -1, 0, 0, 0, 0),
            (-1, 0, 0, 0, 0, -1),
        ),
        (-1, -2, 3, 0, 0, 0),
    ),
]


@pytest.mark.parametrize("gram,expected", FALLBACK_POSITIVE)
def test_find_positive_fallback_lattices(gram, expected):
    n = len(gram)
    assert all(gram[i][i] <= 0 for i in range(n))
    assert all(
        gram[i][i] + gram[j][j] + 2 * s * gram[i][j] <= 0
        for i in range(n)
        for j in range(i + 1, n)
        for s in (1, -1)
    )
    lat = Lattice(gram)
    assert find_positive(lat) == expected
    assert norm(lat, expected) > 0


def _diagonal_grams():
    """The seeded and degenerate Grams the diagonalization is checked on."""
    grams = [tuple((0,) * n for _ in range(n)) for n in range(9)]
    grams += [((0, 1, 0), (1, 0, 0), (0, 0, 0)), ((0, 0, 1), (0, 0, 0), (1, 0, 0)),
              ((0, 1), (1, 0)), ((0, 1, 0), (1, 0, 2), (0, 2, -2))]
    grams += [g for g, _ in FALLBACK_POSITIVE]
    for seed in range(12):
        rng = random.Random(seed)
        for n in range(9):
            grams.append(_random_symmetric(rng, n))
            grams.append(_random_symmetric(rng, n, zero_diagonal=True))
            grams.append(_random_symmetric(rng, n, -1, 1))
            if n:
                grams.append(_with_radical(rng, n, rng.randint(1, n)))
    return grams


def test_diagonal_steps_are_the_rows_of_symmetric_diagonalize():
    for gram in _diagonal_grams():
        diag, basis = la.symmetric_diagonalize(gram)
        rows = list(zip(diag, basis))
        for k in range(len(gram) + 1):
            # a fresh generator stopped after k steps gives the first k rows
            assert list(islice(la.diagonal_steps(gram), k)) == rows[:k], (gram, k)


def _find_positive_reference(lat):
    """find_positive's rule with the whole Gram diagonalized."""
    if signature(lat)[0] == 0:
        return None
    g, n = lat.gram, lat.rank
    for i in range(n):
        if g[i][i] > 0:
            return lat.basis_vector(i)
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                if g[i][i] + g[j][j] + 2 * s * g[i][j] > 0:
                    return tuple((1 if k == i else (s if k == j else 0)) for k in range(n))
    diag, basis = la.symmetric_diagonalize(g)
    return primitivize(basis[next(i for i in range(n) if diag[i] > 0)])


def test_find_positive_matches_the_full_diagonalization():
    k3 = k3_lattice()
    rng = random.Random(2020)
    lattices = [Lattice(g) for g, _ in FALLBACK_POSITIVE]
    for _ in range(200):
        w = sample_positive_primitive(rng, k3)
        lattices.append(lag_lattice(k3, w).as_lattice())
    for lat in lattices:
        assert find_positive(lat) == _find_positive_reference(lat), lat.gram


def test_find_positive_asks_the_signature_last(monkeypatch):
    # a positive basis vector or pair answers without a diagonalization; the
    # signature is asked, and decides None, only when neither exists
    calls = []
    monkeypatch.setattr(enumeration, "signature", lambda lat: calls.append(lat) or signature(lat))
    k3 = k3_lattice()
    rng = random.Random(2402)
    lattices = [Lattice(g) for g, _ in FALLBACK_POSITIVE] + [Lattice(g) for g in _diagonal_grams()]
    for _ in range(100):
        lattices.append(lag_lattice(k3, sample_positive_primitive(rng, k3)).as_lattice())
    seen = set()
    for lat in lattices:
        g, n = lat.gram, lat.rank
        early = any(g[i][i] > 0 for i in range(n)) or any(
            g[i][i] + g[j][j] + 2 * s * g[i][j] > 0
            for i in range(n) for j in range(i + 1, n) for s in (1, -1)
        )
        del calls[:]
        got = find_positive(lat)
        assert got == _find_positive_reference(lat), g
        assert calls == ([] if early else [lat]), g
        seen.add("early" if early else "none" if got is None else "pivot")
    assert seen == {"early", "pivot", "none"}


def test_integral_row_and_rational_direction_match_fraction_reference(monkeypatch):
    rng = random.Random(1801)
    cases = [(), (0, 0, 0), (Fraction(0), Fraction(0, 5)), (3, -6, 9),
             (Fraction(-4, 6), 2, Fraction(5, 3)), (0.5, Fraction(1, 3), -2)]
    for _ in range(200):
        n = rng.randint(1, 8)
        cases.append(tuple(rng.randint(-9, 9) for _ in range(n)))
        cases.append(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)))
    for row in cases:
        ref = fraction_clear(row)
        got = la.integral_row(row)
        assert got == ref and all(type(x) is int for x in got)
        g = 0
        for x in ref:
            g = gcd(g, x)
        assert rational_direction(row) == (tuple(x // g for x in ref) if g else ref)

    # ints and Fractions are cleared without making a Fraction
    class Made(Exception):
        pass

    def refuse(x):
        raise Made(x)

    monkeypatch.setattr(la, "Fraction", refuse)
    assert la.integral_row((Fraction(1, 2), 3, Fraction(-2, 3))) == (3, 18, -4)
    with pytest.raises(Made):
        la.integral_row((0.5, 1))
