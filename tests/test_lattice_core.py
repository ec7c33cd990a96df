import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lag import intlinalg as la
from k3lag.errors import RankMismatch
from k3lag.lattice import (
    FormalVector,
    Isometry,
    Lattice,
    Sublattice,
    direct_sum,
    e8_lattice,
    from_diagonal,
    gram_matrix,
    gram_row,
    hyperbolic_plane,
    inner,
    k3_lattice,
    norm,
    orth_complement,
    radical,
    saturate,
    signature,
    sublattice_index,
)

from conftest import v6


def test_named_constructors():
    u = hyperbolic_plane()
    assert u.gram == ((0, 1), (1, 0))
    assert u.even and abs(u.det()) == 1 and signature(u) == (1, 1, 0)
    e8 = e8_lattice()
    assert e8.even and abs(e8.det()) == 1 and signature(e8) == (0, 8, 0)
    k3 = k3_lattice()
    assert k3.rank == 22
    assert k3.even and abs(k3.det()) == 1 and signature(k3) == (3, 19, 0)


def test_gram_validation():
    with pytest.raises(ValueError):
        Lattice(((0, 1), (2, 0)))
    with pytest.raises(ValueError):
        Lattice(((0, 1),))


def test_non_integral_entries_are_refused_not_truncated(K3):
    # int() used to truncate these silently: gram ((1, 1), (1, 0)), rank 0
    with pytest.raises(ValueError):
        Lattice(((Fraction(3, 2), 1), (1, 0.9)))
    half = (Fraction(1, 2),) + (0,) * 21
    with pytest.raises(ValueError):
        Sublattice.from_generators(K3, [half])
    with pytest.raises(ValueError):
        Isometry(((Fraction(1, 2),),))
    with pytest.raises(ValueError):
        from_diagonal([Fraction(-5, 2)])
    with pytest.raises(ValueError):
        Lattice((("1",),))


def test_formal_vector_markers_are_checked():
    base = (1, 0)
    for marker in (Fraction(3, 2), 2.7):
        with pytest.raises(ValueError):
            FormalVector(base, Fraction(1, 3), ((marker, (0, 1)),))
    f = FormalVector(base, Fraction(1, 3), ((Fraction(4, 2), (0, 1)),))
    assert f.terms[0][0] == 2 and type(f.terms[0][0]) is int


def test_formal_vector_builds_each_fraction_once():
    # a Fraction entry is kept, not copied; other entries become Fractions
    half = Fraction(1, 2)
    f = FormalVector((half, 1), Fraction(1, 3), ((1, (0, half)),))
    assert f.base[0] is half and f.terms[0][1][1] is half
    assert all(type(c) is Fraction for c in f.base + f.terms[0][1])


def test_integral_values_are_still_accepted(K3):
    lat = Lattice(((Fraction(4, 2), 1.0), (True, 0)))
    assert lat.gram == ((2, 1), (1, 0))
    assert all(type(x) is int for row in lat.gram for x in row)
    gen = (Fraction(2, 1),) + (0,) * 21
    assert Sublattice.from_generators(K3, [gen]).basis == ((2,) + (0,) * 21,)
    assert Sublattice.full(K3).contains(gen)


def test_non_integral_vector_is_in_no_sublattice(K3):
    half = (Fraction(1, 2),) + (0,) * 21
    assert not Sublattice.zero(K3).contains(half)
    assert Sublattice.full(K3).coords_of(half) is None
    assert half not in Sublattice.full(K3)
    with pytest.raises(RankMismatch):
        Sublattice.full(K3).coords_of((Fraction(1, 2),))


def test_inner_examples(U, E8, U3):
    assert inner(U, (1, 1), (1, 1)) == 2
    alpha1 = tuple(1 if i == 0 else 0 for i in range(8))
    assert inner(E8, alpha1, alpha1) == -2
    with pytest.raises(RankMismatch):
        inner(U, (1, 1, 0), (1, 1))
    # a formal vector pairs through its vectors (x, y_1, ..., y_m).
    # f = (e1 + 2 f2) + 1/3 (t1 e3 + t4 (f1 - e2)), y = 2 e1 + f1 - 3 f2 + e3 + f3:
    # (e1 + 2 f2).y = 1, e3.y = 1, (f1 - e2).y = 2 + 3
    fv = FormalVector(
        v6(1, 0, 0, 2), Fraction(1, 3), ((1, v6(0, 0, 0, 0, 1)), (4, v6(0, 1, -1)))
    )
    y = v6(2, 1, 0, -3, 1, 1)
    assert fv.vectors == (v6(1, 0, 0, 2), v6(0, 0, 0, 0, 1), v6(0, 1, -1))
    assert [inner(U3, v, y) for v in fv.vectors] == [1, 1, 5]
    # (e3 + f3) + 1/2 t1 e1 is orthogonal to e1; with f1 only its term pairs
    fv = FormalVector(v6(0, 0, 0, 0, 1, 1), Fraction(1, 2), ((1, v6(1, 0)),))
    assert [inner(U3, v, v6(1, 0)) for v in fv.vectors] == [0, 0]
    assert [inner(U3, v, v6(0, 1)) for v in fv.vectors] == [0, 1]
    # (e2 + f2) + 1/3 (t1 e1 + t2 f1): base square 2, and e1.f1 = 1 couples t1 t2
    fv = FormalVector(v6(0, 0, 1, 1), Fraction(1, 3), ((1, v6(1, 0)), (2, v6(0, 1))))
    assert gram_matrix(U3, fv.vectors) == ((2, 0, 0), (0, 0, 1), (0, 1, 0))
    # inner and norm take plain vectors only
    with pytest.raises(TypeError):
        inner(U3, fv, y)
    with pytest.raises(TypeError):
        inner(U3, y, fv)
    with pytest.raises(TypeError):
        norm(U3, fv)


def test_saturate_examples(U):
    s = Sublattice.from_generators(U, [(2, 0)])
    assert saturate(U, s).basis == ((1, 0),)
    s2 = Sublattice.from_generators(U, [(1, 1), (1, -1)])
    assert saturate(U, s2).is_full()
    assert sublattice_index(s2, saturate(U, s2)) == 2
    s3 = Sublattice.from_generators(U, [(1, 0)])
    assert saturate(U, s3) == s3


def _saturate_reference(lat, sub):
    """saturate as it was before it read saturation off its pivots:
    kernel(kernel(B)) over the standard dot product, four eliminations."""
    if sub.rank == 0:
        return sub
    perp = la.int_kernel(sub.basis, lat.rank)
    return Sublattice._from_hnf(lat, la.int_kernel(perp, lat.rank))


def _seeded_sublattices(rng, lat, count):
    """Sublattices of lat of every rank from 0 to full: sparse integer rows,
    half of them with one row scaled by 2 or 3."""
    n = lat.rank
    for i in range(count):
        if i % 25 == 0:
            k = 0
        elif i % 25 == 1:
            k = n
        else:
            k = rng.randint(1, n)
        rows = []
        for _ in range(k):
            row = [0] * n
            for j in rng.sample(range(n), rng.randint(1, min(n, 3))):
                row[j] = rng.choice((-2, -1, 1, 1, 2))
            rows.append(row)
        if rows and rng.random() < 0.5:
            rows[0] = [rng.choice((2, 3)) * x for x in rows[0]]
        yield Sublattice.from_generators(lat, rows)


def test_saturate_matches_kernel_of_kernel(monkeypatch):
    hosts = [
        hyperbolic_plane(),
        direct_sum(hyperbolic_plane(), from_diagonal([-2])),
        e8_lattice(),
        k3_lattice(),
    ]
    real, calls = la.hnf_with_transform, []
    monkeypatch.setattr(
        la, "hnf_with_transform", lambda rows, n: calls.append(n) or real(rows, n)
    )
    rng = random.Random(2401)
    seen = set()
    for lat in hosts:
        for sub in _seeded_sublattices(rng, lat, 150):
            expected = _saturate_reference(lat, sub)
            del calls[:]
            got = saturate(lat, sub)
            assert got == expected, (lat.rank, sub.basis)
            if got == sub and sub.rank:
                assert len(calls) == 1  # the unit-pivot exit
            shape = "zero" if not sub.rank else "full" if sub.rank == lat.rank else "part"
            seen.add((shape, got == sub))
    assert seen == {
        ("zero", True), ("part", True), ("part", False), ("full", True), ("full", False)
    }


def test_saturate_zero_and_scaled_sublattices():
    # the zero sublattice goes through the one elimination like any other
    for lat in (Lattice(()), from_diagonal([2]), k3_lattice()):
        zero = Sublattice.zero(lat)
        assert saturate(lat, zero) == zero
    # one row scaled by 2 or 3: the kernel is taken of U's last rows as they are
    rng = random.Random(2502)
    scaled = 0
    for lat in (from_diagonal([2]), k3_lattice()):
        n = lat.rank
        for _ in range(20):
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
            if not any(rows[0]):
                rows[0][0] = 1
            factor = rng.choice((2, 3))
            rows[0] = [factor * x for x in rows[0]]
            sub = Sublattice.from_generators(lat, rows)
            got = saturate(lat, sub)
            assert got == _saturate_reference(lat, sub), (n, rows)
            assert got.rank == sub.rank
            scaled += got != sub
    assert scaled >= 30


def test_orth_complement_examples(U):
    e = Sublattice.from_generators(U, [(1, 0)])
    assert orth_complement(U, e).basis == ((1, 0),)
    ef = Sublattice.from_generators(U, [(1, 1)])
    assert orth_complement(U, ef).basis == ((1, -1),)
    uu = direct_sum(U, U)
    e1 = Sublattice.from_generators(uu, [(1, 0, 0, 0)])
    assert orth_complement(uu, e1).basis == (
        (1, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )


def test_double_complement(U3):
    s = Sublattice.from_generators(U3, [v6(1, 2, 3, 0, 1, 0), v6(0, 1, 1, 1, 0, 0)])
    s = saturate(U3, s)
    assert orth_complement(U3, orth_complement(U3, s)) == s


def test_radical_examples(U):
    assert radical(Lattice(((0,),))).basis == ((1,),)
    assert radical(U).rank == 0
    assert radical(Lattice(((0, 0), (0, -2)))).basis == ((1, 0),)
    # the radical is orthogonal to every sublattice's complement
    deg = Lattice(((0, 0), (0, -2)))
    s = Sublattice.from_generators(deg, [(0, 1)])
    comp = orth_complement(deg, s)
    assert all(comp.contains(r) for r in radical(deg).basis)


def test_signature_examples(U, E8, K3):
    assert signature(U) == (1, 1, 0)
    assert signature(E8) == (0, 8, 0)
    assert signature(K3) == (3, 19, 0)
    assert signature(Lattice(((0, 0), (0, -2)))) == (0, 1, 1)


small_gram = st.integers(min_value=-4, max_value=4)


@st.composite
def symmetric_grams(draw, max_rank=4):
    n = draw(st.integers(min_value=1, max_value=max_rank))
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = draw(small_gram)
    return Lattice(tuple(tuple(r) for r in entries))


@st.composite
def unimodular_changes(draw, n):
    # random product of elementary row operations: always det +-1
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i == j:
            continue
        c = draw(st.integers(min_value=-2, max_value=2))
        for k in range(n):
            m[i][k] += c * m[j][k]
    return tuple(tuple(r) for r in m)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_signature_is_basis_invariant(data):
    lat = data.draw(symmetric_grams())
    g = data.draw(unimodular_changes(lat.rank))
    from k3lag import intlinalg as la

    changed = Lattice(la.matmul(la.matmul(la.transpose(g), lat.gram), g))
    assert signature(changed) == signature(lat)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_saturate_idempotent_and_contains(data):
    lat = data.draw(symmetric_grams())
    n = lat.rank
    rows = data.draw(
        st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            min_size=1,
            max_size=n,
        )
    )
    s = Sublattice.from_generators(lat, rows)
    sat = saturate(lat, s)
    assert saturate(lat, sat) == sat
    for row in s.basis:
        assert sat.contains(row)
    if s.rank == sat.rank and s.rank > 0:
        assert sublattice_index(s, sat) >= 1


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_inner_bilinear_symmetric(data):
    lat = data.draw(symmetric_grams())
    n = lat.rank
    vec = st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n)
    x, y, z = data.draw(vec), data.draw(vec), data.draw(vec)
    c = data.draw(st.integers(min_value=-3, max_value=3))
    assert inner(lat, x, y) == inner(lat, y, x)
    xz = tuple(a + c * b for a, b in zip(x, z))
    assert inner(lat, xz, y) == inner(lat, x, y) + c * inner(lat, z, y)


def test_degenerate_radical_inside_every_complement():
    rng = random.Random(5)
    lat = Lattice(((0, 0, 0), (0, -2, 1), (0, 1, -2)))
    rad = radical(lat)
    for _ in range(10):
        rows = [[rng.randint(-3, 3) for _ in range(3)]]
        s = Sublattice.from_generators(lat, rows)
        comp = orth_complement(lat, s)
        assert all(comp.contains(r) for r in rad.basis)


def test_norm_and_even(E8):
    assert norm(E8, (1, 0, 0, 0, 0, 0, 0, 0)) == -2
    assert from_diagonal([-4]).even
    assert not from_diagonal([-3]).even


@pytest.mark.parametrize("seed", range(6))
def test_as_lattice_equals_full_product(seed, K3):
    # reference: every entry b_i.G.b_j of B G B^T, both triangles computed
    rng = random.Random(seed)
    rows = [
        [rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(K3.rank)]
        for _ in range(rng.randint(0, 8))
    ]
    sub = Sublattice.from_generators(K3, rows)
    full = tuple(tuple(inner(K3, a, b) for b in sub.basis) for a in sub.basis)
    assert sub.as_lattice() == Lattice(full)


def _gram_matrix_reference(lat, vectors):
    """The lower triangle of dot(v_i G, v_j), mirrored."""
    k = len(vectors)
    lower = [[la.dot(gram_row(lat, vectors[i]), vectors[j]) for j in range(i + 1)] for i in range(k)]
    return tuple(tuple(lower[max(i, j)][min(i, j)] for j in range(k)) for i in range(k))


def test_gram_matrix_matches_the_lower_triangle_reference(K3):
    rng = random.Random(2021)
    sparse = lambda: [rng.choice([0, 0, 0, 0, 1, -1, 2]) for _ in range(K3.rank)]
    dense = lambda: [rng.randint(-9, 9) for _ in range(K3.rank)]
    frac = lambda: [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(K3.rank)]
    for make in (sparse, dense, frac):
        for k in range(9):
            vectors = [make() for _ in range(k)]
            got, want = gram_matrix(K3, vectors), _gram_matrix_reference(K3, vectors)
            assert got == want
            kind = Fraction if make is frac else int
            assert all(type(x) is kind for row in got for x in row)
    # the HNF rows of complements, the sparse case gram_matrix is built for
    for _ in range(10):
        basis = orth_complement(K3, [sparse()]).basis
        assert gram_matrix(K3, basis) == _gram_matrix_reference(K3, basis)
    assert gram_matrix(K3, []) == ()


def _preserves_reference(m, lat):
    """Isometry.preserves as first written: g^T G g == G and |det g| == 1."""
    ok = la.matmul(la.matmul(la.transpose(m), lat.gram), m) == lat.gram
    return ok and abs(la.det(m)) == 1


def test_preserves_keeps_det_on_a_degenerate_lattice():
    # on U + <0>, g^T G g = G does not force det g = +-1
    lat = direct_sum(hyperbolic_plane(), from_diagonal([0]))
    g = ((1, 0, 0), (0, 1, 0), (0, 0, 3))
    assert la.matmul(la.matmul(la.transpose(g), lat.gram), g) == lat.gram
    assert not Isometry(g).preserves(lat)
    assert Isometry(((1, 0, 0), (0, 1, 0), (2, -1, -1))).preserves(lat)
    with pytest.raises(ValueError):
        Isometry.identity(3).preserves(hyperbolic_plane())
    with pytest.raises(ValueError):
        Isometry.identity(2).preserves(lat)


def test_preserves_matches_the_reference():
    # seeded reflections, their products, perturbed products and random
    # integer matrices, on nondegenerate and degenerate lattices
    from k3lag.fibration import reflection

    rng = random.Random(523)
    u = hyperbolic_plane()
    lattices = [
        direct_sum(u, e8_lattice()),
        k3_lattice(),
        direct_sum(u, from_diagonal([-2])),
        direct_sum(u, from_diagonal([0]), e8_lattice()),
    ]
    verdicts = []
    for lat in lattices:
        n = lat.rank
        roots = []
        while len(roots) < 6:
            v = tuple(rng.choice((-1, 0, 0, 0, 1)) for _ in range(n))
            if norm(lat, v) == -2:
                roots.append(v)
        mats = [reflection(lat, r).matrix for r in roots]
        for _ in range(6):
            g = la.identity(n)
            for r in rng.sample(roots, rng.randint(2, 4)):
                g = la.matmul(g, reflection(lat, r).matrix)
            mats.append(g)
            bent = [list(row) for row in g]
            bent[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1, 2))
            mats.append(bent)
            mats.append(tuple(tuple(-x for x in row) for row in g))
        for _ in range(6):
            mats.append([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
        for m in mats:
            want = _preserves_reference(la.freeze(m), lat)
            assert Isometry(m).preserves(lat) == want, m
            verdicts.append(want)
    # degenerate U + <0>: g^T G g = G with every corner value z
    lat = direct_sum(u, from_diagonal([0]))
    for _ in range(40):
        a = rng.choice((((1, 0), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, -1))))
        m = (a[0] + (0,), a[1] + (0,), (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-3, 3)))
        want = _preserves_reference(m, lat)
        assert Isometry(m).preserves(lat) == want, m
        verdicts.append(want)
    assert verdicts.count(True) >= 60 and verdicts.count(False) >= 60
