import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lag.errors import RankMismatch
from k3lag.exact import MarkerPoly
from k3lag.lattice import (
    FormalVector,
    Isometry,
    Lattice,
    Sublattice,
    direct_sum,
    e8_lattice,
    from_diagonal,
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


def test_inner_formal_collapses_to_zero(U3):
    # (e3+f3) + eps*t1*e1 paired with e1 has no surviving term
    fv = FormalVector(v6(0, 0, 0, 0, 1, 1), Fraction(1, 2), ((1, v6(1, 0)),))
    poly = inner(U3, fv, v6(1, 0))
    assert isinstance(poly, MarkerPoly)
    assert poly == 0
    # pairing with f1 keeps the marker term: eps * t1 * (e1.f1)
    poly2 = inner(U3, fv, v6(0, 1))
    assert poly2.coefficient([1]) == Fraction(1, 2)
    assert poly2.constant_term() == 0


def test_inner_formal_formal_degree(U3):
    fv = FormalVector(v6(0, 0, 1, 1), Fraction(1, 3), ((1, v6(1, 0)), (2, v6(0, 1))))
    sq = inner(U3, fv, fv)
    # constant = (e2+f2)^2, cross terms eps*(..), quadratic term 2*eps^2*t1*t2
    assert sq.constant_term() == 2
    assert sq.coefficient([1, 2]) == 2 * Fraction(1, 3) ** 2


def test_saturate_examples(U):
    s = Sublattice.from_generators(U, [(2, 0)])
    assert saturate(U, s).basis == ((1, 0),)
    s2 = Sublattice.from_generators(U, [(1, 1), (1, -1)])
    assert saturate(U, s2).is_full()
    assert sublattice_index(s2, saturate(U, s2)) == 2
    s3 = Sublattice.from_generators(U, [(1, 0)])
    assert saturate(U, s3) == s3


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


def test_inner_formal_plain_both_orders(U3):
    # f = (e1 + 2 f2) + 1/3 (t1 e3 + t4 (f1 - e2)), y = 2 e1 + f1 - 3 f2 + e3 + f3:
    # (e1 + 2 f2).y = 1, e3.y = 1, (f1 - e2).y = 2 + 3
    fv = FormalVector(
        v6(1, 0, 0, 2), Fraction(1, 3), ((1, v6(0, 0, 0, 0, 1)), (4, v6(0, 1, -1)))
    )
    y = v6(2, 1, 0, -3, 1, 1)
    expected = MarkerPoly({(): 1, ((1, 1),): Fraction(1, 3), ((4, 1),): Fraction(5, 3)})
    assert inner(U3, fv, y) == expected
    assert inner(U3, y, fv) == expected
    # a plain vector of the wrong length is refused in either order
    with pytest.raises(RankMismatch):
        inner(U3, fv, (1, 0))
    with pytest.raises(RankMismatch):
        inner(U3, (1, 0), fv)
