import random

import pytest

from k3lag.eichler import (
    _Walker,
    canonical_form,
    orth_witnesses,
    require_two_hyperbolic_blocks,
    transvection,
)
from k3lag.errors import (
    NegativeNorm,
    NotIsotropic,
    NotOrthogonal,
    NotPositive,
    NotPrimitive,
    UnsupportedLattice,
)
from k3lag.lattice import (
    Isometry,
    direct_sum,
    from_diagonal,
    gram_row,
    hyperbolic_plane,
    inner,
    norm,
)

from conftest import sample_positive_primitive, v22


@pytest.fixture(scope="module")
def UU():
    u = hyperbolic_plane()
    return direct_sum(u, u)


def test_transvection_identity_for_zero_a(UU):
    t = transvection(UU, (1, 0, 0, 0), (0, 0, 0, 0))
    assert t.matrix == Isometry.identity(4).matrix


def test_transvection_example(UU):
    # u = e1, a = e2: f2 -> f2 + e1 and f1 -> f1 - e2
    t = transvection(UU, (1, 0, 0, 0), (0, 0, 1, 0))
    assert t.apply((0, 0, 0, 1)) == (1, 0, 0, 1)
    assert t.apply((0, 1, 0, 0)) == (0, 1, -1, 0)
    assert t.preserves(UU)


def test_transvection_fixes_u(UU):
    rng = random.Random(3)
    for _ in range(20):
        a = (0, 0, rng.randint(-3, 3), rng.randint(-3, 3))
        t = transvection(UU, (1, 0, 0, 0), a)
        assert t.apply((1, 0, 0, 0)) == (1, 0, 0, 0)
        assert t.preserves(UU)


def test_transvection_preconditions(UU):
    with pytest.raises(NotIsotropic):
        transvection(UU, (1, 1, 0, 0), (0, 0, 1, 0))
    with pytest.raises(NotOrthogonal):
        transvection(UU, (1, 0, 0, 0), (0, 1, 0, 0))


def test_block_shape_check(U, K3):
    require_two_hyperbolic_blocks(K3)
    with pytest.raises(UnsupportedLattice):
        require_two_hyperbolic_blocks(U)
    with pytest.raises(UnsupportedLattice):
        require_two_hyperbolic_blocks(direct_sum(U, from_diagonal([-2, -2])))
    # the rest behind U + U: odd, then even but not unimodular (det -2, det 0)
    with pytest.raises(UnsupportedLattice, match="not even"):
        require_two_hyperbolic_blocks(direct_sum(U, U, from_diagonal([-1])))
    for diag in ([-2], [0], [-2, -2]):
        with pytest.raises(UnsupportedLattice, match="not unimodular"):
            require_two_hyperbolic_blocks(direct_sum(U, U, from_diagonal(diag)))
    require_two_hyperbolic_blocks(direct_sum(U, U))


def test_canonical_form_trivial_cases(K3):
    res = canonical_form(K3, v22(1, 1))
    assert res.d == 1 and res.g.matrix == Isometry.identity(22).matrix
    assert res.target == v22(1, 1)
    res = canonical_form(K3, v22(1))
    assert res.d == 0 and res.g.matrix == Isometry.identity(22).matrix


def test_canonical_form_mixed_vector(K3):
    w = v22(1, 1, 1, 1)
    res = canonical_form(K3, w)
    assert res.d == 2
    assert res.g.apply(w) == v22(1, 2)
    assert res.g.preserves(K3)


def test_canonical_form_rejects(K3):
    with pytest.raises(NotPrimitive):
        canonical_form(K3, v22(2, 2))
    with pytest.raises(NotPrimitive):
        canonical_form(K3, v22())
    with pytest.raises(NegativeNorm):
        canonical_form(K3, v22(1, -1))


def test_canonical_form_on_uu_host(UU):
    # the walk also runs on the minimal U+U host
    res = canonical_form(UU, (0, 0, 1, 1))
    assert res.d == 1 and res.g.apply((0, 0, 1, 1)) == (1, 1, 0, 0)
    assert res.g.preserves(UU)


def test_canonical_form_gather_paths(K3):
    # w.e1 = 3 with the rest of the content sitting in a definite block:
    # the walk must pull that content through the second U block
    w = v22(2, 3, 0, 0, 0, 0, 1)
    assert norm(K3, w) == 10
    res = canonical_form(K3, w)
    assert res.g.apply(w) == res.target and res.g.preserves(K3)
    # no definite-block component, but gcd(w.e1, w.f1) = 1 needs the
    # first-block gather
    w = v22(2, 3)
    res = canonical_form(K3, w)
    assert res.g.apply(w) == v22(1, 6) and res.g.preserves(K3)
    # isotropic vector away from the canonical position
    w = v22(0, 0, 0, 1)
    res = canonical_form(K3, w)
    assert res.d == 0 and res.g.apply(w) == v22(1) and res.g.preserves(K3)


def test_canonical_form_random(K3):
    rng = random.Random(20240811)
    for _ in range(60):
        w = sample_positive_primitive(rng, K3, lo=-1, hi=200)
        n2 = norm(K3, w)
        res = canonical_form(K3, w)
        assert 2 * res.d == n2
        assert res.g.apply(w) == res.target
        assert res.g.preserves(K3)


def test_bump_is_one_transvection(K3):
    # bump(i, j, m) = E(e_{i^1}, m e_j) on the walk's state, for every (i, j)
    # the walk moves by; each starts from a walker some moves away from w
    rng = random.Random(1717)
    moves = ((0, 2), (2, 0), (0, 3), (3, 0), (2, 1))
    for _ in range(8):
        w = sample_positive_primitive(rng, K3)
        for i, j in moves:
            for m in range(-3, 4):
                st = _Walker(K3, w)
                for _ in range(3):
                    st.bump(*rng.choice(moves), rng.choice((-2, -1, 1, 2)))
                g0, cur, prow = Isometry(st.g), st.cur, gram_row(K3, st.cur)
                st.bump(i, j, m)
                a = tuple(m * c for c in K3.basis_vector(j))
                e = transvection(K3, K3.basis_vector(i ^ 1), a)
                g = Isometry(st.g)
                assert g == e.compose(g0), (w, i, j, m)
                assert g.preserves(K3)
                assert st.cur == g.apply(w)
                now = gram_row(K3, st.cur)
                assert [st.pair(k) for k in range(4)] == list(now[:4]), (w, i, j, m)
                dp = {k: y - x for k, (x, y) in enumerate(zip(prow, now)) if y != x}
                want = {i: m * prow[j], j ^ 1: -m * prow[i ^ 1]}
                assert dp == {k: v for k, v in want.items() if v}, (w, i, j, m)
                assert {k for k, (x, y) in enumerate(zip(cur, st.cur)) if y != x} <= {i ^ 1, j}


def test_bump_leaves_the_state_of_transvect(K3):
    # bump(i, j, m) on seeded walks leaves cur and g exactly as the general
    # rank-2 update transvect(e_{i^1}, m e_j) does, for every j != i
    rng = random.Random(2022)
    pairs = [(i, j) for i in range(4) for j in range(4) if j != i]
    for _ in range(20):
        w = sample_positive_primitive(rng, K3)
        fast, slow = _Walker(K3, w), _Walker(K3, w)
        for _ in range(12):
            i, j = rng.choice(pairs)
            m = rng.choice((-3, -2, -1, 1, 2, 3))
            fast.bump(i, j, m)
            slow.transvect(K3.basis_vector(i ^ 1), tuple(m * c for c in K3.basis_vector(j)))
            assert fast.cur == slow.cur and fast.g == slow.g, (w, i, j, m)


def test_orth_witnesses_fixtures(K3):
    v, ell = orth_witnesses(K3, v22(1, 1))
    assert v == v22(0, 0, 1, 1) and ell == v22(0, 0, 1)
    v, ell = orth_witnesses(K3, v22(1, 3))
    assert v == v22(0, 0, 1, 1) and ell == v22(0, 0, 1)


def test_orth_witnesses_contract_random(K3):
    rng = random.Random(77)
    for _ in range(100):
        w = sample_positive_primitive(rng, K3)
        v, ell = orth_witnesses(K3, w)
        assert norm(K3, v) == 2
        assert norm(K3, ell) == 0
        assert inner(K3, v, w) == 0
        assert inner(K3, ell, w) == 0
        assert any(ell)


def test_orth_witnesses_requires_positive(K3):
    with pytest.raises(NotPositive):
        orth_witnesses(K3, v22(1))
