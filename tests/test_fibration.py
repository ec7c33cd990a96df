import random
from itertools import islice

import pytest

from k3lag import enumeration, fibration
from k3lag import intlinalg as la
from k3lag.enumeration import root_slice, short_vectors
from k3lag.errors import (
    ImpossibleState,
    NotIsotropic,
    NotNegativeDefinite,
    NotPositive,
    WrongSide,
    ZeroVector,
)
from k3lag.fibration import NefWalkResult, make_nef, reflection, syz_witness
from k3lag.lattice import (
    direct_sum,
    e8_lattice,
    from_diagonal,
    hyperbolic_plane,
    inner,
    is_primitive,
    norm,
)

from conftest import sample_positive_primitive, v22


def test_reflection_properties(U_minus2):
    delta = (0, 0, 1)
    s = reflection(U_minus2, delta)
    assert s.preserves(U_minus2)
    assert s.apply(delta) == (0, 0, -1)
    # involution
    assert la.matmul(s.matrix, s.matrix) == tuple(
        tuple(1 if i == j else 0 for j in range(3)) for i in range(3)
    )
    with pytest.raises(ValueError):
        reflection(U_minus2, (1, 0, 0))


def test_make_nef_fixture(U_minus2):
    res = make_nef(U_minus2, (3, 2, 1), (1, 1, -1))
    assert res.nef_class == (1, 0, 0)
    assert res.pairing_trace == (7, 3, 2)
    assert res.reflections == ((0, 0, -1), (0, 1, 1))
    # every reflection used is a root and every trace entry is positive
    for d in res.reflections:
        assert norm(U_minus2, d) == -2
    assert all(a > b for a, b in zip(res.pairing_trace, res.pairing_trace[1:]))


def test_make_nef_noop(U_minus2):
    res = make_nef(U_minus2, (3, 2, 1), (1, 0, 0))
    assert res.nef_class == (1, 0, 0)
    assert res.reflections == () and res.pairing_trace == (2,)


def test_make_nef_errors(U_minus2):
    with pytest.raises(WrongSide):
        make_nef(U_minus2, (3, 2, 1), (-1, 0, 0))
    with pytest.raises(NotIsotropic):
        make_nef(U_minus2, (3, 2, 1), (1, 1, 0))
    with pytest.raises(NotPositive):
        make_nef(U_minus2, (1, 0, 0), (0, 1, 0))


def test_make_nef_final_certificate(U_minus2):
    omega = (3, 2, 1)
    res = make_nef(U_minus2, omega, (1, 1, -1))
    final = res.nef_class
    bound = inner(U_minus2, final, omega)
    assert norm(U_minus2, final) == 0 and bound > 0
    # exhaustive: no root in the remaining slice pairs negatively
    for d in root_slice(U_minus2, omega, bound):
        assert inner(U_minus2, d, final) >= 0


def _isotropic_starts(lat, omega, radius):
    box = range(-radius, radius + 1)
    return [
        (a, b, c)
        for a in box
        for b in box
        for c in box
        if (a, b, c) != (0, 0, 0)
        and norm(lat, (a, b, c)) == 0
        and inner(lat, (a, b, c), omega) > 0
    ]


def test_make_nef_walk_soundness_random(U_minus2):
    rng = random.Random(55)
    omega = (3, 2, 1)
    isotropics = _isotropic_starts(U_minus2, omega, 4)
    assert isotropics
    for v in rng.sample(isotropics, min(12, len(isotropics))):
        res = make_nef(U_minus2, omega, v)
        assert norm(U_minus2, res.nef_class) == 0
        assert inner(U_minus2, res.nef_class, omega) > 0
        assert res.pairing_trace[0] == inner(U_minus2, v, omega)


def reference_make_nef(lat, omega, ell):
    """The full-slice walk: enumerate 0 < delta.omega < ell.omega each step
    and take the negative-pairing root of minimal (delta.omega, delta)."""
    cur = tuple(ell)
    trace = [inner(lat, cur, omega)]
    used = []
    while trace[-1] > 1:
        candidates = [
            d for d in root_slice(lat, omega, trace[-1]) if inner(lat, d, cur) < 0
        ]
        if not candidates:
            break
        delta = min(candidates, key=lambda d: (inner(lat, d, omega), d))
        coupling = inner(lat, cur, delta)
        cur = tuple(c + coupling * d for c, d in zip(cur, delta))
        used.append(delta)
        trace.append(inner(lat, cur, omega))
    return NefWalkResult(cur, tuple(used), tuple(trace))


@pytest.mark.parametrize("d", [-2, -4])
def test_make_nef_matches_full_slice_walk_rank3(d):
    lat = direct_sum(hyperbolic_plane(), from_diagonal([d]))
    omega = (3, 2, 1)
    starts = _isotropic_starts(lat, omega, 6)
    assert len(starts) >= 10
    for ell in random.Random(17 - d).sample(starts, 10):
        assert make_nef(lat, omega, ell) == reference_make_nef(lat, omega, ell)


def test_make_nef_matches_full_slice_walk_u_e8():
    e8 = e8_lattice()
    lat = direct_sum(hyperbolic_plane(), e8)
    omega = (3, 2) + (0,) * 8
    rng = random.Random(3)
    short = short_vectors(e8, 4)
    for k, count in ((1, 2), (2, 1)):
        rs = [r for r in short if norm(e8, r) == -2 * k]
        for r in rng.sample(rs, count):
            ell = (k, 1) + r
            res = make_nef(lat, omega, ell)
            assert res == reference_make_nef(lat, omega, ell)
            assert res.pairing_trace[0] == 2 * k + 3


def test_make_nef_content_two_omega_matches_full_slice_walk():
    # omega = (2, 2, 0...) pairs every vector to an even value, so the walk
    # scans only the even levels; the result must not change
    omega3 = (2, 2, 0)
    rank3 = direct_sum(hyperbolic_plane(), from_diagonal([-2]))
    starts = _isotropic_starts(rank3, omega3, 6)
    walks = [
        (rank3, omega3, ell) for ell in random.Random(23).sample(starts, 10)
    ]
    e8 = e8_lattice()
    lat = direct_sum(hyperbolic_plane(), e8)
    short = short_vectors(e8, 4)
    rng = random.Random(29)
    for k in (1, 2):
        rs = [r for r in short if norm(e8, r) == -2 * k]
        walks += [(lat, (2, 2) + (0,) * 8, (k, 1) + r) for r in rng.sample(rs, 2)]
    reflected = 0
    for host, omega, ell in walks:
        res = make_nef(host, omega, ell)
        assert res == reference_make_nef(host, omega, ell)
        reflected += len(res.reflections)
    assert reflected > 0


def test_make_nef_u_e8_pinned_walk():
    # recorded from the full-slice walk, which needs ~18 s for this start
    lat = direct_sum(hyperbolic_plane(), e8_lattice())
    omega = (3, 2) + (0,) * 8
    res = make_nef(lat, omega, (4, 1, 0, 0, 0, 0, 1, -1, 0, -1))
    assert res == NefWalkResult(
        nef_class=(1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        reflections=(
            (1, 0, -2, -2, -3, -4, -3, -3, -2, -1),
            (1, 0, -1, -2, -2, -3, -2, -2, -1, -1),
            (1, 0, 1, 1, 1, 1, 1, 0, 0, 0),
            (1, 0, 2, 3, 4, 6, 5, 4, 3, 1),
            (-1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
        ),
        pairing_trace=(11, 9, 7, 5, 3, 2),
    )


def test_make_nef_refuses_an_indefinite_complement_whatever_the_pairing():
    # omega's complement in U + U has signature (1, 2); the walk used to skip
    # the check when ell.omega = 1 left no level to scan
    lat = direct_sum(hyperbolic_plane(), hyperbolic_plane())
    for ell in ((1, 0, 0, 0), (2, 0, 1, 0)):
        with pytest.raises(NotNegativeDefinite):
            make_nef(lat, (1, 1, 0, 0), ell)


def test_make_nef_pulls_each_level_only_to_its_first_hit(monkeypatch):
    lat = direct_sum(hyperbolic_plane(), e8_lattice())
    omega = (3, 2) + (0,) * 8
    engine = enumeration._ellipsoid_points
    yields = [0]

    def counting(*args, **kwargs):
        for x in engine(*args, **kwargs):
            yields[0] += 1
            yield x

    monkeypatch.setattr(enumeration, "_ellipsoid_points", counting)
    res = make_nef(lat, omega, (4, 1, 0, 0, 0, 0, 1, -1, 0, -1))
    monkeypatch.undo()
    # every shell point is a root: the final check yields its whole slice
    walk = yields[0] - len(root_slice(lat, omega, res.pairing_trace[-1]))
    top = max(inner(lat, d, omega) for d in res.reflections)
    assert walk < len(root_slice(lat, omega, top + 1))


def test_make_nef_builds_a_host_root_only_for_each_reflection(monkeypatch):
    # the walk tests roots in omega's complement coordinates; only the root
    # it reflects in becomes a host vector
    hosts = [0]

    class Counting(fibration._Slice):
        def host(self, xa, c):
            hosts[0] += 1
            return super().host(xa, c)

    monkeypatch.setattr(fibration, "_Slice", Counting)
    lat = direct_sum(hyperbolic_plane(), e8_lattice())
    walks = [((3, 2) + (0,) * 8, (4, 1, 0, 0, 0, 0, 1, -1, 0, -1))]
    e8 = e8_lattice()
    rng = random.Random(31)
    for k, omega in ((1, (3, 1)), (2, (3, 1)), (2, (2, 2))):
        rs = [r for r in short_vectors(e8, 4) if norm(e8, r) == -2 * k]
        walks += [(omega + (0,) * 8, (k, 1) + r) for r in rng.sample(rs, 2)]
    reflected = 0
    for omega, ell in walks:
        hosts[0] = 0
        res = make_nef(lat, omega, ell)
        assert hosts[0] == len(res.reflections), (omega, ell)
        reflected += len(res.reflections)
    assert reflected >= len(walks)


def test_make_nef_final_check_catches_a_dropped_root(U_minus2, monkeypatch):
    class Dropping(fibration._Slice):
        def coords(self, a):  # loses the first root of every level the walk reads
            return islice(super().coords(a), 1, None)

    monkeypatch.setattr(fibration, "_Slice", Dropping)
    with pytest.raises(ImpossibleState):
        make_nef(U_minus2, (3, 2, 1), (1, 1, -1))


def test_syz_witness_fixtures(K3):
    ell, rep = syz_witness(K3, v22(1, 1))
    assert ell == v22(0, 0, 1)
    ell, rep = syz_witness(K3, v22(1, 2))
    assert ell == v22(0, 0, 1)
    # non-primitive input is primitivized first
    ell, rep = syz_witness(K3, v22(2, 2))
    assert rep.w_primitive == v22(1, 1) and ell == v22(0, 0, 1)


def test_syz_witness_rational_input(K3):
    from fractions import Fraction

    w = tuple(Fraction(c, 3) for c in v22(1, 1))
    ell, rep = syz_witness(K3, w)
    assert rep.w_primitive == v22(1, 1) and ell == v22(0, 0, 1)


def test_syz_witness_errors(K3):
    with pytest.raises(ZeroVector):
        syz_witness(K3, v22())
    with pytest.raises(NotPositive):
        syz_witness(K3, v22(1))


def test_syz_witness_random_contract(K3):
    rng = random.Random(2024)
    for _ in range(50):
        w = sample_positive_primitive(rng, K3)
        ell, rep = syz_witness(K3, w)
        assert norm(K3, ell) == 0
        assert inner(K3, ell, w) == 0
        assert any(ell) and is_primitive(ell)
        assert rep.canonical.g.apply(rep.w_primitive) == rep.canonical.target


def test_make_nef_builds_omegas_complement_once_per_walk(monkeypatch):
    # the final root_slice check takes the walk's complement set-up from the
    # one-entry cache, so each walk builds omega's complement once, cold
    builds, checks = [0], [0]
    complement, check = enumeration.orth_complement, fibration.root_slice

    def counting_complement(*args):
        builds[0] += 1
        return complement(*args)

    def counting_check(*args):
        checks[0] += 1
        return check(*args)

    monkeypatch.setattr(enumeration, "orth_complement", counting_complement)
    monkeypatch.setattr(fibration, "root_slice", counting_check)
    lat = direct_sum(hyperbolic_plane(), e8_lattice())
    walks = [
        ((2, 2), (1, 1, 0, 0, 0, 0, 0, 0, 0, 1), 1),
        ((3, 1), (1, 1, 1, 1, 2, 3, 2, 2, 2, 1), 2),
        ((3, 1), (2, 1, 0, 0, 1, 0, 0, 1, 1, 0), 3),
    ]
    for omega, ell, steps in walks:
        enumeration._slice_setup.cache_clear()
        builds[0] = checks[0] = 0
        res = make_nef(lat, omega + (0,) * 8, ell)
        assert len(res.reflections) == steps, (omega, ell)
        assert (builds[0], checks[0]) == (1, 1), (omega, ell)
