import random
from fractions import Fraction

import pytest

from k3lag import intlinalg as la
from k3lag.criteria import lag_lattice
from k3lag.errors import (
    FormalOmegaUnsupported,
    InvalidPeriod,
    NotLagrangian,
    TypeOneOne,
)
from k3lag.hodge import (
    PeriodData,
    kahler_sign,
    phase_square,
    rotated_picard,
    validate_period,
)
from k3lag.lattice import FormalVector, Sublattice, gram_row, inner, norm

from conftest import fraction_clear, v6


@pytest.fixture()
def toy(U3):
    # theta = (e1+f1) + i(e2+f2), omega = e3+f3
    return PeriodData(U3, v6(1, 1), v6(0, 0, 1, 1), v6(0, 0, 0, 0, 1, 1))


def test_validate_toy(toy):
    assert validate_period(toy) == (
        "theta_re.theta_im = 0",
        "theta_re^2 = theta_im^2",
        "theta.conj(theta) > 0",
        "omega != 0",
        "omega.theta_re = 0",
        "omega.theta_im = 0",
        "omega^2 > 0",
    )


def test_validate_degenerate_theta(U3):
    p = PeriodData(U3, v6(1, 0), v6(), v6(0, 0, 0, 0, 1, 1))
    with pytest.raises(InvalidPeriod) as exc:
        validate_period(p)
    assert "theta.conj(theta)" in exc.value.reason


def test_validate_isotropic_omega(U3):
    # omega = e1 is orthogonal to theta = (e2+f2) + i(e3+f3) but has square 0
    p = PeriodData(U3, v6(0, 0, 1, 1), v6(0, 0, 0, 0, 1, 1), v6(1, 0))
    with pytest.raises(InvalidPeriod) as exc:
        validate_period(p)
    assert exc.value.reason == "omega^2 > 0"


def test_validate_nonorthogonal_omega(U3):
    p = PeriodData(U3, v6(1, 1), v6(0, 0, 1, 1), v6(1, 0, 0, 0, 1, 1))
    with pytest.raises(InvalidPeriod) as exc:
        validate_period(p)
    assert "omega.theta_re" in exc.value.reason


def test_validate_unequal_norms(U3):
    p = PeriodData(U3, v6(1, 1), v6(0, 0, 2, 2), v6(0, 0, 0, 0, 1, 1))
    with pytest.raises(InvalidPeriod) as exc:
        validate_period(p)
    assert exc.value.reason == "theta_re^2 = theta_im^2"


def test_validate_mixed_denominators(U3, toy):
    # theta_re^2 = 1/2 against theta_im^2 = 2; clearing each on its own
    # would compare e1+f1 with e2+f2 and pass
    half = Fraction(1, 2)
    p = PeriodData(U3, v6(half, half), v6(0, 0, 1, 1), v6(0, 0, 0, 0, 1, 1))
    with pytest.raises(InvalidPeriod) as exc:
        validate_period(p)
    assert exc.value.reason == "theta_re^2 = theta_im^2"
    third = Fraction(1, 3)
    p = PeriodData(U3, v6(half, half), v6(0, 0, half, half), v6(0, 0, 0, 0, third, third))
    assert validate_period(p) == validate_period(toy)
    assert len(validate_period(p)) == 7


def test_validate_formal_omega(U3):
    # theta = (e1+f1) + i(e2+f2); a formal omega is checked through its base
    # and every term, and has no positivity identity
    def period(base, *terms):
        fv = FormalVector(base, Fraction(1, 2), tuple(enumerate(terms, 1)))
        return PeriodData(U3, v6(1, 1), v6(0, 0, 1, 1), fv)

    assert validate_period(period(v6(0, 0, 0, 0, 1, 1), v6(0, 0, 0, 0, 1, -1))) == (
        "theta_re.theta_im = 0",
        "theta_re^2 = theta_im^2",
        "theta.conj(theta) > 0",
        "omega != 0",
        "omega.theta_re = 0",
        "omega.theta_im = 0",
    )
    for p, reason in [
        (period(v6(0, 0, 0, 0, 1, 1), v6(1, 0)), "omega.theta_re = 0"),
        (period(v6(0, 0, 0, 0, 1, 1), v6(0, 0, 1, 0)), "omega.theta_im = 0"),
        (period(v6()), "omega != 0"),
        (period(v6(), v6()), "omega != 0"),
    ]:
        with pytest.raises(InvalidPeriod) as exc:
            validate_period(p)
        assert exc.value.reason == reason


def test_phase_square_fixtures(toy):
    ph = phase_square(toy, v6(1, 0))
    assert (ph.c.re, ph.c.im) == (1, 0)
    assert (ph.zeta_squared.re, ph.zeta_squared.im) == (1, 0)
    ph = phase_square(toy, v6(0, 0, 1, 0))
    assert (ph.c.re, ph.c.im) == (0, 1)
    assert (ph.zeta_squared.re, ph.zeta_squared.im) == (-1, 0)
    ph = phase_square(toy, v6(1, 0, 1, 0))
    assert (ph.c.re, ph.c.im) == (1, 1)
    assert (ph.zeta_squared.re, ph.zeta_squared.im) == (0, -1)


def test_phase_square_modulus_one(toy):
    rng = random.Random(11)
    for _ in range(25):
        gamma = v6(*(rng.randint(-3, 3) for _ in range(4)))
        try:
            ph = phase_square(toy, gamma)
        except TypeOneOne:
            continue
        z, c = ph.zeta_squared, ph.c
        assert z.re * z.re + z.im * z.im == 1
        # zeta^2 c = conj(c), the product formed by hand
        assert (z.re * c.re - z.im * c.im, z.re * c.im + z.im * c.re) == (c.re, -c.im)


def _gaussian_division(num, den):
    """num / den in Q(i) as a product with conj(den) over |den|^2, term by term."""
    (a, b), (c, d) = num, den
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def test_phase_square_matches_the_gaussian_division(U3):
    # theta = r(e1+f1) + i r(e2+f2) and gamma = a e1 + b e2 give c = r(a + bi),
    # so zeta^2 = conj(c)/c is checked against the division over seeded c
    rng = random.Random(2707)
    cs = [(0, 3), (5, 0), (2, 2), (4, -4), (-3, 3), (-1, -1), (0, -1), (-7, 0)]
    cs += [(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(40)]
    for r in (Fraction(1), Fraction(1, 2), Fraction(3, 7)):
        p = PeriodData(U3, v6(r, r), v6(0, 0, r, r), v6(0, 0, 0, 0, 1, 1))
        for a, b in cs:
            if a == 0 == b:
                continue
            ph = phase_square(p, v6(a, 0, b, 0))
            assert (ph.c.re, ph.c.im) == (r * a, r * b)
            want = _gaussian_division((r * a, -r * b), (r * a, r * b))
            assert (ph.zeta_squared.re, ph.zeta_squared.im) == want, (r, a, b)


def test_phase_square_errors(toy, U3):
    with pytest.raises(NotLagrangian):
        phase_square(toy, v6(0, 0, 0, 0, 1, 0))
    with pytest.raises(TypeOneOne) as exc:
        phase_square(toy, v6(0, 0, 0, 0, 1, -1))
    assert exc.value.payload["gamma_square"] == -2
    fv = FormalVector(v6(0, 0, 0, 0, 1, 1), Fraction(1, 2), ((1, v6(1, 0)),))
    formal = PeriodData(U3, v6(1, 1), v6(0, 0, 1, 1), fv)
    with pytest.raises(FormalOmegaUnsupported):
        phase_square(formal, v6(0, 1))


def test_rotated_picard_fixtures(toy, U3):
    rp = rotated_picard(toy, v6(1, 0))
    expected = Sublattice.from_generators(
        U3, [v6(1, 0), v6(0, 1), v6(0, 0, 1, -1), v6(0, 0, 0, 0, 1, -1)]
    )
    assert rp == expected and rp.rank == 4
    rp2 = rotated_picard(toy, v6(0, 0, 1, 0))
    expected2 = Sublattice.from_generators(
        U3, [v6(0, 0, 1, 0), v6(0, 0, 0, 1), v6(1, -1), v6(0, 0, 0, 0, 1, -1)]
    )
    assert rp2 == expected2


def test_rotated_picard_basis_satisfies_conditions(toy, U3):
    from k3lag.lattice import inner

    gamma = v6(1, 0, 1, 0)
    rp = rotated_picard(toy, gamma)
    a = inner(U3, gamma, toy.theta_re)
    b = inner(U3, gamma, toy.theta_im)
    for row in rp.basis:
        assert inner(U3, row, toy.omega) == 0
        assert a * inner(U3, row, toy.theta_im) == b * inner(U3, row, toy.theta_re)


def test_rotated_picard_contains_gamma(toy):
    rng = random.Random(23)
    for _ in range(25):
        gamma = v6(*(rng.randint(-3, 3) for _ in range(4)))
        try:
            rp = rotated_picard(toy, gamma)
        except TypeOneOne:
            continue
        assert rp.contains(gamma)


def test_kahler_sign_fixtures(toy):
    assert kahler_sign(toy, v6(1, 0), v6(1, 0), 1) == 1
    assert kahler_sign(toy, v6(1, 0), v6(0, 0, 1, -1), 1) == 0
    assert kahler_sign(toy, v6(1, 0), v6(1, 0), -1) == -1


def test_kahler_sign_antisymmetric_in_root(toy):
    rng = random.Random(37)
    for _ in range(25):
        gamma = v6(rng.randint(-2, 2), rng.randint(-2, 2))
        x = v6(*(rng.randint(-3, 3) for _ in range(6)))
        try:
            plus = kahler_sign(toy, gamma, x, 1)
        except TypeOneOne:
            continue
        assert kahler_sign(toy, gamma, x, -1) == -plus


def test_scale_invariance(toy, U3):
    rng = random.Random(101)
    gamma = v6(1, 0, 1, 0)
    base_phase = phase_square(toy, gamma)
    base_picard = rotated_picard(toy, gamma)
    base_sign = kahler_sign(toy, gamma, v6(2, 1, 0, 1), 1)
    for _ in range(20):
        s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = PeriodData(
            U3,
            tuple(s * c for c in toy.theta_re),
            tuple(s * c for c in toy.theta_im),
            tuple(t * c for c in toy.omega),
        )
        ph = phase_square(scaled, gamma)
        assert ph.zeta_squared == base_phase.zeta_squared
        assert rotated_picard(scaled, gamma) == base_picard
        assert kahler_sign(scaled, gamma, v6(2, 1, 0, 1), 1) == base_sign


def _row_formula_picard(p, gamma):
    # reference: the Fraction Gram rows of omega and of the row formula
    # (gamma.theta_re) theta_im - (gamma.theta_im) theta_re, each cleared,
    # and their joint integer kernel
    lat = p.host
    a = Fraction(inner(lat, gamma, p.theta_re))
    b = Fraction(inner(lat, gamma, p.theta_im))
    g_tr, g_ti = gram_row(lat, p.theta_re), gram_row(lat, p.theta_im)
    rows = [
        fraction_clear(gram_row(lat, p.omega)),
        fraction_clear([a * ti - b * tr for tr, ti in zip(g_tr, g_ti)]),
    ]
    return Sublattice(lat, la.int_kernel(rows, lat.rank))


@pytest.mark.parametrize("host_name", ["U3", "K3"])
def test_rotated_picard_matches_row_formula(host_name, U3, K3):
    # theta = (p e1 + q f1) + i (r e2 + (pq/r) f2), omega = u e3 + v f3 (+ an
    # E8 part on K3), with rational p, q, r, u, v: theta.theta = 0 and
    # omega is orthogonal to theta by construction
    host = U3 if host_name == "U3" else K3
    rng = random.Random(1803)

    def q():
        return Fraction(rng.randint(1, 9), rng.randint(1, 6))

    checked = 0
    while checked < 30:
        p_, q_, r_ = q(), q(), q() * rng.choice((1, -1))
        theta_re = [Fraction(0)] * host.rank
        theta_im = [Fraction(0)] * host.rank
        theta_re[0], theta_re[1] = p_, q_
        theta_im[2], theta_im[3] = r_, p_ * q_ / r_
        omega = [Fraction(0)] * host.rank
        omega[4], omega[5] = q(), q()
        for i in rng.sample(range(6, host.rank), min(2, host.rank - 6)):
            omega[i] = Fraction(rng.randint(-2, 2), rng.randint(1, 6))
        if norm(host, omega) <= 0:
            continue
        period = PeriodData(host, theta_re, theta_im, omega)
        sub = lag_lattice(host, omega)
        gamma = sub.to_host([rng.randint(-2, 2) for _ in range(sub.rank)])
        try:
            got = rotated_picard(period, gamma)
        except TypeOneOne:
            continue
        assert got == _row_formula_picard(period, gamma)
        assert got.contains(gamma)
        checked += 1
