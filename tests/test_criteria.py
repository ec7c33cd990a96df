import random
from dataclasses import fields
from fractions import Fraction

import pytest

from k3lag.criteria import (
    ClassifyReport,
    SlagCertificate,
    certificate_for,
    classify,
    decompose_positive,
    lag_lattice,
    positive_from_isotropic,
    realizable,
    realize_witness,
    slag_certificate,
    split_radical,
    verify_certificate,
)
from k3lag.errors import (
    DegenerateLattice,
    HasPositive,
    NotCoupled,
    NotDecomposable,
    NotIsotropic,
    NotLagrangian,
    NotMember,
    NotPositive,
    NotRealizable,
    ZeroOmega,
)
from k3lag.hodge import PeriodData
from k3lag.lattice import (
    FormalVector,
    Lattice,
    Sublattice,
    direct_sum,
    e8_lattice,
    from_diagonal,
    gram_row,
    hyperbolic_plane,
    inner,
    norm,
    signature,
)
from k3lag import criteria
from k3lag import intlinalg as la

from conftest import fraction_clear, v6, v22


@pytest.fixture()
def toy(U3):
    return PeriodData(U3, v6(1, 1), v6(0, 0, 1, 1), v6(0, 0, 0, 0, 1, 1))


# --- lag_lattice ----------------------------------------------------------


def test_lag_lattice_rational(U3):
    sub = lag_lattice(U3, v6(0, 0, 0, 0, 1, 1))
    assert sub.rank == 5
    assert sub == Sublattice.from_generators(
        U3, [v6(1, 0), v6(0, 1), v6(0, 0, 1), v6(0, 0, 0, 1), v6(0, 0, 0, 0, 1, -1)]
    )


def test_lag_lattice_formal(U3):
    fv = FormalVector(v6(0, 0, 0, 0, 1, 1), Fraction(1, 2), ((1, v6(1, 0)),))
    sub = lag_lattice(U3, fv)
    assert sub.rank == 4
    assert sub == Sublattice.from_generators(
        U3, [v6(1, 0), v6(0, 0, 1), v6(0, 0, 0, 1), v6(0, 0, 0, 0, 1, -1)]
    )


def test_lag_lattice_k3_signature(K3):
    sub = lag_lattice(K3, v22(1, 1))
    assert sub.rank == 21
    assert signature(sub.as_lattice()) == (2, 19, 0)


def test_lag_lattice_errors(U3):
    with pytest.raises(ZeroOmega):
        lag_lattice(U3, v6())
    with pytest.raises(NotPositive):
        lag_lattice(U3, v6(1, 0))  # isotropic direction


def _fraction_gram_row_kernel(host, omega):
    # reference: omega's Fraction Gram row, cleared, and its integer kernel
    row = fraction_clear(gram_row(host, tuple(Fraction(c) for c in omega)))
    return Sublattice(host, la.int_kernel([row], host.rank))


@pytest.mark.parametrize("name", ["K3", "U+E8"])
def test_lag_lattice_rational_matches_fraction_gram_row(name, K3):
    host = K3 if name == "K3" else direct_sum(hyperbolic_plane(), e8_lattice())
    rng = random.Random(1802)
    for den in range(1, 7):
        done = 0
        while done < 4:
            omega = [Fraction(0)] * host.rank
            for i in [0, 1] + rng.sample(range(2, host.rank), rng.randint(1, 5)):
                # omega.f1, omega.e1 >= 0 keeps most squares positive
                lo = 0 if i < 2 else -4
                omega[i] = Fraction(rng.randint(lo, 9), rng.randint(1, den))
            if norm(host, omega) <= 0:
                continue
            assert lag_lattice(host, omega) == _fraction_gram_row_kernel(host, omega)
            done += 1


def test_not_positive_reports_the_exact_square(U3):
    with pytest.raises(NotPositive, match=r"omega\^2 = -1/3 must be positive"):
        lag_lattice(U3, v6(0, 0, 0, 0, Fraction(1, 2), Fraction(-1, 3)))
    with pytest.raises(NotPositive, match=r"omega\^2 = -4 must be positive"):
        lag_lattice(U3, v6(0, 0, 0, 0, 2, -1))


# --- decompositions -------------------------------------------------------


def test_decompose_positive_examples(U):
    full = Sublattice.full(U)
    assert decompose_positive(full, (0, 0), (1, 1)) == ((1, 1), (-1, -1), 1)
    assert decompose_positive(full, (1, 0), (1, 1)) == ((2, 2), (-1, -2), 2)
    assert decompose_positive(full, (1, 1), (1, 1)) == ((2, 2), (-1, -1), 2)


def test_decompose_positive_norms(U):
    full = Sublattice.full(U)
    alpha, beta, m = decompose_positive(full, (1, 0), (1, 1))
    assert norm(U, alpha) == 8 and norm(U, beta) == 4 and m == 2


def test_decompose_positive_errors(U, U3):
    full = Sublattice.full(U)
    with pytest.raises(NotPositive):
        decompose_positive(full, (1, 0), (1, 0))
    sub = lag_lattice(U3, v6(0, 0, 0, 0, 1, 1))
    with pytest.raises(NotMember):
        decompose_positive(sub, v6(0, 0, 0, 0, 1, 0), v6(1, 1))


def test_positive_from_isotropic_examples(U):
    full = Sublattice.full(U)
    assert positive_from_isotropic(full, (1, 0), (0, 1)) == ((1, 1), 1)
    assert positive_from_isotropic(full, (1, 0), (0, -1)) == ((-1, -1), -1)
    with pytest.raises(NotCoupled):
        positive_from_isotropic(full, (1, 0), (1, 0))
    with pytest.raises(NotIsotropic):
        positive_from_isotropic(full, (1, 1), (0, 1))


def test_positive_from_isotropic_minimality(U):
    full = Sublattice.full(U)
    # alpha with negative square needs m > 1
    alpha = (-3, 1)  # alpha^2 = -6, delta.alpha = 1
    v, m = positive_from_isotropic(full, (1, 0), alpha)
    assert norm(U, v) > 0 and m == 4
    prev = tuple((m - 1) * d + a for d, a in zip((1, 0), alpha))
    assert norm(U, prev) <= 0


# --- split_radical and classify -------------------------------------------


def test_split_radical_examples():
    rad, n_lat, rows = split_radical(Lattice(((0, 0), (0, -2))))
    assert rad.basis == ((1, 0),) and n_lat.gram == ((-2,),)
    rad, n_lat, rows = split_radical(from_diagonal([-4]))
    assert rad.rank == 0 and n_lat.gram == ((-4,),)
    deg = Lattice(((0, 0, 0), (0, -2, 1), (0, 1, -2)))
    rad, n_lat, rows = split_radical(deg)
    assert rad.rank == 1
    assert signature(n_lat) == (0, 2, 0)
    assert n_lat.gram in (((-2, 1), (1, -2)),)


def test_split_radical_reassembly():
    # mixed radical directions: permuted paddings around an A2 block
    grams = [
        ((0, 0, 0), (0, -2, 1), (0, 1, -2)),
        ((-2, 0, 1), (0, 0, 0), (1, 0, -2)),
        ((-2, 1, 0), (1, -2, 0), (0, 0, 0)),
        ((0, 0, 0, 0), (0, -2, 1, 0), (0, 1, -2, 0), (0, 0, 0, 0)),
    ]
    for g in grams:
        deg = Lattice(g)
        rad, n_lat, rows = split_radical(deg)
        stacked = tuple(rad.basis) + tuple(rows)
        assert abs(la.det(stacked)) == 1
        assert signature(n_lat) == (0, n_lat.rank, 0)
        for r in rad.basis:
            for c in rows:
                assert inner(deg, r, c) == 0


def test_split_radical_rejects_positive(U):
    with pytest.raises(HasPositive) as exc:
        split_radical(U)
    assert norm(U, exc.value.payload["witness"]) > 0


def test_classify_vectors(U, E8):
    rep = classify(U)
    assert rep.case == "PositiveWitness" and rep.equal
    assert norm(U, rep.witness) > 0
    rep = classify(from_diagonal([-4]))
    assert rep.case == "Split" and not rep.roots_generate and not rep.equal
    rep = classify(E8)
    assert rep.case == "Split" and rep.roots_generate and rep.equal
    rep = classify(Lattice(()))
    assert rep.equal


def test_classify_roots_generate_is_derived_from_equal(U, E8):
    assert "roots_generate" not in {f.name for f in fields(ClassifyReport)}
    for lat in (from_diagonal([-4]), E8, Lattice(())):
        rep = classify(lat)
        assert rep.case == "Split" and rep.roots_generate is rep.equal
    rep = classify(U)
    assert rep.case == "PositiveWitness" and rep.roots_generate is None
    with pytest.raises(AttributeError):
        rep.roots_generate = True


def test_non_integral_gamma_is_refused(K3):
    # used to truncate to the zero vector: ok, with the empty certificate
    omega = (1, 1) + (0,) * 20
    sub = lag_lattice(K3, omega)
    gamma = (Fraction(1, 2), Fraction(-1, 2)) + (0,) * 20
    check = verify_certificate(sub, gamma, SlagCertificate((), sub))
    assert not check and "integer" in check.reason
    with pytest.raises(NotMember):
        certificate_for(K3, omega, gamma)
    # an integral Fraction gamma is still certified
    e = (1, -1) + (0,) * 20
    cert = certificate_for(K3, omega, tuple(map(Fraction, e)))
    assert verify_certificate(sub, e, cert)


def test_non_integral_coefficient_is_refused(K3):
    omega = (1, 1) + (0,) * 20
    sub = lag_lattice(K3, omega)
    e = (1, -1) + (0,) * 20
    cert = SlagCertificate(((Fraction(1, 2), tuple(2 * c for c in e)),), sub)
    check = verify_certificate(sub, e, cert)
    assert not check and "non-integral coefficient" in check.reason


def test_classify_positive_means_basis_decomposes(U3):
    sub = lag_lattice(U3, v6(0, 0, 0, 0, 1, 1))
    rep = classify(sub.as_lattice())
    assert rep.case == "PositiveWitness"
    x = sub.to_host(rep.witness)
    for row in sub.basis:
        alpha, beta, _ = decompose_positive(sub, row, x)
        assert norm(U3, alpha) > 0 and norm(U3, beta) > 0
        assert sub.contains(alpha) and sub.contains(beta)


# --- certificates ----------------------------------------------------------


def test_certificate_fixtures(toy, U3):
    cert = slag_certificate(toy, v6(1, 0))
    assert cert.terms == ((1, v6(1, 0)),)
    cert = slag_certificate(toy, v6(1, -2))
    assert cert.terms == ((1, v6(2, 2)), (1, v6(-1, -4)))
    assert [norm(U3, c) for _, c in cert.terms] == [8, 8]
    assert verify_certificate(cert.context, v6(1, -2), cert)
    cert = slag_certificate(toy, v6())
    assert cert.terms == ()
    assert verify_certificate(cert.context, v6(), cert)


def test_certificate_not_lagrangian(toy):
    with pytest.raises(NotLagrangian):
        slag_certificate(toy, v6(0, 0, 0, 0, 1, 0))


def test_certificate_random_roundtrip(toy, U3):
    rng = random.Random(4242)
    sub = lag_lattice(U3, toy.omega)
    for _ in range(40):
        coeffs = [rng.randint(-4, 4) for _ in range(sub.rank)]
        gamma = sub.to_host(coeffs)
        cert = slag_certificate(toy, gamma)
        assert verify_certificate(sub, gamma, cert)


def test_certificate_split_case_with_roots(K3):
    # formal omega realizing Lag = one E8 block: the split branch solves
    # over the finite root list
    e8_rows = [tuple(1 if j == 6 + i else 0 for j in range(22)) for i in range(8)]
    block = Sublattice.from_generators(K3, e8_rows)
    witness, _ = realize_witness(K3, block)
    gamma = v22(*([0] * 6 + [2, -1, 0, 1, 0, 0, 1, 0]))  # deep in the block
    assert norm(K3, gamma) < -2
    cert = certificate_for(K3, witness, gamma)
    sub = lag_lattice(K3, witness)
    assert sub == block
    assert verify_certificate(sub, gamma, cert)
    assert all(norm(K3, cls) == -2 for _, cls in cert.terms)


def test_split_certificate_enumerates_roots_once(K3, monkeypatch):
    # certificate_for reuses the root list classify already holds
    real = criteria.roots_generate
    calls = []

    def counting(lat):
        calls.append(lat)
        return real(lat)

    monkeypatch.setattr(criteria, "roots_generate", counting)
    e8_rows = [tuple(1 if j == 6 + i else 0 for j in range(22)) for i in range(8)]
    witness, _ = realize_witness(K3, Sublattice.from_generators(K3, e8_rows))
    gamma = v22(*([0] * 6 + [2, -1, 0, 1, 0, 0, 1, 0]))
    for expected in (1, 2):
        cert = certificate_for(K3, witness, gamma)
        assert len(calls) == expected
        assert verify_certificate(lag_lattice(K3, witness), gamma, cert)
    rep = classify(lag_lattice(K3, witness).as_lattice())
    assert rep.case == "Split" and rep.root_report.generates
    assert rep.root_report.roots == real(rep.n_part).roots


def test_split_certificate_eliminates_its_root_list_once(monkeypatch):
    # the solve replays the elimination roots_generate logged for the span
    from k3lag.lattice import direct_sum, e8_lattice, hyperbolic_plane

    host = direct_sum(hyperbolic_plane(), e8_lattice())
    omega = (1, 1) + (0,) * 8  # omega-perp = <-2> + E8, the Split case
    gamma = (1, -1, 1) + (0,) * 7  # square -4
    real = la._echelon
    seen = []

    def logging_echelon(work, ncols, log=None):
        seen.append([tuple(r) for r in work])
        return real(work, ncols, log)

    monkeypatch.setattr(la, "_echelon", logging_echelon)
    cert = certificate_for(host, omega, gamma)
    monkeypatch.setattr(la, "_echelon", real)
    assert verify_certificate(lag_lattice(host, omega), gamma, cert)
    rep = classify(lag_lattice(host, omega).as_lattice())
    assert rep.case == "Split" and len(rep.root_report.roots) == 121
    assert seen.count(list(rep.root_report.roots)) == 1


def test_certificate_split_obstruction(U3):
    # Lag = <e1 - 2f1> (square -4, no roots): certificates must refuse
    target = Sublattice.from_generators(U3, [v6(1, -2)])
    witness, _ = realize_witness(U3, target)
    gamma = v6(1, -2)
    with pytest.raises(NotDecomposable):
        certificate_for(U3, witness, gamma)


def test_certificate_mutations_rejected(toy, U3):
    gamma = v6(1, -2)
    cert = slag_certificate(toy, gamma)
    sub = cert.context
    for idx in range(len(cert.terms)):
        for bump in (1, -1):
            terms = list(cert.terms)
            c, cls = terms[idx]
            terms[idx] = (c + bump, cls)
            mutated = SlagCertificate(tuple(t for t in terms if t[0] != 0), sub)
            assert not verify_certificate(sub, gamma, mutated)
    # class with square < -2 is rejected even when sums match
    bad = SlagCertificate(((1, v6(1, -2)),), sub)
    chk = verify_certificate(sub, gamma, bad)
    assert not chk and "square" in chk.reason
    # sum mismatch diagnostic
    off = SlagCertificate(cert.terms[:1], sub)
    chk = verify_certificate(sub, gamma, off)
    assert not chk and chk.reason == "sum mismatch"


def test_rational_period_always_positive_witness(U3, K3):
    # integral primitivization of theta_re is a positive Lagrangian vector
    toyset = [
        PeriodData(U3, v6(1, 1), v6(0, 0, 1, 1), v6(0, 0, 0, 0, 1, 1)),
        PeriodData(U3, v6(2, 1), v6(0, 0, 1, 2), v6(0, 0, 0, 0, 2, 1)),
    ]
    for p in toyset:
        sub = lag_lattice(p.host, p.omega)
        rep = classify(sub.as_lattice())
        assert rep.case == "PositiveWitness"


# --- realizability ---------------------------------------------------------


def test_realizable_e8_block(K3):
    rows = [tuple(1 if j == 6 + i else 0 for j in range(22)) for i in range(8)]
    block = Sublattice.from_generators(K3, rows)
    rep = realizable(K3, block)
    assert rep.ok and rep.witness is not None and rep.eps_bound > 0
    sub = lag_lattice(K3, rep.witness)
    assert sub == block


def test_realizable_rejections(K3, U3):
    assert realizable(K3, Sublattice.full(K3)).failing_condition == "NotProper"
    assert (
        realizable(U3, Sublattice.from_generators(U3, [v6(2, 0)])).failing_condition
        == "NotSaturated"
    )
    # complement without positive vectors: E = <e1+f1>-perp inside U
    host = Lattice(((2, 0), (0, -2)))
    sub = Sublattice.from_generators(host, [(1, 0)])
    rep = realizable(host, sub)
    assert rep.failing_condition == "NoPositiveInComplement"
    with pytest.raises(NotRealizable):
        realize_witness(K3, Sublattice.full(K3))


def test_realize_witness_u3_e1(U3):
    e = Sublattice.from_generators(U3, [v6(1, 0)])
    witness, bound = realize_witness(U3, e)
    assert bound == Fraction(2, 9)
    assert witness.base == tuple(Fraction(c) for c in v6(0, 0, 1, 1))
    assert len(witness.terms) == 5
    # joint kernel identity
    rows = [la.integral_row(gram_row(U3, witness.base))]
    rows += [la.integral_row(gram_row(U3, y)) for _, y in witness.terms]
    assert la.int_kernel(rows, 6) == e.basis


def test_realize_witness_reads_nondegeneracy_off_the_signature(monkeypatch, K3, U3):
    # the host's nondegeneracy is its signature's z = 0: no radical kernel
    def refuse(lat):
        raise AssertionError("realize_witness computed a radical")

    monkeypatch.setattr(criteria, "radical", refuse)
    e8_block = [v22(*[0] * (6 + i), 1) for i in range(8)]
    assert realize_witness(K3, Sublattice.from_generators(K3, e8_block))[1] > 0
    assert realize_witness(U3, Sublattice.from_generators(U3, [v6(1, 0)]))[1] == Fraction(2, 9)
    with pytest.raises(NotRealizable):
        realize_witness(U3, Sublattice.from_generators(U3, [v6(2, 0)]))
    degenerate = direct_sum(hyperbolic_plane(), Lattice(((0,),)))
    with pytest.raises(DegenerateLattice):
        realize_witness(degenerate, Sublattice.from_generators(degenerate, [(1, 0, 0)]))


def test_realize_witness_zero_sublattice(U):
    e = Sublattice.zero(U)
    witness, bound = realize_witness(U, e)
    assert witness.base == (Fraction(1), Fraction(1))
    assert len(witness.terms) == 2 and bound == Fraction(2, 7)
    sub = lag_lattice(U, witness)
    assert sub.rank == 0


def _eps_bound_reference(host, witness):
    """realize_witness's bound with sum |y_i.y_j| taken from Gram rows, as
    before it read the pairings off the complement's Gram."""
    x = la.int_vector(witness.base)
    ys = [la.int_vector(y) for _, y in witness.terms]
    rows = [gram_row(host, v) for v in (x, *ys)]
    cross = sum(abs(la.dot(rows[0], y)) for y in ys)
    pairwise = sum(abs(la.dot(r, y)) for r in rows[1:] for y in ys)
    return min(Fraction(1), Fraction(la.dot(rows[0], x), 2 * cross + pairwise + 1))


def _transvect(host, v, u, a):
    """The Eichler transvection E(u, a) of v, for isotropic u and u.a = 0."""
    va, vu, half = inner(host, v, a), inner(host, v, u), norm(host, a) // 2
    return tuple(x + va * p - vu * q - half * vu * p for x, p, q in zip(v, u, a))


def test_realize_witness_eps_bound_matches_gram_rows(K3, U3):
    # seeded sublattices of U3 and of K3, the K3 ones moved by two Eichler
    # transvections as the benchmark's realize inputs are
    rng = random.Random(2404)
    cases = []
    for _ in range(40):
        rows = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(rng.randint(0, 3))]
        cases.append((U3, Sublattice.from_generators(U3, rows)))
    for _ in range(60):
        rows = [v22(*[0] * i, 1) for i in rng.sample(range(2, 22), rng.randint(1, 5))]
        for block in (0, 1):
            u = v22(*[0] * (2 * block), 1)
            # a: the other U block's e plus a sparse E8 + E8 part, so u.a = 0
            a = v22(*[0] * (2 - 2 * block), 1)[:6] + tuple(
                rng.choice((-1, 0, 0, 0, 1)) for _ in range(16))
            rows = [_transvect(K3, v, u, a) for v in rows]
        cases.append((K3, Sublattice.from_generators(K3, rows)))
    checked = offdiagonal = 0
    for host, e in cases:
        rep = realizable(host, e)
        if not rep.ok:
            continue
        assert rep.eps_bound == _eps_bound_reference(host, rep.witness), e.basis
        checked += 1
        ys = [y for _, y in rep.witness.terms]
        offdiagonal += any(inner(host, y, z) for i, y in enumerate(ys) for z in ys[:i])
    assert checked >= 90 and offdiagonal >= 90


def _vertex_positivity(host, witness, bound):
    # v.v > 0 at every sign pattern t_i = +-1 with eps = bound/2, checked in
    # integers: multiply through by the squared denominator
    x = witness.base
    ys = [y for _, y in witness.terms]
    x2 = inner(host, x, x)
    a = [inner(host, x, y) for y in ys]
    nmat = [[inner(host, yi, yj) for yj in ys] for yi in ys]
    eps = bound / 2
    p, q = eps.numerator, eps.denominator
    m = len(ys)
    for mask in range(1 << m):
        t = [1 if mask & (1 << i) else -1 for i in range(m)]
        s1 = sum(t[i] * a[i] for i in range(m))
        s2 = sum(t[i] * t[j] * nmat[i][j] for i in range(m) for j in range(m))
        value = x2 * q * q + 2 * p * q * s1 + p * p * s2
        if value <= 0:
            return False
    return True


def test_realize_witness_vertex_positivity(U3):
    e = Sublattice.from_generators(U3, [v6(1, 0)])
    witness, bound = realize_witness(U3, e)
    assert _vertex_positivity(U3, witness, bound)


def test_realize_witness_vertex_positivity_e8_block(K3):
    rows = [tuple(1 if j == 6 + i else 0 for j in range(22)) for i in range(8)]
    block = Sublattice.from_generators(K3, rows)
    witness, bound = realize_witness(K3, block)
    assert _vertex_positivity(K3, witness, bound)  # 2^14 sign patterns
