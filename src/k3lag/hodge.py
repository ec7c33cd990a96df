"""Exact period bookkeeping and rotation-phase arithmetic.

Period data is a pair (theta, omega) with theta.theta = 0, theta.conj > 0,
omega orthogonal to theta, stored with exact rational coordinates. The unit
phase zeta is irrational in general and never materialized: only zeta^2 and
sign functionals in which |c| cancels are computed, keeping everything in Q
(a GaussianRational is a plain {re, im} record). All outputs are invariant
under positive rescaling of theta and omega: rational data is admissible.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from . import intlinalg as la
from .errors import (
    FormalOmegaUnsupported,
    InvalidPeriod,
    NotLagrangian,
    RankMismatch,
    TypeOneOne,
    printable,
)
from .lattice import FormalVector, Lattice, Sublattice, inner, norm, orth_complement

QVec = Tuple[Fraction, ...]


@dataclass(frozen=True)
class GaussianRational:
    """An element re + im * i of Q(i), stored as exact real and imaginary parts."""

    re: Fraction
    im: Fraction


@dataclass(frozen=True)
class PeriodData:
    """Exact rational period direction plus a Kaehler direction."""

    host: Lattice
    theta_re: QVec
    theta_im: QVec
    omega: Union[QVec, FormalVector]

    def __post_init__(self):
        tr = tuple(Fraction(c) for c in self.theta_re)
        ti = tuple(Fraction(c) for c in self.theta_im)
        object.__setattr__(self, "theta_re", tr)
        object.__setattr__(self, "theta_im", ti)
        if self.omega_is_rational:
            object.__setattr__(self, "omega", tuple(Fraction(c) for c in self.omega))
        if (len(self.omega) if self.omega_is_rational else self.omega.rank) != self.host.rank:
            raise RankMismatch("omega rank differs from host rank")
        if len(tr) != self.host.rank or len(ti) != self.host.rank:
            raise RankMismatch("theta rank differs from host rank")

    @property
    def omega_is_rational(self) -> bool:
        return not isinstance(self.omega, FormalVector)


@dataclass(frozen=True)
class RotationPhase:
    """c = gamma.theta and zeta^2 = conj(c)/c, the same for either root zeta."""

    c: GaussianRational
    zeta_squared: GaussianRational


def validate_period(p: PeriodData) -> Tuple[str, ...]:
    """Check every period identity exactly and return the ones checked;
    raise InvalidPeriod on the first violated one.

    Every identity is homogeneous, so theta_re and theta_im are cleared to
    integers over one shared denominator (their squares are compared) and
    a rational omega over its own; a formal omega is checked vector by vector.
    """
    checked = []
    lat = p.host

    def check(name: str, ok: bool):
        if not ok:
            raise InvalidPeriod(name)
        checked.append(name)

    theta = la.integral_row(p.theta_re + p.theta_im)
    tr, ti = theta[: lat.rank], theta[lat.rank :]
    check("theta_re.theta_im = 0", inner(lat, tr, ti) == 0)
    check("theta_re^2 = theta_im^2", norm(lat, tr) == norm(lat, ti))
    check("theta.conj(theta) > 0", norm(lat, tr) + norm(lat, ti) > 0)
    vecs = (la.integral_row(p.omega),) if p.omega_is_rational else p.omega.vectors
    check("omega != 0", any(map(any, vecs)))
    check("omega.theta_re = 0", all(inner(lat, v, tr) == 0 for v in vecs))
    check("omega.theta_im = 0", all(inner(lat, v, ti) == 0 for v in vecs))
    if p.omega_is_rational:  # the sign of a formal omega^2 is undefined
        check("omega^2 > 0", norm(lat, vecs[0]) > 0)
    return tuple(checked)


def phase_square(p: PeriodData, gamma) -> RotationPhase:
    """c = gamma.theta and zeta^2 = conj(c)/c in lowest terms, from the closed
    form ((a^2 - b^2) - 2ab i) / (a^2 + b^2) for c = a + bi."""
    if not p.omega_is_rational:
        raise FormalOmegaUnsupported(
            "phase and rotation operations need a rational omega"
        )
    validate_period(p)
    val = inner(p.host, gamma, p.omega)
    if val != 0:
        raise NotLagrangian(f"gamma.omega = {printable(val)} must be 0")
    a = Fraction(inner(p.host, gamma, p.theta_re))
    b = Fraction(inner(p.host, gamma, p.theta_im))
    if a == 0 == b:
        g2 = norm(p.host, gamma)
        raise TypeOneOne(
            "gamma.theta = 0: gamma is already of type (1,1)"
            + (
                "; with gamma^2 >= -2 a Lagrangian such class must be 0"
                if g2 >= -2
                else ""
            ),
            gamma_square=g2,
        )
    n = a * a + b * b
    zeta_squared = GaussianRational((a * a - b * b) / n, -2 * a * b / n)
    return RotationPhase(GaussianRational(a, b), zeta_squared)


def rotated_picard(p: PeriodData, gamma) -> Sublattice:
    """Integral classes of type (1,1) after rotating gamma to type (1,1).

    These are the x with x.omega = 0 and Im(conj(c)(x.theta)) = 0 for
    c = a + bi = gamma.theta; |c| cancels, so this is the orthogonal
    complement of omega and a theta_im - b theta_re, each cleared to an
    integer vector. Always contains gamma.
    """
    phase = phase_square(p, gamma)
    a, b = phase.c.re, phase.c.im
    rot = tuple(a * ti - b * tr for tr, ti in zip(p.theta_re, p.theta_im))
    return orth_complement(p.host, [la.integral_row(p.omega), la.integral_row(rot)])


def kahler_sign(p: PeriodData, gamma, x, root_choice: int = 1) -> int:
    """Exact sign of x . Re(zeta * theta) for the selected root of zeta^2.

    With zeta = root_choice * conj(c)/|c| this is
    root_choice * sign(Re(conj(c)(x.theta))); only the sign survives the
    irrational normalization.
    """
    if root_choice not in (1, -1):
        raise ValueError("root_choice must be +1 or -1")
    phase = phase_square(p, gamma)
    lat = p.host
    a, b = phase.c.re, phase.c.im
    val = a * Fraction(inner(lat, x, p.theta_re)) + b * Fraction(
        inner(lat, x, p.theta_im)
    )
    if val > 0:
        return root_choice
    if val < 0:
        return -root_choice
    return 0
