"""Small exact-arithmetic helpers: Gaussian rationals and integer vectors.

Everything in this package is computed over Z or Q with zero tolerance; this
module supplies the one value type the standard library lacks, a Gaussian
rational, as a plain {re, im} record: zeta^2 comes from a closed form
(hodge.phase_square), so no arithmetic on it is needed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import intlinalg as la


@dataclass(frozen=True)
class GaussianRational:
    """An element re + im * i of Q(i), stored as exact real and imaginary parts."""

    re: Fraction
    im: Fraction


def primitivize(coords) -> tuple:
    """Divide an integer vector by the gcd of its entries. Zero vectors pass through."""
    g = gcd(*coords)
    if g <= 1:
        return tuple(int(c) for c in coords)
    return tuple(int(c) // g for c in coords)


def rational_direction(coords) -> tuple:
    """Primitive integer vector spanning the same ray as a rational vector.

    Scales by a positive rational only, so direction-dependent data (signs,
    orthogonality) is preserved exactly.
    """
    return primitivize(la.integral_row(coords))


def sign_normalized(coords) -> tuple:
    """Flip the sign so that the first nonzero coordinate is positive."""
    for c in coords:
        if c > 0:
            return tuple(coords)
        if c < 0:
            return tuple(-x for x in coords)
    return tuple(coords)
