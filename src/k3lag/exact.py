"""Small exact-arithmetic helpers: Gaussian rationals and integer vectors.

Everything in this package is computed over Z or Q with zero tolerance; this
module supplies the one value type the standard library lacks.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable

from . import intlinalg as la


@dataclass(frozen=True)
class GaussianRational:
    """An element of Q(i), stored as exact real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n = other.norm_squared()
        if n == 0:
            raise ZeroDivisionError("division by Gaussian rational zero")
        num = self * other.conjugate()
        return GaussianRational(num.re / n, num.im / n)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


def content(coords: Iterable[int]) -> int:
    """gcd of the coordinates (0 for the zero vector)."""
    g = 0
    for c in coords:
        g = gcd(g, c)
    return g


def primitivize(coords) -> tuple:
    """Divide an integer vector by its content. Zero vectors pass through."""
    g = content(coords)
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
