"""Small exact-arithmetic value types: Gaussian rationals and marker polynomials.

Everything in this package is computed over Z or Q with zero tolerance; this
module supplies the two value types the standard library lacks.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Tuple, Union

from . import intlinalg as la

Rational = Union[int, Fraction]

# A monomial is a sorted tuple of (marker index, exponent) pairs; () is 1.
Monomial = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class GaussianRational:
    """An element of Q(i), stored as exact real and imaginary parts."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, re: Rational, im: Rational = 0) -> "GaussianRational":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

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


class MarkerPoly:
    """Polynomial in formal markers t_i with exact rational coefficients.

    The markers stand for reals such that {1, t_1, ..., t_m} is linearly
    independent over Q, so a pairing vanishes iff every coefficient does.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Monomial, Rational] | None = None):
        cleaned = {}
        for mono, c in (coeffs or {}).items():
            c = Fraction(c)
            if c != 0:
                cleaned[tuple(sorted(mono))] = c
        self.coeffs = cleaned

    @classmethod
    def constant(cls, value: Rational) -> "MarkerPoly":
        return cls({(): Fraction(value)})

    @classmethod
    def term(cls, value: Rational, markers: Iterable[int]) -> "MarkerPoly":
        counts: dict[int, int] = {}
        for m in markers:
            counts[m] = counts.get(m, 0) + 1
        mono = tuple(sorted(counts.items()))
        return cls({mono: Fraction(value)})

    def __add__(self, other: "MarkerPoly") -> "MarkerPoly":
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return MarkerPoly(out)

    def __neg__(self) -> "MarkerPoly":
        return MarkerPoly({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "MarkerPoly") -> "MarkerPoly":
        return self + (-other)

    def scaled(self, factor: Rational) -> "MarkerPoly":
        return MarkerPoly({m: c * factor for m, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(m == () for m in self.coeffs)

    def constant_term(self) -> Fraction:
        return self.coeffs.get((), Fraction(0))

    def coefficient(self, markers: Iterable[int]) -> Fraction:
        counts: dict[int, int] = {}
        for m in markers:
            counts[m] = counts.get(m, 0) + 1
        return self.coeffs.get(tuple(sorted(counts.items())), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MarkerPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_term() == other
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "MarkerPoly(0)"
        parts = []
        for mono, c in sorted(self.coeffs.items()):
            factors = "*".join(
                f"t{i}" if e == 1 else f"t{i}^{e}" for i, e in mono
            )
            parts.append(f"{c}" + (f"*{factors}" if factors else ""))
        return "MarkerPoly(" + " + ".join(parts) + ")"


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
