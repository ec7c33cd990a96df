"""JSON wire format.

All integers travel as decimal strings of at most
sys.get_int_max_str_digits() digits, rationals as "p/q" strings, Gaussian
rationals as {re, im} objects, Gram matrices and vectors as arrays of
decimal strings. One encoder, enc, turns library values into that form
(canonical: keys are sorted at dump time); the decoders validate types and,
given a length, the length of every vector before any computation and raise
InputError with a machine-readable code.
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .hodge import GaussianRational
from .lattice import (
    FormalVector,
    Lattice,
    Sublattice,
    e8_lattice,
    hyperbolic_plane,
    k3_lattice,
)

_INT_RE = re.compile(r"^-?\d+$")
_FRAC_RE = re.compile(r"^-?\d+(/\d+)?$")

NAMED_LATTICES = {
    "U": hyperbolic_plane,
    "E8": e8_lattice,
    "K3": k3_lattice,
}


class InputError(Exception):
    """Malformed input document; mapped to exit code 2."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(message or code)
        self.code = code


def enc(value):
    """Wire form of a library value.

    ints become decimal strings and Fractions "p/q"; tuples and lists become
    arrays and dicts objects, encoded entry by entry; a Lattice becomes its
    gram object, a Sublattice its basis, a GaussianRational an {re, im}
    object and a FormalVector a {base, eps, terms} object. Strings, booleans,
    None and floats pass through, so values already in wire form are kept.
    """
    if value is None or isinstance(value, (bool, str, float)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (tuple, list)):
        # type(), not isinstance: a bool entry stays a boolean
        return [str(x) if type(x) is int else enc(x) for x in value]
    if isinstance(value, dict):
        return {k: enc(v) for k, v in value.items()}
    if isinstance(value, Lattice):
        return {"gram": enc(value.gram)}
    if isinstance(value, Sublattice):
        return enc(value.basis)
    if isinstance(value, GaussianRational):
        return {"re": enc(Fraction(value.re)), "im": enc(Fraction(value.im))}
    if isinstance(value, FormalVector):
        terms = [{"marker": i, "vector": v} for i, v in value.terms]
        return enc({"base": value.base, "eps": value.eps, "terms": terms})
    raise TypeError(f"no wire form for {type(value).__name__}")


def _too_large(what: str) -> InputError:
    limit = sys.get_int_max_str_digits()  # int() and Fraction() refuse longer strings
    return InputError("integer_too_large", f"{what}: an integer has more than {limit} digits")


def dec_int(value, what: str = "integer") -> int:
    if isinstance(value, str) and _INT_RE.match(value):
        try:
            return int(value)
        except ValueError:
            raise _too_large(what)
    raise InputError("bad_integer", f"{what}: expected a decimal string, got {value!r}")


def dec_frac(value, what: str = "rational") -> Fraction:
    if isinstance(value, str) and _FRAC_RE.match(value):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise InputError("bad_rational", f"{what}: zero denominator")
        except ValueError:
            raise _too_large(what)
    raise InputError("bad_rational", f"{what}: expected 'p/q' string, got {value!r}")


def _sized(vec: tuple, n, what: str) -> tuple:
    if n is not None and len(vec) != n:
        raise InputError("bad_shape", f"{what}: expected {n} entries, got {len(vec)}")
    return vec


def dec_ivec(value, what: str = "vector", n=None) -> tuple:
    """Integer vector, of length n when n is given."""
    if not isinstance(value, list):
        raise InputError("bad_vector", f"{what}: expected an array")
    return _sized(tuple(dec_int(c, what) for c in value), n, what)


def dec_qvec(value, what: str = "vector", n=None) -> tuple:
    """Rational vector, of length n when n is given."""
    if not isinstance(value, list):
        raise InputError("bad_vector", f"{what}: expected an array")
    return _sized(tuple(dec_frac(c, what) for c in value), n, what)


def dec_matrix(value, what: str = "matrix", n=None) -> tuple:
    """Integer matrix, every row of length n when n is given."""
    if not isinstance(value, list):
        raise InputError("bad_matrix", f"{what}: expected an array of arrays")
    return tuple(dec_ivec(row, what, n) for row in value)


def dec_gram(value) -> tuple:
    rows = dec_matrix(value, "gram")
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise InputError("gram_not_square", "gram matrix must be square")
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise InputError("gram_not_symmetric", "gram matrix must be symmetric")
    return rows


def dec_lattice(spec, what: str = "lattice") -> Lattice:
    """A named lattice ("U", "E8", "K3") or {"gram": [[...]]}."""
    if isinstance(spec, str):
        maker = NAMED_LATTICES.get(spec)
        if maker is None:
            raise InputError(
                "unknown_lattice", f"{what}: unknown name {spec!r}; use U, E8 or K3"
            )
        return maker()
    if isinstance(spec, dict) and "gram" in spec:
        return Lattice(dec_gram(spec["gram"]))
    raise InputError("bad_lattice", f"{what}: expected a name or a gram object")


def dec_formal(value, what: str = "formal vector", n=None) -> FormalVector:
    """Formal vector whose base and term vectors have length n when n is given."""
    if not isinstance(value, dict) or "base" not in value:
        raise InputError("bad_formal", f"{what}: expected base/eps/terms object")
    base = dec_qvec(value["base"], what, n)
    eps = dec_frac(value.get("eps", "1/2"), what)
    entries = value.get("terms", [])
    if not isinstance(entries, list):
        raise InputError("bad_formal", f"{what}: terms must be an array")
    terms = []
    for t in entries:
        if not isinstance(t, dict) or "marker" not in t or "vector" not in t:
            raise InputError("bad_formal", f"{what}: bad term entry")
        terms.append((dec_int(t["marker"], what), dec_qvec(t["vector"], what, len(base))))
    try:
        return FormalVector(base=base, eps=eps, terms=tuple(terms))
    except ValueError as exc:
        raise InputError("bad_formal", f"{what}: {exc}")


def dec_omega(value, what: str = "omega", n=None):
    """Rational vector (array) or formal vector (object) of length n."""
    if isinstance(value, list):
        return dec_qvec(value, what, n)
    return dec_formal(value, what, n)


def dumps(doc: dict) -> str:
    """Canonical serialization: deterministic bytes for identical documents."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("bad_json", f"input is not valid JSON: {exc}")
    except ValueError:  # int() refuses a bare number past the digit limit
        raise _too_large("input")
    except RecursionError:
        raise InputError("bad_json", "input is nested too deeply")
    if not isinstance(doc, dict):
        raise InputError("bad_json", "top-level input must be an object")
    return doc


def error_document(code: str, message: str, **extra) -> dict:
    err = {"code": code, "message": message}
    err.update(extra)
    return {"error": err}
