"""Fibration-class pipeline: isotropic witnesses and the nef reflection walk.

An isotropic class orthogonal to a Kaehler-type class is produced through
the canonical form of the second hyperbolic block; a separate walk moves an
isotropic class into the nef chamber by reflecting in norm -2 roots, with
the strictly decreasing pairing trace certifying termination.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .eichler import CanonicalFormResult, _block_witnesses
from .enumeration import _Slice, root_slice
from .errors import (
    ImpossibleState,
    NotIsotropic,
    NotPositive,
    WrongSide,
    ZeroVector,
    printable,
)
from .exact import rational_direction
from .intlinalg import dot, int_vector, matvec
from .lattice import Isometry, Lattice, gram_row, norm

IntVec = Tuple[int, ...]


@dataclass(frozen=True)
class NefWalkResult:
    """Walk outcome: the nef class, the roots used, and the pairing trace.

    pairing_trace starts with the initial ell.omega and appends the value
    after each reflection; it is strictly decreasing and positive, which
    makes termination observable rather than assumed. The final class pairs
    non-negatively with every root in the remaining slice; make_nef checks
    that against the whole root_slice, sharing only the walk's set-up.
    """

    nef_class: IntVec
    reflections: Tuple[IntVec, ...]
    pairing_trace: Tuple[int, ...]


@dataclass(frozen=True)
class SyzReport:
    """Witness record: primitivized input, canonical form, both witnesses."""

    w_primitive: IntVec
    v: IntVec
    ell: IntVec
    canonical: CanonicalFormResult


def reflection(lat: Lattice, delta) -> Isometry:
    """s_delta(x) = x + (x.delta) delta for a norm -2 root; an involution."""
    dv = int_vector(delta)
    if norm(lat, dv) != -2:
        raise ValueError(f"delta.delta = {printable(norm(lat, dv))} must be -2")
    gd = gram_row(lat, dv)
    n = lat.rank
    return Isometry(
        tuple(
            tuple((1 if i == j else 0) + dv[i] * gd[j] for j in range(n))
            for i in range(n)
        )
    )


def make_nef(lat: Lattice, omega, ell) -> NefWalkResult:
    """Reflect ell into the chamber where no slice root pairs negatively.

    Each step scans the root levels a = delta.omega = d, 2d, ... below the
    current ell.omega (the reflected pairing stays positive exactly when
    delta.omega is below that bound), where d is the content of omega's
    pairing row, since no root pairs with omega outside those multiples.
    One _Slice, built once per walk (so an omega whose complement is not
    negative definite is refused whatever ell is), yields each level lazily
    in lexicographic order as complement coordinates c of x_a + c M, tested
    as delta.ell = x_a.ell + c.(M ell); only the root reflected in is built
    in the host. The step stops at the first root with delta.ell < 0: the
    tie-break is minimal delta.omega, then lexicographic order. Later steps
    reuse the coordinates seen and resume the rest. Each step preserves
    ell.ell = 0 and strictly decreases ell.omega, so the walk terminates; a
    root of the final root_slice pairing negatively with the result raises
    ImpossibleState. That check reuses the walk's complement set-up
    (enumeration._slice_setup) but not its levels: it enumerates anew.
    """
    ov = int_vector(omega)
    lv = int_vector(ell)
    w2 = norm(lat, ov)
    if w2 <= 0:
        raise NotPositive(f"omega^2 = {printable(w2)} must be positive")
    row = gram_row(lat, lv)  # the class's pairings: delta.cur = row.x_a + c.tm
    if dot(row, lv) != 0:
        raise NotIsotropic(f"ell^2 = {printable(dot(row, lv))} must be 0")
    pairing = dot(row, ov)
    if pairing <= 0:
        raise WrongSide(f"ell.omega = {printable(pairing)} must be positive")
    sl = _Slice(lat, ov)
    trace = [pairing]
    used = []
    cur = lv
    levels = {}  # a -> (x_a, the c seen, in order, and the rest of the level)
    while True:
        delta = None
        tm = matvec(sl.rows, row)
        for a in range(sl.d, trace[-1], sl.d):
            xa, seen, rest = levels.setdefault(a, (sl.anchor(a), [], sl.coords(a)))
            top = -dot(row, xa)
            hit = next((c for c in seen if dot(tm, c) < top), None)
            if hit is None:
                for c in rest:  # extend the level only up to its first hit
                    seen.append(c)
                    if dot(tm, c) < top:
                        hit = c
                        break
            if hit is not None:
                delta = sl.host(xa, hit)
                break
        if delta is None:
            break
        coupling = dot(row, delta)
        cur = tuple(c + coupling * d for c, d in zip(cur, delta))
        row = gram_row(lat, cur)
        if dot(row, cur) != 0:
            raise ImpossibleState("reflection broke isotropy")
        now = dot(row, ov)
        if not 0 < now < trace[-1]:
            raise ImpossibleState("pairing trace failed to decrease")
        used.append(delta)
        trace.append(now)
    # row pairs with the final class: check it against the whole slice
    if any(dot(row, d) < 0 for d in root_slice(lat, ov, trace[-1])):
        raise ImpossibleState("a root below the final pairing pairs negatively")
    return NefWalkResult(cur, tuple(used), tuple(trace))


def syz_witness(lat: Lattice, w) -> Tuple[IntVec, SyzReport]:
    """Primitive isotropic ell with ell.w = 0 for a Kaehler-type class w.

    Rational input directions are primitivized (positive rescaling only).
    The isotropic witness and the norm-2 companion come from the inverse
    canonical-form isometry applied to the second hyperbolic block, and the
    report records that isometry for callers who want to keep walking.
    """
    wp = rational_direction(w)
    if not any(wp):
        raise ZeroVector("w must be nonzero")
    v, ell, res = _block_witnesses(lat, wp)
    return ell, SyzReport(wp, v, ell, res)
