"""Complete, deterministic vector enumeration.

Short vectors in definite lattices and the bounded root slices that drive
the nef reflection walk share one Fincke-Pohst engine, _ellipsoid_points:
one explicit-stack loop (Schnorr-Euchner) over the integer diagonalization
V P V^T = diag of the definite form (la.symmetric_diagonalize, the
elimination behind signatures). The level forms F_k = (V P)_k are integer
rows and the weights 1 / diag_k. The interface is integer too: a caller
passes the centre as an integer vector over one denominator q and the
bound over the same q, so only the lcm of diag_k is scaled away once per
call and the loop runs on ints alone (isqrt bounds, never a float); this
module has no Fraction. Root lists and slices visit only the shell
P(x - c) == bound, short vectors only one point of each +-pair, and a
_Slice yields each root level delta.w = a lazily, in lexicographic order,
as coordinates over one complement of w with integer centres. Also root
reports (one logged elimination per root list) and positive/isotropic
searches.
Completeness is the contract: enumerations return exactly the stated
finite sets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import isqrt, lcm
from typing import Iterator, List, Optional, Tuple

from . import intlinalg as la
from .errors import ImpossibleState, NotNegativeDefinite, NotPositive, printable
from .exact import primitivize, sign_normalized
from .lattice import (
    Lattice,
    Sublattice,
    gram_matrix,
    gram_row,
    norm,
    orth_complement,
    radical,
    signature,
)

IntVec = Tuple[int, ...]


@dataclass(frozen=True)
class Unknown:
    """Honest third answer: no isotropic vector found up to this height."""

    height: int


@dataclass(frozen=True)
class RootReport:
    """All norm -2 vectors of a negative definite lattice.

    roots holds one representative per +-pair (first nonzero coordinate
    positive, lexicographically sorted); generates is true iff their span
    has index 1 in the host. _log holds the row operations that took roots
    to generation_basis, for solves over the roots (la.solve_logged).
    """

    roots: Tuple[IntVec, ...]
    generates: bool
    generation_basis: Optional[Sublattice]
    _log: tuple = field(default=(), repr=False, compare=False)


def _ellipsoid_points(pd, dec, cq, q, top, shell=False, half=False) -> Iterator[IntVec]:
    """Integer points x with P(x - c) <= b for the centre c = cq / q and the
    bound b = top / q (cq an integer vector, q >= 1 and top integers).

    (pd, dec) = (P, (diag, V)) comes from _definite, which has checked that
    P is definite, so callers enumerating several ellipsoids of one form
    diagonalize it once. V P V^T = diag gives P(y) = sum_k F_k(y)^2 / diag_k
    for the integer forms F_k = (V P)_k, and as a definite form needs no
    swap or add move, F_k involves only y_k..y_{n-1}. L_k = F_k(q x - cq) is an
    integer, and with D = lcm(diag_k) and integer weights e_k = D / diag_k,
    P(x - c) <= b reads sum_k e_k L_k^2 <= D q top. The search runs on ints
    alone: level k admits |L_k| <= isqrt(rest // e_k), the exact floor of
    its real condition, so an unreduced q gives the same points in the same
    order. One loop keeps per-level state in place of recursion; levels go
    n-1 down to 0 and values ascend within a level, so the order is
    deterministic.

    With shell, only the x with P(x - c) == b: level 0 takes the whole
    rest, L_0 = +-isqrt(rest // e_0) when that is exact, and no value is
    formed or compared.

    With half (centre 0 only), one point of each +-pair: v >= 0 while every
    outer level is 0, and v > 0 on level 0, so the last nonzero coordinate
    is positive and the origin is never yielded.
    """
    diag, basis = dec
    if half and any(cq):
        raise ValueError("half needs centre 0")
    n = len(diag)
    if top < 0:
        return
    if n == 0:
        if not half and (top == 0 or not shell):
            yield ()
        return
    forms = la.matmul(basis, pd)
    terms = [[(j, f) for j, f in enumerate(forms[k]) if j > k and f] for k in range(n)]
    step = [q * forms[k][k] for k in range(n)]  # L_k = step_k x_k + off_k
    base = [-forms[k][k] * cq[k] for k in range(n)]
    scale = lcm(*diag)
    e = [scale // d for d in diag]
    total = scale * q * top
    e0, s0 = e[0], step[0]

    # per level: x, y = q (x - c), the offset L_k - step_k x_k, the upper value
    # of x, the budget left; with half, the levels >= flat have every outer x 0
    x, y, off, hi, rest = ([0] * n for _ in range(5))
    rest[n - 1], k, flat = total, n - 1, n - 1 if half else n
    while True:
        c = base[k]
        for j, m in terms[k]:
            c += m * y[j]
        left = rest[k]
        r = isqrt(left // e[k])
        if k:
            off[k], hi[k] = c, (r - c) // step[k]
            x[k] = (0 if flat <= k else -((r + c) // step[k])) - 1
        elif shell:
            # e_0 t^2 must take the whole rest: t = -r or r (once if 0)
            if e0 * r * r == left:
                lo = (r or 1) if flat == 0 else -r  # half: only t > 0, never the origin
                for t in range(lo, r + 1, 2 * r or 1):
                    if (t - c) % s0 == 0:
                        x[0] = (t - c) // s0
                        yield tuple(x)
            k = 1
        else:
            for v in range(1 if flat == 0 else -((r + c) // s0), (r - c) // s0 + 1):
                x[0] = v
                yield tuple(x)
            k = 1
        # the next value: back up past exhausted levels, then step down one
        while k < n and x[k] >= hi[k]:
            k += 1
        if k == n:
            return
        v = x[k] = x[k] + 1
        y[k] = q * v - cq[k]
        t = step[k] * v + off[k]
        rest[k - 1] = rest[k] - e[k] * t * t
        if flat <= k:
            flat = k if v else k - 1
        k -= 1


def _definite(gram) -> tuple:
    """(P, la.symmetric_diagonalize(P)), P the reversed, negated Gram. A Gram
    that is not negative definite is refused with its signature, read off the
    same diagonal by Sylvester's law: p = #(diag < 0), n = #(diag > 0)."""
    pd = tuple(tuple(-g for g in row[::-1]) for row in gram[::-1])
    dec = la.symmetric_diagonalize(pd)
    p, n, r = sum(d < 0 for d in dec[0]), sum(d > 0 for d in dec[0]), len(pd)
    if n != r:
        raise NotNegativeDefinite(
            f"lattice has signature {printable((p, n, r - p - n))}, expected (0, {printable(r)}, 0)"
        )
    return pd, dec


def short_vectors(lat: Lattice, bound: int, exact: bool = False) -> List[IntVec]:
    """All x with 0 < -x.x <= bound, one per +-pair, lexicographic.

    Complete: misses nothing within the bound. With exact, only the x with
    -x.x == bound, from the shell enumeration. The engine runs with half on
    the reversed form (outermost level: coordinate 0), so the points come
    out lexicographic, first nonzero coordinate positive, with no sort;
    _definite's one diagonalization first refuses lat unless negative definite.
    """
    pd, dec = _definite(lat.gram)
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    points = _ellipsoid_points(pd, dec, (0,) * lat.rank, 1, bound, shell=exact, half=True)
    return [x[::-1] for x in points]


def roots_generate(lat: Lattice) -> RootReport:
    """All norm -2 roots; one logged elimination gives their span's HNF."""
    if lat.rank == 0:
        # the zero lattice is generated by the empty root set
        return RootReport((), True, None)
    roots = tuple(short_vectors(lat, 2, exact=True))
    if not roots:
        return RootReport((), False, None)
    h, log = [list(r) for r in roots], []
    la._echelon(h, lat.rank, log)
    span = Sublattice._from_hnf(lat, tuple(tuple(r) for r in h if any(r)))
    return RootReport(roots, span.is_full(), span, tuple(log))


def find_positive(lat: Lattice) -> Optional[IntVec]:
    """Some v with v.v > 0, or None iff the signature has p = 0.

    Deterministic: basis vectors, then basis pairs, then the primitive
    part of the first positive row of the integer diagonalization basis,
    from la.diagonal_steps stopped at that pivot. The signature is asked
    last, only when no basis vector or pair is positive (none is when
    p = 0), so a lattice with a positive one is never diagonalized whole.
    """
    g = lat.gram
    n = lat.rank
    for i in range(n):
        if g[i][i] > 0:
            return lat.basis_vector(i)
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                if g[i][i] + g[j][j] + 2 * s * g[i][j] > 0:
                    return tuple(
                        (1 if k == i else (s if k == j else 0)) for k in range(n)
                    )
    if signature(lat)[0] == 0:
        return None
    v = primitivize(next(row for d, row in la.diagonal_steps(g) if d > 0))
    if norm(lat, v) <= 0:
        raise ImpossibleState("diagonalization gave a non-positive vector")
    return v


def find_isotropic(lat: Lattice, height: int = 10):
    """A primitive nonzero vector of square zero, None, or Unknown(height).

    None only when the signature proves none exist; the radical's first row,
    computed only when the signature has z > 0; else visibly isotropic basis
    vectors, then an exhaustive coordinate box scan out to the given height:
    the first x, in product order, of the shells max|x_i| = s = 1..height.
    The scan solves for the last coordinate and steps the one before it.
    A prefix z in [-s, s]^(n-2) and its Gram row r give, for y = (z, u)
    with u in [-s, s], Q(y, t) = a + 2bt + ct^2 with b = b0 + u g[n-2][n-1]
    and a = a0 + u (2 r[n-2] + u g[n-2][n-2]) in O(1), where a0 = Q(z) and
    b0 = r[n-1]; c = g[n-1][n-1] is nonzero (a zero diagonal entry returned
    above), so the integer roots t = (-b +- isqrt(b^2 - ac)) / c are read
    off one quadratic. A root counts if |t| <= s and, unless z holds +-s
    or |u| = s, |t| = s; the smallest counting t is the one product order
    reaches first. So height s costs (2s+1)^(n-2) Gram rows.
    """
    if height < 1:
        raise ValueError("height must be a positive integer")
    p, neg, zero = signature(lat)
    if zero:
        return radical(lat).basis[0]
    if p == 0 or neg == 0:
        return None
    g, n = lat.gram, lat.rank
    for i in range(n):
        if g[i][i] == 0:
            return lat.basis_vector(i)
    # n >= 2 here: a nondegenerate rank-1 form is definite
    c, guu, gut, outer = g[-1][-1], g[-2][-2], g[-2][-1], g[:-2]
    for s in range(1, height + 1):
        for z in product(range(-s, s + 1), repeat=n - 2):
            row = la.vecmat(z, outer) if z else (0,) * n
            a0, ru, b0 = la.dot(z, row[:-2]), 2 * row[-2], row[-1]
            edge = s in z or -s in z
            for u in range(-s, s + 1):
                b = b0 + u * gut
                disc = b * b - (a0 + u * (ru + u * guu)) * c
                if disc < 0:
                    continue
                r = isqrt(disc)
                if r * r != disc:
                    continue
                for t in sorted(num // c for num in {-b - r, -b + r} if num % c == 0):
                    if abs(t) <= s and (abs(t) == s or edge or abs(u) == s):
                        return sign_normalized(primitivize(z + (u, t)))
    return Unknown(height)


@lru_cache(maxsize=1)
def _slice_setup(lat: Lattice, w: IntVec) -> tuple:
    """The w-dependent data of a _Slice, as tuples its instances share. One
    entry serves make_nef's walk and then its final root_slice check; more
    would keep finished walks' data alive. _definite diagonalizes the
    complement's Gram once and refuses a non-definite one on every call.
    """
    comp = orth_complement(lat, [w])
    rows = comp.basis[::-1]
    pd, dec = _definite(gram_matrix(lat, comp.basis))
    den, adj = la.frac_inverse(pd)
    d, sol = la.gcd_combination(gram_row(lat, w))  # d >= 1: w.w > 0, so w's row != 0
    gs = gram_row(lat, sol)
    ts = la.matvec(rows, gs)
    us = la.matvec(adj, ts)  # den u and den (x_a.x_a + t.u) at level d
    r1 = la.dot(gs, sol) * den + la.dot(ts, us)
    cols = tuple(tuple((i, r[j]) for i, r in enumerate(rows) if r[j]) for j in range(len(w)))
    return rows, pd, dec, den, d, sol, us, r1, cols


class _Slice:
    """The root levels delta.w = a of one (lattice, w), in complement coordinates.

    It holds the complement M of w with its HNF rows reversed, the negated
    Gram P of that basis, its diagonalization, one solution s of x.w = d
    (d the content of w's pairing row) and, per host column, the nonzero
    entries of M. Level a = k d is one shell: delta = x_a + c M, x_a = k s,
    has square -2 iff P(c - u) = x_a.x_a + 2 + t.u, t = (x_a.M_i) = k t_s,
    u = P^-1 t; la.frac_inverse gives P^-1 as an integer matrix over its
    least denominator den, so each level's centre and value are integers
    over den. coords(a) yields the c in order and host(x_a, c) builds one
    root, so a caller testing delta.y = x_a.y + c.(M y) builds only the
    roots it keeps. HNF pivots are positive and echelon, so host order is
    lexicographic order of c over the HNF rows; reversed, c_0 is the
    engine's outermost level and levels come out sorted. Slices of one
    (lat, w) built back to back share one _slice_setup; coords starts afresh.
    """

    def __init__(self, lat: Lattice, w: IntVec):
        (self.rows, self.pd, self.dec, self.den, self.d, self.sol, self.us, self.r1,
         self.cols) = _slice_setup(lat, w)

    def anchor(self, a: int) -> IntVec:
        """x_a = (a / d) s, the host point of level a's coordinates."""
        return tuple((a // self.d) * c for c in self.sol)

    def coords(self, a: int) -> Iterator[IntVec]:
        """The c of the roots x_a + c M with delta.w = a, lazily, in order."""
        if a % self.d == 0:
            k, den = a // self.d, self.den
            cq, top = tuple(k * v for v in self.us), k * k * self.r1 + 2 * den
            yield from _ellipsoid_points(self.pd, self.dec, cq, den, top, shell=True)

    def host(self, xa: IntVec, c: IntVec) -> IntVec:
        """The root x_a + c M in host coordinates."""
        return tuple(x + sum(c[i] * m for i, m in col) for x, col in zip(xa, self.cols))

    def level(self, a: int) -> Iterator[IntVec]:
        """The roots with delta.w = a, lazily, in lexicographic order."""
        xa = self.anchor(a)
        return (self.host(xa, c) for c in self.coords(a))


def root_slice(lat: Lattice, w, bound: int) -> List[IntVec]:
    """All roots delta with delta.delta = -2 and 0 < delta.w < bound.

    Requires w.w > 0 with negative definite w-orthogonal complement, which
    makes the slice finite; the listing is complete and lexicographic. The
    levels come from one _Slice, each already sorted; after a make_nef
    walk on (lat, w) it reuses the walk's set-up but enumerates anew.
    """
    wv = la.int_vector(w)
    w2 = norm(lat, wv)  # raises RankMismatch for a w of the wrong length
    if w2 <= 0:
        raise NotPositive(f"w.w = {printable(w2)} must be positive")
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    sl = _Slice(lat, wv)  # its levels off the multiples of d are empty
    return sorted(x for a in range(1, bound) for x in sl.level(a))
