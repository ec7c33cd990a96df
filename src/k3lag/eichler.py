"""Eichler transvections and canonical forms for primitive vectors.

Hosts must carry the block shape U + U + R with R even unimodular (the K3
lattice in its fixed coordinate order qualifies). A primitive vector w with
w.w = 2d >= 0 is carried onto e1 + d*f1 by an explicit composition of
transvections and U-block isometries; the isometry is returned and can be
re-verified exactly. The Eichler formula is the walker's rank-2 update,
which the public transvection applies to the identity. With e1, f1, e2, f2
as coordinates 0..3, every Euclid step of the walk is one move rule,
bump(i, j, m) = E(e_{i^1}, m e_j), the formula's O(n) case on the U blocks:
it adds m (w.e_j) to w.e_i. Orthogonal positive/isotropic witnesses are
pulled back from the second hyperbolic block.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Tuple

from . import intlinalg as la
from .errors import (
    DegenerateLattice,
    ImpossibleState,
    NegativeNorm,
    NotIsotropic,
    NotOrthogonal,
    NotPositive,
    NotPrimitive,
    ParityFailure,
    UnsupportedLattice,
    printable,
)
from .lattice import Isometry, Lattice, gram_row, inner, is_primitive, norm
from .lattice import _gram_inverse

IntVec = Tuple[int, ...]


@dataclass(frozen=True)
class CanonicalFormResult:
    """An isometry g with g(w) = e1 + d*f1 and 2d = w.w."""

    g: Isometry
    d: int
    target: IntVec


def transvection(lat: Lattice, u, a) -> Isometry:
    """The Eichler map x -> x + (x.a)u - (x.u)a - (a.a/2)(x.u)u."""
    uv = la.int_vector(u)
    av = la.int_vector(a)
    if norm(lat, uv) != 0:
        raise NotIsotropic(f"u.u = {printable(norm(lat, uv))} must be 0")
    if inner(lat, uv, av) != 0:
        raise NotOrthogonal(f"u.a = {printable(inner(lat, uv, av))} must be 0")
    if norm(lat, av) % 2:
        raise ParityFailure("a.a must be even")
    st = _Walker(lat, uv)
    st.transvect(uv, av)
    return Isometry(st.g)


def require_two_hyperbolic_blocks(lat: Lattice) -> None:
    """Check the U + U + (even unimodular) block shape this module needs."""
    n = lat.rank
    g = lat.gram
    if n < 4:
        raise UnsupportedLattice("rank < 4: no leading U + U block")
    u = ((0, 1), (1, 0))
    for off in (0, 2):
        block = tuple(tuple(g[off + i][off + j] for j in range(2)) for i in range(2))
        if block != u:
            raise UnsupportedLattice("leading blocks are not hyperbolic planes")
    for i in range(4):
        for j in range(n):
            same_block = (j < 2) == (i < 2) and j < 4
            if not same_block and g[i][j] != 0:
                raise UnsupportedLattice("U blocks are not split off orthogonally")
    if any(g[i][i] % 2 for i in range(4, n)):
        raise UnsupportedLattice("orthogonal rest is not even")
    try:  # U + U splits off orthogonally, so |det rest| = |det lat|: cached
        _gram_inverse(lat)
    except DegenerateLattice:
        raise UnsupportedLattice("orthogonal rest is not unimodular") from None


class _Walker:
    """Mutable state for the canonical-form walk.

    Tracks the moving vector w and the accumulated isometry g. A general
    transvection (rest-block moves, endgame) is a rank-2 row update of g,
    O(n^2); a bump stays in the U blocks and changes two entries of w and
    two rows of g, O(n). The walk reads only w's pairings with e1, f1, e2,
    f2, which the U blocks give as entries of w (pair).
    """

    def __init__(self, lat: Lattice, w: IntVec):
        self.lat = lat
        self.n = lat.rank
        self.cur = tuple(w)
        self.g: List[List[int]] = [list(r) for r in la.identity(self.n)]

    def pair(self, k: int) -> int:
        """w.e_k for k < 4: the U blocks pair e_k with e_{k^1} only."""
        return self.cur[k ^ 1]

    def transvect(self, u: IntVec, a: IntVec) -> None:
        """w <- E(u, a) w and g <- E(u, a) g."""
        lat = self.lat
        ga = gram_row(lat, a)
        gu = gram_row(lat, u)
        half = la.dot(ga, a) // 2
        xa = la.dot(ga, self.cur)
        xu = la.dot(gu, self.cur)
        self.cur = tuple(
            c + xa * u[i] - xu * a[i] - half * xu * u[i]
            for i, c in enumerate(self.cur)
        )
        # g <- E*g via the rank-2 structure of E
        rag = la.vecmat(ga, self.g)
        rug = la.vecmat(gu, self.g)
        for i in range(self.n):
            ui, ai = u[i], a[i]
            if ui == 0 and ai == 0:
                continue
            row = self.g[i]
            for j in range(self.n):
                row[j] += ui * rag[j] - ai * rug[j] - half * ui * rug[j]

    def bump(self, i: int, j: int, m: int) -> None:
        """The walk's move E(e_{i^1}, m e_j): it adds m (w.e_j) to w.e_i.

        i and j index e1, f1, e2, f2 (0..3) with j != i; e_{i^1} is the
        isotropic partner of e_i, so w.e_i is the pairing that moves. On the
        U blocks it is x -> x + m x_{j^1} e_{i^1} - m x_i e_j, in O(n).
        """
        c, g = list(self.cur), self.g
        c[i ^ 1] += m * c[j ^ 1]
        c[j] -= m * c[i]
        self.cur = tuple(c)
        g[i ^ 1] = [x + m * y for x, y in zip(g[i ^ 1], g[j ^ 1])]
        g[j] = [x - m * y for x, y in zip(g[j], g[i])]

    def negate_u1(self) -> None:
        self.cur = (-self.cur[0], -self.cur[1]) + self.cur[2:]
        self.g[0] = [-x for x in self.g[0]]
        self.g[1] = [-x for x in self.g[1]]

    def swap_u1(self) -> None:
        self.cur = (self.cur[1], self.cur[0]) + self.cur[2:]
        self.g[0], self.g[1] = self.g[1], self.g[0]


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _euclid(st: _Walker, i: int, j: int) -> None:
    """Drive w.e_j to 0, leaving w.e_i = +-gcd, by bump(i, j) / bump(j, i) moves."""
    while True:
        x = st.pair(j)
        if x == 0:
            return
        q = st.pair(i)
        if q == 0:
            st.bump(i, j, 1)
            st.bump(j, i, -1)
            return
        if abs(x) >= abs(q):
            st.bump(j, i, -_trunc_div(x, q))
        else:
            st.bump(i, j, -_trunc_div(q, x))


def canonical_target(n: int, d: int) -> IntVec:
    """e1 + d*f1 in the coordinates of a rank-n host."""
    return tuple(1 if i == 0 else (d if i == 1 else 0) for i in range(n))


def canonical_form(lat: Lattice, w) -> CanonicalFormResult:
    """Carry a primitive w with w.w >= 0 onto e1 + (w.w/2) f1."""
    require_two_hyperbolic_blocks(lat)
    wv = la.int_vector(w)
    if len(wv) != lat.rank:
        raise NotPrimitive("vector length differs from lattice rank")
    if not any(wv) or not is_primitive(wv):
        raise NotPrimitive("w must be a primitive nonzero vector")
    w2 = norm(lat, wv)
    if w2 < 0:
        raise NegativeNorm(f"w.w = {printable(w2)} is not supported")
    d = w2 // 2
    n = lat.rank
    target = canonical_target(n, d)
    if wv == target:
        return CanonicalFormResult(Isometry.identity(n), d, target)

    st = _Walker(lat, wv)

    def zero_u2() -> None:
        # a pass that leaves the second block dirty must have strictly shrunk
        # |w.e1| (only w.e1-reductions re-pollute), so this terminates
        while True:
            before = abs(st.pair(0))
            _euclid(st, 0, 2)
            _euclid(st, 0, 3)
            if st.pair(2) == 0 and st.pair(3) == 0:
                return
            if before != 0 and abs(st.pair(0)) >= before:
                raise ImpossibleState("second hyperbolic block failed to clear")

    # each full pass folds another pairing into gcd position; a stalled pass
    # would force w.e1 to divide every pairing, contradicting primitivity
    while abs(st.pair(0)) != 1:
        start = abs(st.pair(0))
        zero_u2()
        if abs(st.pair(0)) == 1:
            break
        z = st.cur[4:]
        if any(z):
            # pull the content of the rest component into w.e2 (w.f2 is 0, so
            # the rest component itself is untouched), then fold into w.e1
            st.transvect(lat.basis_vector(3), _rest_gcd_vector(lat, z))
            _euclid(st, 0, 2)
            zero_u2()
            if abs(st.pair(0)) == 1:
                break
        if st.pair(1) != 0:
            st.bump(2, 1, 1)  # w.e2 += w.f1; safe since w.f2 = 0
            _euclid(st, 0, 2)
            zero_u2()
        if abs(st.pair(0)) == start:
            raise ImpossibleState("no progress: input cannot be primitive")

    if st.pair(0) == -1:
        st.negate_u1()
    if st.pair(0) != 1:
        raise ImpossibleState("unit pairing lost before endgame")
    rest_component = (0, 0) + st.cur[2:]
    if any(rest_component):
        st.transvect(lat.basis_vector(0), rest_component)
    if st.cur != target:
        st.swap_u1()
    if st.cur != target:
        raise ImpossibleState("endgame did not reach the canonical vector")
    return CanonicalFormResult(Isometry(st.g), d, target)


def _rest_gcd_vector(lat: Lattice, z: IntVec) -> IntVec:
    """a in the rest block with z.a = gcd content of z, embedded in the host."""
    n = lat.rank
    rest_gram = tuple(tuple(lat.gram[i][j] for j in range(4, n)) for i in range(4, n))
    gz = la.matvec(rest_gram, z)
    g, coeffs = la.gcd_combination(gz)
    if g != gcd(*z):
        raise ImpossibleState("rest block pairing content mismatch")
    return (0, 0, 0, 0) + coeffs


def _block_witnesses(
    lat: Lattice, w: IntVec
) -> Tuple[IntVec, IntVec, CanonicalFormResult]:
    """(v, ell, canonical_form(lat, w)) with v = g^{-1}(e2 + f2), ell = g^{-1}(e2).

    g^{-1} = G^{-1} g^T G is applied to e2 and f2 by matrix-vector products
    (G e_i is row i of G); the inverse isometry is never formed.
    """
    w2 = norm(lat, w)
    if w2 <= 0:
        raise NotPositive(f"w.w = {printable(w2)} must be positive")
    res = canonical_form(lat, w)
    ginv = _gram_inverse(lat)
    ell, u = (la.matvec(ginv, la.vecmat(lat.gram[i], res.g.matrix)) for i in (2, 3))
    v = tuple(a + b for a, b in zip(ell, u))
    if witness_failures(lat, w, v, ell):
        raise ImpossibleState("orthogonal witnesses failed their contract")
    return v, ell, res


def witness_failures(lat: Lattice, w, v, ell) -> List[str]:
    """How (v, ell) breaks the orth_witnesses contract for w; empty if it holds."""
    failures = []
    if norm(lat, ell) != 0 or not any(ell) or not is_primitive(ell):
        failures.append("ell is not a primitive nonzero isotropic vector")
    if inner(lat, ell, w) != 0:
        failures.append("ell.w != 0")
    if norm(lat, v) != 2 or inner(lat, v, w) != 0:
        failures.append("v fails its contract")
    return failures


def orth_witnesses(lat: Lattice, w) -> Tuple[IntVec, IntVec]:
    """(v, ell) with v.v = 2, ell.ell = 0, ell nonzero primitive, both _|_ w."""
    v, ell, _ = _block_witnesses(lat, la.int_vector(w))
    return v, ell
