"""Lattices, sublattices and exact bilinear-form computations.

A lattice is a free Z-module with an integer Gram matrix, possibly
degenerate. Sublattices are stored by their canonical row Hermite normal
form, so equality of sublattices is literal equality of matrices; a basis
from outside is checked, one the package just put in HNF is trusted. All
values are immutable and every operation is a pure function.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence, Tuple, Union

from . import intlinalg as la
from .errors import DegenerateLattice, RankMismatch, printable
from .exact import primitivize

# entries kept per memoized lattice function (signature, radical, Gram
# inverse); least recently used lattices are dropped beyond it
CACHE_SIZE = 256

IntVec = Tuple[int, ...]
QVec = Tuple[Fraction, ...]
VectorLike = Sequence[Union[int, Fraction]]


@dataclass(frozen=True)
class Lattice:
    """Free Z-module of finite rank with an integer symmetric Gram matrix."""

    gram: la.IntMatrix

    def __post_init__(self):
        g = la.freeze(self.gram)
        object.__setattr__(self, "gram", g)
        for row in g:
            if len(row) != len(g):
                raise ValueError("gram matrix must be square")
        for i in range(len(g)):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def det(self) -> int:
        return la.det(self.gram)

    def basis_vector(self, i: int) -> IntVec:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def __repr__(self):
        return f"Lattice(rank={self.rank})"


@dataclass(frozen=True)
class FormalVector:
    """x + eps * sum_i t_i y_i with formal markers t_i.

    The markers denote reals with {1, t_1, ..., t_m} linearly independent
    over Q, so z.v = z.x + sum_i (eps z.y_i) t_i vanishes iff z is orthogonal
    to each of its vectors (x, y_1, ..., y_m), for every rational vector z.
    """

    base: QVec
    eps: Fraction
    terms: Tuple[Tuple[int, QVec], ...]

    def __post_init__(self):
        base = _qvec(self.base)
        terms = tuple((la.as_int(i), _qvec(v)) for i, v in self.terms)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "eps", Fraction(self.eps))
        object.__setattr__(self, "terms", terms)
        if self.eps <= 0:
            raise ValueError("eps must be a positive rational")
        markers = [i for i, _ in terms]
        if len(set(markers)) != len(markers):
            raise ValueError("marker indices must be distinct")
        for _, v in terms:
            if len(v) != len(base):
                raise RankMismatch("formal term length differs from base")

    @property
    def rank(self) -> int:
        return len(self.base)

    @property
    def vectors(self) -> Tuple[QVec, ...]:
        """(x, y_1, ..., y_m), the vectors whose pairings decide z.v = 0."""
        return (self.base,) + tuple(y for _, y in self.terms)


def _qvec(v) -> QVec:
    """The entries of v as Fractions; a Fraction entry is kept, not copied."""
    return tuple(c if type(c) is Fraction else Fraction(c) for c in v)


def _coerce_vector(x: VectorLike, rank: int) -> tuple:
    v = tuple(x)
    if len(v) != rank:
        raise RankMismatch(f"vector length {printable(len(v))} != rank {printable(rank)}")
    return v


def gram_row(lat: Lattice, x: VectorLike) -> tuple:
    """The linear functional <x, .> as a coordinate row (exact)."""
    v = _coerce_vector(x, lat.rank)
    return la.vecmat(v, lat.gram)


def inner(lat: Lattice, x: VectorLike, y: VectorLike):
    """Exact pairing x.y (int for integer vectors)."""
    xv = _coerce_vector(x, lat.rank)
    yv = _coerce_vector(y, lat.rank)
    val = la.dot(la.vecmat(xv, lat.gram), yv)
    return val if isinstance(val, int) else Fraction(val)


def gram_matrix(lat: Lattice, vectors: Sequence[VectorLike]) -> tuple:
    """The pairings v_i.v_j, row i as la.vecmat(v_i G, V^T): sparse v_i G, sparse path."""
    cols = la.transpose(vectors)
    return tuple(la.vecmat(gram_row(lat, v), cols) for v in vectors)


def norm(lat: Lattice, x: VectorLike):
    """Self-intersection x.x, exact (int for integer vectors)."""
    return inner(lat, x, x)


@dataclass(frozen=True)
class Sublattice:
    """Subgroup of a host lattice, stored as canonical row-HNF basis.

    A directly constructed one checks its basis; _from_hnf trusts a basis
    the package has just put in HNF (la.hnf, la.int_kernel, an echelon).
    """

    host: Lattice
    basis: la.IntMatrix

    def __post_init__(self):
        b = la.freeze(self.basis)
        object.__setattr__(self, "basis", b)
        for row in b:
            if len(row) != self.host.rank:
                raise RankMismatch("basis row length differs from host rank")
        if b != la.hnf(b, self.host.rank):
            raise ValueError("basis is not in row Hermite normal form")

    @classmethod
    def _from_hnf(cls, host: Lattice, basis: la.IntMatrix) -> "Sublattice":
        """A sublattice on a tuple of int tuples already in row HNF, unchecked."""
        sub = object.__new__(cls)
        vars(sub).update(host=host, basis=basis)  # frozen: no __setattr__
        return sub

    @classmethod
    def from_generators(
        cls, host: Lattice, rows: Iterable[VectorLike]
    ) -> "Sublattice":
        mat = [la.int_vector(r) for r in rows]
        for r in mat:
            if len(r) != host.rank:
                raise RankMismatch("generator length differs from host rank")
        return cls._from_hnf(host, la.hnf(mat, host.rank))

    @classmethod
    def zero(cls, host: Lattice) -> "Sublattice":
        return cls(host, ())

    @classmethod
    def full(cls, host: Lattice) -> "Sublattice":
        return cls(host, la.identity(host.rank))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def is_full(self) -> bool:
        return self.basis == la.identity(self.host.rank)

    def coords_of(self, v: VectorLike):
        """Coordinates of v over the HNF basis, or None if v is outside.

        A vector with a non-integral entry is outside every sublattice.
        """
        v = _coerce_vector(v, self.host.rank)
        try:
            vec = la.int_vector(v)
        except ValueError:
            return None
        return la.solve_left(self.basis, vec, self.host.rank)

    def contains(self, v: VectorLike) -> bool:
        return self.coords_of(v) is not None

    def __contains__(self, v) -> bool:
        return self.contains(v)

    def to_host(self, coeffs: Sequence[int]) -> IntVec:
        if len(coeffs) != self.rank:
            raise RankMismatch("coefficient length differs from basis size")
        if self.rank == 0:
            return tuple(0 for _ in range(self.host.rank))
        return la.vecmat(la.int_vector(coeffs), self.basis)

    def as_lattice(self) -> Lattice:
        """Induced lattice: Gram of the basis rows under the host form."""
        return Lattice(gram_matrix(self.host, self.basis))


@dataclass(frozen=True)
class Isometry:
    """Integer basis transformation g with g^T G g = G and det g = +-1."""

    matrix: la.IntMatrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", la.freeze(self.matrix))

    def apply(self, v: VectorLike) -> IntVec:
        return la.matvec(self.matrix, la.int_vector(v))

    def preserves(self, lat: Lattice) -> bool:
        """g^T G g == G and det g = +-1, which a nondegenerate G implies; G g
        from G's (sparse) rows. A g of the wrong size raises ValueError."""
        gm = tuple(la.vecmat(row, self.matrix) for row in lat.gram)
        if tuple(la.vecmat(col, gm) for col in zip(*self.matrix)) != lat.gram:
            return False
        return signature(lat)[2] == 0 or abs(la.det(self.matrix)) == 1

    @classmethod
    def identity(cls, rank: int) -> "Isometry":
        return cls(la.identity(rank))


@lru_cache(maxsize=CACHE_SIZE)
def _gram_inverse(lat: Lattice) -> la.IntMatrix:
    if abs(lat.det()) != 1:
        raise DegenerateLattice("gram matrix is not unimodular")
    return la.int_inverse(lat.gram)


# ---------------------------------------------------------------------------
# named constructors


def hyperbolic_plane() -> Lattice:
    """U: the even rank-2 lattice with Gram [[0,1],[1,0]]."""
    return Lattice(((0, 1), (1, 0)))


def e8_lattice() -> Lattice:
    """Negative definite even unimodular rank-8 lattice.

    Convention: diagonal -2, entry +1 for nodes adjacent in the E8 Dynkin
    diagram (Bourbaki numbering), 0 otherwise.
    """
    edges = {(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)}
    gram = [[0] * 8 for _ in range(8)]
    for i in range(8):
        gram[i][i] = -2
    for i, j in edges:
        gram[i][j] = gram[j][i] = 1
    return Lattice(tuple(tuple(r) for r in gram))


def direct_sum(*lattices: Lattice) -> Lattice:
    total = sum(l.rank for l in lattices)
    gram = [[0] * total for _ in range(total)]
    off = 0
    for l in lattices:
        for i in range(l.rank):
            for j in range(l.rank):
                gram[off + i][off + j] = l.gram[i][j]
        off += l.rank
    return Lattice(tuple(tuple(r) for r in gram))


@lru_cache(maxsize=1)
def k3_lattice() -> Lattice:
    """U^3 + E8 + E8 in coordinate order (e1,f1,e2,f2,e3,f3,E8,E8), built once."""
    u = hyperbolic_plane()
    e8 = e8_lattice()
    return direct_sum(u, u, u, e8, e8)


def from_diagonal(entries: Sequence[int]) -> Lattice:
    n = len(entries)
    return Lattice(
        tuple(
            tuple(entries[i] if i == j else 0 for j in range(n))
            for i in range(n)
        )
    )


# ---------------------------------------------------------------------------
# sublattice operations


def saturate(lat: Lattice, sub: Sublattice) -> Sublattice:
    """(S tensor Q) intersected with the host: the saturation of S.

    One elimination decides it: U B^T = [T; 0] for the k x n basis B, and
    |det T| is the gcd of B's k x k minors (the k-th determinantal divisor;
    Cohen, A Course in Computational Algebraic Number Theory, 2.4), which
    is the index of S in its saturation. So unit pivots on T's
    diagonal return S itself. Otherwise the last n - k rows of U span
    kernel(B), and the saturation is kernel(kernel(B)) over the standard
    dot product.
    """
    if sub.host != lat:
        raise RankMismatch("sublattice host differs from given lattice")
    k = sub.rank
    h, u = la.hnf_with_transform(la.transpose(sub.basis), k)
    if all(h[i][i] == 1 for i in range(k)):
        return sub
    return Sublattice._from_hnf(lat, la.int_kernel(u[k:], lat.rank))


def orth_complement(lat: Lattice, sub) -> Sublattice:
    """{x in L : x.s = 0 for all s in S}; always saturated.

    Accepts a Sublattice or an iterable of integer vectors.
    """
    if isinstance(sub, Sublattice):
        if sub.host != lat:
            raise RankMismatch("sublattice host differs from given lattice")
        rows = sub.basis
    else:
        rows = tuple(la.int_vector(_coerce_vector(v, lat.rank)) for v in sub)
    pairing_rows = [gram_row(lat, r) for r in rows]
    return Sublattice._from_hnf(lat, la.int_kernel(pairing_rows, lat.rank))


@lru_cache(maxsize=CACHE_SIZE)
def signature(lat: Lattice) -> Tuple[int, int, int]:
    """(p, n, z) from the signs of a fraction-free diagonalization over Z."""
    diag, _ = la.symmetric_diagonalize(lat.gram)
    p = sum(1 for d in diag if d > 0)
    n = sum(1 for d in diag if d < 0)
    return p, n, lat.rank - p - n


@lru_cache(maxsize=CACHE_SIZE)
def radical(lat: Lattice) -> Sublattice:
    """{x : x.y = 0 for all y}: the integer kernel of the Gram matrix."""
    return Sublattice._from_hnf(lat, la.int_kernel(lat.gram, lat.rank))


def sublattice_index(inner_sub: Sublattice, outer_sub: Sublattice) -> int:
    """[outer : inner] when finite; raises ValueError otherwise."""
    if inner_sub.host != outer_sub.host:
        raise RankMismatch("sublattices live in different hosts")
    if inner_sub.rank != outer_sub.rank:
        raise ValueError("index is infinite: ranks differ")
    # index = |det| of the inner basis written over the outer basis
    coords = []
    for row in inner_sub.basis:
        c = outer_sub.coords_of(row)
        if c is None:
            raise ValueError("first sublattice is not contained in second")
        coords.append(c)
    index = abs(la.det(coords))
    if not index:
        raise ValueError("index is infinite: coordinate matrix is singular")
    return index


def is_primitive(v: VectorLike) -> bool:
    return gcd(*la.int_vector(v)) == 1


__all__ = [
    "Lattice",
    "Sublattice",
    "Isometry",
    "FormalVector",
    "inner",
    "norm",
    "gram_row",
    "saturate",
    "orth_complement",
    "signature",
    "radical",
    "sublattice_index",
    "hyperbolic_plane",
    "e8_lattice",
    "k3_lattice",
    "direct_sum",
    "from_diagonal",
    "is_primitive",
    "primitivize",
]
