"""Exact integer and rational matrix routines.

Matrices are row-major tuples of tuples. Canonical form throughout is the
row Hermite normal form: positive pivots, entries above a pivot reduced into
[0, pivot), zero rows dropped (or sorted to the bottom when a transform is
requested). Ranks in this package stay small (<= 22), so the plain
O(n^3)-with-big-ints algorithms are entirely adequate. Three eliminations
run over Z: the xgcd echelon of the HNF (kernels, solving, Smith
invariants), and two with fraction-free Bareiss steps: one Gauss-Jordan
kernel for the determinant and the inverse, and the congruence
diagonalization behind signatures and Fincke-Pohst, yielded step by step.
Only kernels build the echelon's whole transform; a solve replays
its logged row operations on one vector, so a logged elimination serves
every later solve over the same rows, and rows already in echelon form (an
HNF basis) are back-substituted as given, with no elimination. An inverse
is an integer matrix over one least denominator (frac_inverse);
integral_row clears denominators without a Fraction, and rational_direction
primitivizes the result. Integer arguments are checked, never truncated:
int_vector and freeze accept integral values only. A Gram row of a
mostly-zero integer vector (vecmat) sums only the rows of its nonzero
entries; other vectors take column sums.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, index, mul
from typing import Iterator, List, Optional, Sequence, Tuple

IntMatrix = Tuple[Tuple[int, ...], ...]
IntVector = Tuple[int, ...]


def as_int(x) -> int:
    """x as an int if its value is integral (2.0, Fraction(4, 2)); else ValueError."""
    try:
        return index(x)
    except TypeError:
        n = int(x)
        if n != x:
            raise ValueError(f"non-integral entry {x!r}") from None
        return n


def int_vector(v: Sequence) -> IntVector:
    """The entries of v as ints, checked by as_int."""
    v = tuple(v)  # read once, so the checked pass can start again
    try:
        return tuple(map(index, v))
    except TypeError:
        return tuple(map(as_int, v))


def freeze(rows: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(map(int_vector, rows))


def identity(n: int) -> IntMatrix:
    return tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n))


def transpose(m: Sequence[Sequence]) -> tuple:
    return tuple(zip(*m))


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matmul shape mismatch")
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def matvec(m: Sequence[Sequence], v: Sequence) -> tuple:
    if m and len(m[0]) != len(v):
        raise ValueError("matvec shape mismatch")
    return tuple(sum(map(mul, row, v)) for row in m)


def vecmat(v: Sequence, m: Sequence[Sequence]) -> tuple:
    """v·m for an integer matrix m, exact in value and type.

    An all-int v with at least half its entries zero sums the rows of m at
    its nonzero entries, so the zero rows are never read; Gram rows of
    sparse lattice vectors take this path. Any other v (dense, or holding a
    Fraction) takes the column sums, so its entries keep the types of
    sum(v[i] * m[i][j]): a Fraction v gives Fraction entries even where
    they are zero.
    """
    if len(v) != len(m):
        raise ValueError("vecmat shape mismatch")
    if not m:
        return ()
    if 2 * v.count(0) < len(v) or type(sum(v)) is not int:
        return tuple(sum(map(mul, v, col)) for col in zip(*m))
    out = repeat(0, len(m[0]))
    for x, row in zip(filter(None, v), compress(m, v)):
        out = map(add, out, map(mul, repeat(x), row))
    return tuple(out)


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("dot shape mismatch")
    return sum(map(mul, u, v))


def primitivize(coords) -> IntVector:
    """Divide an integer vector by the gcd of its entries. Zero vectors pass through."""
    g = gcd(*coords)
    if g <= 1:
        return tuple(int(c) for c in coords)
    return tuple(int(c) // g for c in coords)


def sign_normalized(coords) -> tuple:
    """Flip the sign so that the first nonzero coordinate is positive."""
    for c in coords:
        if c > 0:
            return tuple(coords)
        if c < 0:
            return tuple(-x for x in coords)
    return tuple(coords)


def xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and g = a*x + b*y.

    When a divides b the coefficients are (sign(a), 0), so "clearing" steps
    built on xgcd leave the pivot row alone in the already-divisible case.
    """
    if a != 0 and b % a == 0:
        return (a, 1, 0) if a > 0 else (-a, -1, 0)
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def gcd_combination(values: Sequence[int]) -> Tuple[int, IntVector]:
    """(g, coeffs) with g = gcd(values) >= 0 and g = sum coeffs[i]*values[i]."""
    n = len(values)
    coeffs = [0] * n
    g = 0
    for i, val in enumerate(values):
        if val == 0:
            continue
        gg, x, y = xgcd(g, val)
        coeffs = [x * c for c in coeffs]
        coeffs[i] += y
        g = gg
    return g, tuple(coeffs)


def _echelon(work: List[List[int]], ncols: int, log: Optional[list] = None) -> None:
    """Row HNF of work in place, with pivots taken in the first ncols columns.

    Row operations act on whole rows, so columns past ncols (such as an
    appended identity) record the transform. Zero rows end at the bottom.
    Each operation also goes to log, in order, as (p, i, a, b, c, d): rows p
    and i become a row_p + b row_i and c row_p + d row_i (a swap, row_i -=
    q row_p or a gcd step), and (p, p, -1, 0, 0, -1) negates row p.
    """
    record = log.append if log is not None else (lambda op: None)
    nr = len(work)
    piv = 0
    for col in range(ncols):
        # choose a pivot row and clear the column below it via gcd steps
        k = next((i for i in range(piv, nr) if work[i][col]), None)
        if k is None:
            continue
        if k != piv:
            work[piv], work[k] = work[k], work[piv]
            record((piv, k, 0, 1, 1, 0))
        for i in range(piv + 1, nr):
            if not work[i][col]:
                continue
            a, b = work[piv][col], work[i][col]
            g, x, y = xgcd(a, b)
            aa, bb = a // g, b // g
            rp, ri = work[piv], work[i]
            if x == 1 and y == 0:
                # a divides b with a > 0: the pivot row stays as it is
                work[i] = [q - bb * p for p, q in zip(rp, ri)]
            else:
                work[piv] = [x * p + y * q for p, q in zip(rp, ri)]
                work[i] = [-bb * p + aa * q for p, q in zip(rp, ri)]
            record((piv, i, x, y, -bb, aa))  # aa == 1 when x, y == 1, 0
        if work[piv][col] < 0:
            work[piv] = [-x for x in work[piv]]
            record((piv, piv, -1, 0, 0, -1))
        p = work[piv][col]
        for i in range(piv):
            q = work[i][col] // p
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[piv])]
                record((piv, i, 1, 0, -q, 1))
        piv += 1
        if piv == nr:
            break


def hnf_with_transform(
    rows: Sequence[Sequence[int]], ncols: int
) -> Tuple[IntMatrix, IntMatrix]:
    """Row HNF with a unimodular transform: U * rows = H.

    H keeps its zero rows (sorted to the bottom) so that U rows aligned with
    them span the left kernel. U comes from running the elimination on the
    rows augmented with the identity.
    """
    nr = len(rows)
    width = len(rows[0]) if rows else ncols
    work = [
        list(map(int, r)) + [1 if i == j else 0 for j in range(nr)]
        for i, r in enumerate(rows)
    ]
    _echelon(work, ncols)
    h = tuple(tuple(r[:width]) for r in work)
    return h, tuple(tuple(r[width:]) for r in work)


def hnf(rows: Sequence[Sequence[int]], ncols: int) -> IntMatrix:
    """Canonical row HNF with zero rows dropped."""
    work = [list(map(int, r)) for r in rows]
    _echelon(work, ncols)
    return tuple(tuple(r) for r in work if any(r))


def int_kernel(rows: Sequence[Sequence[int]], ncols: int) -> IntMatrix:
    """HNF basis of {x in Z^ncols : rows . x = 0}. Always saturated."""
    if not rows:
        return identity(ncols)
    h, u = hnf_with_transform(transpose(rows), len(rows))
    kernel_rows = [u[i] for i in range(len(h)) if not any(h[i])]
    return hnf(kernel_rows, ncols)


def _gauss_jordan(a: List[List[int]], n: int) -> Tuple[int, int]:
    """Fraction-free Gauss-Jordan on the rows of a in place, pivots in the
    first n columns; (sign, prev) with sign * prev = det of that block.

    Rows i > k, and every row i != k when a has columns past n (an appended
    identity, which ends as prev * block^-1), become (p row_i - a_ik row_k) /
    prev at pivot p, an exact division (Bareiss), right of the pivot only, as
    no later step reads the rest; sign flips on each row swap. A row with
    a_ik = 0 at p = prev is skipped. A singular block returns (1, 0).
    """
    sign, prev = 1, 1
    for k in range(n):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 1, 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p, rk = a[k][k], a[k][k + 1:]
        for i in range(0 if len(a[k]) > n else k + 1, n):
            row, c = a[i], a[i][k]
            if i != k and (c or p != prev):  # else row i stays as it is
                row[k + 1:] = [(p * x - c * y) // prev for x, y in zip(row[k + 1:], rk)]
        prev = p
    return sign, prev


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant: sign * prev from _gauss_jordan, 0 when singular."""
    sign, prev = _gauss_jordan([list(map(int, row)) for row in m], len(m))
    return sign * prev


def solve_left(
    rows: Sequence[Sequence[int]], target: Sequence[int], ncols: int
) -> Optional[IntVector]:
    """Integer x with x . rows = target, or None. Rows in echelon form (each
    nonzero row's first nonzero column right of the row before's, zero rows
    last), as every Sublattice basis is, have independent nonzero rows and
    are back-substituted as given; other rows take a logged elimination."""
    if len(target) != ncols:
        raise ValueError("solve_left shape mismatch")
    # the first nonzero column of each row, ncols for a zero row
    lead = [row.index(x) if (x := next(filter(None, row), 0)) else ncols for row in rows]
    if all(a < b or a == b == ncols for a, b in zip(lead, lead[1:])):
        return solve_logged(rows, (), len(rows), target)
    h = [list(map(int, r)) for r in rows]
    log: list = []
    _echelon(h, ncols, log)
    return solve_logged(h, log, len(h), target)


def solve_logged(h, log, nrows: int, target: Sequence[int]) -> Optional[IntVector]:
    """solve_left from _echelon's result H = U rows (nonzero rows suffice) and log.

    c with c . H = target comes from back-substitution over H, and x = c U
    from the transposes of the nrows-row log applied to c, last first, O(1)
    each: the U of hnf_with_transform, never formed.
    """
    t = [int(x) for x in target]
    coeffs = [0] * nrows
    for i, row in enumerate(h):
        lead = next(filter(None, row), 0)
        if not lead:
            break
        p = row.index(lead)
        if t[p] % lead:
            return None
        q = t[p] // lead
        coeffs[i] = q
        if q:
            t = [a - q * b for a, b in zip(t, row)]
    if any(t):
        return None
    for p, i, a, b, c, d in reversed(log):
        cp, ci = coeffs[p], coeffs[i]
        coeffs[p], coeffs[i] = a * cp + c * ci, b * cp + d * ci
    return tuple(coeffs)


def smith_invariants(rows: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    Row HNFs of the matrix and of its transpose alternate until it is
    diagonal (the corner entry only shrinks, to the gcd of its row and
    column, so this ends); then each pair of diagonal entries becomes
    (gcd, lcm), which leaves the divisor chain.
    """
    a = hnf(rows, len(rows[0]) if rows else 0)
    while any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
        a = hnf(transpose(a), len(a))
    d = [a[i][i] for i in range(len(a))]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(d)


# ---------------------------------------------------------------------------
# rational routines


def integral_row(row: Sequence) -> Tuple[int, ...]:
    """d * row for the lcm d of the denominators; Fraction only for floats."""
    row = [x if hasattr(x, "numerator") else Fraction(x) for x in row]
    d = lcm(*(x.denominator for x in row))
    return tuple(x.numerator * (d // x.denominator) for x in row)


def rational_direction(coords) -> IntVector:
    """Primitive integer vector spanning the same ray as a rational vector.

    Scales by a positive rational only, so direction-dependent data (signs,
    orthogonality) is preserved exactly.
    """
    return primitivize(integral_row(coords))


def frac_inverse(m: Sequence[Sequence[int]]) -> Tuple[int, IntMatrix]:
    """(d, A) with m^-1 = A / d over Z, d >= 1 least; ZeroDivisionError if singular.

    _gauss_jordan on [m | I] ends with the right block prev * m^-1.
    Dividing out g = gcd(prev, right block) leaves d = |prev| / g, the lcm
    of the denominators of m^-1 in lowest terms.
    """
    n = len(m)
    a = [list(map(int, row)) + list(e) for row, e in zip(m, identity(n))]
    _, prev = _gauss_jordan(a, n)
    if not prev:
        raise ZeroDivisionError("singular matrix")
    d = abs(prev) // gcd(prev, *(x for row in a for x in row[n:]))
    q = prev // d  # +-g, so A = right block / q
    return d, tuple(tuple(x // q for x in row[n:]) for row in a)


def int_inverse(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Inverse of a unimodular integer matrix, returned over Z."""
    d, inv = frac_inverse(m)
    if d != 1:
        raise ValueError("matrix is not unimodular")
    return inv


def symmetric_diagonalize(gram: Sequence[Sequence[int]]) -> Tuple[IntVector, IntMatrix]:
    """(diag, basis) from all of diagonal_steps(gram), drained eagerly."""
    steps = tuple(diagonal_steps(gram))
    return tuple(d for d, _ in steps), tuple(v for _, v in steps)


def diagonal_steps(gram: Sequence[Sequence[int]]) -> Iterator[Tuple[int, IntVector]]:
    """Congruence diagonalization over Z by fraction-free elimination, lazily.

    Yields (diag[k], v_k) for k = 0, 1, ..., integer rows with v_i G v_j^T
    = diag[i] * [i == j]; step k is final when it is yielded, so a caller
    that needs only the first pivot of some sign stops there. Zero pivots
    get the moves of rational elimination (swap in a later nonzero diagonal
    entry, else v_k += v_j for some a_kj != 0, giving a_kk = 2 a_kj; skip
    when v_k pairs to zero with the rest), and later rows are updated
    Bareiss-style, (d row_i - a_ik row_k) / prev, exactly. Row k is |prev|
    times the rational row, and diag[k] = prev * d.
    """
    n = len(gram)
    a = [list(map(int, row)) for row in gram]
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    # a row with a_ik = 0 is only rescaled by d / prev at step k; that is
    # deferred: row i holds its Bareiss row times last[i] / prev
    last, prev = [1] * n, 1

    def fresh(*rows):
        for i in rows:
            if last[i] != prev:
                a[i][k:] = [x * prev // last[i] for x in a[i][k:]]
                basis[i] = [x * prev // last[i] for x in basis[i]]
                last[i] = prev

    def add_row(i, j, c):
        # v_i += c v_j, updating the working Gram congruently
        fresh(i, j)
        basis[i] = [x + c * y for x, y in zip(basis[i], basis[j])]
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in a[k:]:
            row[i] += c * row[j]

    for k in range(n):
        # only the block of rows and columns >= k is current
        if a[k][k] == 0:
            j = next((i for i in range(k + 1, n) if a[i][i]), None)
            if j is not None:
                for m in (a, basis, last):
                    m[k], m[j] = m[j], m[k]
                for row in a[k:]:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((i for i in range(k + 1, n) if a[k][i]), None)
                if j is not None:
                    add_row(k, j, 1)
        fresh(k)
        d, ak, bk = a[k][k], a[k][k + 1:], basis[k]
        yield prev * d, tuple(bk if prev > 0 else [-x for x in bk])
        if d == 0:
            continue  # v_k pairs to zero with the remaining block
        for i in range(k + 1, n):
            c, s = a[i][k], last[i]
            if c:
                a[i][k + 1:] = [(d * x - c * y) // s for x, y in zip(a[i][k + 1:], ak)]
                basis[i] = [(d * x - c * y) // s for x, y in zip(basis[i], bk)]
                last[i] = d
        prev = d
