"""The benchmark's own integer arithmetic, and its host-speed probe.

Inputs are built and answers are checked with this module only, never with
the package under test, so a defect in the package cannot hide itself.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from time import perf_counter

# E8 with the package's convention: -2 on the diagonal, +1 on Dynkin edges
E8_EDGES = ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))


def e8_gram():
    g = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in E8_EDGES:
        g[i][j] = g[j][i] = 1
    return g


def block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    g = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                g[off + i][off + j] = x
        off += len(b)
    return g


U_GRAM = [[0, 1], [1, 0]]


def u_e8_gram(copies: int):
    """U + E8^copies in coordinate order (e, f, E8, ...)."""
    return block_sum(U_GRAM, *([e8_gram()] * copies))


def k3_gram():
    """U^3 + E8^2 in coordinate order (e1, f1, e2, f2, e3, f3, E8, E8)."""
    return block_sum(U_GRAM, U_GRAM, U_GRAM, e8_gram(), e8_gram())


def pair(g, x, y) -> int:
    return sum(x[i] * g[i][j] * y[j] for i in range(len(x)) if x[i] for j in range(len(y)) if y[j])


def content(v) -> int:
    c = 0
    for x in v:
        c = gcd(c, x)
    return c


def xgcd(a: int, b: int):
    """(g, x, y) with g = gcd(a, b) = a*x + b*y."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def congruent(m, d):
    """M diag(d) M^T: the Gram of the basis given by the rows of M."""
    n = len(d)
    return [
        [sum(m[i][k] * d[k] * m[j][k] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# isotropy of diagonal forms over Q (Hasse-Minkowski)


def _split(a: int, p: int):
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def _legendre(u: int, p: int) -> int:
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def hilbert(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b)_p for nonzero integers; p = 0 is the real place."""
    if p == 0:
        return -1 if a < 0 and b < 0 else 1
    va, u = _split(a, p)
    vb, w = _split(b, p)
    if p == 2:
        def eps(x):
            return ((x - 1) // 2) % 2

        def omega(x):
            return ((x * x - 1) // 8) % 2

        return -1 if (eps(u) * eps(w) + va * omega(w) + vb * omega(u)) % 2 else 1
    s = -1 if (va * vb * ((p - 1) // 2)) % 2 else 1
    return s * _legendre(u, p) ** vb * _legendre(w, p) ** va


def _primes(n: int):
    n, out, p = abs(n), set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def _is_local_square(a: int, p: int) -> bool:
    if p == 0:
        return a > 0
    v, u = _split(a, p)
    if v % 2:
        return False
    return u % 8 == 1 if p == 2 else _legendre(u, p) == 1


def diagonal_isotropic(d) -> bool:
    """Whether <d_1, ..., d_n> (all d_i nonzero) has a nonzero rational zero."""
    n = len(d)
    if not (any(x > 0 for x in d) and any(x < 0 for x in d)):
        return False
    if n >= 5:
        return True
    if n == 2:
        m = -d[0] * d[1]
        return isqrt(m) ** 2 == m
    prod = 1
    for x in d:
        prod *= x
    places = {0, 2} | _primes(prod)
    if n == 3:
        a, b, c = d
        return all(hilbert(-a * c, -b * c, p) == 1 for p in places)
    # rank 4: anisotropic at p exactly when the discriminant is a local
    # square and the Hasse invariant differs from (-1, -1)_p (Serre, IV.2.2)
    for p in places:
        if _is_local_square(prod, p):
            eps = 1
            for i in range(4):
                for j in range(i + 1, 4):
                    eps *= hilbert(d[i], d[j], p)
            if eps != hilbert(-1, -1, p):
                return False
    return True


# ---------------------------------------------------------------------------
# host-speed yardstick


def probe() -> float:
    """Seconds taken by a fixed exact elimination over Q.

    A shared host can run at two speeds up to 1.7x apart that switch every
    few seconds (seen on a 2-vCPU virtual machine); CPU time tracks wall
    time there, so only a yardstick measured next to each operation can
    tell the speeds apart.
    The work resembles the package's own (Fraction and big-int arithmetic in
    Python) and never changes, so its duration measures the host alone.
    """
    t0 = perf_counter()
    n = 8
    a = [[Fraction((i * 7 + j * 3) % 11 - 5 + 13 * (i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return perf_counter() - t0
