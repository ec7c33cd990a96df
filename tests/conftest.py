import random
from fractions import Fraction
from math import lcm

import pytest

from k3lag.exact import primitivize
from k3lag.lattice import (
    Lattice,
    direct_sum,
    e8_lattice,
    from_diagonal,
    hyperbolic_plane,
    k3_lattice,
    norm,
)


@pytest.fixture(scope="session")
def U():
    return hyperbolic_plane()


@pytest.fixture(scope="session")
def E8():
    return e8_lattice()


@pytest.fixture(scope="session")
def K3():
    return k3_lattice()


@pytest.fixture(scope="session")
def U3():
    u = hyperbolic_plane()
    return direct_sum(u, u, u)


@pytest.fixture(scope="session")
def U_minus2():
    return direct_sum(hyperbolic_plane(), from_diagonal([-2]))


def v6(*coords):
    return tuple(coords) + (0,) * (6 - len(coords))


def v22(*coords):
    return tuple(coords) + (0,) * (22 - len(coords))


def fraction_clear(row):
    """Reference denominator clearing: each entry as a Fraction, times the lcm."""
    fracs = [Fraction(x) for x in row]
    d = lcm(*(f.denominator for f in fracs))
    return tuple(int(f * d) for f in fracs)


def sample_positive_primitive(rng: random.Random, lat: Lattice, lo=0, hi=None):
    """Seeded primitive w with norm in (lo, hi]; sparse definite block."""
    while True:
        u_part = [rng.randint(-3, 3) for _ in range(6)]
        rest = [
            rng.randint(-3, 3) if rng.randrange(4) == 0 else 0
            for _ in range(lat.rank - 6)
        ]
        w = tuple(u_part + rest)
        if not any(w):
            continue
        n2 = norm(lat, w)
        if n2 > lo and (hi is None or n2 <= hi):
            return primitivize(w)


def random_negdef_gram(rng: random.Random, rank: int):
    """Negative definite Gram with small entries: -(B^T B + positive diag)."""
    b = [[rng.randint(-1, 1) for _ in range(rank)] for _ in range(rank)]
    g = [
        [
            -sum(b[k][i] * b[k][j] for k in range(rank))
            - (rng.randint(1, 2) if i == j else 0)
            for j in range(rank)
        ]
        for i in range(rank)
    ]
    return tuple(tuple(row) for row in g)
