import random
from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt, lcm

import pytest

from k3lag import enumeration
from k3lag import intlinalg as la
from k3lag.enumeration import (
    Unknown,
    _definite,
    _ellipsoid_points,
    _Slice,
    find_isotropic,
    find_positive,
    root_slice,
    roots_generate,
    short_vectors,
)
from k3lag.errors import NotNegativeDefinite, NotPositive, RankMismatch
from k3lag.intlinalg import primitivize, sign_normalized
from k3lag.lattice import (
    Lattice,
    Sublattice,
    direct_sum,
    e8_lattice,
    from_diagonal,
    hyperbolic_plane,
    inner,
    norm,
    radical,
    signature,
)

from conftest import random_negdef_gram


# --- independent brute-force oracles -------------------------------------


def _frac_inverse(rows):
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def brute_short_vectors(gram, bound):
    """Box enumeration with the Cholesky-style box |x_i|^2 <= bound*(P^-1)_ii."""
    n = len(gram)
    pos = [[-x for x in row] for row in gram]
    inv = _frac_inverse(pos)
    box = []
    for i in range(n):
        radius2 = Fraction(bound) * inv[i][i]
        box.append(isqrt(radius2.numerator // radius2.denominator) + 1)
    lat = Lattice(tuple(tuple(r) for r in gram))
    out = set()
    for x in product(*[range(-b, b + 1) for b in box]):
        q = -norm(lat, x)
        if 0 < q <= bound:
            out.add(sign_normalized(x))
    return sorted(out)


def brute_root_slice(gram, w, bound, box=30):
    lat = Lattice(tuple(tuple(r) for r in gram))
    out = []
    for x in product(range(-box, box + 1), repeat=len(gram)):
        if norm(lat, x) == -2 and 0 < inner(lat, x, w) < bound:
            out.append(tuple(x))
    return sorted(out)


def brute_ellipsoid(pd, center, bound):
    """(x, Q(x - center)) for all integer x with Q(x - center) <= bound.

    Box scan with |x_i - c_i|^2 <= bound * (Q^-1)_ii, listed in the order
    the enumeration engine promises: x[n-1] is fixed first and every
    coordinate ascends.
    """
    n = len(pd)
    inv = _frac_inverse(pd)
    box = []
    for i in range(n):
        radius2 = bound * inv[i][i]
        r = isqrt(radius2.numerator // radius2.denominator) + 1
        box.append(range(floor(center[i]) - r, ceil(center[i]) + r + 1))
    out = []
    for x in product(*box):
        q = _form_value(pd, [a - c for a, c in zip(x, center)])
        if q <= bound:
            out.append((x, q))
    return sorted(out, key=lambda item: item[0][::-1])


def _form_value(pd, y):
    n = len(pd)
    return sum(y[i] * pd[i][j] * y[j] for i in range(n) for j in range(n))


# --- short_vectors --------------------------------------------------------


def test_short_vectors_examples(E8):
    assert short_vectors(from_diagonal([-4]), 4) == [(1,)]
    assert short_vectors(from_diagonal([-2, -2]), 2) == [(0, 1), (1, 0)]
    roots = short_vectors(E8, 2)
    assert len(roots) == 120  # 240 roots in +- pairs
    assert all(norm(E8, r) == -2 for r in roots)


def test_short_vectors_rejects_indefinite(U):
    with pytest.raises(NotNegativeDefinite):
        short_vectors(U, 2)


def test_short_vectors_sorted_and_sign_normalized():
    lat = Lattice(((-2, 1), (1, -2)))
    vs = short_vectors(lat, 6)
    assert vs == sorted(vs)
    for v in vs:
        assert next(c for c in v if c != 0) > 0


def test_short_vectors_against_brute_force():
    rng = random.Random(1234)
    for _ in range(50):
        rank = rng.randint(1, 4)
        gram = random_negdef_gram(rng, rank)
        bound = rng.randint(1, 8)
        lat = Lattice(gram)
        assert short_vectors(lat, bound) == brute_short_vectors(gram, bound)


def test_short_vectors_exact_keeps_the_sphere():
    # odd forms have vectors of norm -1, which the exact filter must drop
    rng = random.Random(4321)
    for _ in range(50):
        lat = Lattice(random_negdef_gram(rng, rng.randint(1, 4)))
        bound = rng.randint(1, 6)
        want = [v for v in short_vectors(lat, bound) if norm(lat, v) == -bound]
        assert short_vectors(lat, bound, exact=True) == want


def test_roots_generate_on_an_odd_lattice():
    # <-1> + <-2> + A2(-1): the norm -1 vector is not a root
    lat = Lattice(((-1, 0, 0, 0), (0, -2, 0, 0), (0, 0, -2, 1), (0, 0, 1, -2)))
    rep = roots_generate(lat)
    assert rep.roots == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0))
    assert not rep.generates


# --- roots_generate -------------------------------------------------------


def test_roots_generate_vectors(E8):
    rep = roots_generate(E8)
    assert rep.generates and len(rep.roots) == 120
    assert rep.generation_basis.is_full()
    rep4 = roots_generate(from_diagonal([-4]))
    assert rep4.roots == () and not rep4.generates
    rep2 = roots_generate(from_diagonal([-2]))
    assert rep2.generates and len(rep2.roots) == 1


def test_roots_generate_index_two_case():
    # <-2> + <-8>: roots span only the first factor
    rep = roots_generate(from_diagonal([-2, -8]))
    assert len(rep.roots) == 1 and not rep.generates


def test_roots_generation_basis_index_one(E8):
    from k3lag.lattice import sublattice_index

    rep = roots_generate(E8)
    assert sublattice_index(rep.generation_basis, Sublattice.full(E8)) == 1


# --- find_positive --------------------------------------------------------


def test_find_positive_examples(U):
    assert find_positive(U) == (1, 1)
    assert find_positive(from_diagonal([-4])) is None
    assert find_positive(Lattice(((0, 0), (0, -2)))) is None


def test_find_positive_agrees_with_signature():
    rng = random.Random(99)
    for _ in range(40):
        rank = rng.randint(1, 4)
        entries = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                entries[i][j] = entries[j][i] = rng.randint(-4, 4)
        lat = Lattice(tuple(tuple(r) for r in entries))
        v = find_positive(lat)
        if signature(lat)[0] > 0:
            assert v is not None and norm(lat, v) > 0
        else:
            assert v is None


def test_find_positive_diagonalization_fallback():
    # no basis vector or basis pair works: needs the rational route
    lat = Lattice(((-10, 6), (6, -2)))
    assert signature(lat)[0] == 1
    g = lat.gram
    assert all(g[i][i] <= 0 for i in range(2))
    assert all(
        g[0][0] + g[1][1] + 2 * s * g[0][1] <= 0 for s in (1, -1)
    )
    v = find_positive(lat)
    assert v is not None and norm(lat, v) > 0


# --- find_isotropic -------------------------------------------------------


def test_find_isotropic_examples(U):
    assert find_isotropic(U) == (1, 0)
    assert find_isotropic(from_diagonal([-4])) is None
    assert find_isotropic(Lattice(((0,),))) == (1,)


def test_find_isotropic_box_search():
    lat = from_diagonal([2, -3, -5])  # 8 = 3 + 5: (2,1,1)
    v = find_isotropic(lat, height=3)
    assert v is not None and not isinstance(v, Unknown)
    assert norm(lat, v) == 0 and any(v)


def test_find_isotropic_unknown():
    lat = from_diagonal([2, -3])  # 2a^2 = 3b^2 has no nonzero solution
    res = find_isotropic(lat, height=5)
    assert isinstance(res, Unknown) and res.height == 5


def _random_form(rng, rank):
    """A seeded small symmetric Gram: dense, B^T D B of lower rank, or diagonal."""
    kind = rng.randrange(3)
    if kind == 0:
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        return tuple(map(tuple, g))
    if kind == 1:
        # rank(B) <= k < rank: a radical of rank >= rank - k, semidefinite
        # whenever the signs of D agree
        k = rng.randrange(rank)
        b = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(k)]
        d = [rng.choice((-3, -2, -1, -1, 1, 2)) for _ in range(k)]
        return tuple(
            tuple(sum(d[t] * b[t][i] * b[t][j] for t in range(k)) for j in range(rank))
            for i in range(rank)
        )
    entries = (-7, -5, -3, -2, -1, 0, 1, 2, 3, 5)
    return from_diagonal([rng.choice(entries) for _ in range(rank)]).gram


def test_definite_refuses_with_the_signature():
    # the refusal reads (p, n, z) off the reversed, negated form's diagonal;
    # it must say what signature() says, on indefinite and degenerate forms
    rng = random.Random(2207)
    refused = degenerate = definite = 0
    for _ in range(1800):
        rank = rng.randint(1, 7)
        negdef = rng.randrange(8) == 0
        gram = random_negdef_gram(rng, rank) if negdef else _random_form(rng, rank)
        sig = signature(Lattice(gram))
        if sig == (0, rank, 0):
            pd = tuple(tuple(-g for g in row[::-1]) for row in gram[::-1])
            assert _definite(gram) == (pd, la.symmetric_diagonalize(pd))
            definite += 1
            continue
        with pytest.raises(NotNegativeDefinite) as err:
            _definite(gram)
        assert str(err.value) == f"lattice has signature {sig}, expected (0, {rank}, 0)"
        refused += 1
        degenerate += sig[2] > 0
    assert refused >= 1000 and degenerate >= 300 and definite >= 100
    assert _definite(()) == ((), ((), ()))


def test_slice_diagonalizes_the_complement_once(monkeypatch):
    lat = direct_sum(hyperbolic_plane(), e8_lattice())
    real, sizes = la.symmetric_diagonalize, []
    monkeypatch.setattr(la, "symmetric_diagonalize", lambda g: sizes.append(len(g)) or real(g))
    signature.cache_clear()
    enumeration._slice_setup.cache_clear()
    _Slice(lat, (3, 1) + (0,) * 8)
    assert sizes == [9]


def _find_isotropic_reference(lat, height):
    """find_isotropic as it was before the signature's z decided the radical."""
    if lat.rank == 0:
        return None
    p, n, z = signature(lat)
    if z == 0 and (p == 0 or n == 0):
        return None
    rad = radical(lat)
    if rad.rank > 0:
        return rad.basis[0]
    for i in range(lat.rank):
        if lat.gram[i][i] == 0:
            return lat.basis_vector(i)
    for s in range(1, height + 1):
        for x in product(range(-s, s + 1), repeat=lat.rank):
            if s not in x and -s not in x:
                continue
            if norm(lat, x) == 0:
                return sign_normalized(primitivize(x))
    return Unknown(height)


def test_find_isotropic_computes_the_radical_only_when_z_is_positive(monkeypatch):
    def checked(lat):
        assert signature(lat)[2] > 0, lat
        return radical(lat)

    monkeypatch.setattr(enumeration, "radical", checked)
    rng = random.Random(4409)
    seen = set()
    for _ in range(400):
        rank = rng.randint(1, 4)
        lat, height = Lattice(_random_form(rng, rank)), rng.randint(1, 3 if rank < 4 else 2)
        got = find_isotropic(lat, height)
        assert got == _find_isotropic_reference(lat, height), lat
        z = signature(lat)[2]
        seen.add("radical" if z else type(got).__name__)
    assert find_isotropic(Lattice(()), 2) is None
    assert seen == {"radical", "NoneType", "Unknown", "tuple"}


def _conjugated_diagonal(rng, rank, last_negative=False):
    """An indefinite diagonal form with entries in +-{1, 2, 3, 5, 7}, conjugated
    by seeded elementary moves (the shape of the benchmark's info inputs)."""
    while True:
        d = [rng.choice((-7, -5, -3, -2, -1, 1, 2, 3, 5, 7)) for _ in range(rank)]
        if last_negative:
            d[-1] = -abs(d[-1])
        if min(d) < 0 < max(d):
            break
    m = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(rank):
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return tuple(
        tuple(sum(d[k] * m[i][k] * m[j][k] for k in range(rank)) for j in range(rank))
        for i in range(rank)
    )


def _scan_branches(lat, height, seen):
    """Count, over the prefixes the scan visits, which way each quadratic
    Q(y, t) = a + 2bt + ct^2 goes; a, b and c come from norm, not vecmat."""
    if lat.rank < 2 or any(lat.gram[i][i] == 0 for i in range(lat.rank)):
        return
    c = lat.gram[-1][-1]
    for s in range(1, height + 1):
        for y in product(range(-s, s + 1), repeat=lat.rank - 1):
            a, edge = norm(lat, y + (0,)), s in y or -s in y
            b = (norm(lat, y + (1,)) - a - c) // 2
            disc = b * b - a * c
            if disc < 0:
                seen["negative"] += 1
                continue
            r = isqrt(disc)
            if r * r != disc:
                seen["not_square"] += 1
                continue
            valid = []
            for num in {-b - r, -b + r}:
                if num % c:
                    seen["indivisible"] += 1
                elif abs(num // c) > s:
                    seen["outside"] += 1
                elif abs(num // c) < s and not edge:
                    seen["interior"] += 1
                else:
                    valid.append(num // c)
            if len(valid) == 2:
                seen["two_valid"] += 1
                seen["two_valid_c_negative"] += c < 0
            if valid:
                return


def test_find_isotropic_quadratic_scan_against_the_box():
    # the scan that solves for the last coordinate returns what the full box
    # scan returns, on forms that reach every branch of the quadratic
    rng = random.Random(2311)
    forms = [(_random_form(rng, 5), rng.randint(1, 2)) for _ in range(60)]
    forms += [(_conjugated_diagonal(rng, rng.randint(3, 5)), rng.randint(1, 2))
              for _ in range(120)]
    forms += [(_conjugated_diagonal(rng, rng.randint(2, 4), True), rng.randint(1, 3))
              for _ in range(120)]
    seen = dict.fromkeys(
        ("negative", "not_square", "indivisible", "outside", "interior", "two_valid",
         "two_valid_c_negative"), 0)
    answers = set()
    for gram, height in forms:
        lat = Lattice(gram)
        got = find_isotropic(lat, height)
        assert got == _find_isotropic_reference(lat, height), (gram, height)
        answers.add(type(got).__name__)
        if signature(lat)[2] == 0:
            _scan_branches(lat, height, seen)
    assert all(seen.values()), seen
    assert {"tuple", "Unknown"} <= answers


def _first_box_hit(gram, height):
    """The first x, in product order, of the shells max|x_i| = s with
    x.x = 0, unnormalized; the form is summed entry by entry."""
    n = len(gram)
    for s in range(1, height + 1):
        for x in product(range(-s, s + 1), repeat=n):
            if (s in x or -s in x) and not sum(
                x[i] * gram[i][j] * x[j] for i in range(n) if x[i] for j in range(n)
            ):
                return x
    return None


def test_find_isotropic_two_coordinate_scan_against_the_box():
    # stepping the second-to-last coordinate u over one Gram row per outer
    # prefix z returns what the full box scan returns; the first hit must
    # count through each arm of the shell test (z holds +-s, |u| = s, |t| = s)
    rng = random.Random(2403)
    forms = []
    for i in range(3000):
        rank = (2, 2, 3, 3, 4, 4, 5)[i % 7]
        height = rng.randint(1, (3, 3, 3, 2, 1)[rank - 1])
        gram = (_random_form(rng, rank) if i % 3 == 0
                else _conjugated_diagonal(rng, rank, last_negative=i % 3 == 1))
        forms.append((gram, height))
    seen = set()
    for gram, height in forms:
        lat = Lattice(gram)
        got = find_isotropic(lat, height)
        assert got == _find_isotropic_reference(lat, height), (gram, height)
        n, c = lat.rank, gram[-1][-1]
        if type(got) is not tuple or signature(lat)[2] or 0 in (gram[i][i] for i in range(n)):
            continue
        x = _first_box_hit(gram, height)
        s = max(map(abs, x))
        arm = "z" if s in map(abs, x[:-2]) else "u" if abs(x[-2]) == s else "t"
        seen.add((arm, "rank 2" if n == 2 else "c < 0" if c < 0 else "c > 0"))
    assert {"z", "u", "t"} == {arm for arm, _ in seen}
    assert {"rank 2", "c < 0", "c > 0"} == {kind for _, kind in seen}
    assert ("u", "rank 2") in seen and ("u", "c < 0") in seen


def test_find_isotropic_forms_one_gram_row_per_prefix(monkeypatch):
    lat = from_diagonal([1, 1, 1, -7])  # anisotropic over Q_2
    real, calls = la.vecmat, []
    monkeypatch.setattr(la, "vecmat", lambda v, m: calls.append(len(v)) or real(v, m))
    assert find_isotropic(lat, height=3) == Unknown(3)
    # one row per outer prefix z in [-s, s]^2; the last two coordinates are
    # stepped and solved for without a row of their own
    assert len(calls) == 3**2 + 5**2 + 7**2 and set(calls) == {2}


# --- root_slice -----------------------------------------------------------


def test_root_slice_fixture(U_minus2, U):
    expected = [(-1, 1, 0), (0, 0, -1), (0, 1, 1), (2, 0, 1)]
    assert root_slice(U_minus2, (3, 2, 1), 3) == expected
    assert root_slice(U, (1, 1), 5) == []
    assert root_slice(U_minus2, (3, 2, 1), 1) == []


def test_root_slice_on_rank_one_hosts():
    # w's complement is the zero lattice: an empty Gram, inverted over den 1
    for a in (1, 2, 6):
        lat = from_diagonal([a])
        for bound in (1, 3, 10):
            assert root_slice(lat, (1,), bound) == []
        rows, pd, _, den = enumeration._slice_setup(lat, (1,))[:4]
        assert rows == () and pd == () and den == 1


def test_root_slice_requires_positive(U_minus2):
    with pytest.raises(NotPositive):
        root_slice(U_minus2, (0, 0, 1), 3)


def test_root_slice_rejects_a_w_of_the_wrong_length(U_minus2):
    for w in ((3, 2), (3, 2, 1, 0)):
        with pytest.raises(RankMismatch):
            root_slice(U_minus2, w, 3)


def test_root_slice_lower_end_matches_brute():
    # one brute listing per host, cut below every bound and to every level
    # delta.w = a, against the slice cut the same way (a window's lower end is
    # a filter of the full slice); no root of these slices has a coordinate
    # above 3, so box 12 is ample
    hosts_and_w = [
        (direct_sum(hyperbolic_plane(), from_diagonal([-2])), (3, 2, 1)),
        (direct_sum(hyperbolic_plane(), from_diagonal([-4])), (2, 3, -1)),
        (direct_sum(hyperbolic_plane(), from_diagonal([-6])), (3, 3, 1)),
    ]
    for lat, w in hosts_and_w:
        brute = brute_root_slice(lat.gram, w, 6, box=12)
        assert brute
        for bound in range(1, 7):
            assert root_slice(lat, w, bound) == [d for d in brute if inner(lat, d, w) < bound]
        full = root_slice(lat, w, 6)
        for a in range(1, 6):
            want = [d for d in brute if inner(lat, d, w) == a]
            assert [d for d in full if inner(lat, d, w) == a] == want


def test_root_slice_pointwise_and_brute():
    rng = random.Random(7)
    hosts = [
        direct_sum(hyperbolic_plane(), from_diagonal([-2])),
        direct_sum(hyperbolic_plane(), from_diagonal([-4])),
        direct_sum(hyperbolic_plane(), from_diagonal([-6])),
    ]
    for lat in hosts:
        for _ in range(6):
            w = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(-1, 1))
            if norm(lat, w) <= 0:
                continue
            bound = rng.randint(1, 6)
            got = root_slice(lat, w, bound)
            for d in got:
                assert norm(lat, d) == -2
                assert 0 < inner(lat, d, w) < bound
            assert got == brute_root_slice(lat.gram, w, bound)


def test_slice_levels_are_sorted_and_match_brute():
    # (host, w, levels below, box); a box twice as wide finds no further
    # root on these levels
    cases = [
        # dense w: every complement row has two nonzero entries
        (direct_sum(hyperbolic_plane(), from_diagonal([-2, -2])), (3, 2, 1, 1), 6, 6),
        (direct_sum(hyperbolic_plane(), from_diagonal([-2])), (3, 2, 1), 7, 12),
        # content 2: the odd levels are empty
        (direct_sum(hyperbolic_plane(), from_diagonal([-2])), (2, 2, 0), 9, 12),
        # rank-1 complement
        (Lattice(((2, 1), (1, -2))), (1, 0), 40, 60),
    ]
    slices = [_Slice(lat, w) for lat, w, _, _ in cases]
    assert all(sum(map(bool, row)) >= 2 for row in slices[0].rows)
    assert slices[2].d == 2 and len(slices[3].rows) == 1
    longest = 0
    for (lat, w, bound, box), sl in zip(cases, slices):
        brute = brute_root_slice(lat.gram, w, bound, box=box)
        assert brute
        for a in range(1, bound):
            level = list(sl.level(a))
            assert all(x < y for x, y in zip(level, level[1:])), (w, a)
            assert level == [d for d in brute if inner(lat, d, w) == a], (w, a)
            longest = max(longest, len(level))
    assert longest >= 8


def test_slice_coords_build_its_levels():
    # host(x_a, c) over coords(a) is level(a), in order and value, and the
    # complement pairing delta.y = x_a.y + c.(M y) holds for every root
    u_e8 = direct_sum(hyperbolic_plane(), e8_lattice())
    u_m2 = direct_sum(hyperbolic_plane(), from_diagonal([-2]))
    cases = [
        (u_e8, (3, 1) + (0,) * 8, 4),
        (u_e8, (2, 2) + (0,) * 8, 5),  # content 2: odd levels are empty
        (u_m2, (3, 2, 1), 7),
        (u_m2, (2, 2, 0), 9),
    ]
    rng = random.Random(37)
    empty = found = 0
    for lat, w, bound in cases:
        sl = _Slice(lat, w)
        y = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        gy = la.vecmat(y, lat.gram)
        my = la.matvec(sl.rows, gy)
        for a in range(1, bound):
            xa = sl.anchor(a)
            coords = list(sl.coords(a))
            level = list(sl.level(a))
            assert [sl.host(xa, c) for c in coords] == level, (w, a)
            below = root_slice(lat, w, a + 1)
            assert level == [d for d in below if inner(lat, d, w) == a], (w, a)
            if a % sl.d:
                assert not coords, (w, a)
                empty += 1
                continue
            assert inner(lat, xa, w) == a
            found += len(level)
            for c, d in zip(coords, level):
                assert la.dot(gy, d) == la.dot(gy, xa) + la.dot(my, c), (w, a, c)
    assert empty == 6 and found > 3000


def test_slice_centres_match_the_fraction_cleared_reference():
    # den, us and r1 from la.frac_inverse's (d, A) equal the values of P^-1
    # taken as Fractions and cleared to their lcm denominator
    u_e8 = direct_sum(hyperbolic_plane(), e8_lattice())
    for w in ((3, 1) + (0,) * 8, (2, 2) + (0,) * 8):
        sl = _Slice(u_e8, w)
        pinv = _frac_inverse(sl.pd)
        den = lcm(*(x.denominator for row in pinv for x in row))
        adj = [[int(den * x) for x in row] for row in pinv]
        gs = la.vecmat(sl.sol, u_e8.gram)
        ts = la.matvec(sl.rows, gs)
        us = la.matvec(adj, ts)
        assert (sl.den, sl.us) == (den, us), w
        assert sl.r1 == la.dot(gs, sl.sol) * den + la.dot(ts, us), w
        assert all(type(x) is int for x in (sl.den, sl.r1, *sl.us))


# --- the integer-scaled ellipsoid engine ---------------------------------


def _int_args(center, bound):
    """(cq, q, top) for the engine: centre cq / q and bound top / q, q reduced."""
    center, bound = [Fraction(c) for c in center], Fraction(bound)
    q = lcm(bound.denominator, *(c.denominator for c in center))
    return tuple(int(c * q) for c in center), q, int(bound * q)


def _points(pd, dec, center, bound, **kw):
    return list(_ellipsoid_points(pd, dec, *_int_args(center, bound), **kw))


def _ellipsoid_cases():
    """The seeded forms, and (pd, dec, center, bound) for each case."""
    rng = random.Random(907)
    forms = [((2, 1), (1, 3)), ((2, 1, 0), (1, 3, 1), (0, 1, 2))]
    for rank in (2, 3, 3, 4):
        gram = random_negdef_gram(rng, rank)
        forms.append(tuple(tuple(-g for g in row) for row in gram))
    # the first form's weights 1 / diag_k need a scale other than 1
    assert lcm(*la.symmetric_diagonalize(forms[0])[0]) != 1
    cases = []
    for pd in forms:
        dec = la.symmetric_diagonalize(pd)
        for den in (2, 3, 6):
            center = tuple(
                Fraction(rng.randint(-2 * den, 2 * den), den) for _ in pd
            )
            # the value at an integer point puts that point on the boundary
            p = [round(c) + rng.randint(-1, 1) for c in center]
            attained = _form_value(pd, [a - c for a, c in zip(p, center)])
            other = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 5)))
            cases += [(pd, dec, center, bound) for bound in (attained, other)]
    return forms, cases


def test_ellipsoid_points_against_box_scan():
    forms, cases = _ellipsoid_cases()
    on_boundary = 0
    for pd, dec, center, bound in cases:
        want = brute_ellipsoid(pd, center, bound)
        assert _points(pd, dec, center, bound) == [x for x, _ in want], (pd, center, bound)
        on_boundary += sum(1 for _, q in want if q == bound)
    assert on_boundary >= 3 * len(forms)


def test_ellipsoid_points_unreduced_denominator():
    # scaling (cq, q, top) by t keeps centre and bound, so the same list: the
    # slice passes its den unreduced
    for pd, dec, center, bound in _ellipsoid_cases()[1]:
        cq, q, top = _int_args(center, bound)
        for shell in (False, True):
            want = list(_ellipsoid_points(pd, dec, cq, q, top, shell=shell))
            for t in (2, 3, 6):
                scaled = tuple(t * c for c in cq), t * q, t * top
                assert list(_ellipsoid_points(pd, dec, *scaled, shell=shell)) == want


def test_ellipsoid_shell_against_box_scan():
    # the shell is the box scan cut to value == bound, in the same order
    cases = _ellipsoid_cases()[1]
    nonempty = empty = 0
    for pd, dec, center, bound in cases:
        want = [x for x, q in brute_ellipsoid(pd, center, bound) if q == bound]
        got = _points(pd, dec, center, bound, shell=True)
        assert got == want, (pd, center, bound)
        nonempty += bool(got)
        # a value of P(x - c) has a denominator dividing 36 here, never 5
        empty += bound.denominator == 5 and not got
    assert nonempty >= len(cases) // 2 and empty >= 1  # every attained bound
    # an unattained integer bound: 2a^2 + 2ab + 3b^2 takes no value 1
    pd = ((2, 1), (1, 3))
    dec = la.symmetric_diagonalize(pd)
    zero = (Fraction(0), Fraction(0))
    assert _points(pd, dec, zero, Fraction(1), shell=True) == []
    assert _points(pd, dec, zero, Fraction(2), shell=True) == [(-1, 0), (1, 0)]
    assert _points((), ((), ()), (), Fraction(0), shell=True) == [()]
    assert _points((), ((), ()), (), Fraction(3), shell=True) == []
    assert _points(pd, dec, zero, Fraction(-1), shell=True) == []


def test_ellipsoid_points_empty_and_zero_rank():
    pd = ((2, 1), (1, 3))
    dec = la.symmetric_diagonalize(pd)
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert _points(pd, dec, (half, Fraction(0)), Fraction(-1)) == []
    assert _points(pd, dec, (half, third), Fraction(0)) == []
    assert _points((), ((), ()), (), Fraction(3)) == [()]


def _half_cases():
    """(pd, dec, zero centre, bound) over the seeded forms, half of them attained."""
    rng = random.Random(911)
    cases = []
    for pd in _ellipsoid_cases()[0]:
        dec = la.symmetric_diagonalize(pd)
        zero = tuple(Fraction(0) for _ in pd)
        for _ in range(3):
            p = [rng.randint(-2, 2) for _ in pd]
            other = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3)))
            cases += [(pd, dec, zero, Fraction(_form_value(pd, p))), (pd, dec, zero, other)]
    return cases


def _last_nonzero(x):
    return next((c for c in reversed(x) if c), 0)


def test_ellipsoid_half_against_box_scan():
    # half: the box scan cut to the points whose last nonzero coordinate (the
    # engine's outermost level) is positive, in the same order; the shell too
    nonempty = 0
    for pd, dec, zero, bound in _half_cases():
        want = [(x, q) for x, q in brute_ellipsoid(pd, zero, bound) if _last_nonzero(x) > 0]
        assert _points(pd, dec, zero, bound, half=True) == [x for x, _ in want]
        shell = _points(pd, dec, zero, bound, shell=True, half=True)
        assert shell == [x for x, q in want if q == bound], (pd, bound)
        nonempty += bool(shell)
    assert nonempty >= len(_ellipsoid_cases()[0])


def test_ellipsoid_half_is_half_of_the_full_list():
    for pd, dec, zero, bound in _half_cases():
        origin = tuple(0 for _ in pd)
        for shell in (False, True):
            full = _points(pd, dec, zero, bound, shell=shell)
            got = _points(pd, dec, zero, bound, shell=shell, half=True)
            both = got + [tuple(-c for c in x) for x in got]
            assert sorted(both) == sorted(x for x in full if x != origin)
            assert len(set(both)) == len(both)


def test_ellipsoid_half_rank_zero_and_one():
    for shell in (False, True):
        for bound in (Fraction(0), Fraction(3)):
            assert _points((), ((), ()), (), bound, shell=shell, half=True) == []
    pd = ((2,),)
    dec = la.symmetric_diagonalize(pd)
    zero = (Fraction(0),)
    assert _points(pd, dec, zero, Fraction(8), half=True) == [(1,), (2,)]
    assert _points(pd, dec, zero, Fraction(1), half=True) == []
    assert _points(pd, dec, zero, Fraction(8), shell=True, half=True) == [(2,)]
    assert _points(pd, dec, zero, Fraction(0), shell=True, half=True) == []
    with pytest.raises(ValueError):
        _points(pd, dec, (Fraction(1, 2),), Fraction(8), half=True)


def test_slice_setup_holds_one_entry():
    assert enumeration._slice_setup.cache_info().maxsize == 1


def test_root_slice_same_with_a_cold_and_a_warm_setup():
    # two lattices and two w each, interleaved so that some calls hit the
    # one-entry cache and some replace it; every list equals its cold one
    u_e8 = direct_sum(hyperbolic_plane(), e8_lattice())
    u_m2 = direct_sum(hyperbolic_plane(), from_diagonal([-2]))
    cases = [
        (u_e8, (3, 1) + (0,) * 8, 3),
        (u_m2, (3, 2, 1), 7),
        (u_e8, (2, 2) + (0,) * 8, 5),
        (u_m2, (2, 2, 0), 9),
    ]
    cold = []
    for lat, w, bound in cases:
        enumeration._slice_setup.cache_clear()
        cold.append(root_slice(lat, w, bound))
    assert all(cold)
    enumeration._slice_setup.cache_clear()
    for i in (0, 0, 1, 0, 2, 2, 3, 1, 1, 3, 2, 0):
        lat, w, bound = cases[i]
        assert root_slice(lat, w, bound) == cold[i], i
        assert enumeration._slice_setup.cache_info().currsize == 1
    assert enumeration._slice_setup.cache_info().hits == 3


def test_slice_setup_refuses_an_indefinite_complement_on_every_call():
    # lru_cache keeps no exception: a refused w is refused again, also after
    # a good w on another lattice took the entry
    uu = direct_sum(hyperbolic_plane(), hyperbolic_plane())
    u_m2 = direct_sum(hyperbolic_plane(), from_diagonal([-2]))
    for _ in range(2):
        for call in (
            lambda: root_slice(uu, (1, 1, 0, 0), 3),
            lambda: _Slice(uu, (1, 1, 0, 0)),
        ):
            with pytest.raises(NotNegativeDefinite):
                call()
        assert root_slice(u_m2, (3, 2, 1), 7)
