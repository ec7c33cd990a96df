"""Golden CLI documents: sha256 of stdout on fixed inputs.

Each case runs one subcommand in-process and then `verify` on the document
it printed; both stdout texts must hash to the recorded values. The hashes
pin the documents byte for byte, so a refactor or a speed-up of the library
that changes any emitted document fails here. To print the current hashes
(for instance after a deliberate change of the wire format), run

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from k3lag import intlinalg as la
from k3lag import cli
from k3lag import serialize as ser
from k3lag.cli import main
from k3lag.enumeration import Unknown, find_isotropic
from k3lag.hodge import GaussianRational
from k3lag.lattice import (
    FormalVector,
    Lattice,
    Sublattice,
    direct_sum,
    e8_lattice,
    hyperbolic_plane,
)
from k3lag.sampling import sample_trials

U3_GRAM = [
    ["1" if j == (i ^ 1) else "0" for j in range(6)] for i in range(6)
]
E8_BLOCK = [["1" if j == 6 + i else "0" for j in range(22)] for i in range(8)]


def _gram(rows):
    return {"gram": [[str(x) for x in row] for row in rows]}


def _decompose_payload(gamma, omega=("0/1", "0/1", "0/1", "0/1", "1/1", "1/1")):
    return {
        "host": {"gram": U3_GRAM},
        "theta_re": ["1/1", "1/1", "0/1", "0/1", "0/1", "0/1"],
        "theta_im": ["0/1", "0/1", "1/1", "1/1", "0/1", "0/1"],
        "omega": list(omega),
        "gamma": [str(x) for x in gamma],
    }


def _formal_omega_payload(run):
    # the realize witness of the E8 block, fed back as a formal omega
    _, text = run(["realize"], {"host": "K3", "sublattice": E8_BLOCK})
    gamma = [0] * 6 + [2, -1, 0, 1, 0, 0, 1, 0] + [0] * 8
    return {
        "host": "K3",
        "omega": json.loads(text)["result"]["witness"],
        "gamma": [str(x) for x in gamma],
    }


def _u_e8_e8_payload():
    # omega-perp is <-12> + E8 + E8, so the certificate solves gamma over the
    # 240 roots of E8 + E8; gamma = r1 + 2 r2 - r3 with r1, r2 in the first
    # E8 and r3 in the second
    host = direct_sum(hyperbolic_plane(), e8_lattice(), e8_lattice())
    gamma = [0, 0, 1, 2, 3, 4, 3, 4, 3, 3] + [0] * 7 + [-1]
    return {
        "host": _gram(host.gram),
        "omega": ["3", "2"] + ["0"] * 16,
        "gamma": [str(x) for x in gamma],
    }


def _k3_vector(*coords):
    return [str(x) for x in coords] + ["0"] * (22 - len(coords))


def _k3_sparse(entries):
    """A K3 vector from {coordinate: value}, as decimal strings."""
    return [str(entries.get(i, 0)) for i in range(22)]


# a rank-3 saturated sublattice of K3 moved by two Eichler transvections, as
# the benchmark's `saturated` realize inputs are: its complement has no
# positive diagonal entry, so find_positive returns a basis pair
TRANSVECTED = [_k3_sparse({2: -1, 17: 1}), _k3_sparse({0: -1, 20: 1}), _k3_sparse({12: 1})]

# the diagonal form <5, -1, 3, 2>, isotropic over Q, in the basis of the rows
# of a unimodular M (a seeded benchmark `info` input): the box scan finds no
# vector up to height 6
ISOTROPIC_DIAGONAL = (5, -1, 3, 2)
ISOTROPIC_BASIS = ((1, 0, 0, -1), (-2, 1, 1, 1), (0, 0, 1, 0), (0, 0, 0, 1))
ISOTROPIC_GRAM = [
    [sum(a * d * b for a, d, b in zip(u, ISOTROPIC_DIAGONAL, v)) for v in ISOTROPIC_BASIS]
    for u in ISOTROPIC_BASIS
]


# name -> (argv, payload or a function of the runner giving it)
CASES = {
    "sample_5_seed_42": (
        ["sample", "--count", "5", "--seed", "42", "--mode", "both"], None),
    # the headline run; its trials reach every branch of find_positive
    "sample_100_seed_42": (
        ["sample", "--count", "100", "--seed", "42", "--mode", "both"], None),
    "classify_e8": (["classify", "--lattice", "E8"], None),
    "classify_minus_four": (["classify"], {"lattice": _gram([[-4]])}),
    "classify_u_minus2": (
        ["classify"], {"lattice": _gram([[0, 1, 0], [1, 0, 0], [0, 0, -2]])}),
    "classify_zero_diagonal": (
        ["classify"],
        {"lattice": _gram([[0, 2, 1, 0], [2, 0, 0, 1], [1, 0, 0, 3], [0, 1, 3, 0]])}),
    "decompose_u3": (["decompose"], _decompose_payload([1, -2, 0, 0, 0, 0])),
    "decompose_u3_minus": (
        ["decompose", "--root-choice", "-"], _decompose_payload([0, 0, 1, 0, 0, 0])),
    "decompose_u3_rational_omega": (
        ["decompose"],
        _decompose_payload([1, -2, 0, 0, 0, 0], ("0", "0", "0", "0", "1/2", "1/3"))),
    "decompose_u3_not_positive": (
        ["decompose"],
        _decompose_payload([1, -2, 0, 0, 0, 0], ("0", "0", "0", "0", "1/2", "-1/3"))),
    "decompose_formal_omega": (["decompose"], _formal_omega_payload),
    "decompose_u_e8_e8": (["decompose"], _u_e8_e8_payload()),
    "roots_e8": (["roots", "--lattice", "E8"], None),
    "roots_u_minus2": (
        ["roots"], {"lattice": _gram([[0, 1, 0], [1, 0, 0], [0, 0, -2]])}),
    # a refusal with a nonzero radical: <-2> + <0> has signature (0, 1, 1)
    "roots_degenerate": (["roots"], {"lattice": _gram([[-2, 0], [0, 0]])}),
    "info_u": (["info", "--lattice", "U"], None),
    "info_k3": (["info", "--lattice", "K3"], None),
    "info_unknown": (
        ["info", "--height", "2"], {"lattice": _gram([[2, 0], [0, -3]])}),
    "info_zero_diagonal": (
        ["info", "--height", "2"],
        {"lattice": _gram([[0, 2, 1, 0], [2, 0, 0, 1], [1, 0, 0, 3], [0, 1, 3, 0]])}),
    # <-3> + <7> + <-1>: the box scan finds (1, 1, 2) at height 2, with a
    # negative last diagonal entry
    "info_box_scan": (
        ["info", "--height", "3"], {"lattice": _gram([[-3, 0, 0], [0, 7, 0], [0, 0, -1]])}),
    # <-3> + <5> + <-2> + <1> + <-2> conjugated by a unimodular matrix: the
    # box scan finds its vector at height 2
    "info_box_scan_rank5": (
        ["info", "--height", "2"],
        {"lattice": _gram([[-3, 0, 3, 0, 0], [0, -5, 6, 4, 4], [3, 6, -13, -4, -4],
                           [0, 4, -4, -1, -2], [0, 4, -4, -2, -2]])}),
    # Unknown at height 2 on an isotropic form: the scan runs to its end
    "info_unknown_isotropic": (["info", "--height", "2"], {"lattice": _gram(ISOTROPIC_GRAM)}),
    "info_negative_definite": (
        ["info", "--height", "2"], {"lattice": _gram([[-2, 1], [1, -4]])}),
    # U + <0>: the isotropic vector comes from the radical
    "info_degenerate": (
        ["info", "--height", "2"], {"lattice": _gram([[0, 1, 0], [1, 0, 0], [0, 0, 0]])}),
    "realize_e8_block": (["realize"], {"host": "K3", "sublattice": E8_BLOCK}),
    "realize_not_saturated": (
        ["realize"],
        {"host": {"gram": U3_GRAM}, "sublattice": [["2", "0", "0", "0", "0", "0"]]}),
    "realize_transvected": (["realize"], {"host": "K3", "sublattice": TRANSVECTED}),
    "realize_not_proper": (
        ["realize"], {"host": {"gram": U3_GRAM}, "sublattice": _gram(la.identity(6))["gram"]}),
    # U^3 and two nodes of the first E8: the complement, inside E8 + E8, has
    # no positive vector
    "realize_no_positive": (
        ["realize"], {"host": "K3", "sublattice": [_k3_vector(*([0] * i + [1])) for i in range(8)]}),
    "realize_degenerate_host": (
        ["realize"],
        {"host": _gram([[0, 1, 0], [1, 0, 0], [0, 0, 0]]), "sublattice": [["1", "0", "0"]]}),
    "syz_k3": (["syz"], {"host": "K3", "w": _k3_vector(1, 1)}),
    "syz_k3_mixed": (
        ["syz"], {"host": "K3", "w": _k3_vector(2, 3, 1, -1, 0, 1, 1, 0, 0, -1)}),
    "syz_k3_rational": (
        ["syz"], {"host": "K3", "w": ["1/2", "3/1"] + ["0/1"] * 20}),
    "eichler_k3": (["eichler"], {"host": "K3", "w": _k3_vector(1, 1, 1, 1)}),
}

# sha256 of (exit code, stdout) of each case and of `verify` on its document,
# recorded before the fraction-free diagonalization replaced the Fraction one
GOLDEN = {
    'classify_e8': (
        'a63c56060fac56fc3e79bec7e77578ac46b2a902cf11966ff0888b8f13a7bb0c',
        '5449deb5019f5cb97b8d1ff5193b98fa02d4204e4f260f22c629fc2b6de12a8e'),
    'classify_minus_four': (
        '4a31c4e12e30e30959ebd399b819df5f19f6c950429b3875b9151dfbba962aa3',
        '5449deb5019f5cb97b8d1ff5193b98fa02d4204e4f260f22c629fc2b6de12a8e'),
    'classify_u_minus2': (
        '8bfaf8e5c97cc243aa4723bf671278ad9101e82acebf3810ebe68601e43aadf1',
        '5449deb5019f5cb97b8d1ff5193b98fa02d4204e4f260f22c629fc2b6de12a8e'),
    'classify_zero_diagonal': (
        'b0ce457b4e058d36dce645f89ac21d11843c1dc0fd1afb50b3fcfd63173d86fb',
        '5449deb5019f5cb97b8d1ff5193b98fa02d4204e4f260f22c629fc2b6de12a8e'),
    'decompose_formal_omega': (
        '4efab8bacd3d2de64076b8049c22801438763d6b04db9f9657956b5864b4add0',
        '4df7ea16d73a14fa3370e51757025554aa63fc8271246ae260851366b703ccf8'),
    'decompose_u3': (
        '63ac198e746c3eca24ac9bf7a2ef7fd2474a198380c20441b00eba05f3ce7d52',
        '4df7ea16d73a14fa3370e51757025554aa63fc8271246ae260851366b703ccf8'),
    # recorded before lag_lattice cleared omega's denominators into one
    # integer vector
    'decompose_u3_not_positive': (
        '4e05e4eca4b5258e2eb1c5f65ebc096ab3453612c164feefb6785d6d6e518201',
        'c3c35c2d04c5a2ca0240bd6762c61dc5349b5ecd5d36d2a534e44088b9d65393'),
    'decompose_u3_rational_omega': (
        '7c8edf9de2933e1efb781c69d18ac6528f1505ea5195d05f376b34804701be50',
        '4df7ea16d73a14fa3370e51757025554aa63fc8271246ae260851366b703ccf8'),
    'decompose_u3_minus': (
        '7e4069c844f1b5415a7a2d95f835b9337b5379215b31f920a829f567f308cc25',
        '4df7ea16d73a14fa3370e51757025554aa63fc8271246ae260851366b703ccf8'),
    # recorded before solve_left stopped building the m x m transform
    'decompose_u_e8_e8': (
        '6ec23c05066dd5b1f40b16923029f6a4c6c3290be52faee69aaccaded8472ad3',
        '4df7ea16d73a14fa3370e51757025554aa63fc8271246ae260851366b703ccf8'),
    'eichler_k3': (
        '6f4ddb9e89ab5be95023fb7c0eda921938e9b34a797474756663579b3a1b0479',
        '004e9ed166ff75f5b12f44b7dacbc0e58d0cd342e7b40644260a32739b712bd3'),
    # recorded before the box scan solved for its last coordinate
    'info_box_scan': (
        '2c3471e4c078de82a5ef9cbb45c59218819da795fdd9a7161692b0e858941123',
        '2aeb7de3afb02d535ec5e6a86140ecf49cc936b493aacea53c12275eeea3e3ff'),
    'info_box_scan_rank5': (
        '383834b8ea504f77b61c423f592edda862ab35f109e1da8a66236bfab77033a4',
        '2aeb7de3afb02d535ec5e6a86140ecf49cc936b493aacea53c12275eeea3e3ff'),
    # the three *_degenerate cases were recorded before nondegeneracy was read
    # off the signature's z instead of the radical
    'info_degenerate': (
        '4030d25d18f19a3c4fad49661b64288c9c986866e6b96f6939458f9f87454206',
        '2aeb7de3afb02d535ec5e6a86140ecf49cc936b493aacea53c12275eeea3e3ff'),
    'info_k3': (
        'ece68bafa54b8920a85cac6b610712f7e7b9420df9b8406a0720c954c2cd9012',
        '2aeb7de3afb02d535ec5e6a86140ecf49cc936b493aacea53c12275eeea3e3ff'),
    'info_negative_definite': (
        '8eca66f36a5e701d2bd76bf28b46492b44a2e79e2c75d53411fa4311ffd6058c',
        '2aeb7de3afb02d535ec5e6a86140ecf49cc936b493aacea53c12275eeea3e3ff'),
    'info_u': (
        'cda2e1933bf587cad11169fdafae93ed77b60346292397555a2035628811ad25',
        '2aeb7de3afb02d535ec5e6a86140ecf49cc936b493aacea53c12275eeea3e3ff'),
    'info_unknown': (
        'a25645290f9cabcc372f1d258a37765b3991e36a537d280688698cc391c6841a',
        '2aeb7de3afb02d535ec5e6a86140ecf49cc936b493aacea53c12275eeea3e3ff'),
    'info_zero_diagonal': (
        '05975ac8ac701e0d5f379d64e430e905c0afcc2be26524826084b519cd87739d',
        '2aeb7de3afb02d535ec5e6a86140ecf49cc936b493aacea53c12275eeea3e3ff'),
    'realize_degenerate_host': (
        '80db5c085504f83dfa0570765a2bc671b6824dd7cb668a6959cf4476ecdcbf3f',
        'c3c35c2d04c5a2ca0240bd6762c61dc5349b5ecd5d36d2a534e44088b9d65393'),
    'realize_e8_block': (
        'ebc873e375b4d6f77aefde0a912a4acbd3c2c832a367251a2cf3bec54f492e6b',
        '0334c8d54ce35b6810b9381bb655a56df077e8dce9ab31f526b8320069f42119'),
    'realize_not_saturated': (
        'd1191a086f98b9ebca4a50d876ea0a784207a24267c9c4023891d8761d97d75b',
        '0334c8d54ce35b6810b9381bb655a56df077e8dce9ab31f526b8320069f42119'),
    'roots_degenerate': (
        'b6e0c4a7489b383b9a58d46ddd862fd824ec0f1ddc0ac660c6284dcc711247f7',
        'c3c35c2d04c5a2ca0240bd6762c61dc5349b5ecd5d36d2a534e44088b9d65393'),
    'roots_e8': (
        '19d2423eceb6fc27647b967cd769387b3fc6b527d5ae3fb365630f0436ded88b',
        '8ea3af95f667cb18279f8954299d70bee95531980f891e50526bb60a20fc86e6'),
    'roots_u_minus2': (
        '707188fd07edfddacc5f8759ca39782c6735f1b96b0294c732d5bba34a929d12',
        'c3c35c2d04c5a2ca0240bd6762c61dc5349b5ecd5d36d2a534e44088b9d65393'),
    # recorded before find_positive stopped at the first positive pivot
    'sample_100_seed_42': (
        'b66349f7e0f171b842c185d21b8efd37f257c46ef933ba599b78fb6a689a4aa7',
        '2a39521dcab4784d9ff297bb1a581002d5a9975ad6d62bd78b1007b205a4737b'),
    'sample_5_seed_42': (
        '3177cf65a37a3a81e554fb028f058c62e556e3aae045fba95ecbfa08b7bd9149',
        '2a39521dcab4784d9ff297bb1a581002d5a9975ad6d62bd78b1007b205a4737b'),
    # the next four were recorded before saturate read saturation off its
    # pivots, find_positive asked for the signature last and the box scan
    # solved for two coordinates
    'info_unknown_isotropic': (
        'b15b6b9d3673b4dd363d9fdd9ba0b15bf24847f799e6c1c03e6126ce00aa9d47',
        '2aeb7de3afb02d535ec5e6a86140ecf49cc936b493aacea53c12275eeea3e3ff'),
    'realize_no_positive': (
        '4a51dee492ee4de2134aca89f51802c3beead07b30b707c3eff5fc3e61fa45a7',
        '0334c8d54ce35b6810b9381bb655a56df077e8dce9ab31f526b8320069f42119'),
    'realize_not_proper': (
        'a359f3c2826a9af16cf27d78b4b44e841786f58ebe4fa793e735754d4c36ec97',
        '0334c8d54ce35b6810b9381bb655a56df077e8dce9ab31f526b8320069f42119'),
    'realize_transvected': (
        '0d28efae7485de683e02210a863d028bfae5f5d10675756d7c50f346dfd2f468',
        '0334c8d54ce35b6810b9381bb655a56df077e8dce9ab31f526b8320069f42119'),
    'syz_k3': (
        '8bb223221deacba21e40b620a41d63429e885e1fb97e3178b72ed93bc92ff090',
        '63fd171074b0273e3bd3d1722fa8747b3021c6777d503d864571a4fb1607c441'),
    'syz_k3_mixed': (
        '99cba16b84d8cfdea743d8850858d71080be8f81b47c79efa73dc11f7233f0e7',
        '63fd171074b0273e3bd3d1722fa8747b3021c6777d503d864571a4fb1607c441'),
    'syz_k3_rational': (
        'f709ba0519a298693f6def17d35eb6b165f1d04e4b9059cefab418af503a7776',
        '63fd171074b0273e3bd3d1722fa8747b3021c6777d503d864571a4fb1607c441'),
}


def _runner(tmp_path, capsys):
    def run(argv, payload=None):
        if payload is not None:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            argv = argv + ["--input", str(path)]
        code = main(argv)
        return code, capsys.readouterr().out

    return run


def _digest(code, text):
    return hashlib.sha256(f"{code}\n{text}".encode("utf-8")).hexdigest()


def _hashes(name, run):
    argv, payload = CASES[name]
    if callable(payload):
        payload = payload(run)
    code, text = run(argv, payload)
    vcode, vtext = run(["verify"], json.loads(text))
    return _digest(code, text), _digest(vcode, vtext)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_document(name, tmp_path, capsys):
    assert _hashes(name, _runner(tmp_path, capsys)) == GOLDEN[name]


def _enc_reference(value):
    """serialize.enc as it was before list entries that are ints were
    formatted in place: one recursive call per entry."""
    if value is None or isinstance(value, (bool, str, float)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (tuple, list)):
        return [_enc_reference(x) for x in value]
    if isinstance(value, dict):
        return {k: _enc_reference(v) for k, v in value.items()}
    if isinstance(value, Lattice):
        return {"gram": _enc_reference(value.gram)}
    if isinstance(value, Sublattice):
        return _enc_reference(value.basis)
    if isinstance(value, GaussianRational):
        return {"re": _enc_reference(Fraction(value.re)), "im": _enc_reference(Fraction(value.im))}
    if isinstance(value, FormalVector):
        terms = [{"marker": i, "vector": v} for i, v in value.terms]
        return _enc_reference({"base": value.base, "eps": value.eps, "terms": terms})
    raise TypeError(f"no wire form for {type(value).__name__}")


def test_enc_matches_the_reference(tmp_path, capsys, monkeypatch):
    mixed = [True, False, None, "7", 2.5, Fraction(-3, 4), 0, -12, (1, False), [None, (True, 3)]]
    for value in (mixed, tuple(mixed), {"a": mixed, "b": (True, 1)}):
        assert ser.enc(value) == _enc_reference(value)
    assert ser.enc(mixed) == [True, False, None, "7", 2.5, "-3/4", "0", "-12", ["1", False],
                              [None, [True, "3"]]]
    # every document the golden cases emit, compared where the CLI encodes it
    calls = []

    class Checked:
        def __getattr__(self, name):
            return getattr(ser, name)

        @staticmethod
        def enc(value):
            calls.append(value)
            got = ser.enc(value)
            assert got == _enc_reference(value), value
            return got

    monkeypatch.setattr(cli, "ser", Checked())
    run = _runner(tmp_path, capsys)
    for name in sorted(CASES):
        assert _hashes(name, run) == GOLDEN[name]
    assert len(calls) > len(CASES)


def test_unknown_isotropic_case_is_isotropic():
    # the benchmark's independent Hasse-Minkowski test decides the diagonal
    # form; the unimodular basis change keeps it, so Unknown is honest only
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import arith
    finally:
        sys.path.pop(0)
    assert arith.diagonal_isotropic(ISOTROPIC_DIAGONAL)
    assert abs(la.det(ISOTROPIC_BASIS)) == 1
    lat = Lattice(la.freeze(ISOTROPIC_GRAM))
    assert find_isotropic(lat, 2) == Unknown(2)


def test_package_built_bases_are_hnf(tmp_path, capsys, monkeypatch):
    # Sublattice._from_hnf trusts its basis; check that trust on every golden
    # case and 50 sample trials
    trusted = Sublattice._from_hnf.__func__
    seen = []

    def checked(cls, host, basis):
        assert all(type(x) is int for row in basis for x in row)
        assert all(len(row) == host.rank for row in basis)
        assert basis == la.hnf(basis, host.rank)
        seen.append(len(basis))
        return trusted(cls, host, basis)

    monkeypatch.setattr(Sublattice, "_from_hnf", classmethod(checked))
    run = _runner(tmp_path, capsys)
    for name in sorted(CASES):
        assert _hashes(name, run) == GOLDEN[name]
    report = sample_trials(50, 7, 3, "both")
    assert report["positive_successes"] == report["isotropic_successes"] == 50
    assert len(seen) > 100


if __name__ == "__main__":
    import io
    import tempfile
    from contextlib import redirect_stdout

    class _Capture:
        def __init__(self):
            self.buf = io.StringIO()

        def readouterr(self):
            out = self.buf.getvalue()
            self.buf.seek(0)
            self.buf.truncate()
            return type("Captured", (), {"out": out})

    cap = _Capture()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(cap.buf):
        table = {name: _hashes(name, _runner(Path(tmp), cap)) for name in sorted(CASES)}
    for name, pair in table.items():
        sys.stdout.write(f"    {name!r}: (\n        {pair[0]!r},\n        {pair[1]!r}),\n")
