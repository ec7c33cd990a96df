import json
import os
import subprocess
import sys
import time

import pytest

import k3lag
from k3lag.cli import build_parser, main

U3_GRAM = [
    ["0", "1", "0", "0", "0", "0"],
    ["1", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "1", "0", "0"],
    ["0", "0", "1", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "1"],
    ["0", "0", "0", "0", "1", "0"],
]


def run_cli(capsys, args, payload=None, tmp_path=None):
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        args = args + ["--input", str(path)]
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_classify_named_lattice(capsys):
    code, doc = run_cli(capsys, ["classify", "--lattice", "U"])
    assert code == 0
    assert doc["result"]["case"] == "PositiveWitness"
    assert doc["result"]["equal"] is True


def test_classify_minus_four(capsys, tmp_path):
    code, doc = run_cli(
        capsys, ["classify"], {"lattice": {"gram": [["-4"]]}}, tmp_path
    )
    assert code == 0
    r = doc["result"]
    assert r["case"] == "Split" and r["roots_generate"] is False and r["equal"] is False


def test_classify_nonsymmetric_gram_exits_2(capsys, tmp_path):
    code, doc = run_cli(
        capsys,
        ["classify"],
        {"lattice": {"gram": [["0", "1"], ["2", "0"]]}},
        tmp_path,
    )
    assert code == 2
    assert doc["error"]["code"] == "gram_not_symmetric"


def test_info_k3(capsys):
    code, doc = run_cli(capsys, ["info", "--lattice", "K3"])
    assert code == 0
    r = doc["result"]
    assert r["signature"] == ["3", "19", "0"]
    assert r["even"] is True and r["determinant"] in ("1", "-1")


def test_info_unknown_exits_3(capsys, tmp_path):
    code, doc = run_cli(
        capsys,
        ["info", "--height", "4"],
        {"lattice": {"gram": [["2", "0"], ["0", "-3"]]}},
        tmp_path,
    )
    assert code == 3
    assert doc["result"]["isotropic_unknown_height"] == "4"


def test_height_zero_is_not_the_default(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("K3LAG_HEIGHT", raising=False)
    code, doc = run_cli(
        capsys,
        ["info", "--height", "0"],
        {"lattice": {"gram": [["2", "0"], ["0", "-3"]]}},
        tmp_path,
    )
    assert code == 2
    assert doc["error"]["code"] == "bad_height"


def test_negative_height_exits_2(capsys, tmp_path):
    code, doc = run_cli(
        capsys,
        ["info", "--height", "-1"],
        {"lattice": {"gram": [["2", "0"], ["0", "-3"]]}},
        tmp_path,
    )
    assert code == 2
    assert doc["error"]["code"] == "bad_height"


def test_verify_info_with_zero_height_exits_2(capsys, tmp_path):
    code, doc = run_cli(
        capsys,
        ["info", "--height", "1"],
        {"lattice": {"gram": [["2", "0"], ["0", "-3"]]}},
        tmp_path,
    )
    assert code == 3
    doc["input"]["options"]["height"] = "0"
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 2
    assert vdoc["error"]["code"] == "bad_height"


def test_roots_e8_roundtrip(capsys, tmp_path):
    code, doc = run_cli(capsys, ["roots", "--lattice", "E8"])
    assert code == 0
    assert doc["result"]["count"] == "120" and doc["result"]["generates"] is True
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 0 and vdoc["result"]["ok"] is True


def _decompose_payload(gamma):
    return {
        "host": {"gram": U3_GRAM},
        "theta_re": ["1/1", "1/1", "0/1", "0/1", "0/1", "0/1"],
        "theta_im": ["0/1", "0/1", "1/1", "1/1", "0/1", "0/1"],
        "omega": ["0/1", "0/1", "0/1", "0/1", "1/1", "1/1"],
        "gamma": gamma,
    }


def test_decompose_fixture_and_verify(capsys, tmp_path):
    payload = _decompose_payload(["1", "-2", "0", "0", "0", "0"])
    code, doc = run_cli(capsys, ["decompose"], payload, tmp_path)
    assert code == 0
    terms = doc["result"]["certificate"]["terms"]
    assert [t["class"] for t in terms] == [
        ["2", "2", "0", "0", "0", "0"],
        ["-1", "-4", "0", "0", "0", "0"],
    ]
    assert doc["result"]["verified"] is True
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 0 and vdoc["result"]["ok"] is True


def test_decompose_phase_and_root_choice(capsys, tmp_path):
    payload = _decompose_payload(["0", "0", "1", "0", "0", "0"])
    code, doc = run_cli(capsys, ["decompose", "--root-choice", "-"], payload, tmp_path)
    assert code == 0
    phase = doc["result"]["phase"]
    assert phase["zeta_squared"] == {"re": "-1/1", "im": "0/1"}
    assert phase["root_choice"] == "-"


def test_decompose_not_lagrangian_exits_1(capsys, tmp_path):
    payload = _decompose_payload(["0", "0", "0", "0", "1", "0"])
    code, doc = run_cli(capsys, ["decompose"], payload, tmp_path)
    assert code == 1
    assert doc["error"]["code"] == "not_lagrangian"


def test_decompose_with_a_twelve_digit_gamma_takes_m_off_the_quadratic(tmp_path):
    # gamma = N (e1 - f1 + e2 - f2) against omega = e1 + f1: counting m up
    # from 1 would take about N * 1.4e-7 s, so run it in a child under a timeout
    n = 10**12
    payload = {
        "host": "K3",
        "omega": ["1/1", "1/1"] + ["0/1"] * 20,
        "gamma": [str(n), str(-n), str(n), str(-n)] + ["0"] * 18,
    }
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(k3lag.__file__))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "k3lag.cli", "decompose", "--input", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout
    doc = json.loads(proc.stdout)
    assert doc["result"]["verified"] is True
    assert elapsed < 1.0
    # alpha = m (e2 + f2), and (gamma - alpha)^2 = 2 m^2 - 4 N^2 > 0 first at m
    alpha = doc["result"]["certificate"]["terms"][0]["class"]
    m = int(alpha[2])
    assert alpha == ["0", "0", str(m), str(m)] + ["0"] * 18
    assert 2 * (m - 1) ** 2 <= 4 * n * n < 2 * m * m


def test_realize_roundtrip(capsys, tmp_path):
    rows = [["1" if j == 6 + i else "0" for j in range(22)] for i in range(8)]
    code, doc = run_cli(
        capsys, ["realize"], {"host": "K3", "sublattice": rows}, tmp_path
    )
    assert code == 0 and doc["result"]["ok"] is True
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 0 and vdoc["result"]["ok"] is True


def test_realize_not_saturated(capsys, tmp_path):
    rows = [["2", "0", "0", "0", "0", "0"]]
    code, doc = run_cli(
        capsys, ["realize"], {"host": {"gram": U3_GRAM}, "sublattice": rows}, tmp_path
    )
    assert code == 0
    assert doc["result"]["ok"] is False
    assert doc["result"]["failing_condition"] == "NotSaturated"


def test_realize_wrong_row_length_exits_2(capsys, tmp_path):
    rows = [["1", "0", "0", "0", "0"]]
    code, doc = run_cli(
        capsys, ["realize"], {"host": {"gram": U3_GRAM}, "sublattice": rows}, tmp_path
    )
    assert code == 2
    assert doc["error"]["code"] == "bad_sublattice"


def test_syz_fixture_and_verify(capsys, tmp_path):
    w = ["1", "1"] + ["0"] * 20
    code, doc = run_cli(capsys, ["syz"], {"host": "K3", "w": w}, tmp_path)
    assert code == 0
    r = doc["result"]
    assert r["ell"] == ["0", "0", "1"] + ["0"] * 19
    assert r["checks"]["ell_sq"] == "0" and r["checks"]["pairing"] == "0"
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 0 and vdoc["result"]["ok"] is True


def test_eichler_roundtrip(capsys, tmp_path):
    w = ["1", "1", "1", "1"] + ["0"] * 18
    code, doc = run_cli(capsys, ["eichler"], {"host": "K3", "w": w}, tmp_path)
    assert code == 0
    assert doc["result"]["d"] == "2"
    assert doc["result"]["checks"] == {"gram_preserved": True, "image_matches": True}
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 0 and vdoc["result"]["ok"] is True


def test_verify_rejects_tampering(capsys, tmp_path):
    w = ["1", "1"] + ["0"] * 20
    code, doc = run_cli(capsys, ["syz"], {"host": "K3", "w": w}, tmp_path)
    doc["result"]["ell"] = ["1", "0"] + ["0"] * 20
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 1
    assert vdoc["result"]["ok"] is False and vdoc["result"]["failures"]


def test_sample_contract_and_determinism(capsys):
    code, doc1 = run_cli(capsys, ["sample", "--count", "15", "--seed", "9"])
    assert code == 0
    r = doc1["result"]
    assert r["positive_successes"] == "15"
    assert r["isotropic_successes"] == "15"
    assert r["failures"] == []
    code, doc2 = run_cli(capsys, ["sample", "--count", "15", "--seed", "9"])
    assert doc1 == doc2


def test_sample_hundred_seed_42(capsys):
    # the canonical harness run: every trial witnessed on both routes
    code, doc = run_cli(capsys, ["sample", "--count", "100", "--seed", "42"])
    assert code == 0
    r = doc["result"]
    assert r["positive_successes"] == "100"
    assert r["isotropic_successes"] == "100"
    assert r["failures"] == []


def test_sample_forced_w(capsys, tmp_path):
    payload = {"force_w": ["1", "1"] + ["0"] * 20}
    code, doc = run_cli(
        capsys, ["sample", "--count", "1", "--seed", "1"], payload, tmp_path
    )
    assert code == 0
    assert doc["result"]["positive_successes"] == "1"
    assert doc["result"]["isotropic_successes"] == "1"


def test_sample_zero_count_exits_2(capsys):
    code, doc = run_cli(capsys, ["sample", "--count", "0"])
    assert code == 2 and doc["error"]["code"] == "bad_count"


def test_sample_verify_roundtrip(capsys, tmp_path):
    code, doc = run_cli(capsys, ["sample", "--count", "5", "--seed", "3"])
    assert code == 0
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 0 and vdoc["result"]["ok"] is True


def test_decompose_with_formal_omega(capsys, tmp_path):
    # realize Lag = E8 block, then feed the emitted formal witness back as
    # omega: the certificate must come out of the split/root branch
    rows = [["1" if j == 6 + i else "0" for j in range(22)] for i in range(8)]
    code, rdoc = run_cli(
        capsys, ["realize"], {"host": "K3", "sublattice": rows}, tmp_path
    )
    assert code == 0 and rdoc["result"]["ok"] is True
    gamma = ["0"] * 6 + ["2", "-1", "0", "1", "0", "0", "1", "0"] + ["0"] * 8
    payload = {
        "host": "K3",
        "omega": rdoc["result"]["witness"],
        "gamma": gamma,
    }
    code, doc = run_cli(capsys, ["decompose"], payload, tmp_path)
    assert code == 0
    assert doc["result"]["verified"] is True
    assert doc["result"]["lagrangian_rank"] == "8"
    assert len(doc["result"]["certificate"]["terms"]) > 1
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 0 and vdoc["result"]["ok"] is True


def test_decompose_with_formal_omega_and_theta(capsys, tmp_path):
    # a formal omega has no phase: the phase reads unavailable and the
    # certificate is the one of the theta-less run
    rows = [["1" if j == 6 + i else "0" for j in range(22)] for i in range(8)]
    _, rdoc = run_cli(capsys, ["realize"], {"host": "K3", "sublattice": rows}, tmp_path)
    gamma = ["0"] * 6 + ["2", "-1", "0", "1", "0", "0", "1", "0"] + ["0"] * 8
    payload = {"host": "K3", "omega": rdoc["result"]["witness"], "gamma": gamma}
    code, plain = run_cli(capsys, ["decompose"], payload, tmp_path)
    assert code == 0
    unit = [["1/1" if j in pair else "0/1" for j in range(22)] for pair in ((2, 3), (4, 5))]
    payload.update(theta_re=unit[0], theta_im=unit[1])
    code, doc = run_cli(capsys, ["decompose"], payload, tmp_path)
    assert code == 0
    assert doc["result"]["phase"] == {"unavailable": "formal_omega_unsupported"}
    assert doc["result"]["certificate"] == plain["result"]["certificate"]
    assert doc["result"]["verified"] is True
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 0 and vdoc["result"]["ok"] is True


def test_classify_and_info_roundtrip(capsys, tmp_path):
    # every emitted document re-parses and re-verifies
    for args in (["classify", "--lattice", "E8"], ["info", "--lattice", "U"]):
        code, doc = run_cli(capsys, args)
        assert code == 0
        code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
        assert code == 0 and vdoc["result"]["ok"] is True


def test_output_flag(tmp_path, capsys):
    out = tmp_path / "doc.json"
    code = main(["classify", "--lattice", "U", "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["result"]["case"] == "PositiveWitness"


def test_bad_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code = main(["syz", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["error"]["code"] == "bad_json"


# ---------------------------------------------------------------------------
# malformed documents: exit 0-3 with a JSON document, shape errors exit 2

E8_BLOCK = [["1" if j == 6 + i else "0" for j in range(22)] for i in range(8)]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_verify_list_command_exits_2(capsys, tmp_path):
    doc = {"command": ["eichler"], "input": {}, "result": {}}
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 2 and vdoc["error"]["code"] == "unsupported_verify"


def test_verify_non_object_classify_result_exits_2(capsys, tmp_path):
    code, doc = run_cli(capsys, ["classify", "--lattice", "E8"])
    doc["result"] = ["Split"]
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 2 and vdoc["error"]["code"] == "bad_document"


@pytest.mark.parametrize(
    "part, key, value",
    [("input", "host", "E8"), ("input", "host", "U"), ("result", "isometry", [["1"]])],
)
def test_verify_eichler_shape_mismatch_exits_2(capsys, tmp_path, part, key, value):
    w = ["1", "1", "1", "1"] + ["0"] * 18
    code, doc = run_cli(capsys, ["eichler"], {"host": "K3", "w": w}, tmp_path)
    doc[part][key] = value
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 2 and vdoc["error"]["code"] == "bad_shape"


def test_verify_sample_box_zero_exits_2(capsys):
    code, doc = run_cli(capsys, ["sample", "--count", "1", "--seed", "3"])
    doc["input"]["options"]["box"] = "0"
    # a sampler at box 0 would never draw a nonzero w: run it in a child
    # process under a timeout, so a regression fails instead of hanging
    src = os.path.dirname(os.path.dirname(k3lag.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "k3lag.cli", "verify"],
        input=json.dumps(doc),
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["code"] == "bad_box"


def test_verify_realize_short_row_exits_2_like_realize(capsys, tmp_path):
    code, doc = run_cli(capsys, ["realize"], {"host": "K3", "sublattice": E8_BLOCK}, tmp_path)
    doc["input"]["sublattice"] = [row[:5] for row in doc["input"]["sublattice"]]
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 2 and vdoc["error"]["code"] == "bad_sublattice"


def _tampered_realize(capsys, tmp_path, **fields):
    code, doc = run_cli(capsys, ["realize"], {"host": "K3", "sublattice": E8_BLOCK}, tmp_path)
    assert code == 0 and doc["result"]["ok"] is True
    for key, value in fields.items():
        target = doc["result"] if key == "eps_bound" else doc["result"]["witness"]
        target[key] = value
    return run_cli(capsys, ["verify"], doc, tmp_path)


def test_verify_realize_rejects_zero_witness_base(capsys, tmp_path):
    # the joint kernel of the y_i alone is still the E8 block
    code, vdoc = _tampered_realize(capsys, tmp_path, base=["0"] * 22)
    assert code == 1 and vdoc["result"]["ok"] is False
    assert vdoc["result"]["failures"] == ["witness base square is not positive"]


def test_verify_realize_rejects_all_zero_witness(capsys, tmp_path):
    # lag_lattice refuses a zero witness, so verify stops at its base
    code, doc = run_cli(capsys, ["realize"], {"host": "K3", "sublattice": E8_BLOCK}, tmp_path)
    witness = doc["result"]["witness"]
    witness["base"] = ["0"] * 22
    for term in witness["terms"]:
        term["vector"] = ["0"] * 22
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 1 and vdoc["result"]["ok"] is False
    assert vdoc["result"]["failures"] == ["witness base square is not positive"]


@pytest.mark.parametrize(
    "fields, failure",
    [
        ({"eps_bound": "1000", "eps": "999"}, "eps_bound exceeds the bound of the witness"),
        ({"eps": "2/41"}, "eps is not in (0, eps_bound)"),
        ({"eps_bound": "-1"}, "eps is not in (0, eps_bound)"),
    ],
    ids=["bound_too_large", "eps_at_bound", "bound_negative"],
)
def test_verify_realize_rejects_eps_outside_the_bound(capsys, tmp_path, fields, failure):
    code, vdoc = _tampered_realize(capsys, tmp_path, **fields)
    assert code == 1 and vdoc["result"]["ok"] is False
    assert failure in vdoc["result"]["failures"]


def test_output_unwritable_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "doc.json"
    code = main(["classify", "--lattice", "U", "--output", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2 and doc["error"]["code"] == "unwritable_output"
    assert not path.exists()


@pytest.mark.parametrize(
    "argv, word",
    [
        (["classify", "--lattice", "U", "--bogus"], "--bogus"),
        (["bogus"], "bogus"),
        ([], "command"),
    ],
    ids=["unknown_flag", "unknown_command", "missing_command"],
)
def test_argument_errors_exit_2_with_document(capsys, argv, word):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 2 and doc["error"]["code"] == "bad_arguments"
    assert word in doc["error"]["message"]
    assert captured.err == ""


@pytest.mark.parametrize(
    "args, payload",
    [
        (["decompose"], _decompose_payload(["1", "-2", "0", "0", "0"])),
        (["decompose"], dict(_decompose_payload(["1", "-2", "0", "0", "0", "0"]),
                             theta_re=["1/1"] * 5)),
        (["decompose"], dict(_decompose_payload(["1", "-2", "0", "0", "0", "0"]),
                             omega={"base": ["1/1"] * 6, "terms": [
                                 {"marker": "1", "vector": ["1/1"]}]})),
        (["syz"], {"host": "K3", "w": ["1", "1"] + ["0"] * 19}),
        (["eichler"], {"host": "K3", "w": ["1", "1"] + ["0"] * 19}),
        (["sample", "--count", "1"], {"force_w": ["1", "1"] + ["0"] * 19}),
    ],
)
def test_wrong_length_vector_exits_2(capsys, tmp_path, args, payload):
    code, doc = run_cli(capsys, args, payload, tmp_path)
    assert code == 2 and doc["error"]["code"] == "bad_shape"


@pytest.mark.parametrize(
    "args, payload, path",
    [
        (["syz"], {"host": "K3", "w": ["1", "1"] + ["0"] * 20}, ("ell",)),
        (["roots", "--lattice", "E8"], None, ("roots", 0)),
        (["classify", "--lattice", "U"], None, ("witness",)),
        (["decompose"], _decompose_payload(["1", "-2", "0", "0", "0", "0"]),
         ("certificate", "terms", 0, "class")),
    ],
)
def test_verify_wrong_length_result_vector_exits_2(capsys, tmp_path, args, payload, path):
    code, doc = run_cli(capsys, args, payload, tmp_path)
    assert code == 0
    owner = doc["result"]
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = owner[path[-1]][:-1]
    code, vdoc = run_cli(capsys, ["verify"], doc, tmp_path)
    assert code == 2 and vdoc["error"]["code"] == "bad_shape"


@pytest.mark.parametrize(
    "args, error",
    [
        (["sample", "--count", "abc"], "bad_integer"),
        (["sample", "--mode", "sideways"], "bad_mode"),
        (["decompose", "--root-choice", "x"], "bad_root_choice"),
    ],
)
def test_flag_values_decoded_like_documents(capsys, tmp_path, args, error):
    code, doc = run_cli(capsys, args, _decompose_payload(["1", "-2", "0", "0", "0", "0"]),
                        tmp_path)
    assert code == 2 and doc["error"]["code"] == error


def _k3_w(*entries):
    return json.dumps({"host": "K3", "w": list(entries) + ["0"] * (22 - len(entries))})


DIGITS = 4300  # CPython's default int <-> str limit, set in the child's environment
E2200 = 10**2200
# w.w = -2 * 10^2200 * (10^2200 + 1) has 4401 digits: a refusal's message and
# payload cannot print it
LONG_NEGATIVE = (str(E2200), str(-E2200 - 1))
BARE = "1" * 5000  # a bare JSON number, which json.loads converts with int()


@pytest.mark.parametrize(
    "command, stdin, exit_code, error",
    [
        ("eichler", _k3_w("1" * (DIGITS + 1), "1"), 2, "integer_too_large"),
        ("syz", _k3_w("1" * (DIGITS + 1) + "/1", "1"), 2, "integer_too_large"),
        ("syz", _k3_w("1/" + "1" * (DIGITS + 1), "1"), 2, "integer_too_large"),
        ("verify", "[" * 200_000, 2, "bad_json"),
        # d = w.w / 2 = 10^4400 + 10^2200 has 4401 digits
        ("eichler", _k3_w(str(E2200), str(E2200 + 1)), 1, "answer_too_large"),
        # exactly at the limit: a non-saturated sublattice, and w = (1/q, 1/q)
        ("realize", json.dumps({"sublattice": [[str(10 ** (DIGITS - 1))] + ["0"] * 21]}), 0, None),
        ("syz", _k3_w("1/" + "1" * DIGITS, "1/" + "1" * DIGITS), 0, None),
        ("eichler", _k3_w(*LONG_NEGATIVE), 1, "negative_norm"),
        ("syz", _k3_w(*LONG_NEGATIVE), 1, "not_positive"),
        ("decompose", json.dumps({"host": "K3", "omega": list(LONG_NEGATIVE) + ["0"] * 20,
                                  "gamma": ["0"] * 22}), 1, "not_positive"),
        ("verify", '{"lattice": %s}' % BARE, 2, "integer_too_large"),
        ("verify", '{"lattice": {"gram": [[%s]]}}' % BARE, 2, "integer_too_large"),
        ("verify", "[%s]" % BARE, 2, "integer_too_large"),
    ],
    ids=["int_too_long", "numerator_too_long", "denominator_too_long", "deep_json",
         "answer_too_long", "int_at_limit", "denominator_at_limit", "long_norm_message",
         "long_syz_message", "long_omega_message", "bare_number", "bare_number_in_gram",
         "bare_number_at_top"],
)
def test_digit_limit_and_nesting_end_in_a_document(command, stdin, exit_code, error):
    # a child process, so the digit limit is the one the environment sets
    src = os.path.dirname(os.path.dirname(k3lag.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "k3lag.cli", command],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS=str(DIGITS)),
    )
    assert proc.returncode == exit_code and proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc.get("error", {}).get("code") == error
