"""Command-line surface.

Subcommands: info, classify, decompose, realize, syz, eichler, roots,
sample, verify. Documents are UTF-8 JSON on stdin/stdout (or --input /
--output); all integers are decimal strings. Exit codes: 0 success, 1
library error or failed verification, 2 malformed input, 3 honest Unknown
(isotropic search height exhausted). Identical inputs (including seed)
produce byte-identical output.
"""
from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Optional, Tuple

from . import serialize as ser
from .criteria import (
    SlagCertificate,
    certificate_for,
    classify,
    lag_lattice,
    realizable,
    verify_certificate,
)
from .eichler import canonical_form, orth_witnesses
from .enumeration import Unknown, find_isotropic, find_positive, roots_generate
from .errors import InvalidPeriod, LatticeError, RankMismatch, TypeOneOne
from .exact import primitivize, rational_direction
from .fibration import syz_witness
from .hodge import PeriodData, phase_square
from .lattice import (
    Isometry,
    Lattice,
    Sublattice,
    inner,
    is_primitive,
    k3_lattice,
    norm,
    signature,
)

HEIGHT_ENV = "K3LAG_HEIGHT"
DEFAULT_HEIGHT = 6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3lag",
        description="Exact lattice decision procedures for Lagrangian classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, needs_lattice: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name)
        p.add_argument("--input", help="path to a JSON input document ('-' for stdin)")
        p.add_argument("--output", help="write the result document to this path")
        if needs_lattice:
            p.add_argument("--lattice", help="named lattice (U, E8, K3) or a JSON file")
        return p

    p = add("info", needs_lattice=True)
    p.add_argument("--height", type=int, help="isotropic search height")
    add("classify", needs_lattice=True)
    add("roots", needs_lattice=True)
    p = add("decompose")
    p.add_argument("--root-choice", choices=["+", "-"], default="+")
    add("realize")
    add("syz")
    add("eichler")
    p = add("sample")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", type=int, default=3)
    p.add_argument("--mode", choices=["positive", "isotropic", "both"], default="both")
    add("verify")
    return parser


def _read_payload(args, required: bool) -> Optional[dict]:
    if args.input:
        if args.input == "-":
            return ser.loads(sys.stdin.read())
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                return ser.loads(fh.read())
        except OSError as exc:
            raise ser.InputError("unreadable_input", str(exc))
    if required:
        return ser.loads(sys.stdin.read())
    return None


def _lattice_from_args(args, payload: Optional[dict]) -> Lattice:
    spec = getattr(args, "lattice", None)
    if spec is not None:
        if spec in ser.NAMED_LATTICES:
            return ser.dec_lattice(spec)
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                return ser.dec_lattice(ser.loads(fh.read()))
        except OSError as exc:
            raise ser.InputError("unreadable_lattice", str(exc))
    if payload and "lattice" in payload:
        return ser.dec_lattice(payload["lattice"])
    raise ser.InputError("missing_lattice", "provide --lattice or a lattice payload")


def _host_from(payload: dict) -> Lattice:
    return ser.dec_lattice(payload.get("host", "K3"), "host")


def _checked_height(height: int) -> int:
    if height < 1:
        raise ser.InputError("bad_height", "height must be >= 1")
    return height


def _default_height(args) -> int:
    if getattr(args, "height", None) is not None:
        return _checked_height(args.height)
    env = os.environ.get(HEIGHT_ENV)
    if env is not None:
        try:
            height = int(env)
        except ValueError:
            raise ser.InputError("bad_height", f"{HEIGHT_ENV} must be an integer")
        return _checked_height(height)
    return DEFAULT_HEIGHT


# ---------------------------------------------------------------------------
# command handlers: each returns (document, exit_code)


def _info_result(lat: Lattice, height: int) -> Tuple[dict, int]:
    p, n, z = signature(lat)
    pos = find_positive(lat)
    iso = find_isotropic(lat, height)
    result = {
        "rank": ser.enc_int(lat.rank),
        "even": lat.even,
        "determinant": ser.enc_int(lat.det()),
        "signature": [ser.enc_int(p), ser.enc_int(n), ser.enc_int(z)],
        "positive_vector": ser.enc_ivec(pos) if pos is not None else None,
    }
    code = 0
    if isinstance(iso, Unknown):
        result["isotropic_vector"] = None
        result["isotropic_unknown_height"] = ser.enc_int(iso.height)
        code = 3
    else:
        result["isotropic_vector"] = (
            ser.enc_ivec(iso) if iso is not None else None
        )
    return result, code


def _cmd_info(args) -> Tuple[dict, int]:
    payload = _read_payload(args, required=False)
    lat = _lattice_from_args(args, payload)
    height = _default_height(args)
    result, code = _info_result(lat, height)
    echo = {"lattice": ser.enc_lattice(lat), "options": {"height": ser.enc_int(height)}}
    return ser.document("info", echo, result), code


def _classify_result(lat: Lattice) -> dict:
    rep = classify(lat)
    out = {"case": rep.case, "equal": rep.equal}
    out["witness"] = ser.enc_ivec(rep.witness) if rep.witness is not None else None
    if rep.case == "Split":
        out["roots_generate"] = rep.roots_generate
        out["radical"] = ser.enc_matrix(rep.rad.basis)
        out["n_part"] = {"gram": ser.enc_matrix(rep.n_part.gram)}
        out["n_basis"] = ser.enc_matrix(rep.n_basis)
    else:
        out["roots_generate"] = None
    return out


def _cmd_classify(args) -> Tuple[dict, int]:
    payload = _read_payload(args, required=False)
    lat = _lattice_from_args(args, payload)
    echo = {"lattice": ser.enc_lattice(lat)}
    return ser.document("classify", echo, _classify_result(lat)), 0


def _roots_result(lat: Lattice) -> dict:
    rep = roots_generate(lat)
    return {
        "count": ser.enc_int(rep.count),
        "generates": rep.generates,
        "roots": [ser.enc_ivec(r) for r in rep.roots],
        "generation_basis": (
            ser.enc_matrix(rep.generation_basis.basis)
            if rep.generation_basis is not None
            else None
        ),
    }


def _cmd_roots(args) -> Tuple[dict, int]:
    payload = _read_payload(args, required=False)
    lat = _lattice_from_args(args, payload)
    echo = {"lattice": ser.enc_lattice(lat)}
    return ser.document("roots", echo, _roots_result(lat)), 0


def _cmd_decompose(args) -> Tuple[dict, int]:
    payload = _read_payload(args, required=True)
    host = _host_from(payload)
    if "omega" not in payload or "gamma" not in payload:
        raise ser.InputError("missing_field", "decompose needs omega and gamma")
    omega = ser.dec_omega(payload["omega"])
    gamma = ser.dec_ivec(payload["gamma"], "gamma")
    root_choice = 1 if args.root_choice == "+" else -1
    cert = certificate_for(host, omega, gamma)
    check = verify_certificate(cert.context, gamma, cert)
    phase_doc = None
    if "theta_re" in payload and "theta_im" in payload:
        theta_re = ser.dec_qvec(payload["theta_re"], "theta_re")
        theta_im = ser.dec_qvec(payload["theta_im"], "theta_im")
        try:
            period = PeriodData(host, theta_re, theta_im, omega)
            phase = phase_square(period, gamma, root_choice)
            phase_doc = {
                "c": ser.enc_gaussian(phase.c),
                "zeta_squared": ser.enc_gaussian(phase.zeta_squared),
                "root_choice": args.root_choice,
            }
        except (TypeOneOne, InvalidPeriod) as exc:
            phase_doc = {"unavailable": exc.code}
    echo = {
        "host": ser.enc_lattice(host),
        "omega": payload["omega"],
        "gamma": ser.enc_ivec(gamma),
        "options": {"root_choice": args.root_choice},
    }
    for key in ("theta_re", "theta_im"):
        if key in payload:
            echo[key] = payload[key]
    result = {
        "certificate": {
            "terms": [
                {"coeff": ser.enc_int(c), "class": ser.enc_ivec(v)}
                for c, v in cert.terms
            ]
        },
        "lagrangian_rank": ser.enc_int(cert.context.rank),
        "phase": phase_doc,
        "verified": bool(check),
    }
    return ser.document("decompose", echo, result), 0


def _cmd_realize(args) -> Tuple[dict, int]:
    payload = _read_payload(args, required=True)
    host = _host_from(payload)
    if "sublattice" not in payload:
        raise ser.InputError("missing_field", "realize needs a sublattice")
    rows = ser.dec_matrix(payload["sublattice"], "sublattice")
    try:
        sub = Sublattice.from_generators(host, rows)
    except (RankMismatch, ValueError) as exc:
        raise ser.InputError("bad_sublattice", str(exc))
    rep = realizable(host, sub)
    echo = {"host": ser.enc_lattice(host), "sublattice": ser.enc_sublattice(sub)}
    result = {
        "ok": rep.ok,
        "failing_condition": rep.failing_condition,
        "witness": ser.enc_formal(rep.witness) if rep.witness is not None else None,
        "eps_bound": ser.enc_frac(rep.eps_bound) if rep.eps_bound is not None else None,
    }
    return ser.document("realize", echo, result), 0


def _cmd_syz(args) -> Tuple[dict, int]:
    payload = _read_payload(args, required=True)
    host = _host_from(payload)
    if "w" not in payload:
        raise ser.InputError("missing_field", "syz needs w")
    w = ser.dec_qvec(payload["w"], "w")
    ell, rep = syz_witness(host, w)
    echo = {"host": ser.enc_lattice(host), "w": ser.enc_qvec(w)}
    result = {
        "w_primitive": ser.enc_ivec(rep.w_primitive),
        "ell": ser.enc_ivec(ell),
        "v": ser.enc_ivec(rep.v),
        "d": ser.enc_int(rep.canonical.d),
        "isometry": ser.enc_matrix(rep.canonical.g.matrix),
        "checks": {
            "ell_sq": ser.enc_int(norm(host, ell)),
            "pairing": ser.enc_int(inner(host, ell, rep.w_primitive)),
            "v_sq": ser.enc_int(norm(host, rep.v)),
            "v_pairing": ser.enc_int(inner(host, rep.v, rep.w_primitive)),
        },
    }
    return ser.document("syz", echo, result), 0


def _cmd_eichler(args) -> Tuple[dict, int]:
    payload = _read_payload(args, required=True)
    host = _host_from(payload)
    if "w" not in payload:
        raise ser.InputError("missing_field", "eichler needs w")
    w = ser.dec_ivec(payload["w"], "w")
    res = canonical_form(host, w)
    echo = {"host": ser.enc_lattice(host), "w": ser.enc_ivec(w)}
    result = {
        "d": ser.enc_int(res.d),
        "target": ser.enc_ivec(res.target),
        "isometry": ser.enc_matrix(res.g.matrix),
        "checks": {
            "gram_preserved": res.g.preserves(host),
            "image_matches": res.g.apply(w) == res.target,
        },
    }
    return ser.document("eichler", echo, result), 0


# ---------------------------------------------------------------------------
# sampling harness


def _sample_vector(rng: random.Random, lat: Lattice, box: int):
    """Seeded primitive w with w.w > 0.

    Hyperbolic coordinates are uniform in the box; the definite-block
    coordinates are sparse (zero three times out of four), which keeps the
    rejection rate workable: uniform boxes almost never hit w.w > 0.
    """
    while True:
        u_part = [rng.randint(-box, box) for _ in range(6)]
        rest = [
            rng.randint(-box, box) if rng.randrange(4) == 0 else 0
            for _ in range(lat.rank - 6)
        ]
        w = tuple(u_part + rest)
        if any(w) and norm(lat, w) > 0:
            return primitivize(w)


def _run_sample(count: int, seed: int, box: int, mode: str, force_w) -> dict:
    lat = k3_lattice()
    positive_ok = 0
    isotropic_ok = 0
    w_hist: dict = {}
    witness_hist: dict = {}
    failures = []
    for trial in range(count):
        rng = random.Random(seed * 1_000_003 + trial)
        if trial == 0 and force_w is not None:
            w = force_w
        else:
            w = _sample_vector(rng, lat, box)
        w2 = norm(lat, w)
        w_hist[str(w2)] = w_hist.get(str(w2), 0) + 1
        if mode in ("positive", "both"):
            sub = lag_lattice(lat, w)
            rep = classify(sub.as_lattice())
            ok = rep.case == "PositiveWitness" and rep.witness is not None
            if ok:
                witness = sub.to_host(rep.witness)
                v2 = norm(lat, witness)
                ok = v2 > 0 and inner(lat, witness, w) == 0
                witness_hist[str(v2)] = witness_hist.get(str(v2), 0) + 1
            if ok:
                positive_ok += 1
            else:
                failures.append(
                    {"trial": ser.enc_int(trial), "kind": "positive", "w": ser.enc_ivec(w)}
                )
        if mode in ("isotropic", "both"):
            v, ell = orth_witnesses(lat, w)
            ok = (
                norm(lat, ell) == 0
                and inner(lat, ell, w) == 0
                and any(ell)
                and is_primitive(ell)
                and norm(lat, v) == 2
                and inner(lat, v, w) == 0
            )
            if ok:
                isotropic_ok += 1
            else:
                failures.append(
                    {"trial": ser.enc_int(trial), "kind": "isotropic", "w": ser.enc_ivec(w)}
                )
    result = {
        "count": ser.enc_int(count),
        "mode": mode,
        "w_norm_histogram": {k: ser.enc_int(v) for k, v in sorted(w_hist.items())},
        "failures": failures,
    }
    if mode in ("positive", "both"):
        result["positive_successes"] = ser.enc_int(positive_ok)
        result["witness_norm_histogram"] = {
            k: ser.enc_int(v) for k, v in sorted(witness_hist.items())
        }
    if mode in ("isotropic", "both"):
        result["isotropic_successes"] = ser.enc_int(isotropic_ok)
    return result


def _cmd_sample(args) -> Tuple[dict, int]:
    if args.count < 1:
        raise ser.InputError("bad_count", "sample count must be >= 1")
    if args.box < 1:
        raise ser.InputError("bad_box", "box must be >= 1")
    payload = _read_payload(args, required=False) or {}
    force_w = None
    if "force_w" in payload:
        force_w = primitivize(ser.dec_ivec(payload["force_w"], "force_w"))
        if not any(force_w) or norm(k3_lattice(), force_w) <= 0:
            raise ser.InputError("bad_force_w", "force_w must have positive square")
    result = _run_sample(args.count, args.seed, args.box, args.mode, force_w)
    echo = {
        "options": {
            "count": ser.enc_int(args.count),
            "seed": ser.enc_int(args.seed),
            "box": ser.enc_int(args.box),
            "mode": args.mode,
        }
    }
    if force_w is not None:
        echo["force_w"] = ser.enc_ivec(force_w)
    return ser.document("sample", echo, result), 0


# ---------------------------------------------------------------------------
# verification of emitted documents


def _verify_decompose(inp: dict, result: dict, failures: list) -> None:
    host = ser.dec_lattice(inp["host"], "host")
    omega = ser.dec_omega(inp["omega"])
    gamma = ser.dec_ivec(inp["gamma"], "gamma")
    terms = tuple(
        (ser.dec_int(t["coeff"], "coeff"), ser.dec_ivec(t["class"], "class"))
        for t in result["certificate"]["terms"]
    )
    sub = lag_lattice(host, omega)
    check = verify_certificate(sub, gamma, SlagCertificate(terms, sub))
    if not check:
        failures.append(f"certificate: {check.reason}")


def _verify_syz(inp: dict, result: dict, failures: list) -> None:
    host = ser.dec_lattice(inp["host"], "host")
    w = ser.dec_qvec(inp["w"], "w")
    wp = ser.dec_ivec(result["w_primitive"], "w_primitive")
    ell = ser.dec_ivec(result["ell"], "ell")
    v = ser.dec_ivec(result["v"], "v")
    d = ser.dec_int(result["d"], "d")
    g = Isometry(ser.dec_matrix(result["isometry"], "isometry"))
    if rational_direction(w) != wp:
        failures.append("w_primitive is not the primitivized input direction")
    if norm(host, ell) != 0 or not any(ell) or not is_primitive(ell):
        failures.append("ell is not a primitive nonzero isotropic vector")
    if inner(host, ell, wp) != 0:
        failures.append("ell.w != 0")
    if norm(host, v) != 2 or inner(host, v, wp) != 0:
        failures.append("v fails its contract")
    if not g.preserves(host):
        failures.append("isometry does not preserve the form")
    target = tuple(
        1 if i == 0 else (d if i == 1 else 0) for i in range(host.rank)
    )
    if g.apply(wp) != target or norm(host, wp) != 2 * d:
        failures.append("isometry does not carry w to the canonical vector")


def _verify_eichler(inp: dict, result: dict, failures: list) -> None:
    host = ser.dec_lattice(inp["host"], "host")
    w = ser.dec_ivec(inp["w"], "w")
    d = ser.dec_int(result["d"], "d")
    target = ser.dec_ivec(result["target"], "target")
    g = Isometry(ser.dec_matrix(result["isometry"], "isometry"))
    if not g.preserves(host):
        failures.append("isometry does not preserve the form")
    if g.apply(w) != target:
        failures.append("isometry image differs from target")
    expected = tuple(
        1 if i == 0 else (d if i == 1 else 0) for i in range(host.rank)
    )
    if target != expected or norm(host, w) != 2 * d:
        failures.append("target is not e1 + d*f1 with 2d = w.w")


def _verify_realize(inp: dict, result: dict, failures: list) -> None:
    host = ser.dec_lattice(inp["host"], "host")
    rows = ser.dec_matrix(inp["sublattice"], "sublattice")
    sub = Sublattice.from_generators(host, rows)
    rep = realizable(host, sub)
    if rep.ok != result["ok"]:
        failures.append("realizability verdict changed on recomputation")
        return
    if not rep.ok:
        if rep.failing_condition != result["failing_condition"]:
            failures.append("failing condition changed on recomputation")
        return
    witness = ser.dec_formal(result["witness"])
    bound = ser.dec_frac(result["eps_bound"], "eps_bound")
    if bound <= 0:
        failures.append("eps_bound is not positive")
    if lag_lattice(host, witness).basis != sub.basis:
        failures.append("witness joint kernel differs from the sublattice")


def _verify_classify(inp: dict, result: dict, failures: list) -> None:
    lat = ser.dec_lattice(inp["lattice"], "lattice")
    fresh = _classify_result(lat)
    if fresh != result:
        failures.append("classification changed on recomputation")
    if result.get("witness") is not None:
        w = ser.dec_ivec(result["witness"], "witness")
        if norm(lat, w) <= 0:
            failures.append("witness square is not positive")


def _verify_info(inp: dict, result: dict, failures: list) -> None:
    lat = ser.dec_lattice(inp["lattice"], "lattice")
    height = _checked_height(ser.dec_int(inp["options"]["height"], "height"))
    fresh, _ = _info_result(lat, height)
    if fresh != result:
        failures.append("info changed on recomputation")


def _verify_roots(inp: dict, result: dict, failures: list) -> None:
    lat = ser.dec_lattice(inp["lattice"], "lattice")
    fresh = _roots_result(lat)
    if fresh != result:
        failures.append("root report changed on recomputation")
    for enc in result["roots"]:
        root = ser.dec_ivec(enc, "root")
        if norm(lat, root) != -2:
            failures.append("listed root does not have square -2")
            break


def _verify_sample(inp: dict, result: dict, failures: list) -> None:
    opts = inp["options"]
    force_w = (
        ser.dec_ivec(inp["force_w"], "force_w") if "force_w" in inp else None
    )
    fresh = _run_sample(
        ser.dec_int(opts["count"], "count"),
        ser.dec_int(opts["seed"], "seed"),
        ser.dec_int(opts["box"], "box"),
        opts["mode"],
        force_w,
    )
    if fresh != result:
        failures.append("sample report changed on recomputation")


_VERIFIERS = {
    "decompose": _verify_decompose,
    "syz": _verify_syz,
    "eichler": _verify_eichler,
    "realize": _verify_realize,
    "classify": _verify_classify,
    "info": _verify_info,
    "roots": _verify_roots,
    "sample": _verify_sample,
}


def _cmd_verify(args) -> Tuple[dict, int]:
    payload = _read_payload(args, required=True)
    command = payload.get("command")
    if command not in _VERIFIERS:
        raise ser.InputError(
            "unsupported_verify", f"cannot verify documents of kind {command!r}"
        )
    if "input" not in payload or "result" not in payload:
        raise ser.InputError("bad_document", "expected a full result document")
    failures: list = []
    try:
        _VERIFIERS[command](payload["input"], payload["result"], failures)
    except (KeyError, TypeError) as exc:
        raise ser.InputError("bad_document", f"document is missing fields: {exc}")
    result = {"ok": not failures, "checked": command, "failures": failures}
    return ser.document("verify", {"command": command}, result), 0 if not failures else 1


_HANDLERS = {
    "info": _cmd_info,
    "classify": _cmd_classify,
    "roots": _cmd_roots,
    "decompose": _cmd_decompose,
    "realize": _cmd_realize,
    "syz": _cmd_syz,
    "eichler": _cmd_eichler,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
}


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = _HANDLERS[args.command](args)
    except ser.InputError as exc:
        _emit(args, ser.dumps(ser.error_document(exc.code, str(exc))))
        return 2
    except LatticeError as exc:
        extra = {
            k: str(v) for k, v in getattr(exc, "payload", {}).items()
        }
        _emit(args, ser.dumps(ser.error_document(exc.code, str(exc), **extra)))
        return 1
    _emit(args, ser.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
