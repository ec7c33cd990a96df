"""Command-line surface.

Subcommands: info, classify, roots, decompose, realize, syz, eichler,
sample, verify. Documents are UTF-8 JSON on stdin/stdout (or --input /
--output); all integers are decimal strings. Identical inputs (including
seed) produce byte-identical output.

One table, COMMANDS, describes every command: its flags, the decoder that
turns its `input` document into library values, the compute step, and what
`verify` checks. A command folds its payload and flags into the `input`
document (every flag but --input, --output and --lattice becomes an entry
of `input.options`) and decodes that; `verify` decodes a document's `input`
with the same decoder. Decoders check every type, and the length of every
vector and matrix row against its host, before anything is computed.
Library functions are called by their module-global names at call time and
never stored in the table, so a tracer that rebinds those names sees every
call.

Exit codes: 0 success, 1 library error (an answer too long to print among
them) or failed verification, 2 malformed input (an unknown or missing
command or flag, invalid JSON, a wrong type, an integer past the digit
limit, a wrong-length vector or matrix row, an option out of range, an
unreadable --input or an unwritable --output), 3 honest Unknown (isotropic
search height exhausted).
"""
from __future__ import annotations

import argparse
import functools
import sys
from math import lcm
from typing import Callable, NamedTuple, Optional

from . import serialize as ser
from .criteria import (
    SlagCertificate,
    certificate_for,
    classify,
    lag_lattice,
    realizable,
    verify_certificate,
)
from .eichler import canonical_form, canonical_target, witness_failures
from .enumeration import Unknown, find_isotropic, find_positive, roots_generate
from .errors import AnswerTooLarge, FormalOmegaUnsupported, InvalidPeriod, LatticeError
from .errors import RankMismatch, TypeOneOne, printable
from .exact import primitivize, rational_direction
from .fibration import syz_witness
from .hodge import PeriodData, phase_square
from .lattice import Isometry, Lattice, Sublattice, gram_matrix, inner, k3_lattice
from .lattice import norm, signature
from .sampling import sample_trials

MODES = ("positive", "isotropic", "both")


class Command(NamedTuple):
    decode: Callable  # input document -> keyword arguments of run and check
    run: Callable  # decoded values -> (echoed input, result, exit code), unencoded
    recomputed: Optional[str] = None  # verify reruns run and compares this result
    check: Optional[Callable] = None  # verify's checks: (result, failures, **values)
    flags: dict = {}  # flag -> default (strings), besides --input and --output
    stdin: bool = True  # without --input, the payload is read from stdin


# ---------------------------------------------------------------------------
# folding the payload and the flags into the input document


def _load(path: str, code: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ser.loads(fh.read())
    except OSError as exc:
        raise ser.InputError(code, str(exc))


def _fold(args, spec: Command) -> dict:
    if args.input and args.input != "-":
        inp = _load(args.input, "unreadable_input")
    elif args.input or spec.stdin:
        inp = ser.loads(sys.stdin.read())
    else:
        inp = {}
    options = {k: v for k, v in vars(args).items() if k not in ("command", "input", "output")}
    lattice = options.pop("lattice", None)
    if lattice is not None:
        named = lattice in ser.NAMED_LATTICES
        inp["lattice"] = lattice if named else _load(lattice, "unreadable_lattice")
    if options:
        inp["options"] = {k: str(v) for k, v in options.items()}
    return inp


# ---------------------------------------------------------------------------
# decoders: input document -> library values, every shape checked


def _field(doc, key: str, what: str = "document", kind=None):
    """doc[key]; InputError unless doc is an object holding key (of type kind)."""
    if not isinstance(doc, dict):
        raise ser.InputError("bad_document", f"{what}: expected an object")
    if key not in doc:
        raise ser.InputError("missing_field", f"{what}: missing {key!r}")
    if kind is not None and not isinstance(doc[key], kind):
        raise ser.InputError("bad_document", f"{what}: {key!r} has the wrong type")
    return doc[key]


def _option(inp: dict, key: str, choices=None):
    value = _field(_field(inp, "options"), key, "options")
    if choices is None:
        return ser.dec_int(value, key)
    if value not in choices:
        raise ser.InputError(f"bad_{key}", f"{key} must be one of {', '.join(choices)}")
    return value


def _host(inp: dict) -> Lattice:
    return ser.dec_lattice(inp.get("host", "K3"), "host")


def _decode_lattice(inp: dict) -> dict:
    if "lattice" not in inp:
        raise ser.InputError("missing_lattice", "provide --lattice or a lattice payload")
    return {"lat": ser.dec_lattice(inp["lattice"], "lattice")}


def _decode_info(inp: dict) -> dict:
    values = _decode_lattice(inp)
    values["height"] = _option(inp, "height")
    if values["height"] < 1:
        raise ser.InputError("bad_height", "height must be >= 1")
    return values


def _decode_decompose(inp: dict) -> dict:
    host = _host(inp)
    n = host.rank
    thetas = [ser.dec_qvec(inp[k], k, n) for k in ("theta_re", "theta_im") if k in inp]
    return {
        "host": host,
        "omega": ser.dec_omega(_field(inp, "omega"), "omega", n),
        "gamma": ser.dec_ivec(_field(inp, "gamma"), "gamma", n),
        "root_choice": _option(inp, "root_choice", ("+", "-")),
        "theta": thetas if len(thetas) == 2 else None,
        # echoed as given, so a formal omega keeps its optional fields as written
        "verbatim": {k: inp[k] for k in ("omega", "theta_re", "theta_im") if k in inp},
    }


def _decode_realize(inp: dict) -> dict:
    host = _host(inp)
    rows = ser.dec_matrix(_field(inp, "sublattice"), "sublattice")
    try:
        sub = Sublattice.from_generators(host, rows)
    except (RankMismatch, ValueError) as exc:
        raise ser.InputError("bad_sublattice", str(exc))
    return {"host": host, "sub": sub}


def _decode_syz(inp: dict) -> dict:
    host = _host(inp)
    return {"host": host, "w": ser.dec_qvec(_field(inp, "w"), "w", host.rank)}


def _decode_eichler(inp: dict) -> dict:
    host = _host(inp)
    return {"host": host, "w": ser.dec_ivec(_field(inp, "w"), "w", host.rank)}


def _decode_sample(inp: dict) -> dict:
    values = {k: _option(inp, k) for k in ("count", "seed", "box")}
    if values["count"] < 1:
        raise ser.InputError("bad_count", "sample count must be >= 1")
    if values["box"] < 1:
        raise ser.InputError("bad_box", "box must be >= 1")
    values["mode"] = _option(inp, "mode", MODES)
    values["force_w"] = None
    if "force_w" in inp:
        lat = k3_lattice()
        force_w = primitivize(ser.dec_ivec(inp["force_w"], "force_w", lat.rank))
        if not any(force_w) or norm(lat, force_w) <= 0:
            raise ser.InputError("bad_force_w", "force_w must have positive square")
        values["force_w"] = force_w
    return values


def _decode_document(doc: dict) -> dict:
    command = doc.get("command")
    spec = COMMANDS.get(command) if isinstance(command, str) else None
    if spec is None or not (spec.recomputed or spec.check):
        raise ser.InputError(
            "unsupported_verify", f"cannot verify documents of kind {command!r}"
        )
    inp = _field(doc, "input", kind=dict)
    result = _field(doc, "result", kind=dict)
    return {"command": command, "spec": spec, "values": spec.decode(inp), "result": result}


# ---------------------------------------------------------------------------
# compute steps: decoded values -> (echoed input, result, exit code)


def _run_info(lat: Lattice, height: int):
    result = {
        "rank": lat.rank,
        "even": lat.even,
        "determinant": lat.det(),
        "signature": signature(lat),
        "positive_vector": find_positive(lat),
    }
    iso = find_isotropic(lat, height)
    unknown = isinstance(iso, Unknown)
    result["isotropic_vector"] = None if unknown else iso
    if unknown:
        result["isotropic_unknown_height"] = iso.height
    return {"lattice": lat, "options": {"height": height}}, result, 3 if unknown else 0


def _run_classify(lat: Lattice):
    rep = classify(lat)
    result = {"case": rep.case, "equal": rep.equal, "witness": rep.witness,
              "roots_generate": rep.roots_generate}
    if rep.case == "Split":
        result["radical"] = rep.rad
        result["n_part"] = rep.n_part
        result["n_basis"] = rep.n_basis
    return {"lattice": lat}, result, 0


def _run_roots(lat: Lattice):
    rep = roots_generate(lat)
    result = {
        "count": len(rep.roots),
        "generates": rep.generates,
        "roots": rep.roots,
        "generation_basis": rep.generation_basis,
    }
    return {"lattice": lat}, result, 0


def _run_decompose(host, omega, gamma, root_choice, theta, verbatim):
    cert = certificate_for(host, omega, gamma)
    check = verify_certificate(cert.context, gamma, cert)
    phase_doc = None
    if theta is not None:
        try:
            period = PeriodData(host, theta[0], theta[1], omega)
            phase = phase_square(period, gamma, 1 if root_choice == "+" else -1)
            phase_doc = {
                "c": phase.c,
                "zeta_squared": phase.zeta_squared,
                "root_choice": root_choice,
            }
        except (TypeOneOne, InvalidPeriod, FormalOmegaUnsupported) as exc:
            phase_doc = {"unavailable": exc.code}
    echo = {"host": host, "gamma": gamma, "options": {"root_choice": root_choice}}
    result = {
        "certificate": {"terms": [{"coeff": c, "class": v} for c, v in cert.terms]},
        "lagrangian_rank": cert.context.rank,
        "phase": phase_doc,
        "verified": bool(check),
    }
    return dict(echo, **verbatim), result, 0


def _run_realize(host, sub):
    rep = realizable(host, sub)
    result = {
        "ok": rep.ok,
        "failing_condition": rep.failing_condition,
        "witness": rep.witness,
        "eps_bound": rep.eps_bound,
    }
    return {"host": host, "sublattice": sub}, result, 0


def _run_syz(host, w):
    ell, rep = syz_witness(host, w)
    result = {
        "w_primitive": rep.w_primitive,
        "ell": ell,
        "v": rep.v,
        "d": rep.canonical.d,
        "isometry": rep.canonical.g.matrix,
        "checks": {
            "ell_sq": norm(host, ell),
            "pairing": inner(host, ell, rep.w_primitive),
            "v_sq": norm(host, rep.v),
            "v_pairing": inner(host, rep.v, rep.w_primitive),
        },
    }
    return {"host": host, "w": w}, result, 0


def _run_eichler(host, w):
    res = canonical_form(host, w)
    result = {
        "d": res.d,
        "target": res.target,
        "isometry": res.g.matrix,
        "checks": {
            "gram_preserved": res.g.preserves(host),
            "image_matches": res.g.apply(w) == res.target,
        },
    }
    return {"host": host, "w": w}, result, 0


def _run_sample(count: int, seed: int, box: int, mode: str, force_w):
    echo = {"options": {"count": count, "seed": seed, "box": box, "mode": mode}}
    if force_w is not None:
        echo["force_w"] = force_w
    return echo, sample_trials(count, seed, box, mode, force_w), 0


def _run_verify(command: str, spec: Command, values: dict, result: dict):
    failures: list = []
    if spec.recomputed and ser.enc(spec.run(**values)[1]) != result:
        failures.append(f"{spec.recomputed} changed on recomputation")
    if spec.check:
        spec.check(result, failures, **values)
    verdict = {"ok": not failures, "checked": command, "failures": failures}
    return {"command": command}, verdict, 1 if failures else 0


# ---------------------------------------------------------------------------
# verify checks beyond recomputation: (result, failures, **decoded input)


def _check_classify(result: dict, failures: list, lat: Lattice) -> None:
    if result.get("witness") is not None:
        w = ser.dec_ivec(result["witness"], "witness", lat.rank)
        if norm(lat, w) <= 0:
            failures.append("witness square is not positive")


def _check_roots(result: dict, failures: list, lat: Lattice) -> None:
    roots = ser.dec_matrix(_field(result, "roots", "result"), "root", lat.rank)
    if any(norm(lat, root) != -2 for root in roots):
        failures.append("listed root does not have square -2")


def _check_decompose(result: dict, failures: list, host, omega, gamma, **_) -> None:
    certificate = _field(result, "certificate", "result")
    terms = tuple(
        (
            ser.dec_int(_field(t, "coeff", "term"), "coeff"),
            ser.dec_ivec(_field(t, "class", "term"), "class", host.rank),
        )
        for t in _field(certificate, "terms", "certificate", kind=list)
    )
    sub = lag_lattice(host, omega)
    check = verify_certificate(sub, gamma, SlagCertificate(terms, sub))
    if not check:
        failures.append(f"certificate: {check.reason}")


def _check_syz(result: dict, failures: list, host, w) -> None:
    wp, ell, v = (
        ser.dec_ivec(_field(result, k, "result"), k, host.rank)
        for k in ("w_primitive", "ell", "v")
    )
    if rational_direction(w) != wp:
        failures.append("w_primitive is not the primitivized input direction")
    failures += witness_failures(host, wp, v, ell)
    _check_eichler(result, failures, host, wp, has_target=False)


def _check_eichler(result: dict, failures: list, host, w, has_target=True) -> None:
    """The isometry preserves the form and carries w to its target e1 + d*f1."""
    d = ser.dec_int(_field(result, "d", "result"), "d")
    n = host.rank
    rows = ser.dec_matrix(_field(result, "isometry", "result"), "isometry", n)
    if len(rows) != n:
        raise ser.InputError("bad_shape", f"isometry: expected {n} rows, got {len(rows)}")
    g = Isometry(rows)
    canonical = canonical_target(host.rank, d)
    target = canonical
    if has_target:
        target = ser.dec_ivec(_field(result, "target", "result"), "target", host.rank)
    if not g.preserves(host):
        failures.append("isometry does not preserve the form")
    if g.apply(w) != target:
        failures.append("isometry image differs from target")
    if target != canonical or norm(host, w) != 2 * d:
        failures.append("target is not e1 + d*f1 with 2d = w.w")


def _check_realize(result: dict, failures: list, host, sub) -> None:
    """A witness certifies ok: true on its own; any other verdict is rerun."""
    if _field(result, "ok", "result") is not True:
        rep = realizable(host, sub)
        if rep.ok != result["ok"]:
            failures.append("realizability verdict changed on recomputation")
        elif rep.failing_condition != _field(result, "failing_condition", "result"):
            failures.append("failing condition changed on recomputation")
        return
    witness = ser.dec_formal(_field(result, "witness", "result"), "witness", host.rank)
    bound = ser.dec_frac(_field(result, "eps_bound", "result"), "eps_bound")
    if not 0 < witness.eps < bound:
        failures.append("eps is not in (0, eps_bound)")
    # realize_witness's bound for the witness's own x, y_i, all scaled by d into Z
    vecs = witness.vectors
    d = lcm(*(c.denominator for v in vecs for c in v))
    g = gram_matrix(host, [[c.numerator * (d // c.denominator) for c in v] for v in vecs])
    rest = 2 * sum(map(abs, g[0][1:])) + sum(abs(x) for row in g[1:] for x in row[1:])
    if g[0][0] <= 0:
        failures.append("witness base square is not positive")
        return  # lag_lattice refuses a zero witness
    if bound > 1 or bound * (rest + d * d) > g[0][0]:
        failures.append("eps_bound exceeds the bound of the witness")
    if lag_lattice(host, witness).basis != sub.basis:
        failures.append("witness joint kernel differs from the sublattice")


# ---------------------------------------------------------------------------
# the command table and the entry point

COMMANDS = {
    "info": Command(_decode_info, _run_info, "info",
                    flags={"--lattice": None, "--height": "6"}, stdin=False),
    "classify": Command(_decode_lattice, _run_classify, "classification", _check_classify,
                        flags={"--lattice": None}, stdin=False),
    "roots": Command(_decode_lattice, _run_roots, "root report", _check_roots,
                     flags={"--lattice": None}, stdin=False),
    "decompose": Command(_decode_decompose, _run_decompose, check=_check_decompose,
                         flags={"--root-choice": "+"}),
    "realize": Command(_decode_realize, _run_realize, check=_check_realize),
    "syz": Command(_decode_syz, _run_syz, check=_check_syz),
    "eichler": Command(_decode_eichler, _run_eichler, check=_check_eichler),
    "sample": Command(_decode_sample, _run_sample, "sample report", stdin=False,
                      flags={"--count": "100", "--seed": "0", "--box": "3", "--mode": "both"}),
    "verify": Command(_decode_document, _run_verify),
}


class _Parser(argparse.ArgumentParser):
    """argparse whose errors (an unknown command or flag) exit 2 with a document."""

    def error(self, message):
        raise ser.InputError("bad_arguments", message)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argv parser, built once per process from COMMANDS."""
    parser = _Parser(
        prog="k3lag",
        description="Exact lattice decision procedures for Lagrangian classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", help="path to a JSON input document ('-' for stdin)")
        p.add_argument("--output", help="write the result document to this path")
        for flag, default in spec.flags.items():
            p.add_argument(flag, default=default)
    return parser


def _emit(path: Optional[str], text: str, code: int) -> int:
    if not path:
        sys.stdout.write(text)
        return code
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stdout.write(ser.dumps(ser.error_document("unwritable_output", str(exc))))
        return 2
    return code


def main(argv=None) -> int:
    output = None
    try:
        args = build_parser().parse_args(argv)
        output, spec = args.output, COMMANDS[args.command]
        echo, result, code = spec.run(**spec.decode(_fold(args, spec)))
        try:
            doc = ser.enc({"command": args.command, "input": echo, "result": result})
        except ValueError:  # str() refuses an int past sys.get_int_max_str_digits()
            raise AnswerTooLarge(max_digits=sys.get_int_max_str_digits())
    except ser.InputError as exc:
        doc, code = ser.error_document(exc.code, str(exc)), 2
    except LatticeError as exc:
        extra = {k: printable(v) for k, v in exc.payload.items()}
        doc, code = ser.error_document(exc.code, str(exc), **extra), 1
    return _emit(output, ser.dumps(doc), code)


if __name__ == "__main__":
    sys.exit(main())
