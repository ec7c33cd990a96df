"""Workloads: seeded inputs, one operation per input, and independent checks.

Each workload turns a seed into an endless, deterministic stream of inputs
with the benchmark's own integer code (arith.py); the package only ever sees
the generated documents or library arguments. Every answer is checked with
that same independent arithmetic before it counts as done.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from time import perf_counter
from typing import Iterator, Optional

import arith

# Modules of the package under test, bound by load_program(). Calls go
# through module attributes so that the tracer's rebinding takes effect.
k3lag = None
cli = None
fibration = None


def load_program(src: str) -> None:
    global k3lag, cli, fibration
    if src not in sys.path:
        sys.path.insert(0, src)
    import k3lag as pkg
    import k3lag.cli
    import k3lag.fibration

    k3lag, cli, fibration = pkg, pkg.cli, pkg.fibration


def build_hosts(specs) -> list:
    """Host lattices from specs such as "U+E8+E8", with the package's constructors."""
    parts = {"U": k3lag.hyperbolic_plane, "E8": k3lag.e8_lattice, "K3": k3lag.k3_lattice}
    return [k3lag.direct_sum(*(parts[p]() for p in s.split("+"))) for s in specs]


@dataclass
class Outcome:
    emit_s: float
    verify_s: Optional[float]  # None when the answer has no read path
    output: str  # every document the program emitted, for the digest
    unknown: bool = False  # an honest Unknown (exit 3)
    error: str = ""  # empty when the answer passed the runner's check
    scale: float = 1.0  # reference probe time over the host's, around this op


def call_cli(argv, stdin_text: str = ""):
    """(exit code, stdout, seconds) of one in-process CLI invocation."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            dt = perf_counter() - t0
    finally:
        sys.stdin = saved
    return code, out.getvalue(), dt


def verify_document(text: str):
    """(seconds, verify output, error) for `k3lag verify` on an emitted document."""
    code, out, dt = call_cli(["verify", "--input", "-"], text)
    if code != 0:
        return dt, out, f"verify exited {code}"
    if json.loads(out)["result"]["ok"] is not True:
        return dt, out, "verify rejected the document"
    return dt, out, ""


def enc(v) -> list:
    return [str(x) for x in v]


def sparse(rng: Random, length: int, density: float, span: int) -> list:
    return [
        rng.choice([c for c in range(-span, span + 1) if c]) if rng.random() < density else 0
        for _ in range(length)
    ]


# ---------------------------------------------------------------------------
# k3_sample: the headline `sample` command, one trial per op


class K3Sample:
    name = "k3_sample"
    hosts = ("K3",)
    digest_ops = 5
    trace_rate = 7  # traced-run ops per --seconds

    def inputs(self, seed: int) -> Iterator[int]:
        rng = Random(seed)
        while True:
            yield rng.randrange(1 << 30)

    def execute(self, s: int) -> Outcome:
        code, text, dt = call_cli(
            ["sample", "--count", "1", "--mode", "both", "--seed", str(s)]
        )
        if code != 0:
            return Outcome(dt, None, text, error=f"sample exited {code}")
        r = json.loads(text)["result"]
        if r.get("positive_successes") != "1" or r.get("isotropic_successes") != "1":
            return Outcome(dt, None, text, error="trial did not succeed")
        if r["failures"]:
            return Outcome(dt, None, text, error="sample reported failures")
        vdt, vout, err = verify_document(text)
        return Outcome(dt, vdt, text + vout, error=err)


# ---------------------------------------------------------------------------
# split_certify: decompose certificates in the Split case, then verify


class SplitCertify:
    name = "split_certify"
    hosts = ("U+E8", "U+E8+E8")
    digest_ops = 2
    trace_rate = 1.3  # traced-run ops per --seconds
    # E8 copies of the host for successive omegas; two U+E8 omegas per
    # U+E8+E8 omega keeps the median inside the U+E8 latencies
    HOST_CYCLE = (1, 1, 2)
    # coprime U parts (a, b) of omega; each host steps through them in turn
    # from a seeded start, so every run meets nearly all of them
    PAIRS = tuple((a, b) for a in range(1, 5) for b in range(1, 5) if arith.content((a, b)) == 1)

    def inputs(self, seed: int):
        rng = Random(seed)
        grams = {c: arith.u_e8_gram(c) for c in set(self.HOST_CYCLE)}
        step = {c: rng.randrange(len(self.PAIRS)) for c in grams}
        i = 0
        while True:
            copies = self.HOST_CYCLE[i % len(self.HOST_CYCLE)]
            i += 1
            g = grams[copies]
            a, b = self.PAIRS[step[copies] % len(self.PAIRS)]
            step[copies] += 1
            omega = self._omega(rng, g, copies, a, b)
            # two gammas per omega, so every second op repeats a Lagrangian
            # lattice: one unconstrained, which the package may rightly
            # refuse, then one built from roots of omega-perp, which it must
            # certify
            yield g, omega, self._gamma(rng, g, omega, copies, 0.3, 2, lambda sq: sq < -2), False
            yield g, omega, self._root_combination(rng, g, omega, copies), True

    @staticmethod
    def _omega(rng, g, copies, a, b):
        # on U+E8+E8, omega = (a, b, 0...) keeps E8+E8 inside omega-perp: its
        # root enumeration then costs about the same for every seed, which
        # keeps the heavy ops from deciding ops_per_s and the tail by chance
        density = 0.15 if copies == 1 else 0.0
        while True:
            omega = [a, b] + sparse(rng, 8 * copies, density, 1)
            if arith.pair(g, omega, omega) > 0:
                return omega

    @staticmethod
    def _gamma(rng, g, omega, copies, density, span, accept):
        """A vector (x, y, r) of omega-perp: pick r, solve x*b + y*a = -(r . omega)."""
        a, b = omega[0], omega[1]
        _, s, t = arith.xgcd(b, a)
        while True:
            r = sparse(rng, 8 * copies, density, span)
            c = -arith.pair(g, [0, 0] + r, omega)
            shift = rng.randint(-2, 2)
            gamma = [c * s + shift * a, c * t - shift * b] + r
            if any(gamma) and accept(arith.pair(g, gamma, gamma)):
                return gamma

    def _root_combination(self, rng, g, omega, copies):
        """A sum of three seeded multiples of roots of omega-perp, square < -2."""
        while True:
            roots = [
                self._gamma(rng, g, omega, copies, 0.15, 1, lambda sq: sq == -2)
                for _ in range(3)
            ]
            coeffs = [rng.choice((-2, -1, 1, 2)) for _ in roots]
            gamma = [sum(c * r[i] for c, r in zip(coeffs, roots)) for i in range(len(omega))]
            if arith.pair(g, gamma, gamma) < -2:
                return gamma

    def execute(self, spec) -> Outcome:
        g, omega, gamma, in_root_span = spec
        doc = {"host": {"gram": [enc(r) for r in g]}, "omega": enc(omega), "gamma": enc(gamma)}
        code, text, dt = call_cli(["decompose", "--input", "-"], json.dumps(doc))
        if code == 1:
            refused = json.loads(text).get("error", {}).get("code") == "not_decomposable"
            ok = refused and not in_root_span
            return Outcome(dt, None, text, error="" if ok else "unexpected refusal")
        if code != 0:
            return Outcome(dt, None, text, error=f"decompose exited {code}")
        err = self._check(g, omega, gamma, json.loads(text)["result"])
        if err:
            return Outcome(dt, None, text, error=err)
        vdt, vout, err = verify_document(text)
        return Outcome(dt, vdt, text + vout, error=err)

    @staticmethod
    def _check(g, omega, gamma, result) -> str:
        if result["verified"] is not True:
            return "certificate not marked verified"
        total = [0] * len(gamma)
        for term in result["certificate"]["terms"]:
            coeff = int(term["coeff"])
            cls = [int(x) for x in term["class"]]
            if coeff == 0 or len(cls) != len(gamma):
                return "malformed certificate term"
            if arith.pair(g, cls, omega) != 0:
                return "certificate class is not orthogonal to omega"
            if arith.pair(g, cls, cls) < -2:
                return "certificate class has square < -2"
            total = [t + coeff * c for t, c in zip(total, cls)]
        if total != gamma:
            return "certificate terms do not sum to gamma"
        return ""


# ---------------------------------------------------------------------------
# nef_walk: the library reflection walk on U + E8


class NefWalk:
    name = "nef_walk"
    hosts = ("U+E8",)
    digest_ops = 2
    trace_rate = 1  # traced-run ops per --seconds

    def __init__(self):
        self.gram = arith.u_e8_gram(1)
        self.host = None

    # (a, b, k) for omega = (a, b, 0...) and ell = (k, 1, r). The cycle fixes
    # the mix of short and long walks (from one reflection at (2, 2, 1) to
    # three at (3, 1, 2)) for every seed; only r is seeded.
    CYCLE = (
        (2, 2, 1), (2, 1, 1), (3, 1, 1), (3, 2, 1), (2, 2, 2),
        (2, 1, 1), (3, 1, 1), (2, 2, 2), (3, 1, 2),
    )

    def inputs(self, seed: int):
        rng = Random(seed)
        e8 = arith.e8_gram()
        i = 0
        while True:
            a, b, k = self.CYCLE[i % len(self.CYCLE)]
            i += 1
            while True:
                r = sparse(rng, 8, 0.3, 1)
                if arith.pair(e8, r, r) == -2 * k:
                    break
            yield [a, b] + [0] * 8, [k, 1] + r

    def execute(self, spec) -> Outcome:
        if self.host is None:
            self.host = build_hosts(self.hosts)[0]
        omega, ell = spec
        t0 = perf_counter()
        res = fibration.make_nef(self.host, omega, ell)
        dt = perf_counter() - t0
        text = json.dumps(
            {
                "nef_class": enc(res.nef_class),
                "reflections": [enc(d) for d in res.reflections],
                "pairing_trace": enc(res.pairing_trace),
            },
            sort_keys=True,
        )
        err = self._check(omega, ell, res)
        if err:
            return Outcome(dt, None, text, error=err)
        # read path: replay the walk with the package's own isometries,
        # checking each reflection and every step of the pairing trace
        t0 = perf_counter()
        cur = tuple(ell)
        replayed = [k3lag.inner(self.host, cur, omega)]
        for delta in res.reflections:
            refl = fibration.reflection(self.host, delta)
            if not refl.preserves(self.host):
                err = "reflection is not an isometry"
            cur = refl.apply(cur)
            if k3lag.norm(self.host, cur) != 0:
                err = "replayed class is not isotropic"
            replayed.append(k3lag.inner(self.host, cur, omega))
        vdt = perf_counter() - t0
        if cur != tuple(res.nef_class) or tuple(replayed) != tuple(res.pairing_trace):
            err = "replay through the package disagrees with the walk"
        return Outcome(dt, vdt, text, error=err)

    def _check(self, omega, ell, res) -> str:
        g = self.gram
        cur = list(ell)
        trace = list(res.pairing_trace)
        if len(trace) != len(res.reflections) + 1 or trace[0] != arith.pair(g, cur, omega):
            return "pairing trace does not start at ell.omega"
        for i, delta in enumerate(res.reflections):
            d = list(delta)
            if arith.pair(g, d, d) != -2 or arith.pair(g, d, omega) <= 0:
                return "reflection is not a positive root"
            c = arith.pair(g, cur, d)
            cur = [x + c * y for x, y in zip(cur, d)]
            now = arith.pair(g, cur, omega)
            if now != trace[i + 1] or not 0 < now < trace[i]:
                return "pairing trace is not strictly decreasing and positive"
        if cur != list(res.nef_class) or arith.pair(g, cur, cur) != 0:
            return "reflected class differs from nef_class or is not isotropic"
        return ""


# ---------------------------------------------------------------------------
# lattice_queries: isotropic search (info) and realizability (realize+verify)


class LatticeQueries:
    name = "lattice_queries"
    hosts = ("K3",)
    digest_ops = 6
    trace_rate = 20  # traced-run ops per --seconds
    # op kinds in cycle order; realize kinds cycle separately
    OP_CYCLE = ("info", "realize", "info")
    # six realizable sublattices to three refusals, so the median verify
    # latency falls inside the realizable cluster
    REALIZE_CYCLE = (
        "e8_block", "saturated", "non_saturated", "saturated", "e8_block",
        "saturated", "full", "saturated", "no_positive",
    )
    EXPECTED = {
        "e8_block": None,
        "saturated": None,
        "non_saturated": "NotSaturated",
        "full": "NotProper",
        "no_positive": "NoPositiveInComplement",
    }

    def __init__(self):
        self.k3 = arith.k3_gram()

    def inputs(self, seed: int):
        rng = Random(seed)
        i = j = 0
        while True:
            kind = self.OP_CYCLE[i % len(self.OP_CYCLE)]
            i += 1
            if kind == "info":
                yield ("info",) + self._info_input(rng)
            else:
                rk = self.REALIZE_CYCLE[j % len(self.REALIZE_CYCLE)]
                j += 1
                yield "realize", rk, self._realize_input(rng, rk)

    @staticmethod
    def _info_input(rng):
        """An indefinite diagonal form, conjugated by a seeded unimodular matrix."""
        n = rng.randint(3, 5)
        while True:
            d = [rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)) for _ in range(n)]
            if any(x > 0 for x in d) and any(x < 0 for x in d):
                break
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        # rank 5 stops at height 2: a height-3 scan there (7^5 boxes) would
        # be a handful of rare ops deciding latency_tail_ms alone
        return arith.congruent(m, d), d, rng.randint(1, 3 if n < 5 else 2)

    def _realize_input(self, rng, kind):
        n = 22
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        if kind == "e8_block":
            return unit[6:14]
        if kind == "full":
            gens = unit
        elif kind == "no_positive":
            gens = unit[:6] + [unit[i] for i in rng.sample(range(6, n), rng.randint(0, 3))]
        else:
            gens = [unit[i] for i in rng.sample(range(2, n), rng.randint(2, 5))]
            if kind == "non_saturated":
                gens[0] = [rng.choice((2, 3)) * x for x in gens[0]]
        moves = self._transvections(rng)
        return [self._apply(moves, v) for v in gens]

    @staticmethod
    def _transvections(rng):
        """Two seeded Eichler transvections (u, a) of the K3 lattice.

        u is isotropic in one of the first two U blocks and a is supported
        off that block, so u.a = 0 and a.a is even.
        """
        moves = []
        for block in (0, 1):
            u = [0] * 22
            u[2 * block] = 1
            a = [0] * 22
            a[2 * (1 - block)] = 1
            a[6:] = sparse(rng, 16, 0.2, 1)
            moves.append((u, a))
        return moves

    def _apply(self, moves, v):
        g = self.k3
        out = list(v)
        for u, a in moves:
            xa, xu = arith.pair(g, out, a), arith.pair(g, out, u)
            half = arith.pair(g, a, a) // 2
            out = [x + xa * p - xu * q - half * xu * p for x, p, q in zip(out, u, a)]
        return out

    def execute(self, spec) -> Outcome:
        if spec[0] == "info":
            return self._info(*spec[1:])
        return self._realize(*spec[1:])

    def _info(self, gram, diag, height) -> Outcome:
        doc = {"lattice": {"gram": [enc(r) for r in gram]}}
        code, text, dt = call_cli(["info", "--input", "-", "--height", str(height)], json.dumps(doc))
        if code not in (0, 3):
            return Outcome(dt, None, text, error=f"info exited {code}")
        r = json.loads(text)["result"]
        pos = sum(1 for x in diag if x > 0)
        det = 1
        for x in diag:
            det *= x
        expect = {
            "rank": str(len(diag)),
            "signature": [str(pos), str(len(diag) - pos), "0"],
            "determinant": str(det),
            "even": all(gram[i][i] % 2 == 0 for i in range(len(diag))),
        }
        if any(r[key] != val for key, val in expect.items()):
            return Outcome(dt, None, text, error="lattice invariants differ from the construction")
        p = [int(x) for x in r["positive_vector"]]
        if arith.pair(gram, p, p) <= 0:
            return Outcome(dt, None, text, error="positive vector is not positive")
        iso = r["isotropic_vector"]
        if code == 3:
            ok = iso is None and r.get("isotropic_unknown_height") == str(height)
            return Outcome(dt, None, text, unknown=True, error="" if ok else "malformed Unknown")
        if iso is None:
            if arith.diagonal_isotropic(diag):
                return Outcome(dt, None, text, error="None for an isotropic lattice")
            return Outcome(dt, None, text)
        v = [int(x) for x in iso]
        if arith.pair(gram, v, v) != 0 or arith.content(v) != 1:
            return Outcome(dt, None, text, error="isotropic vector is wrong or not primitive")
        return Outcome(dt, None, text)

    def _realize(self, kind, gens) -> Outcome:
        doc = {"host": "K3", "sublattice": [enc(v) for v in gens]}
        code, text, dt = call_cli(["realize", "--input", "-"], json.dumps(doc))
        if code != 0:
            return Outcome(dt, None, text, error=f"realize exited {code}")
        r = json.loads(text)["result"]
        expected = self.EXPECTED[kind]
        if r["ok"] != (expected is None) or r["failing_condition"] != expected:
            return Outcome(dt, None, text, error=f"realize verdict differs from construction ({kind})")
        if r["ok"]:
            base = [Fraction(x) for x in r["witness"]["base"]]
            den = 1
            for x in base:
                den = den * x.denominator // arith.content((den, x.denominator))
            x = [int(c * den) for c in base]
            if any(arith.pair(self.k3, x, v) for v in gens) or arith.pair(self.k3, x, x) <= 0:
                return Outcome(dt, None, text, error="witness base is not a positive vector of E-perp")
        vdt, vout, err = verify_document(text)
        return Outcome(dt, vdt, text + vout, error=err)


WORKLOADS = {w.name: w for w in (K3Sample, SplitCertify, NefWalk, LatticeQueries)}
