"""Seeded sampling harness behind `k3lag sample`.

Each trial draws a primitive w of positive square in the K3 lattice and
checks both witness routes: a positive vector of the Lagrangian lattice
w-perp found by the classifier, and the orthogonal pair (v, ell) of
orth_witnesses. Trial t uses random.Random(seed * 1_000_003 + t), so a run
is reproducible trial by trial.
"""
from __future__ import annotations

import random
from collections import Counter

from .criteria import classify, lag_lattice
from .eichler import orth_witnesses
from .intlinalg import primitivize
from .lattice import Lattice, inner, k3_lattice, norm


def sample_vector(rng: random.Random, lat: Lattice, box: int):
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


def sample_trials(count: int, seed: int, box: int, mode: str, force_w=None) -> dict:
    """Run `count` trials; mode is "positive", "isotropic" or "both".

    force_w, if given, replaces the first trial's draw. The report holds the
    success count of each checked route, the failing trials and histograms
    of w.w and of the positive witness squares (keys are decimal strings).
    """
    lat = k3_lattice()
    kinds = [k for k in ("positive", "isotropic") if mode in (k, "both")]
    successes = dict.fromkeys(kinds, 0)
    w_hist: Counter = Counter()
    witness_hist: Counter = Counter()
    failures = []
    for trial in range(count):
        if trial == 0 and force_w is not None:
            w = force_w
        else:
            w = sample_vector(random.Random(seed * 1_000_003 + trial), lat, box)
        w_hist[str(norm(lat, w))] += 1
        passed = {}
        if "positive" in kinds:
            sub = lag_lattice(lat, w)
            rep = classify(sub.as_lattice())
            passed["positive"] = rep.case == "PositiveWitness" and rep.witness is not None
            if passed["positive"]:
                witness = sub.to_host(rep.witness)
                v2 = norm(lat, witness)
                passed["positive"] = v2 > 0 and inner(lat, witness, w) == 0
                witness_hist[str(v2)] += 1
        if "isotropic" in kinds:
            orth_witnesses(lat, w)  # raises ImpossibleState if its own check fails
            passed["isotropic"] = True
        for kind, ok in passed.items():
            if ok:
                successes[kind] += 1
            else:
                failures.append({"trial": trial, "kind": kind, "w": w})
    report = {
        "count": count,
        "mode": mode,
        "w_norm_histogram": dict(sorted(w_hist.items())),
        "failures": failures,
    }
    for kind in kinds:
        report[f"{kind}_successes"] = successes[kind]
    if "positive" in kinds:
        report["witness_norm_histogram"] = dict(sorted(witness_hist.items()))
    return report
