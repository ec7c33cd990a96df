"""k3lag benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One fresh process, one thread, closed loop:
the next operation starts only after the previous one returned. With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it runs a
fixed number of operations (sized so that both passes take about --seconds
at the time the benchmark was defined) untraced and then traced, and prints
the per-layer metrics and the tracing overhead. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Workloads, metrics and the layer mapping are described in
perfbench/spec.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from itertools import islice
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import arith  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

DEFAULT_SEED = 0  # the seed of the stored output digests
SETUP_RUNS = 5  # fresh interpreters before and again after the timed phase
# Reported times are host-speed normalized: each measured time is scaled by
# PROBE_REF_S over the duration of arith.probe() next to it, that is, to a
# host on which the probe takes exactly 1 ms. Raw medians are printed too.
PROBE_REF_S = 0.001

# A fresh interpreter up to a usable program: import plus host construction
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import workloads
workloads.load_program(sys.argv[2])
workloads.build_hosts(sys.argv[3:])
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def measure_setup(wl) -> list:
    """(raw, normalized) wall times of fresh interpreters doing the set-up."""
    times = []
    before = arith.probe()
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(BENCH), str(SRC), *wl.hosts],
            check=True,
            timeout=60,
        )
        dt = perf_counter() - t0
        after = arith.probe()
        times.append((dt, dt * 2 * PROBE_REF_S / (before + after)))
        before = after
    return times


def run_ops(wl, specs, seconds=None) -> list:
    """Execute specs in a closed loop until they run out or `seconds` pass."""
    outcomes = []
    start = perf_counter()
    before = arith.probe()
    for spec in specs:
        try:
            outcome = wl.execute(spec)
        except Exception:  # a traceback is a failed op, not a crashed run
            outcome = Outcome(0.0, None, "", error=traceback.format_exc())
        after = arith.probe()
        outcome.scale = 2 * PROBE_REF_S / (before + after)
        before = after
        outcomes.append(outcome)
        if seconds is not None and perf_counter() - start >= seconds:
            break
    return outcomes


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.output.encode("utf-8"))
    return h.hexdigest()


def check_stored_digest(wl, name):
    """Outputs of the default seed's first ops against perfbench/digests.json."""
    outcomes = run_ops(wl, islice(wl.inputs(DEFAULT_SEED), wl.digest_ops))
    found = digest(outcomes)
    stored = json.loads((BENCH / "digests.json").read_text())["sha256"].get(name)
    changed = "unrecorded" if stored is None else str(found != stored).lower()
    print(f"outputs_changed: {changed} (seed {DEFAULT_SEED}, first {wl.digest_ops} ops, sha256 {found})")
    return outcomes


def busy_seconds(outcomes) -> float:
    """Normalized time spent inside the package."""
    return sum((o.emit_s + (o.verify_s or 0.0)) * o.scale for o in outcomes)


def report_failures(outcomes) -> int:
    failed = [o for o in outcomes if o.error]
    for o in failed[:5]:
        print("FAILED:", o.error.strip().splitlines()[-1], file=sys.stderr)
    return len(failed)


def end_to_end(wl, args) -> dict:
    setups = measure_setup(wl)
    workloads.load_program(str(SRC))
    outcomes = run_ops(wl, wl.inputs(args.seed), args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # set-up is sampled at both ends of the run
    setups += measure_setup(wl)
    setup_s = statistics.median(norm for _, norm in setups)
    done = [o for o in outcomes if not o.error]
    n = len(outcomes)
    # an empty list means every op failed; the run then reports 0 and
    # correct: false rather than no result
    lat = sorted(o.emit_s * o.scale * 1000 for o in done) or [0.0]
    ver = [o.verify_s * o.scale * 1000 for o in done if o.verify_s is not None] or [0.0]
    unknown = sum(o.unknown for o in outcomes)
    # the highest percentile with at least 10 samples above it
    tail_i = max(len(lat) - 11, 0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (layers.ratio(len(done), busy_seconds(outcomes)), "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (lat[tail_i], "ms"),
        "verify_p50_ms": (statistics.median(ver), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_ok_share": (len(done) / n, "share"),
        "decided_share": ((n - unknown) / n, "share"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:16s} {value:12.4f} {unit}")
    print(
        f"latency_tail_ms is p{100 * (tail_i + 1) / len(lat):.1f} of {len(lat)} samples;"
        f" verify samples {len(ver)}; ops_failed_share {1 - len(done) / n:.4f};"
        f" unknown_share {unknown / n:.4f}"
    )
    print(
        f"raw wall medians: latency {statistics.median([o.emit_s for o in done] or [0.0]) * 1000:.4f} ms,"
        f" setup {statistics.median(raw for raw, _ in setups):.4f} s;"
        f" median host slowdown vs reference {statistics.median(1 / o.scale for o in outcomes):.3f}"
    )
    checked = check_stored_digest(wl, args.workload)
    failed = report_failures(outcomes + checked)
    return result(failed == 0, n + len(checked), failed, metrics)


def per_layer(wl, args) -> dict:
    workloads.load_program(str(SRC))
    pkg = workloads.k3lag
    # a fixed number of ops, not a time window, so that counts compare
    # across commits: a faster program does the same work, not more of it
    specs = list(islice(wl.inputs(args.seed), max(1, round(wl.trace_rate * args.seconds))))
    plain = run_ops(wl, specs)
    # the traced pass repeats the same ops from equally cold caches
    for cached in (pkg.lattice.signature, pkg.lattice.radical, pkg.lattice._gram_inverse):
        cached.cache_clear()
    tracer = layers.Tracer(pkg)
    tracer.install()
    try:
        traced = run_ops(wl, specs)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    plain_rate = layers.ratio(len(plain), busy_seconds(plain))
    traced_rate = layers.ratio(len(traced), busy_seconds(traced))
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_share"] = (layers.ratio(plain_rate, traced_rate) - 1, "share")
    same = digest(plain) == digest(traced)
    print(
        f"tracing overhead: {plain_rate:.3f} ops/s untraced, {traced_rate:.3f} ops/s traced"
        f" over {len(plain)} ops; output digests {'match' if same else 'DIFFER'}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:56s} {value:14.6g} {unit}")
    failed = report_failures(plain + traced)
    return result(failed == 0 and same, len(plain) + len(traced), failed, metrics)


def result(correct, attempted, failed, metrics) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "k3lag" / "__init__.py").is_file():
        print(f"k3lag sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    out = per_layer(wl, args) if args.trace else end_to_end(wl, args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
