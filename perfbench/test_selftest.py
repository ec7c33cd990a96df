"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench/test_selftest.py

It checks that each run prints every metric BENCHMARK.json names, with its
unit, that no op fails, and that every layer the workload is documented to
exercise (perfbench/spec.json) records calls, so a rename in the package
cannot silently zero a metric.
"""
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH / "spec.json").read_text())
NAMES = [w["name"] for w in CONTRACT["workloads"]]

sys.path.insert(0, str(BENCH))
import arith  # noqa: E402


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert set(NAMES) == set(SPEC["workloads"])


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics(workload):
    proc = run(ROOT, workload, 0)
    doc = last_json(proc)
    assert "outputs_changed: false" in proc.stdout
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    units = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert doc["metrics"]["ops_ok_share"]["value"] == 1.0
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_per_layer_metrics(workload):
    proc = run(ROOT, workload, 1)
    doc = last_json(proc)
    assert doc["correct"] is True and doc["failed"] == 0
    assert "output digests match" in proc.stdout
    metrics = doc["metrics"]
    units = {name: m["unit"] for name, m in metrics.items()}
    assert units == {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    for layer in SPEC["workloads"][workload]["exercised"]:
        assert metrics[layer + ".calls"]["value"] > 0, layer


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, NAMES[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_diagonal_isotropy_against_search():
    for d in itertools.product((-5, -3, -2, -1, 1, 2, 3, 5), repeat=3):
        found = any(
            sum(a * x * x for a, x in zip(d, v)) == 0
            for v in itertools.product(range(-6, 7), repeat=3) if any(v)
        )
        # a zero within the box proves isotropy; the converse is the
        # Hasse-Minkowski claim, which small forms satisfy within the box
        assert arith.diagonal_isotropic(list(d)) == found, d
