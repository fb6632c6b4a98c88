"""Tests of the benchmark itself, on its seconds-long smoke variants.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import LAYER_METRICS, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_and_passes_checks(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    human = proc.stdout.strip().splitlines()[:-1]
    for name, metric in result["metrics"].items():
        assert any(line.split()[:1] == [name] and line.endswith(" " + metric["unit"])
                   for line in human), name


def test_declared_per_layer_metrics_match_tracing():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        LAYER_METRICS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "heat-eps", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_reject_wrong_outputs():
    references = json.loads(run.REFERENCES.read_text())["smoke"]
    trace_ref = references["pulse-trace"]["0"]
    assert run.check("pulse-trace", dict(trace_ref), trace_ref, True) is None
    shifted = dict(trace_ref, values=[trace_ref["values"][0] + 1e-6] + trace_ref["values"][1:])
    assert run.check("pulse-trace", shifted, trace_ref, True) is not None

    coded = dict(references["encode-decode"]["0"])
    assert run.check("encode-decode", dict(coded, text="RMD?"), coded, True) is not None

    heat = references["heat-eps"]["0"]
    ok = dict(heat, fit_error=None, uncrossed=0)
    assert run.check("heat-eps", ok, heat, True) is None
    assert run.check("heat-eps", dict(ok, uncrossed=1), heat, True) is not None
    assert run.check("heat-eps", dict(ok, exponent=heat["exponent"] * 1.001), heat,
                     True) is not None


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
