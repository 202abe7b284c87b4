"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/smoke_test.py

Runs every workload for a few frames in both modes, checks that the result
line follows the contract in BENCHMARK.json, that tracing restores the
wrapped functions and that traced self times account for ``Tracker.step``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402
from run import Pass  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_meets_the_contract(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--frames", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert isinstance(metric["value"], float), name


def test_benchmark_json_names_are_unique_and_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_traced_pass_restores_originals_and_accounts_for_step(tmp_path):
    workload = workloads.WORKLOADS["dense_static"]
    workloads.synthesise(workload, 5, tmp_path / "seq", frames=3)
    inputs = workloads.load(workload, tmp_path / "seq")
    targets = layers.targets()
    originals = [t.owner.__dict__[t.attr] for t in targets]

    tracer = Tracer()
    tracer.install(targets)
    try:
        traced = Pass(workload, inputs, 3).run()
    finally:
        tracer.restore()
    assert [t.owner.__dict__[t.attr] for t in targets] == originals

    layer = layers.tracking_metrics(tracer, [r.diagnostics for r in traced.results],
                                    sum(len(v) for v in inputs.detections.values()))
    assert layer["tracker.step_ms"] > 0
    assert abs(layers.unattributed_step_ms(layer)) < 1e-6
    shares = [v for k, v in layer.items() if k.startswith("share.")]
    assert abs(sum(shares) - 100.0) < 1e-6

    untraced = Pass(workload, inputs, 3).run()
    untraced.fingerprint(tmp_path / "a.txt")
    traced.fingerprint(tmp_path / "b.txt")
    assert untraced.digest == traced.digest


def test_self_time_subtracts_direct_children():
    ns = types.SimpleNamespace()
    ns.inner = lambda: time.sleep(0.02)
    ns.outer = lambda: (time.sleep(0.01), ns.inner(), ns.inner())
    tracer = Tracer()
    tracer.install([Target(ns, "outer", "t.outer"), Target(ns, "inner", "t.inner")])
    try:
        ns.outer()
    finally:
        tracer.restore()
    outer, first, second = tracer.spans
    assert first.parent == second.parent == 0 and outer.parent == -1
    own = tracer.totals()
    assert own["t.outer"] + own["t.inner"] == pytest.approx(outer.duration, abs=1e-12)
    assert 0.005 < own["t.outer"] < 0.02
    assert tracer.counts["t.inner.calls"] == 2


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "fast_camera", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
