"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from qdissect import congruences, dissect  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def _smoke(trace: int) -> dict:
    proc = _run(ROOT, "--smoke", "--workload", "all", "--seed", "5", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_end_to_end_metric_is_emitted():
    result = _smoke(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {f"{w}.{m['name']}" for w in WORKLOAD_NAMES for m in BENCH["end_to_end"]}
    assert set(result["metrics"]) == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
        assert m["value"] > 0, name


def test_every_per_layer_metric_is_emitted():
    result = _smoke(1)
    assert result["correct"]
    expected = {f"{w}.{m['name']}" for w in WORKLOAD_NAMES for m in BENCH["per_layer"]}
    assert set(result["metrics"]) == expected
    for w in WORKLOAD_NAMES:
        assert result["metrics"][f"{w}.trace.coverage"]["value"] >= 0.9


def test_declared_metrics_match_the_tracer_and_interaction_table():
    declared = [m["name"] for m in BENCH["per_layer"]]
    assert declared == spans.metric_names()
    table = json.loads((HERE / "interactions.json").read_text())["metrics"]
    assert list(table) == declared


def test_canary_catches_a_verifier_that_stopped_comparing(monkeypatch):
    profile = workloads.PROFILES["smoke"]
    assert all(ok for _, ok in workloads.check_canaries(11, profile))
    monkeypatch.setattr(dissect, "compare_series", lambda a, b: None)
    results = workloads.check_canaries(11, profile)
    assert any(not ok for _, ok in results)


def test_missing_wrap_target_is_absent_not_a_crash(monkeypatch):
    monkeypatch.delattr(congruences, "verify_family")
    tracer = spans.install()
    assert "congruences.verify_family" in tracer.absent
    metrics = tracer.metrics(1.0)
    assert metrics["congruences.verify_family.calls"] == 0


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = _run(tmp_path, "--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
