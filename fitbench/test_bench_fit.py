"""Smoke test of the fit benchmark.

Run from the repository root (the tier-1 suite does not collect it)::

    python -m pytest fitbench/test_bench_fit.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import workloads  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("fitbench") / "BENCH_fit.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_fit.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def test_every_declared_workload_and_metric_is_emitted_with_its_unit(smoke):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(smoke["workloads"])
    for name, entry in smoke["workloads"].items():
        assert entry["correct"], name
        assert entry["failed"] == 0, name
        for group in ("end_to_end", "per_layer"):
            for metric in spec[group]:
                emitted = entry[group][metric["name"]]
                assert emitted["unit"] == metric["unit"], (name, metric)
                assert isinstance(emitted["value"], float), (name, metric)


def test_layer_coverage_gate_holds(smoke):
    gate = smoke["coverage_gate"]
    assert gate["passed"]
    assert set(gate["coverage"]) == {
        "pie_normal", "mnist_dual", "news_lsqr", "news_sharded"
    }
    assert min(gate["coverage"].values()) >= gate["min_layer_coverage"]


def test_a_host_at_half_speed_halves_the_reference_time(monkeypatch):
    host = HostSpeed()
    assert host.calibrate() > 0.0
    monkeypatch.setattr(host, "calibrate", lambda: 2.0 * REFERENCE_S)
    seconds, reference, result = host.timed(lambda: "answer")
    assert result == "answer"
    assert reference == pytest.approx(seconds / 2.0)


@pytest.mark.parametrize("name", ["pie_normal", "news_lsqr"])
def test_perturbed_result_trips_the_checks(name):
    case = workloads.make_fit_case(name, seed=0, scale="smoke")
    X_train, y_train, X_test, y_test = case.split(0)
    model = case.model().fit(X_train, y_train)
    predictions = model.predict(X_test)

    def failing(predicted):
        checks = workloads.check_fit(
            case, model, X_train, y_train, X_test, y_test, predicted
        )
        return {check.name for check in checks if not check.ok}

    assert failing(predictions) == set()

    flipped = predictions.copy()
    flipped[: max(1, flipped.shape[0] // 100)] = -1
    assert "predict_nearest_centroid" in failing(flipped)

    model.components_ = model.components_.copy()
    model.components_[0, 0] += 1e-3 * np.abs(model.components_).max()
    solver_check = "normal_equations" if name == "pie_normal" else "lsqr_vs_scipy"
    assert solver_check in failing(model.predict(X_test))
