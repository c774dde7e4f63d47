"""Smoke test of the benchmark worker (perfbench/worker.py).

The worker calls and wraps mnpthermo names through the ``scenarios`` module
globals; a renamed or bypassed name would otherwise surface only as a
crashed benchmark run.
"""

import json
import os
import subprocess
import sys

import pytest

from mnpthermo.scenarios import load_scenario
from tests.test_scenarios import ROOT


@pytest.mark.parametrize("kind, count, trace", [
    ("scenario", 2, 1),
    ("noise_trials", 3, 0),
])
def test_worker_runs(tmp_path, kind, count, trace):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--kind", kind, "--config", str(ROOT / "configs" / "static.ini"),
         "--seed", "0", "--count", str(count), "--trace", str(trace),
         "--out", str(tmp_path)],
        env=env, cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["t_points"]) == count
    if trace:
        layers = report["trace"]["layers"]
        assert "signal_chain.apply_noise" in layers
        assert "signal_chain.simulate_clean_channels" in layers
        assert "estimator.estimate_temperature" in layers
        # self_calibrate: one estimate_tau per calibration temperature
        n_cal = len(load_scenario(ROOT / "configs" / "static.ini")
                    .cal_temperatures)
        assert layers["estimator.estimate_tau"]["calls"] == n_cal
        # one quadrature pass per harmonic decomposition
        assert (layers["magnetization.equilibrium_magnetization"]["calls"]
                == layers["magnetization.fourier_coefficients"]["calls"])
