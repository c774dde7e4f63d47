"""Smoke test of the benchmark worker (perfbench/worker.py).

The worker calls and wraps mnpthermo names through the module globals of
``scenarios``, ``signal_chain`` and ``magnetization``; a renamed or bypassed
name would otherwise surface only as a crashed benchmark run or a layer
that is never timed.
"""

import json
import os
import subprocess
import sys

import pytest

from mnpthermo.scenarios import load_scenario
from tests.test_scenarios import ROOT


@pytest.mark.parametrize("kind, config, count, trace", [
    ("scenario", "static.ini", 2, 1),
    ("scenario", "cooling.ini", 2, 1),
    ("noise_trials", "static.ini", 3, 0),
])
def test_worker_runs(tmp_path, kind, config, count, trace):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--kind", kind, "--config", str(ROOT / "configs" / config),
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
        n_cal = len(load_scenario(ROOT / "configs" / config)
                    .cal_temperatures)
        assert layers["estimator.estimate_tau"]["calls"] == n_cal
        syntheses = layers["signal_chain.simulate_clean_channels"]["calls"]
        assert syntheses == n_cal + (1 if config == "static.ini" else count)
        # one harmonic decomposition per temperature, one quadrature pass
        # each: the LRU serves cooling's first point, 320 K, which is also
        # a calibration temperature
        temperatures = n_cal + (1 if config == "static.ini" else count - 1)
        assert (layers["magnetization.fourier_coefficients"]["calls"]
                == layers["magnetization.equilibrium_magnetization"]["calls"]
                == temperatures)
