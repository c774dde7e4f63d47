"""End-to-end estimator invariants that need full channel simulations."""

from dataclasses import replace

import numpy as np

from mnpthermo.scenarios import default_scenario, monte_carlo_std, self_calibrate


def test_estimated_tau_strictly_decreases_with_temperature():
    cfg = replace(default_scenario(), cal_temperatures=(315.0,))
    taus = []
    for t in np.linspace(310.0, 320.0, 6):
        channels, _ = cfg.clean_channels(float(t))
        taus.append(cfg.tau(channels)[0])
    assert all(np.diff(taus) < 0)


def test_quadrupled_noise_power_doubles_error_std():
    cfg = replace(default_scenario(), snr_db=86.0, seed=5,
                  cal_temperatures=(315.0,))
    cal = self_calibrate(cfg)
    std_1, _ = monte_carlo_std(cfg, 315.0, 86.0, 200, cal)
    # -6.02 dB = 4x the noise power
    std_4, _ = monte_carlo_std(cfg, 315.0, 86.0 - 20.0 * np.log10(2.0), 200, cal)
    assert 1.5 < std_4 / std_1 < 2.5
