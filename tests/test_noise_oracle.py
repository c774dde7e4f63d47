"""Closed-form first-order noise oracle for the temperature estimate.

White Gaussian noise of std sigma over N samples puts complex noise of
per-component std s = sigma*sqrt(2/N) on every exact DFT bin, so a line of
amplitude A gets phase noise of variance s^2/A^2. Then:

* single mode subtracts two noisy channels at f_H:
  Var phi_H = 2 s^2 / A_H^2;
* mixing (debye phase model, reference read at f_H) halves the sum of
  the two differences at f+ and f- and subtracts one reference phase at
  f_H from both: Var phi_H = s^2/2 * (1/A+^2 + 1/A-^2) + s^2/A_ref^2;
* T = A/tau + B with tau = tan(phi_H)/(2 pi f_H), so
  std T = (T - B) / |sin phi_H cos phi_H| * sqrt(Var phi_H).

A_H, A+ and A- are the clean background-subtracted line amplitudes, A_ref
the clean reference-channel line at f_H and B the calibration offset.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from mnpthermo import figures, scenarios
from mnpthermo.scenarios import (default_scenario, monte_carlo_std,
                                 plan_frequencies, run_scenario,
                                 self_calibrate)
from mnpthermo.signal_chain import NoiseModel
from tests.oracles import dft_line
from tests.test_scenarios import shipped_scenario

PUBLISHED_STATIC_STD_K = 0.0267


def closed_form_std(cfg, cal, t_sample, snr_db):
    """First-order temperature-error std at snr_db (see module docstring)."""
    return closed_form_std_of(cfg, cal, *cfg.clean_channels(t_sample), snr_db)


def closed_form_std_of(cfg, cal, clean, ref_amp, snr_db):
    """closed_form_std from the clean channels and reference amplitude."""
    sigma = NoiseModel(snr_db).sigma(ref_amp)
    s2 = 2.0 * sigma**2 / clean.ref_a.samples.size  # per component, per bin

    def line(f):
        return abs(dft_line(clean.diff_sample, f)
                   - dft_line(clean.diff_background, f))

    plan = cfg.plan
    if cfg.mode == "single":
        var_phi = 2.0 * s2 / line(plan.f_high) ** 2
    else:
        assert cfg.ref_frequency() == plan.f_high
        a_ref = abs(dft_line(clean.ref_a, plan.f_high))
        var_phi = (0.5 * s2 * (1.0 / line(plan.f_plus) ** 2
                               + 1.0 / line(plan.f_minus) ** 2)
                   + s2 / a_ref ** 2)
    est = cfg.estimate(clean, cal)
    sin_cos = abs(math.sin(est.phi_h) * math.cos(est.phi_h))
    return (est.t_est - cal.b) / sin_cos * math.sqrt(var_phi)


def assert_within_standard_errors(std, expected, n_trials, k=4.0):
    # a sample std of n Gaussian draws has relative standard error
    # 1/sqrt(2(n-1))
    assert abs(std / expected - 1.0) <= k / math.sqrt(2.0 * (n_trials - 1))


def test_static_matched_snr_is_the_closed_form_snr():
    # both published scenarios run at the SNR matched on the static one
    cfg = shipped_scenario("static.ini")
    assert shipped_scenario("cooling.ini").snr_db == cfg.snr_db == 92.3
    t_sample = cfg.program.t_start
    std = closed_form_std(cfg, self_calibrate(cfg), t_sample, cfg.snr_db)
    # std T scales as 10^(-snr/20)
    snr = cfg.snr_db + 20.0 * math.log10(std / PUBLISHED_STATIC_STD_K)
    assert abs(snr - cfg.snr_db) <= 0.1


def test_mixing_monte_carlo_matches_closed_form():
    # a 1200-sample window keeps 1000 trials well under a second
    plan = plan_frequencies(6000, 1500, 600000, mains=None, window_periods=3)
    cfg = replace(default_scenario(), plan=plan,
                  cal_temperatures=(310.0, 315.0, 320.0),
                  cal_kind="affine_in_inverse_tau")
    cal = self_calibrate(cfg)
    n_trials = 1000
    std, n_flagged = monte_carlo_std(cfg, 315.0, 80.0, n_trials, cal)
    assert n_flagged == 0
    assert_within_standard_errors(
        std, closed_form_std(cfg, cal, 315.0, 80.0), n_trials)


def _recorded_fig1(monkeypatch, **kwargs):
    """fig1's table plus the (cfg, cal, t_sample, snr_db) of each row."""
    seen = []

    def recorded(cfg, t_sample, snr_db, n_trials, cal):
        seen.append((cfg, cal, t_sample, snr_db))
        return monte_carlo_std(cfg, t_sample, snr_db, n_trials, cal)

    monkeypatch.setattr(figures, "monte_carlo_std", recorded)
    return figures.figure_error_vs_snr(**kwargs), seen


def test_fig1_monte_carlo_matches_closed_form(monkeypatch):
    n_trials = 1000
    table, seen = _recorded_fig1(monkeypatch, snr_points=(40.0,),
                                 trials=n_trials)
    [(cfg, cal, t_sample, snr_db)] = seen
    [(_, std, n_ok)] = table.rows
    assert cfg.mode == "single" and n_ok == n_trials
    assert_within_standard_errors(
        std, closed_form_std(cfg, cal, t_sample, snr_db), n_trials)


def test_shipped_fig1_rows_match_closed_form(monkeypatch):
    # every row of the shipped table (6 SNR points, 200 trials). The rows
    # share noise streams, since _point_seed does not take the SNR, so
    # their deviations from the closed form are nearly one draw, not six
    table, seen = _recorded_fig1(monkeypatch)
    assert len(table.rows) == len(seen) == 6
    for (snr, std, n_ok), (cfg, cal, t_sample, snr_db) in zip(table.rows,
                                                              seen):
        assert snr == snr_db and n_ok == table.meta["trials"] == 200
        assert_within_standard_errors(
            std, closed_form_std(cfg, cal, t_sample, snr_db), n_ok)


@pytest.mark.parametrize("name, n_points", [("static.ini", 120),
                                            ("cooling.ini", 60)])
def test_scenario_errors_calibrate_to_closed_form(monkeypatch, name,
                                                  n_points):
    # over the seed-0 scenario run, error / predicted std is a unit-variance
    # draw at every point; each prediction reads the clean channels that
    # the run synthesized at its temperature, so nothing is synthesized
    # twice (static: 1 temperature, cooling: 60)
    cfg = shipped_scenario(name)
    assert cfg.program.n_points == n_points
    cal = self_calibrate(cfg)
    predicted = {}
    synthesize = scenarios.simulate_clean_channels

    def recorded(fld, p, t_sample, chain, t_amb):
        clean, ref_amp = synthesize(fld, p, t_sample, chain, t_amb)
        predicted[t_sample] = closed_form_std_of(cfg, cal, clean, ref_amp,
                                                 cfg.snr_db)
        return clean, ref_amp

    monkeypatch.setattr(scenarios, "simulate_clean_channels", recorded)
    records = run_scenario(cfg, cal).records
    assert all(r.ok for r in records)
    assert len(predicted) == len({r.t_true for r in records})
    z = [r.error / predicted[r.t_true] for r in records]
    assert_within_standard_errors(float(np.std(z)), 1.0, len(z))
