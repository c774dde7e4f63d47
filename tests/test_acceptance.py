"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -v -s tests/test_acceptance.py`).

Published numbers quoted in the messages are reference envelopes from the
source experiment, reported alongside the simulation's own results.
"""

import math
import time
from dataclasses import replace

import numpy as np

import mnpthermo as m
from mnpthermo.figures import (figure_error_vs_snr, figure_mixing_vs_single,
                               figure_phase_drift)
from mnpthermo.scenarios import (TemperatureProgram, default_scenario,
                                 emit_csv, ideal_coils, run_scenario,
                                 self_calibrate)
from mnpthermo.signal_chain import apply_noise
from tests.oracles import ode_magnetization
from tests.test_magnetization import magnetization_series
from tests.test_scenarios import shipped_scenario


def report(number, ok, message):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {message}")
    assert ok, message


def estimate_at(cfg, t_sample, cal, seed_entropy=None):
    channels, ref_amp = cfg.clean_channels(t_sample)
    if seed_entropy is not None:
        channels = apply_noise(channels, cfg.noise, ref_amp,
                               np.random.SeedSequence(seed_entropy))
    return cfg.estimate(channels, cal)


def test_1_cross_oracle_physics(particle, operating_field):
    start = time.time()
    tau = m.tau_brownian(30e-9, 1e-3, 300.0)
    n_max = int((6000 + 12 * 1570) / 10)  # cover the spectrum, not just
    # the analysis lines, so reconstruction truncation stays negligible
    h = m.fourier_coefficients(operating_field, particle, 300.0, n_max=n_max)
    spec = magnetization_series(h, tau)
    ode = ode_magnetization(operating_field, particle, 300.0, tau)
    rms = np.sqrt(np.mean((spec.samples - ode.samples) ** 2))
    rms /= np.sqrt(np.mean(ode.samples ** 2))
    elapsed = time.time() - start
    report(1, rms < 1e-3 and elapsed < 10.0,
           f"steady-state spectrum vs time-domain integration: relative RMS "
           f"{rms:.2e} (< 1e-3), runtime {elapsed:.1f} s (< 10 s)")


def test_2_selection_rule_and_ratio_trend(particle, operating_field):
    tau = m.tau_brownian(30e-9, 1e-3, 300.0)
    h = m.fourier_coefficients(operating_field, particle, 300.0)
    ts = magnetization_series(h, tau)
    lines = (9140.0, 2860.0, 6000.0, 1570.0, 4710.0, 7570.0, 4430.0)
    bins = [round(f / 10.0) for f in lines]
    spec = dict(zip(lines, np.abs(ts.spectrum[bins]) / ts.peak))
    present = all(20 * math.log10(spec[f]) > -80.0
                  for f in (9140.0, 2860.0, 6000.0, 1570.0, 4710.0))
    absent = all(20 * math.log10(max(spec[f], 1e-300)) < -120.0
                 for f in (7570.0, 4430.0))
    ratios = []
    for r in (1.0, 2.0, 3.0, 4.0, 5.5):
        fld = replace(operating_field, b_low=r * 0.36e-3)
        hr = m.fourier_coefficients(fld, particle, 300.0)
        a = dict(zip(hr.frequencies, hr.coefficients))
        ratios.append(abs(a[9140] / a[6000]))
    monotone = bool(np.all(np.diff(ratios) > 0))
    report(2, present and absent and monotone,
           f"mixing lines present, f_H+-f_L lines < -120 dB, and the "
           f"mixing/carrier ratio grows with B_L/B_H "
           f"({', '.join(f'{x:.3f}' for x in ratios)})")


def test_3_estimator_exactness_composed():
    cfg = replace(default_scenario(), phase_model="composed",
                  cal_temperatures=(315.0,))
    cal = self_calibrate(cfg)
    worst = 0.0
    for t in np.linspace(310.0, 320.0, 5):
        est = estimate_at(cfg, float(t), cal)
        assert est.valid
        worst = max(worst, abs(est.t_est - float(t)))
    report(3, worst < 1e-9,
           f"composed-convention channels invert exactly: max error "
           f"{worst:.2e} K (< 1e-9 K) across 310-320 K, noiseless")


def test_4_cross_model_bias_and_affine_residual():
    coil_a, coil_b = ideal_coils()
    cfg = replace(default_scenario(), coil_a=coil_a, coil_b=coil_b,
                  cal_temperatures=(310.0, 315.0, 320.0),
                  cal_kind="affine_in_inverse_tau")
    tau300 = m.tau_brownian(30e-9, 1e-3, 300.0)
    wp, wm, wh = (2 * math.pi * f for f in (9140.0, 2860.0, 6000.0))
    predicted = 0.5 * (math.atan(wp * tau300) + math.atan(wm * tau300)) \
        - math.atan(wh * tau300)
    _, phi_h, *_ = cfg.tau(cfg.clean_channels(300.0, 300.0)[0])
    bias = phi_h - math.atan(wh * tau300)
    bias_ok = abs(bias - predicted) < 1e-4

    cal = self_calibrate(cfg)
    residual = max(abs(estimate_at(cfg, float(t), cal).t_est - float(t))
                   for t in np.linspace(310.0, 320.0, 11))
    report(4, bias_ok and residual < 0.05,
           f"mixing-sum reconstruction bias {bias:.6f} rad matches the "
           f"independent value {predicted:.6f} rad to 1e-4; affine-calibrated "
           f"residual {residual:.4f} K (< 0.05 K) over 310-320 K")


def test_5_error_vs_snr_trend():
    start = time.time()
    table = figure_error_vs_snr(trials=200, seed=0)
    stds = [r[1] for r in table.rows]
    monotone = bool(np.all(np.diff(stds) < 0))
    amp = [10.0 ** (r[0] / 20.0) for r in table.rows]
    slope = float(np.polyfit(np.log10(amp), np.log10(stds), 1)[0])
    elapsed = time.time() - start
    report(5, monotone and abs(slope + 1.0) < 0.3 and elapsed < 120.0,
           f"temperature-error std falls monotonically with SNR, log-log "
           f"slope {slope:.3f} (-1 +- 0.3), {len(stds)} points x 200 trials "
           f"in {elapsed:.0f} s (< 120 s)")


def test_6_mixing_vs_single():
    table = figure_mixing_vs_single()
    mix = table.meta["max_error_mixing_k"]
    single = table.meta["max_error_single_k"]
    report(6, mix < single,
           f"under coil temperature drift, mixing max error {mix:.3f} K < "
           f"single-frequency max error {single:.3f} K over 310-320 K "
           f"(published envelope: 0.08 K vs 0.56 K)")


def test_7_drift_suppression():
    table = figure_phase_drift()
    s_mix = table.meta["slope_mixing_deg_per_k"]
    s_dir = table.meta["slope_direct_deg_per_k"]
    report(7, abs(s_mix) < abs(s_dir),
           f"reconstructed-phase drift {abs(s_mix):.4f} deg/K < directly "
           f"measured {abs(s_dir):.4f} deg/K with reference correction on "
           f"(published: 0.05 vs 0.57 deg/K)")


def test_8_published_envelope_scenarios(tmp_path):
    static = run_scenario(shipped_scenario("static.ini", seed=0))
    s = static.summary
    static_ok = s["n_flagged"] == 0 and s["max_abs_error_k"] < 0.1

    dynamic = run_scenario(shipped_scenario("cooling.ini", seed=0))
    d = dynamic.summary
    dynamic_ok = d["n_flagged"] == 0 and d["max_abs_error_k"] < 0.2

    # determinism: identical config and seed give byte-identical output
    short = replace(shipped_scenario("static.ini", seed=0),
                    program=TemperatureProgram("constant", 315.6, 315.6,
                                               4.0, 4))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_scenario(short), p1)
    emit_csv(run_scenario(short), p2)
    deterministic = p1.read_bytes() == p2.read_bytes()

    report(8, static_ok and dynamic_ok and deterministic,
           f"matched-noise scenarios: static max error "
           f"{s['max_abs_error_k']:.3f} K (< 0.1, published 0.067, "
           f"std {s['std_error_k']:.4f} vs 0.0267), cooling max error "
           f"{d['max_abs_error_k']:.3f} K (< 0.2, published std 0.107); "
           f"byte-identical reruns: {deterministic}")


def test_9_invariance_suite():
    cfg = replace(default_scenario(), cal_temperatures=(315.0,))
    cal = self_calibrate(cfg)
    base = estimate_at(cfg, 313.0, cal)

    noisy = replace(cfg, snr_db=80.0, seed=3)
    base_noisy = estimate_at(noisy, 313.0, cal, seed_entropy=3)
    swapped = replace(noisy, coil_b=m.CoilParams(r0=25.0, l0=4e-3,
                                                 alpha_r=1e-3, t_ref=290.0,
                                                 coupling=2e-8))
    d_coil_b = abs(estimate_at(swapped, 313.0, cal, seed_entropy=3).t_est
                   - base_noisy.t_est)

    conc = replace(cfg, particle=replace(cfg.particle, n_conc=7e20))
    d_conc = abs(estimate_at(conc, 313.0, cal).t_est - base.t_est)

    amp = cfg.amplifier
    shifted_amp = m.AmplifierModel(amp.frequencies,
                                   amp.phases + (0.3 + 1e-5 * amp.frequencies),
                                   amp.gains)
    amp_cfg = replace(cfg, amplifier=shifted_amp)
    d_amp = abs(estimate_at(amp_cfg, 313.0, cal).t_est - base.t_est)

    d_phi_o = abs(estimate_at(replace(cfg, phi_o=0.2), 313.0, cal).t_est
                  - base.t_est)

    ok = max(d_coil_b, d_conc, d_amp, d_phi_o) < 1e-9
    report(9, ok,
           f"estimates invariant to coil B ({d_coil_b:.2e} K, fixed seed), "
           f"concentration ({d_conc:.2e} K), amplifier phase table "
           f"({d_amp:.2e} K) and feedthrough phase ({d_phi_o:.2e} K), "
           f"all < 1e-9 K")


def test_10_frequency_planner():
    plan = m.plan_frequencies(6000, 1570, 500000, 50)
    accepted = plan.f_plus == 9140.0 and plan.f_minus == 2860.0
    try:
        m.plan_frequencies(6000, 1500, 600000, 50)
        rejected, complete = False, False
    except m.PlanRejection as exc:
        rejected = any("9000" in v for v in exc.violations)
        complete = any("3000" in v for v in exc.violations)
    report(10, accepted and rejected and complete,
           "(6000, 1570) accepted with mixing lines 9140/2860 Hz; "
           "(6000, 1500) rejected naming both 50 Hz collisions")
