import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from mnpthermo import (AmplifierModel, CalibrationModel, EstimationError,
                       FieldConfig, MeasurementChannels, TimeSeries,
                       calibrate, estimate_temperature, phi_h_from_mixing,
                       plan_frequencies, sample_phase, tau_brownian,
                       tau_from_phase)
from mnpthermo.estimator import _bin_projection, wrap_phase
from mnpthermo.scenarios import measured_coils
from mnpthermo.signal_chain import (_difference_lines, _synthesize,
                                    _through_amplifier, apply_noise,
                                    coil_transfer, feedthrough_lines)
from tests.oracles import dft_line
from tests.test_scenarios import shipped_scenario

K_B = 1.380649e-23


class TestExtractPhasor:
    """The estimator's exact-bin read, _bin_projection."""

    def test_known_tone(self):
        plan = plan_frequencies(500, 50, 50000, None)  # 1000 samples
        t = np.arange(plan.n_samples) / plan.sample_rate  # 10 cycles
        ts = TimeSeries(plan.sample_rate, np.cos(2 * np.pi * 500 * t + 0.3))
        z = _bin_projection(ts, plan, 500)
        assert abs(z) == pytest.approx(1.0, rel=1e-12)
        assert cmath.phase(z) == pytest.approx(0.3, abs=1e-12)

    def test_other_bin_orthogonal(self):
        plan = plan_frequencies(500, 50, 50000, None)
        t = np.arange(plan.n_samples) / plan.sample_rate
        ts = TimeSeries(plan.sample_rate, np.cos(2 * np.pi * 500.0 * t))
        assert abs(_bin_projection(ts, plan, 750)) < 1e-12

    def test_noise_phase_statistics(self):
        # Monte Carlo vs sigma_phi = 1/(SNR * sqrt(N/2))
        rng = np.random.default_rng(7)
        plan = plan_frequencies(1000, 10, 100000, None)
        fs, f, n = plan.sample_rate, 1000, plan.n_samples
        snr_amp = math.sqrt(2.0 * 10.0 ** 4.0)  # 40 dB power, unit tone
        sigma = 1.0 / snr_amp
        t = np.arange(n) / fs
        clean = np.cos(2 * np.pi * f * t + 0.3)
        phases = []
        for _ in range(200):
            ts = TimeSeries(fs, clean + sigma * rng.standard_normal(n))
            phases.append(cmath.phase(_bin_projection(ts, plan, f)))
        predicted = 1.0 / (snr_amp * math.sqrt(n / 2.0))
        assert np.std(phases) == pytest.approx(predicted, rel=0.2)

    @pytest.mark.parametrize("plan", [
        None,  # the shipped plan of configs/static.ini
        plan_frequencies(6000, 1500, 600000, mains=None, window_periods=3),
        plan_frequencies(6001, 1570),  # f_base 1 Hz: a 1 s window
    ], ids=["shipped", "6000-1500-3periods", "6001-1570"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    def test_matches_direct_dft_on_static_channels(self, noisy, plan):
        # every channel at every line the estimator reads, through the
        # plan's integer bin, against the direct-summation oracle; noise is
        # the seed-0 stream
        cfg = shipped_scenario("static.ini")
        if plan is not None:
            cfg = replace(cfg, plan=plan)
        channels, ref_amp = cfg.clean_channels(cfg.program.t_start)
        if noisy:
            channels = apply_noise(channels, cfg.noise, ref_amp,
                                   np.random.SeedSequence(0))
        plan = cfg.plan
        assert channels.plan == plan
        for ts in (channels.diff_background, channels.diff_sample,
                   channels.ref_a):
            assert ts.samples.size == plan.n_samples
            for f in (plan.f_plus, plan.f_minus, plan.f_high, plan.f_low):
                assert abs(_bin_projection(ts, plan, f) - dft_line(ts, f)) \
                    <= 1e-13 * ts.peak


def synthetic_channels(phi_s_by_freq, phi_o=0.0, coil_b=None,
                       amplifier=None):
    """Composed-convention channel builder with per-line sample phases,
    keyed by integer hertz."""
    fld = FieldConfig(plan_frequencies(6000, 1570), 0.36e-3, 1.98e-3)
    plan = fld.plan
    coil_a, default_b = measured_coils()
    coil_b = coil_b or default_b
    amplifier = amplifier or AmplifierModel.default()
    sample_lines = []
    for f, phi_s in phi_s_by_freq.items():
        gain_c, phase_c = coil_transfer(coil_a, 2 * math.pi * f, 300.0)
        sample_lines.append((plan.order(f), 1e-3 * gain_c, phi_s + phase_c))
    ft_a = feedthrough_lines(fld, coil_a, 300.0, phi_o)
    ft_b = feedthrough_lines(fld, coil_b, 300.0, phi_o)
    ref = feedthrough_lines(fld, coil_a, 300.0, phi_o,
                            orders=sorted({n for n, _, _
                                           in ft_a + sample_lines}))
    bg = _synthesize(_through_amplifier(_difference_lines(ft_a, ft_b),
                                        amplifier, plan), plan)
    sw = _synthesize(_through_amplifier(sample_lines, amplifier, plan), plan)
    ds = TimeSeries(plan.sample_rate, bg.samples + sw.samples)
    ref_ts = _synthesize(ref, plan)
    return MeasurementChannels(bg, ds, ref_ts, plan)


class TestSamplePhase:
    def test_round_trip(self):
        ch = synthetic_channels({9140: 0.7}, phi_o=0.15)
        got = sample_phase(ch, AmplifierModel.default(), 9140, phi_o=0.15)
        assert got == pytest.approx(0.7, abs=1e-9)

    def test_coil_b_invariance(self):
        from mnpthermo import CoilParams
        ch1 = synthetic_channels({9140: 0.7})
        ch2 = synthetic_channels({9140: 0.7},
                                 coil_b=CoilParams(r0=50.0, l0=8e-3,
                                                   alpha_r=1e-3, t_ref=280.0,
                                                   coupling=5e-8))
        amp = AmplifierModel.default()
        a = sample_phase(ch1, amp, 9140)
        b = sample_phase(ch2, amp, 9140)
        assert abs(a - b) < 1e-12

    def test_phi_o_invariance(self):
        amp = AmplifierModel.default()
        a = sample_phase(synthetic_channels({9140: 0.7}, phi_o=0.0),
                         amp, 9140, phi_o=0.0)
        b = sample_phase(synthetic_channels({9140: 0.7}, phi_o=0.2),
                         amp, 9140, phi_o=0.2)
        assert abs(a - b) < 1e-12

    def test_reference_at_excitation_leaves_coil_curvature(self):
        coil_a, _ = measured_coils()
        ch = synthetic_channels({9140: 0.7})
        amp = AmplifierModel.default()
        got = sample_phase(ch, amp, 9140, ref_frequency=6000)
        _, pa_line = coil_transfer(coil_a, 2 * math.pi * 9140, 300.0)
        _, pa_ref = coil_transfer(coil_a, 2 * math.pi * 6000, 300.0)
        assert got == pytest.approx(0.7 + (pa_line - pa_ref), abs=1e-9)

    def test_vanishing_sample_line(self):
        ch = synthetic_channels({9140: 0.7})
        with pytest.raises(EstimationError):
            sample_phase(ch, AmplifierModel.default(), 2860)

    def test_vanishing_reference_line(self):
        ch = synthetic_channels({9140: 0.7, 2860: 0.1})
        with pytest.raises(EstimationError):
            sample_phase(ch, AmplifierModel.default(), 2860,
                         ref_frequency=4710)


class TestPhiHFromMixing:
    def test_algebraic_round_trip(self):
        phi_plus = wrap_phase(0.5 - 1.5 * math.pi)
        phi_minus = wrap_phase(0.1 - 1.5 * math.pi)
        assert phi_h_from_mixing(phi_plus, phi_minus) == pytest.approx(
            0.3, abs=1e-12)

    def test_degenerate_low_tone(self):
        # phi_L = 0: both lines equal, output = wrap(measured + 3pi/2)
        measured = wrap_phase(0.42 - 1.5 * math.pi)
        assert phi_h_from_mixing(measured, measured) == pytest.approx(
            0.42, abs=1e-12)

    def test_grid_round_trip(self):
        for phi_h in np.arange(0.01, 1.51, 0.1):
            for phi_l in np.arange(0.0, 0.71, 0.1):
                p = wrap_phase(phi_h + 2 * phi_l - 1.5 * math.pi)
                m = wrap_phase(phi_h - 2 * phi_l - 1.5 * math.pi)
                assert phi_h_from_mixing(p, m) == pytest.approx(
                    phi_h, abs=1e-12)

    def test_out_of_range_flagged(self):
        # inputs implying phi_H < 0
        p = wrap_phase(-0.2 - 1.5 * math.pi)
        m = wrap_phase(-0.3 - 1.5 * math.pi)
        with pytest.raises(EstimationError):
            phi_h_from_mixing(p, m)


class TestTauFromPhase:
    def test_zero(self):
        assert tau_from_phase(0.0, 6000.0) == 0.0

    def test_unit_tangent(self):
        assert tau_from_phase(math.pi / 4, 6000.0) == pytest.approx(
            1.0 / (2 * math.pi * 6000), rel=1e-12)

    def test_debye_inverse(self):
        tau = tau_brownian(30e-9, 1e-3, 300.0)
        phi = math.atan(2 * math.pi * 6000 * tau)
        assert tau_from_phase(phi, 6000.0) == pytest.approx(tau, rel=1e-12)

    def test_monotone(self):
        taus = [tau_from_phase(p, 6000.0) for p in np.linspace(0.0, 1.5, 40)]
        assert all(np.diff(taus) > 0)

    def test_range_check(self):
        with pytest.raises(ValueError):
            tau_from_phase(math.pi / 2, 6000.0)
        with pytest.raises(ValueError):
            tau_from_phase(-0.1, 6000.0)


class TestCalibration:
    def test_one_point_product(self):
        cal = calibrate([(1.024e-5, 300.0)], "one_point")
        assert cal.a == pytest.approx(3.072e-3, rel=1e-4)

    def test_plugin_temperature(self):
        v_h = math.pi / 6 * (30e-9) ** 3
        a = 3 * 1e-3 * v_h / K_B
        cal = CalibrationModel("one_point", a)
        assert cal.a == pytest.approx(3.0719e-3, rel=1e-4)
        assert cal.temperature(9.752e-6) == pytest.approx(315.0, abs=0.01)

    def test_inverse_proportionality(self):
        cal = CalibrationModel("one_point", 3.07e-3)
        assert cal.temperature(2e-5) == pytest.approx(
            0.5 * cal.temperature(1e-5), rel=1e-12)

    def test_calibration_point_recovered(self):
        cal = calibrate([(9.752e-6, 315.0)], "one_point")
        assert cal.temperature(9.752e-6) == pytest.approx(
            315.0, rel=1e-14)

    def test_affine_exact_recovery(self):
        a_true = 3.0719e-3
        pts = [(a_true / 312.0, 312.0), (a_true / 318.0, 318.0)]
        cal = calibrate(pts, "affine_in_inverse_tau")
        assert cal.a == pytest.approx(a_true, rel=1e-9)
        assert abs(cal.b) < 1e-9 * 315.0

    def test_affine_least_squares_orthogonality(self):
        rng = np.random.default_rng(3)
        taus = np.linspace(9.6e-6, 9.9e-6, 12)
        temps = 3.07e-3 / taus + 0.5 + rng.normal(0.0, 0.05, taus.size)
        cal = calibrate(list(zip(taus, temps)), "affine_in_inverse_tau")
        residuals = temps - (cal.a / taus + cal.b)
        # normal equations: residuals orthogonal to both regressors
        assert abs(np.dot(residuals, 1.0 / taus)) < 1e-6 * np.abs(
            np.dot(temps, 1.0 / taus))
        assert abs(residuals.sum()) < 1e-8 * np.abs(temps.sum())

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            calibrate([], "one_point")
        with pytest.raises(ValueError):
            calibrate([(1e-5, 300.0)], "affine_in_inverse_tau")
        with pytest.raises(ValueError):
            calibrate([(1e-5, 300.0), (1e-5, 310.0)], "affine_in_inverse_tau")

    def test_rejects_bad_tau(self):
        cal = CalibrationModel("one_point", 3.07e-3)
        with pytest.raises(ValueError):
            cal.temperature(0.0)


class TestEstimateTemperature:
    def _plan(self):
        from mnpthermo import plan_frequencies
        return plan_frequencies(6000, 1570)

    def test_flagged_on_missing_lines(self):
        # channels with no mixing content yield an invalid estimate
        ch = synthetic_channels({6000: 0.3})
        cal = CalibrationModel("one_point", 3.07e-3)
        est = estimate_temperature(ch, self._plan(), AmplifierModel.default(),
                                   cal, "mixing")
        assert not est.valid
        assert est.error and math.isnan(est.t_est)

    def test_composed_convention_recovery(self):
        # forward phases per the mixing convention, reference per line
        tau = 9.8e-6
        phi_h = math.atan(2 * math.pi * 6000 * tau)
        phi_l = math.atan(2 * math.pi * 1570 * tau)
        ch = synthetic_channels({
            9140: wrap_phase(phi_h + 2 * phi_l - 1.5 * math.pi),
            2860: wrap_phase(phi_h - 2 * phi_l - 1.5 * math.pi)})
        cal = calibrate([(tau, 3.0719e-3 / tau)], "one_point")
        est = estimate_temperature(ch, self._plan(), AmplifierModel.default(),
                                   cal, "mixing")
        assert est.valid
        assert est.tau_est == pytest.approx(tau, rel=1e-10)

    def test_unknown_mode(self):
        ch = synthetic_channels({9140: 0.7})
        cal = CalibrationModel("one_point", 3.07e-3)
        with pytest.raises(ValueError):
            from mnpthermo import estimate_tau
            estimate_tau(ch, self._plan(), AmplifierModel.default(), "both")

    def test_unknown_mode_raises_instead_of_flagging(self):
        # a caller error must not turn into a flagged row
        ch = synthetic_channels({9140: 0.7})
        cal = CalibrationModel("one_point", 3.07e-3)
        with pytest.raises(ValueError, match="unknown mode"):
            estimate_temperature(ch, self._plan(), AmplifierModel.default(),
                                 cal, "both")

    def test_zero_phase_flagged(self, monkeypatch):
        # phi_H = 0 gives tan 0 = 0: no positive tau, hence no temperature
        from mnpthermo import estimator
        monkeypatch.setattr(estimator, "phi_h_from_mixing", lambda p, m: 0.0)
        ch = synthetic_channels({9140: 0.7, 2860: 0.1})
        plan, amp = self._plan(), AmplifierModel.default()
        with pytest.raises(EstimationError, match="positive tau"):
            estimator.estimate_tau(ch, plan, amp, "mixing")
        est = estimate_temperature(ch, plan, amp,
                                   CalibrationModel("one_point", 3.07e-3),
                                   "mixing")
        assert not est.valid and math.isnan(est.t_est)
        assert "positive tau" in est.error
