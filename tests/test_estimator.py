import cmath
import math

import numpy as np
import pytest

from mnpthermo import (AmplifierModel, CalibrationModel, EstimationError,
                       FieldConfig, MeasurementChannels, SamplingGrid,
                       TimeSeries, calibrate, estimate_temperature,
                       phi_h_from_mixing, sample_phase, tau_brownian,
                       tau_from_phase)
from mnpthermo.estimator import _bin_projection, wrap_phase
from mnpthermo.scenarios import measured_coils
from mnpthermo.signal_chain import (NoiseModel, _difference_lines,
                                    _synthesize, _through_amplifier,
                                    apply_noise, coil_transfer,
                                    feedthrough_lines)
from tests.oracles import dft_line
from tests.test_scenarios import shipped_scenario

K_B = 1.380649e-23


class TestExtractPhasor:
    """The estimator's exact-bin read, _bin_projection."""

    def test_known_tone(self):
        fs, f = 50000, 500.0
        t = np.arange(1000) / fs  # 10 cycles
        ts = TimeSeries(fs, np.cos(2 * np.pi * f * t + 0.3))
        z = _bin_projection(ts, f)
        assert abs(z) == pytest.approx(1.0, rel=1e-12)
        assert cmath.phase(z) == pytest.approx(0.3, abs=1e-12)

    def test_other_bin_orthogonal(self):
        fs = 50000
        t = np.arange(1000) / fs
        ts = TimeSeries(fs, np.cos(2 * np.pi * 500.0 * t))
        assert abs(_bin_projection(ts, 750.0)) < 1e-12

    def test_noise_phase_statistics(self):
        # Monte Carlo vs sigma_phi = 1/(SNR * sqrt(N/2))
        rng = np.random.default_rng(7)
        fs, f, n = 100000, 1000.0, 10000
        snr_amp = math.sqrt(2.0 * 10.0 ** 4.0)  # 40 dB power, unit tone
        sigma = 1.0 / snr_amp
        t = np.arange(n) / fs
        clean = np.cos(2 * np.pi * f * t + 0.3)
        phases = []
        for _ in range(200):
            ts = TimeSeries(fs, clean + sigma * rng.standard_normal(n))
            phases.append(cmath.phase(_bin_projection(ts, f)))
        predicted = 1.0 / (snr_amp * math.sqrt(n / 2.0))
        assert np.std(phases) == pytest.approx(predicted, rel=0.2)

    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    def test_matches_direct_dft_on_static_channels(self, noisy):
        # every channel at every line the estimator reads, against the
        # direct-summation oracle; noise is the seed-0 stream
        cfg = shipped_scenario("static.ini")
        channels, ref_amp = cfg.clean_channels(cfg.program.t_start)
        if noisy:
            channels = apply_noise(channels, NoiseModel(cfg.snr_db, 0),
                                   ref_amp)
        plan = cfg.plan
        for ts in (channels.diff_background, channels.diff_sample,
                   channels.ref_a):
            for f in (plan.f_plus, plan.f_minus, plan.f_high, plan.f_low):
                assert abs(_bin_projection(ts, f) - dft_line(ts, f)) \
                    <= 1e-13 * ts.peak


def synthetic_channels(phi_s_by_freq, phi_o=0.0, coil_b=None,
                       amplifier=None, fld=None):
    """Composed-convention channel builder with per-line sample phases."""
    fld = fld or FieldConfig(6000, 1570, 0.36e-3, 1.98e-3)
    coil_a, default_b = measured_coils()
    coil_b = coil_b or default_b
    amplifier = amplifier or AmplifierModel.default()
    grid = SamplingGrid(500000.0, 1)
    sample_lines = []
    for f, phi_s in phi_s_by_freq.items():
        gain_c, phase_c = coil_transfer(coil_a, 2 * math.pi * f, 300.0)
        sample_lines.append((f, 1e-3 * gain_c, phi_s + phase_c))
    ft_a = feedthrough_lines(fld, coil_a, 300.0, phi_o)
    ft_b = feedthrough_lines(fld, coil_b, 300.0, phi_o)
    ref = feedthrough_lines(fld, coil_a, 300.0, phi_o,
                            frequencies=sorted({fld.f_high, fld.f_low}
                                               | set(phi_s_by_freq)))
    bg = _synthesize(_through_amplifier(_difference_lines(ft_a, ft_b),
                                        amplifier), grid, fld.f_base)
    sw = _synthesize(_through_amplifier(sample_lines, amplifier), grid,
                     fld.f_base)
    ds = TimeSeries(grid.sample_rate, bg.samples + sw.samples)
    ref_ts = _synthesize(ref, grid, fld.f_base)
    return MeasurementChannels(bg, ds, ref_ts, fld.f_base)


class TestSamplePhase:
    def test_round_trip(self):
        ch = synthetic_channels({9140.0: 0.7}, phi_o=0.15)
        got = sample_phase(ch, AmplifierModel.default(), 9140.0, phi_o=0.15)
        assert got == pytest.approx(0.7, abs=1e-9)

    def test_coil_b_invariance(self):
        from mnpthermo import CoilParams
        ch1 = synthetic_channels({9140.0: 0.7})
        ch2 = synthetic_channels({9140.0: 0.7},
                                 coil_b=CoilParams(r0=50.0, l0=8e-3,
                                                   alpha_r=1e-3, t_ref=280.0,
                                                   coupling=5e-8))
        amp = AmplifierModel.default()
        a = sample_phase(ch1, amp, 9140.0)
        b = sample_phase(ch2, amp, 9140.0)
        assert abs(a - b) < 1e-12

    def test_phi_o_invariance(self):
        amp = AmplifierModel.default()
        a = sample_phase(synthetic_channels({9140.0: 0.7}, phi_o=0.0),
                         amp, 9140.0, phi_o=0.0)
        b = sample_phase(synthetic_channels({9140.0: 0.7}, phi_o=0.2),
                         amp, 9140.0, phi_o=0.2)
        assert abs(a - b) < 1e-12

    def test_reference_at_excitation_leaves_coil_curvature(self):
        coil_a, _ = measured_coils()
        ch = synthetic_channels({9140.0: 0.7})
        amp = AmplifierModel.default()
        got = sample_phase(ch, amp, 9140.0, ref_frequency=6000.0)
        _, pa_line = coil_transfer(coil_a, 2 * math.pi * 9140, 300.0)
        _, pa_ref = coil_transfer(coil_a, 2 * math.pi * 6000, 300.0)
        assert got == pytest.approx(0.7 + (pa_line - pa_ref), abs=1e-9)

    def test_vanishing_sample_line(self):
        ch = synthetic_channels({9140.0: 0.7})
        with pytest.raises(EstimationError):
            sample_phase(ch, AmplifierModel.default(), 2860.0)

    def test_vanishing_reference_line(self):
        ch = synthetic_channels({9140.0: 0.7, 2860.0: 0.1})
        with pytest.raises(EstimationError):
            sample_phase(ch, AmplifierModel.default(), 2860.0,
                         ref_frequency=4710.0)


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
        ch = synthetic_channels({6000.0: 0.3})
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
            9140.0: wrap_phase(phi_h + 2 * phi_l - 1.5 * math.pi),
            2860.0: wrap_phase(phi_h - 2 * phi_l - 1.5 * math.pi)})
        cal = calibrate([(tau, 3.0719e-3 / tau)], "one_point")
        est = estimate_temperature(ch, self._plan(), AmplifierModel.default(),
                                   cal, "mixing")
        assert est.valid
        assert est.tau_est == pytest.approx(tau, rel=1e-10)
        assert est.diagnostics  # per-line amplitudes and SNR present

    def test_unknown_mode(self):
        ch = synthetic_channels({9140.0: 0.7})
        cal = CalibrationModel("one_point", 3.07e-3)
        with pytest.raises(ValueError):
            from mnpthermo import estimate_tau
            estimate_tau(ch, self._plan(), AmplifierModel.default(), "both")

    def test_unknown_mode_raises_instead_of_flagging(self):
        # a caller error must not turn into a flagged row
        ch = synthetic_channels({9140.0: 0.7})
        cal = CalibrationModel("one_point", 3.07e-3)
        with pytest.raises(ValueError, match="unknown mode"):
            estimate_temperature(ch, self._plan(), AmplifierModel.default(),
                                 cal, "both")

    def test_zero_phase_flagged(self, monkeypatch):
        # phi_H = 0 gives tan 0 = 0: no positive tau, hence no temperature
        from mnpthermo import estimator
        monkeypatch.setattr(estimator, "phi_h_from_mixing", lambda p, m: 0.0)
        ch = synthetic_channels({9140.0: 0.7, 2860.0: 0.1})
        plan, amp = self._plan(), AmplifierModel.default()
        with pytest.raises(EstimationError, match="positive tau"):
            estimator.estimate_tau(ch, plan, amp, "mixing")
        est = estimate_temperature(ch, plan, amp,
                                   CalibrationModel("one_point", 3.07e-3),
                                   "mixing")
        assert not est.valid and math.isnan(est.t_est)
        assert "positive tau" in est.error
