import math
from dataclasses import replace

import numpy as np
import pytest

from mnpthermo import (AmplifierModel, CoilParams, MeasurementChannels,
                       NoiseModel, SignalChainConfig, TimeSeries, coil_transfer,
                       simulate_clean_channels)
from mnpthermo.errors import ConfigError
from mnpthermo.magnetization import fourier_coefficients, magnetization_lines
from mnpthermo.scenarios import plan_frequencies
from mnpthermo.signal_chain import (FARADAY_PHASE_OFFSET, _synthesize,
                                    apply_noise, relaxation_time,
                                    sample_voltage_lines)
from tests.oracles import dft_line
from tests.test_scenarios import shipped_scenario


def make_chain(coil_a, coil_b, phi_o=0.0, phase_model="debye"):
    return SignalChainConfig(coil_a, coil_b, AmplifierModel.default(), phi_o,
                             phase_model)


def noisy_channels(fld, p, t_sample, chain, t_amb, noise=NoiseModel(),
                   seed=0):
    """Clean synthesis plus the given noise (none by default)."""
    channels, ref_amp = simulate_clean_channels(fld, p, t_sample, chain, t_amb)
    return apply_noise(channels, noise, ref_amp, np.random.SeedSequence(seed))


class TestCoilTransfer:
    def test_dc_limit(self, coil_pair):
        gain, phase = coil_transfer(coil_pair[0], 1e-6, 300.0)
        assert phase == pytest.approx(0.0, abs=1e-9)
        assert gain == pytest.approx(1.0, rel=1e-9)

    def test_measured_coil_at_6khz(self, coil_pair):
        _, phase = coil_transfer(coil_pair[0], 2 * math.pi * 6000, 300.0)
        oracle = math.atan(2 * math.pi * 6000 * 1.64741e-3 / 10.4177)
        assert phase == pytest.approx(oracle, rel=1e-12)
        assert math.degrees(phase) == pytest.approx(80.48, abs=0.01)

    def test_temperature_independent_without_coefficient(self):
        coil = CoilParams(r0=10.0, l0=1e-3, alpha_r=0.0, t_ref=300.0,
                          coupling=1e-8)
        _, p1 = coil_transfer(coil, 1e4, 250.0)
        _, p2 = coil_transfer(coil, 1e4, 350.0)
        assert p1 == p2

    def test_phase_rises_as_coil_cools(self, coil_pair):
        # copper-like alpha_R > 0: R falls with T, arctan(wL/R) rises
        _, cold = coil_transfer(coil_pair[0], 1e4, 280.0)
        _, warm = coil_transfer(coil_pair[0], 1e4, 320.0)
        assert cold > warm

    def test_resistance_positivity_guard(self):
        coil = CoilParams(r0=1.0, l0=1e-3, alpha_r=0.1, t_ref=300.0,
                          coupling=1e-8)
        with pytest.raises(ValueError):
            coil_transfer(coil, 1e4, 100.0)


class TestAmplifierModel:
    def test_interpolation_and_gain(self):
        amp = AmplifierModel([0.0, 1e4, 2e4], [0.0, -0.1, -0.15],
                             [1000.0, 1000.0, 990.0])
        assert amp.phase(5e3) == pytest.approx(-0.05)
        assert amp.gain(15e3) == pytest.approx(995.0)

    def test_requires_increasing_frequencies(self):
        with pytest.raises(ValueError):
            AmplifierModel([0.0, 1e4, 1e4], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])

    def test_table_file_round_trip(self, tmp_path):
        path = tmp_path / "amp.txt"
        path.write_text("# frequency_hz phase_deg gain\n"
                        "100 0.0 1000\n"
                        "10000 -1.0 1000\n"
                        "100000 -8.0 980\n")
        amp = AmplifierModel.from_table_file(path)
        assert amp.phase(10000) == pytest.approx(math.radians(-1.0))
        assert amp.gain(100000) == pytest.approx(980.0)

    def test_two_column_file_gets_flat_gain(self, tmp_path):
        path = tmp_path / "amp2.txt"
        path.write_text("100 0.0\n10000 -1.0\n")
        amp = AmplifierModel.from_table_file(path, gain=500.0)
        assert amp.gain(5000) == 500.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            AmplifierModel.from_table_file(tmp_path / "nope.txt")

    def test_default_reference_gain(self):
        amp = AmplifierModel.default()
        assert amp.gain(6000) == pytest.approx(1000.0)


class TestAddNoise:
    def _tone_channels(self, periods):
        # periods of 10 ms at 100 kHz
        plan = plan_frequencies(1000, 100, 100000, None, periods)
        t = np.arange(plan.n_samples) / plan.sample_rate
        ts = TimeSeries(plan.sample_rate, np.cos(2 * np.pi * 1000 * t))
        return MeasurementChannels(ts, ts, ts, plan)

    def test_infinite_snr_unchanged(self):
        ch = self._tone_channels(1)
        assert apply_noise(ch, NoiseModel(math.inf), 1.0,
                           np.random.SeedSequence(0)) is ch

    def test_deterministic_per_seed(self):
        ch = self._tone_channels(1)
        a, b, c = (apply_noise(ch, NoiseModel(40.0), 1.0,
                               np.random.SeedSequence(seed))
                   for seed in (123, 123, 124))
        for name in ("diff_background", "diff_sample", "ref_a"):
            assert np.array_equal(getattr(a, name).samples,
                                  getattr(b, name).samples)
            assert not np.array_equal(getattr(a, name).samples,
                                      getattr(c, name).samples)

    def test_variance_at_40_db(self):
        ch = self._tone_channels(1000)
        noisy = apply_noise(ch, NoiseModel(40.0), reference_amplitude=2.0,
                            seed_sequence=np.random.SeedSequence(7))
        signal_power = 0.5 * 2.0**2  # of the reference line, not the tone
        for name in ("diff_background", "diff_sample", "ref_a"):
            residual = (getattr(noisy, name).samples
                        - getattr(ch, name).samples)
            assert np.var(residual) == pytest.approx(1e-4 * signal_power,
                                                     rel=0.05)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(1000.0, [])


class TestSynthesize:
    def test_matches_cosine_sum(self):
        # one irfft of bin-placed phasors against the explicit line sum
        rng = np.random.default_rng(11)
        plan = plan_frequencies(6000, 1570)  # f_base 10 Hz at 500 kHz
        orders = rng.choice(np.arange(1, 2000), 60, replace=False)
        lines = list(zip(orders, rng.uniform(0.0, 2.0, 60),
                         rng.uniform(-np.pi, np.pi, 60)))
        t = np.arange(plan.n_samples) / plan.sample_rate
        expected = sum(a * np.cos(2 * np.pi * 10 * n * t + ph)
                       for n, a, ph in lines)
        got = _synthesize(lines, plan).samples
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_window_periods_and_empty(self):
        plan = plan_frequencies(30, 10, 1000, None, window_periods=3)
        t = np.arange(plan.n_samples) / plan.sample_rate
        got = _synthesize([(3, 1.5, 0.2)], plan).samples  # 30 Hz
        np.testing.assert_allclose(got, 1.5 * np.cos(2 * np.pi * 30 * t + 0.2),
                                   atol=1e-14)
        assert not np.any(_synthesize([], plan).samples)

    @pytest.mark.parametrize("order", [0, 50, 70])
    def test_rejects_dc_and_nyquist(self, order):
        # 10 Hz base orders at 1 kHz: 0 is DC, 50 (500 Hz) is Nyquist
        with pytest.raises(ValueError):
            _synthesize([(order, 1.0, 0.0)],
                        plan_frequencies(30, 10, 1000, None))


class TestSimulateChannels:
    def test_identical_coils_cancel(self, particle, operating_field, coil_pair):
        chain = make_chain(coil_pair[0], coil_pair[0])
        ch = noisy_channels(operating_field, particle, 300.0, chain, 300.0)
        assert np.max(np.abs(ch.diff_background.samples)) == 0.0

    def test_mismatched_coils_leak_excitation(self, particle, operating_field,
                                              coil_pair):
        chain = make_chain(*coil_pair)
        ch = noisy_channels(operating_field, particle, 300.0, chain, 300.0)
        for f in (6000.0, 1570.0):
            assert abs(dft_line(ch.diff_background, f)) > 1e-6
        # no feedthrough at the mixing lines
        assert abs(dft_line(ch.diff_background, 9140.0)) < 1e-12

    def test_difference_contains_only_coil_a_sample_term(
            self, particle, operating_field, coil_pair):
        # line-by-line spectral subtraction oracle, any coil B
        from mnpthermo.signal_chain import (relaxation_time,
                                            sample_voltage_lines,
                                            _through_amplifier)
        chain = make_chain(*coil_pair)
        ch = noisy_channels(operating_field, particle, 300.0, chain, 300.0)
        tau = relaxation_time(particle, 300.0)
        expected = dict()
        lines = sample_voltage_lines(
            operating_field, fourier_coefficients(operating_field, particle,
                                                  300.0),
            tau, coil_pair[0], 300.0)
        for n, amp, ph in _through_amplifier(lines, chain.amplifier,
                                             operating_field.plan):
            expected[n * 10] = (amp, ph)
        for f in (9140, 2860, 6000):
            zs = dft_line(ch.diff_sample, f)
            zb = dft_line(ch.diff_background, f)
            amp, ph = expected[f]
            z_expect = amp * np.exp(1j * ph)
            assert abs((zs - zb) - z_expect) < 1e-9 * abs(z_expect)

    def test_sample_term_independent_of_coil_b(self, particle, operating_field,
                                               coil_pair):
        # float synthesis leaves ulp-level residue in the background
        # cancellation, so "identical" here means to 1e-12 relative
        chain1 = make_chain(*coil_pair)
        other_b = CoilParams(r0=33.0, l0=5e-3, alpha_r=2e-3, t_ref=290.0,
                             coupling=3e-8)
        chain2 = make_chain(coil_pair[0], other_b)
        ch1 = noisy_channels(operating_field, particle, 300.0, chain1, 300.0)
        ch2 = noisy_channels(operating_field, particle, 300.0, chain2, 300.0)
        d1 = ch1.diff_sample.samples - ch1.diff_background.samples
        d2 = ch2.diff_sample.samples - ch2.diff_background.samples
        assert np.max(np.abs(d1 - d2)) < 1e-12 * np.max(np.abs(d1))

    def test_amplifier_linearity(self, particle, operating_field, coil_pair):
        # scaling both coil couplings scales both outputs exactly
        chain1 = make_chain(*coil_pair)
        scaled = [replace(c, coupling=2.0 * c.coupling) for c in coil_pair]
        chain2 = make_chain(*scaled)
        ch1 = noisy_channels(operating_field, particle, 300.0, chain1, 300.0)
        ch2 = noisy_channels(operating_field, particle, 300.0, chain2, 300.0)
        np.testing.assert_allclose(ch2.diff_sample.samples,
                                   2.0 * ch1.diff_sample.samples, rtol=1e-12)
        np.testing.assert_allclose(ch2.diff_background.samples,
                                   2.0 * ch1.diff_background.samples,
                                   rtol=1e-12)

    def test_noise_reference_is_sample_line(self, particle, operating_field,
                                            coil_pair):
        # reference amplitude equals the strongest amplified sample line
        # (background-subtracted so feedthrough does not contaminate it)
        chain = make_chain(*coil_pair)
        clean, ref_amp = simulate_clean_channels(operating_field, particle, 300.0,
                                                 chain, 300.0)
        best = 0.0
        for f in (1570.0, 4710.0, 2860.0, 6000.0, 9140.0):
            zs = dft_line(clean.diff_sample, f)
            zb = dft_line(clean.diff_background, f)
            best = max(best, abs(zs - zb))
        assert ref_amp == pytest.approx(best, rel=1e-9)

    def test_noisy_channels_deterministic(self, particle, operating_field,
                                          coil_pair):
        chain = make_chain(*coil_pair)
        noise = NoiseModel(60.0)
        ch1 = noisy_channels(operating_field, particle, 300.0, chain, 300.0,
                             noise, seed=42)
        ch2 = noisy_channels(operating_field, particle, 300.0, chain, 300.0,
                             noise, seed=42)
        np.testing.assert_array_equal(ch1.diff_sample.samples,
                                      ch2.diff_sample.samples)
        np.testing.assert_array_equal(ch1.ref_a.samples, ch2.ref_a.samples)
        # channels get independent streams
        assert not np.array_equal(
            ch1.diff_sample.samples - noisy_channels(
                operating_field, particle, 300.0,
                make_chain(*coil_pair), 300.0).diff_sample.samples,
            ch1.diff_background.samples - noisy_channels(
                operating_field, particle, 300.0,
                make_chain(*coil_pair), 300.0).diff_background.samples)

    def test_sample_lines_are_magnetization_lines(self):
        # the chain's per-line model is the RK4-checked M(t) through the
        # Faraday derivative and coil A: coupling * w * gain * conj(z) *
        # exp(j(FARADAY_PHASE_OFFSET + coil phase)) for each line z of M
        cfg = shipped_scenario("static.ini")
        fld, p, t_sample, t_amb = cfg.field_config, cfg.particle, 315.6, 300.0
        tau = relaxation_time(p, t_sample)
        h = fourier_coefficients(fld, p, t_sample)
        lines = sample_voltage_lines(fld, h, tau, cfg.coil_a, t_amb)
        orders, z = magnetization_lines(h, tau)
        assert len(lines) == orders.size == 73
        for (n, amp, ph), n_m, z_m in zip(lines, orders, z):
            assert n == n_m
            omega = 2.0 * math.pi * n * fld.plan.f_base
            gain, phase = coil_transfer(cfg.coil_a, omega, t_amb)
            expected = (cfg.coil_a.coupling * omega * gain * np.conj(z_m)
                        * np.exp(1j * (FARADAY_PHASE_OFFSET + phase)))
            assert abs(amp * np.exp(1j * ph) - expected) \
                <= 1e-13 * abs(expected)
