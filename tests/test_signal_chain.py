import math
from dataclasses import replace

import numpy as np
import pytest

from mnpthermo import (AmplifierModel, CoilParams, MeasurementChannels,
                       NoiseModel, SignalChainConfig, TimeSeries, coil_transfer,
                       simulate_clean_channels)
from mnpthermo.errors import ConfigError
from mnpthermo.magnetization import SamplingGrid
from mnpthermo.signal_chain import _synthesize, apply_noise
from tests.oracles import dft_line


def make_chain(coil_a, coil_b, phi_o=0.0, phase_model="debye", window=1):
    return SignalChainConfig(coil_a, coil_b, AmplifierModel.default(),
                             SamplingGrid(500000.0, window), phi_o,
                             phase_model)


def noisy_channels(fld, p, t_sample, chain, t_amb, noise=NoiseModel()):
    """Clean synthesis plus the given noise (none by default)."""
    channels, ref_amp = simulate_clean_channels(fld, p, t_sample, chain, t_amb)
    return apply_noise(channels, noise, ref_amp)


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
    def _tone_channels(self, n=100000):
        t = np.arange(n) / 100000.0
        ts = TimeSeries(100000.0, np.cos(2 * np.pi * 1000 * t))
        return MeasurementChannels(ts, ts, ts, 1000.0)

    def test_infinite_snr_unchanged(self):
        ch = self._tone_channels(1000)
        assert apply_noise(ch, NoiseModel(math.inf, 0), 1.0) is ch

    def test_deterministic_per_seed(self):
        ch = self._tone_channels(1000)
        a = apply_noise(ch, NoiseModel(40.0, 123), 1.0)
        b = apply_noise(ch, NoiseModel(40.0, 123), 1.0)
        c = apply_noise(ch, NoiseModel(40.0, 124), 1.0)
        for name in ("diff_background", "diff_sample", "ref_a"):
            assert np.array_equal(getattr(a, name).samples,
                                  getattr(b, name).samples)
            assert not np.array_equal(getattr(a, name).samples,
                                      getattr(c, name).samples)

    def test_variance_at_40_db(self):
        ch = self._tone_channels(1000000)
        noisy = apply_noise(ch, NoiseModel(40.0, 7), reference_amplitude=2.0)
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
        grid = SamplingGrid(500000.0, 1)
        freqs = 10.0 * rng.choice(np.arange(1, 2000), 60, replace=False)
        lines = list(zip(freqs, rng.uniform(0.0, 2.0, 60),
                         rng.uniform(-np.pi, np.pi, 60)))
        t = np.arange(grid.n_samples(10.0)) / grid.sample_rate
        expected = sum(a * np.cos(2 * np.pi * f * t + ph) for f, a, ph in lines)
        got = _synthesize(lines, grid, 10.0).samples
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_window_periods_and_empty(self):
        grid = SamplingGrid(1000.0, 3)
        t = np.arange(grid.n_samples(10.0)) / grid.sample_rate
        got = _synthesize([(30.0, 1.5, 0.2)], grid, 10.0).samples
        np.testing.assert_allclose(got, 1.5 * np.cos(2 * np.pi * 30 * t + 0.2),
                                   atol=1e-14)
        assert not np.any(_synthesize([], grid, 10.0).samples)

    @pytest.mark.parametrize("f", [15.0, 500.0, 700.0])
    def test_rejects_off_bin_and_nyquist(self, f):
        # 15 Hz: between bins of the 10 Hz window; 500 Hz: Nyquist
        with pytest.raises(ValueError):
            _synthesize([(f, 1.0, 0.0)], SamplingGrid(1000.0, 1), 10.0)


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
        lines = sample_voltage_lines(operating_field, particle, 300.0, tau,
                                     coil_pair[0], 300.0)
        for f, amp, ph in _through_amplifier(lines, chain.amplifier):
            expected[f] = (amp, ph)
        for f in (9140.0, 2860.0, 6000.0):
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
        noise = NoiseModel(60.0, 42)
        ch1 = noisy_channels(operating_field, particle, 300.0, chain, 300.0,
                             noise)
        ch2 = noisy_channels(operating_field, particle, 300.0, chain, 300.0,
                             noise)
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

    def test_window_mismatch_rejected(self, particle, operating_field, coil_pair):
        from mnpthermo import MeasurementChannels
        chain = make_chain(*coil_pair)
        ch = noisy_channels(operating_field, particle, 300.0, chain, 300.0)
        bad = TimeSeries(250000.0, ch.ref_a.samples)
        with pytest.raises(ConfigError):
            MeasurementChannels(ch.diff_background, ch.diff_sample, bad,
                                ch.f_base)
