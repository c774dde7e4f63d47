import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from mnpthermo import (FieldConfig, ParticleSpec, QuadratureError,
                       TimeSeries, equilibrium_magnetization,
                       fourier_coefficients, langevin, magnetization_lines,
                       tau_brownian)
from mnpthermo import figures, magnetization, signal_chain
from mnpthermo.figures import FIGURE_IDS, generate_figure
from mnpthermo.magnetization import (HarmonicSet, default_n_max,
                                     synthesize_lines)
from mnpthermo.scenarios import load_scenario, plan_frequencies
from tests.oracles import (dft_line, doubled_coefficients, ode_magnetization,
                           relax_toward, torus_coefficients,
                           transient_periods)
from tests.test_scenarios import ROOT

K_B = 1.380649e-23


# The fields of the shipped configs (static, cooling) and figures: fig1,
# fig3, and fig8's tone ratios 1-4 (its ratio 5.5 is the config field).
OPERATING_PLAN = plan_frequencies(6000, 1570)
FIELDS = {
    "config": FieldConfig(OPERATING_PLAN, 0.36e-3, 1.98e-3),
    "fig1": FieldConfig(plan_frequencies(5000, 1000, 200000, None, 5),
                        1.5e-3, 0.0),
    "fig3": FieldConfig(plan_frequencies(6000, 1500, 600000, None, 3),
                        0.36e-3, 1.98e-3),
    **{f"fig8-ratio{r}": FieldConfig(OPERATING_PLAN, 0.36e-3, r * 0.36e-3)
       for r in (1, 2, 3, 4)},
}
SWEEP_TEMPERATURES = (20.0, 30.0, 40.0, 50.0, 65.0, 80.0, 100.0, 125.0,
                      150.0, 175.0, 200.0, 250.0, 300.0, 315.6, 350.0, 400.0)


def coefficients(h):
    """Harmonic coefficient a_n keyed by line frequency (Hz)."""
    return dict(zip(h.frequencies, h.coefficients))


def magnetization_series(h, tau):
    """Steady-state M(t) over the window of h's plan: the model's lines,
    one irfft."""
    return TimeSeries(h.plan.sample_rate,
                      synthesize_lines(*magnetization_lines(h, tau), h.plan))


@pytest.fixture
def m0_node_counts(monkeypatch):
    """Node count of every M0 evaluation fourier_coefficients makes."""
    counts = []
    evaluate = magnetization.equilibrium_magnetization

    def counted(t, *args):
        counts.append(np.size(t))
        return evaluate(t, *args)

    monkeypatch.setattr(magnetization, "equilibrium_magnetization", counted)
    return counts


def shipped_quadratures():
    """Every (field, particle, temperature) the configs and figures expand.

    The configs' points come from their temperature programs and
    calibration temperatures; the figures' are recorded while they run.
    """
    points = set()
    for path in sorted((ROOT / "configs").glob("*.ini")):
        cfg = load_scenario(path)
        temperatures = cfg.program.temperature(cfg.program.times())
        points |= {(cfg.field_config, cfg.particle, float(t))
                   for t in (*temperatures, *cfg.cal_temperatures)}

    def recorded(fld, p, temperature, *args):
        points.add((fld, p, float(temperature)))
        return fourier_coefficients(fld, p, temperature, *args)

    with pytest.MonkeyPatch.context() as mp:
        for module in (figures, signal_chain):
            mp.setattr(module, "fourier_coefficients", recorded)
        signal_chain._cached_harmonics.cache_clear()  # a hit records nothing
        try:
            for figure_id in FIGURE_IDS:
                generate_figure(figure_id, trials=2)
        finally:
            signal_chain._cached_harmonics.cache_clear()
    return points


class TestFieldConfig:
    def test_base_frequency(self, operating_field):
        assert operating_field.plan.f_base == 10

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError, match="non-negative"):
            FieldConfig(OPERATING_PLAN, -1e-3, 1e-3)

    def test_field_evaluation(self, operating_field):
        assert operating_field.b_field(0.0) == pytest.approx(0.36e-3 + 1.98e-3)
        # half a base period later the low tone (odd multiple) has flipped
        t = 0.5 / operating_field.plan.f_base
        expected = -1.98e-3 * 1.0 + 0.36e-3 * 1.0
        assert operating_field.b_field(t) == pytest.approx(expected, abs=1e-12)


class TestEquilibriumMagnetization:
    def test_zero_field_zero(self, particle, operating_field):
        fld = replace(operating_field, b_high=0.0, b_low=0.0)
        assert equilibrium_magnetization(0.123, fld, particle, 300.0) == 0.0

    def test_superposed_peak(self, particle, operating_field):
        fld = replace(operating_field, b_high=1e-3, b_low=1e-3)
        xi_single = particle.m_s * 1e-3 / (K_B * 300.0)
        expected = particle.n_conc * particle.m_s * langevin(2 * xi_single)
        assert equilibrium_magnetization(0.0, fld, particle, 300.0) == \
            pytest.approx(expected, rel=1e-12)

    def test_operating_field_value(self, particle, operating_field):
        # direct evaluation oracle at t = 0 (both tones at peak)
        xi = particle.m_s * (0.36e-3 + 1.98e-3) / (K_B * 300.0)
        oracle = particle.n_conc * particle.m_s * (1 / math.tanh(xi) - 1 / xi)
        got = equilibrium_magnetization(0.0, operating_field, particle, 300.0)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(502.2, abs=0.1)  # regression lock, A/m

    def test_odd_in_field(self, particle, operating_field):
        t = np.linspace(0.0, 0.1, 333)
        m_t = equilibrium_magnetization(t, operating_field, particle, 300.0)
        assert np.max(np.abs(m_t)) < particle.n_conc * particle.m_s

    @pytest.mark.parametrize("temperature", [0.0, -300.0, math.nan])
    def test_non_positive_temperature_rejected(self, particle,
                                               operating_field, temperature):
        # nan used to pass and fail only after every quadrature doubling
        with pytest.raises(ValueError, match="temperature must be positive"):
            equilibrium_magnetization(0.0, operating_field, particle,
                                      temperature)


class TestFourierCoefficients:
    def test_default_n_max(self, operating_field):
        # covers f_high + 6*f_low
        assert default_n_max(operating_field) == 1542

    def test_rejects_small_n_max(self, particle, operating_field):
        with pytest.raises(ValueError):
            fourier_coefficients(operating_field, particle, 300.0, n_max=100)

    def test_linear_regime_ratio(self, particle, operating_field):
        # linearized response: line ratio equals field ratio
        fld = replace(operating_field, b_high=2e-7, b_low=6e-7)
        a = coefficients(fourier_coefficients(fld, particle, 300.0))
        ratio = a[6000] / a[1570]
        assert ratio == pytest.approx(2e-7 / 6e-7, rel=1e-4)

    def test_odd_symmetry_selection_rule(self, particle, operating_field):
        h = fourier_coefficients(operating_field, particle, 300.0)
        peak = np.max(np.abs(h.coefficients))
        a = coefficients(h)
        # even-total-order intermodulation lines vanish
        for f in (6000 + 1570, 6000 - 1570, 2 * 1570, 2 * 6000):
            assert abs(a[f]) < 1e-10 * peak

    def test_mixing_lines_match(self, particle, operating_field):
        # product-to-sum symmetry: equal equilibrium coefficients at f_H +- 2f_L
        a = coefficients(fourier_coefficients(operating_field, particle,
                                              300.0))
        assert a[9140] == pytest.approx(a[2860], rel=1e-9)

    def test_single_tone_harmonic_ratio_against_quadrature(self, particle):
        # independent oracle: uniform-grid quadrature of the single-cosine
        # drive ((2/T) * integral = 2 * mean over one period)
        fld = FIELDS["fig1"]
        a = coefficients(fourier_coefficients(fld, particle, 300.0, n_max=25))
        t = np.arange(1 << 16) / (1 << 16) * 1e-3
        xi = particle.m_s * 1.5e-3 * np.cos(2 * np.pi * 5000 * t) / (K_B * 300.0)
        m0 = particle.n_conc * particle.m_s * langevin(xi)
        w = 2 * np.pi * 1000
        a1 = 2.0 * np.mean(m0 * np.cos(5 * w * t))
        a3 = 2.0 * np.mean(m0 * np.cos(15 * w * t))
        assert a[5000] == pytest.approx(a1, rel=1e-9)
        assert a[15000] == pytest.approx(a3, rel=1e-9)
        assert a[5000] / a[15000] == pytest.approx(a1 / a3, rel=1e-9)

    def test_against_adaptive_cosine_quadrature(self, particle,
                                                operating_field):
        # independent oracle: QUADPACK's cosine-weighted adaptive rule on a
        # scalar Langevin M0; M0 is even and T-periodic, so
        # a_n = (4/T) * integral over [0, T/2] of M0(t) cos(n w t)
        fld = operating_field
        h = fourier_coefficients(fld, particle, 300.0)
        peak = np.max(np.abs(h.coefficients))
        a = coefficients(h)
        period = 1.0 / fld.plan.f_base
        scale = particle.m_s / (K_B * 300.0)

        def m0(t):
            xi = scale * (fld.b_high * math.cos(2 * math.pi * 6000 * t)
                          + fld.b_low * math.cos(2 * math.pi * 1570 * t))
            if abs(xi) < 1e-2:
                lang = xi / 3 - xi ** 3 / 45 + 2 * xi ** 5 / 945
            else:
                lang = 1 / math.tanh(xi) - 1 / xi
            return particle.n_conc * particle.m_s * lang

        edges = np.linspace(0.0, 0.5 * period, 51)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            for f in (6000.0, 9140.0, 2860.0, 3 * 1570.0):
                half = sum(quad(m0, a, b, weight="cos", wvar=2 * math.pi * f,
                                epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                           for a, b in zip(edges[:-1], edges[1:]))
                assert abs(a[f] - 4.0 / period * half) \
                    <= 1e-10 * peak

    def test_quadrature_error_before_any_evaluation(self, particle,
                                                    operating_field,
                                                    m0_node_counts):
        # at 1e-300 K the decay bound asks for ~6e306 nodes: refused before
        # M0 is evaluated (the doubling loop took 10 s and ~1.5 GB to fail)
        with pytest.raises(QuadratureError, match=r"needs \S+e\+306 nodes"):
            fourier_coefficients(operating_field, particle, 1e-300)
        assert m0_node_counts == []

    def test_aliasing_check_refuses_a_non_analytic_integrand(
            self, particle, operating_field, monkeypatch):
        # white noise breaks the decay bound the node count assumes: its
        # top bins are as large as any, and the pass must say so
        noise = np.random.default_rng(0).standard_normal
        monkeypatch.setattr(magnetization, "equilibrium_magnetization",
                            lambda t, *args: noise(np.size(t)))
        with pytest.raises(QuadratureError, match="aliases"):
            fourier_coefficients(operating_field, particle, 300.0)

    @pytest.mark.parametrize("temperature", SWEEP_TEMPERATURES)
    @pytest.mark.parametrize("field", FIELDS)
    def test_one_pass_matches_doubling_oracle(self, particle, field,
                                              temperature, m0_node_counts):
        fld = FIELDS[field]
        h = fourier_coefficients(fld, particle, temperature)
        assert len(m0_node_counts) == 1
        a, _ = doubled_coefficients(fld, particle, temperature,
                                    default_n_max(fld))
        assert np.max(np.abs(h.coefficients - a)) \
            <= 1e-12 * np.max(np.abs(a))

    @pytest.mark.parametrize("fld, temperature", [
        *((FIELDS["config"], t) for t in (100.0, 300.0, 315.6, 400.0)),
        (FieldConfig(plan_frequencies(6001, 1570), 0.36e-3, 1.98e-3),
         315.6),  # f_base 1 Hz
        (FieldConfig(plan_frequencies(4710, 1570, 502400, None), 0.36e-3,
                     1.98e-3), 315.6),  # f_H = 3 f_L
    ], ids=["100K", "300K", "315.6K", "400K", "f_base-1Hz", "f_H-3f_L"])
    def test_one_pass_matches_torus_oracle(self, particle, fld, temperature):
        # the torus folds every (n1, n2) with n1 f_H + n2 f_L = n f_base
        # onto bin n; at f_H = 3 f_L each bin takes one pair per n1
        h = fourier_coefficients(fld, particle, temperature)
        a = torus_coefficients(fld, particle, temperature, h.indices[-1])
        assert np.max(np.abs(h.coefficients - a)) \
            <= 1e-12 * np.max(np.abs(a))

    def test_node_count_is_doubling_stop_where_shipped(self, m0_node_counts):
        # hence bit-identical outputs: at every shipped point the one pass
        # runs on the node count where the doubling loop stopped
        points = shipped_quadratures()
        assert {fld.plan.f_low for fld, _, _ in points} == {1000, 1500, 1570}
        for fld, p, temperature in sorted(points, key=repr):
            m0_node_counts.clear()
            fourier_coefficients(fld, p, temperature)
            _, n_stop = doubled_coefficients(fld, p, temperature,
                                             default_n_max(fld))
            assert m0_node_counts == [n_stop], (fld, temperature)

    @pytest.mark.parametrize("temperature", (20.0, 100.0, 300.0, 1000.0))
    @pytest.mark.parametrize("field", ("config", "fig1", "fig8-ratio1",
                                       "fig8-ratio4"))
    def test_spectrum_decays_at_least_at_pole_rate(self, particle, field,
                                                   temperature):
        # L has its nearest poles at xi = +-i*pi, so M0 is analytic in the
        # strip |Im t| < d = asinh(pi/xi_max) / (2 pi f_high) and
        # |a_n| <= C exp(-2 pi f_base d n); xi_max spans 0.35 to 58 here
        fld = FIELDS[field]
        xi_max = (particle.m_s * (fld.b_high + fld.b_low)
                  / (K_B * temperature))
        plan = fld.plan
        d = math.asinh(math.pi / xi_max) / (2 * math.pi * plan.f_high)
        rate = 2 * math.pi * plan.f_base * d
        n = 1 << 18
        t = np.arange(n) * ((1.0 / plan.f_base) / n)
        m0 = equilibrium_magnetization(t, fld, particle, temperature)
        a = np.abs((2.0 / n) * np.fft.rfft(m0)[1:n // 2].real)
        # upper envelope: the largest line in each run of f_high/f_base
        # indices, fitted between 1e-3 of the peak and the rounding floor
        block = plan.f_high // plan.f_base
        envelope = a[:a.size // block * block].reshape(-1, block).max(axis=1)
        centers = (np.arange(envelope.size) + 0.5) * block
        fit = (envelope < 1e-3 * a.max()) & (envelope > 1e-12 * a.max())
        assert fit.sum() >= 5
        slope = np.polyfit(centers[fit], np.log(envelope[fit]), 1)[0]
        assert -slope >= rate
        if fld.b_low == 0.0:  # one tone: the bound is exact
            assert -slope <= 1.1 * rate

    def test_concentration_scaling(self, particle, operating_field):
        h1 = fourier_coefficients(operating_field, particle, 300.0)
        p7 = ParticleSpec(particle.d_core, particle.d_hydro, particle.k_aniso,
                          particle.m_s, 7.0 * particle.n_conc, particle.eta,
                          particle.tau_0)
        h7 = fourier_coefficients(operating_field, p7, 300.0)
        scale = np.max(np.abs(h1.coefficients))
        np.testing.assert_allclose(h7.coefficients, 7.0 * h1.coefficients,
                                   rtol=1e-12, atol=7e-12 * scale)


class TestSpectralMagnetization:
    def test_tiny_tau_matches_unfiltered_reconstruction(self, particle,
                                                        operating_field):
        fld = replace(operating_field,
                      plan=plan_frequencies(6000, 1570, 200000))
        h = fourier_coefficients(fld, particle, 300.0)
        out = magnetization_series(h, 1e-14)
        t = np.arange(fld.plan.n_samples) / fld.plan.sample_rate
        recon = np.zeros_like(t)
        for n, a in zip(h.indices, h.coefficients):
            recon += a * np.cos(2 * np.pi * n * 10.0 * t)
        peak = np.max(np.abs(recon))
        assert np.max(np.abs(out.samples - recon)) < 1e-6 * peak

    def test_single_line_corner(self):
        # one line with w*tau = 1: amplitude 1/sqrt(2), lag pi/4
        plan = plan_frequencies(300, 100, 10000, mains=None,
                                window_periods=2)  # f_base 100 Hz
        h = HarmonicSet(plan, [1], [2.0])
        tau = 1.0 / (2 * np.pi * 100.0)
        out = magnetization_series(h, tau)
        t = np.arange(plan.n_samples) / plan.sample_rate
        expected = 2.0 / math.sqrt(2) * np.cos(2 * np.pi * 100 * t - np.pi / 4)
        np.testing.assert_allclose(out.samples, expected, atol=1e-12)

    def test_phase_law(self, particle, operating_field):
        # each line lags by arctan(n * w_base * tau) exactly
        tau = tau_brownian(30e-9, 1e-3, 300.0)
        h = fourier_coefficients(operating_field, particle, 300.0)
        ts = magnetization_series(h, tau)
        a = coefficients(h)
        for f in (1570.0, 6000.0, 2860.0, 9140.0):
            phase = cmath.phase(dft_line(ts, f))
            base = 0.0 if a[f] > 0 else math.pi
            lag = math.atan2(math.sin(base - phase), math.cos(base - phase))
            assert lag == pytest.approx(math.atan(2 * math.pi * f * tau),
                                        abs=1e-9)


class TestOdeMagnetization:
    def test_constant_drive_closed_form(self):
        tau, h, steps = 2e-3, 1e-4, 200
        states = relax_toward(np.full(2 * steps + 1, 5.0), tau, h)
        t = np.arange(steps + 1) * h
        np.testing.assert_allclose(states, 5.0 * (1 - np.exp(-t / tau)),
                                   atol=5e-7)

    def test_quasi_static_limit(self, particle):
        # w*tau < 1e-4: output tracks the equilibrium response
        fld = FieldConfig(plan_frequencies(60, 20, 6000, mains=None),
                          0.36e-3, 1.98e-3)
        tau = 1e-4 / (2 * np.pi * 60)
        out = ode_magnetization(fld, particle, 300.0, tau)
        m0 = equilibrium_magnetization(out.times, fld, particle, 300.0)
        peak = np.max(np.abs(m0))
        assert np.max(np.abs(out.samples - m0)) < 1e-3 * peak

    def test_transient_periods(self):
        assert transient_periods(1.02e-5, 10.0) == 1
        assert transient_periods(0.05, 10.0) == 5

    def test_step_violation(self, particle, operating_field):
        tau = tau_brownian(30e-9, 1e-3, 300.0)
        with pytest.raises(ValueError):
            ode_magnetization(operating_field, particle, 300.0, tau,
                              max_step=1e-3)

    def test_drive_shape_validation(self):
        with pytest.raises(ValueError):
            relax_toward(np.zeros(4), 1e-3, 1e-4)


class TestCrossOracle:
    def test_spectral_vs_ode(self, particle, operating_field):
        # coverage to f_high + 12 f_low keeps reconstruction truncation
        # well below the comparison tolerance
        tau = tau_brownian(30e-9, 1e-3, 300.0)
        n_max = int((6000 + 12 * 1570) / 10)
        h = fourier_coefficients(operating_field, particle, 300.0, n_max=n_max)
        spec = magnetization_series(h, tau)
        ode = ode_magnetization(operating_field, particle, 300.0, tau)
        rms = np.sqrt(np.mean((spec.samples - ode.samples) ** 2))
        rms /= np.sqrt(np.mean(ode.samples ** 2))
        assert rms < 1e-3

    def test_tightens_with_resolution(self, particle, operating_field):
        tau = tau_brownian(30e-9, 1e-3, 300.0)
        n_max = int((6000 + 14 * 1570) / 10)
        h = fourier_coefficients(operating_field, particle, 300.0, n_max=n_max)
        spec = magnetization_series(h, tau)
        step = min(tau / 40.0, 1.0 / (100.0 * 6000))
        ode = ode_magnetization(operating_field, particle, 300.0, tau,
                                max_step=step)
        rms = np.sqrt(np.mean((spec.samples - ode.samples) ** 2))
        rms /= np.sqrt(np.mean(ode.samples ** 2))
        assert rms < 1e-4


class TestTimeSeries:
    def test_samples_read_only_caller_array_untouched(self):
        x = np.arange(8.0)
        ts = TimeSeries(8.0, x)
        with pytest.raises(ValueError):
            ts.samples[0] = 1.0
        x[0] = 5.0  # the caller's array stays writable
        assert x.flags.writeable

    def test_spectrum_is_scaled_rfft(self):
        x = np.random.default_rng(3).standard_normal(1000)
        ts = TimeSeries(1000.0, x)
        np.testing.assert_allclose(ts.spectrum, np.fft.rfft(x) * 2.0 / 1000,
                                   rtol=1e-14, atol=1e-15)
        assert ts.spectrum is ts.spectrum  # computed once
        assert not ts.spectrum.flags.writeable


class TestMagnetizationSpectrum:
    def test_operating_configuration_lines(self, particle, operating_field):
        tau = tau_brownian(30e-9, 1e-3, 300.0)
        h = fourier_coefficients(operating_field, particle, 300.0)
        orders, z = magnetization_lines(h, tau)
        spec = dict(zip(orders * h.plan.f_base, np.abs(z) / np.abs(z).max()))
        for f in (6000.0, 1570.0, 4710.0, 9140.0, 2860.0):
            assert 20 * math.log10(spec[f]) > -60.0
        for f in (7570.0, 4430.0):  # f_H +- f_L: selection-rule silent
            assert 20 * math.log10(max(spec.get(f, 0.0), 1e-300)) < -120.0

    def test_ratio_grows_with_low_tone(self, particle, operating_field):
        ratios = []
        for r in (1.0, 2.5, 4.0, 5.5):
            fld = replace(operating_field, b_low=r * 0.36e-3)
            a = coefficients(fourier_coefficients(fld, particle, 300.0))
            ratios.append(abs(a[9140] / a[6000]))
        assert all(np.diff(ratios) > 0)
