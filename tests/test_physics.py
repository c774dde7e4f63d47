import math

import numpy as np
import pytest

from mnpthermo import (FieldCorrectionModel, ParticleSpec, debye_response,
                       langevin, tau_brownian, tau_effective,
                       tau_field_corrected, tau_neel, xi_parameter)
from mnpthermo.physics import TAU_NEEL_CAP

K_B = 1.380649e-23


class TestLangevin:
    def test_zero(self):
        assert langevin(0.0) == 0.0

    def test_small_argument_limit(self):
        # xi/3 limit
        assert langevin(1e-4) == pytest.approx(1e-4 / 3.0, rel=1e-6)

    def test_unit_argument(self):
        # high-precision coth(1) - 1 oracle
        expected = (math.exp(2) + 1) / (math.exp(2) - 1) - 1.0
        assert langevin(1.0) == pytest.approx(expected, rel=1e-14)
        assert langevin(1.0) == pytest.approx(0.3130352854993313, rel=1e-12)

    def test_odd_increasing_bounded(self):
        xs = np.concatenate([np.linspace(-50, 50, 401), [-1e-8, 1e-8]])
        ys = langevin(xs)
        assert np.allclose(ys, -langevin(-xs), atol=1e-15)
        assert np.all(np.abs(ys) < 1.0)
        order = np.argsort(xs)
        assert np.all(np.diff(ys[order]) > 0)

    def test_series_matches_direct_across_switch(self):
        # continuity across the series/direct boundary
        xs = np.linspace(5e-3, 2e-2, 101)
        direct = 1.0 / np.tanh(xs) - 1.0 / xs
        assert np.allclose(langevin(xs), direct, rtol=1e-10)

    def test_cubic_remainder_near_zero(self):
        # L(x) - x/3 = O(x^3)
        for x in (1e-3, 3e-3, 1e-2):
            assert abs(langevin(x) - x / 3.0) < 0.1 * x**3


class TestXiParameter:
    def test_zero_field(self, particle):
        assert xi_parameter(particle, 0.0, 300.0) == 0.0

    def test_bulk_moment(self, particle):
        # m_s = M_s_bulk * V_core for a 30 nm core
        assert particle.m_s == pytest.approx(
            4.8e5 * math.pi / 6 * (30e-9) ** 3, rel=1e-12)
        xi = xi_parameter(particle, 1.5e-3, 300.0)
        oracle = particle.m_s * 1.5e-3 / (K_B * 300.0)
        assert xi == pytest.approx(oracle, rel=1e-14)
        assert xi == pytest.approx(2.46, abs=0.005)

    def test_inverse_temperature(self, particle):
        assert xi_parameter(particle, 1e-3, 600.0) == pytest.approx(
            0.5 * xi_parameter(particle, 1e-3, 300.0), rel=1e-12)

    def test_rejects_bad_temperature(self, particle):
        with pytest.raises(ValueError):
            xi_parameter(particle, 1e-3, 0.0)


class TestTauBrownian:
    def test_operating_value(self):
        # 3*eta*V_H/(k_B*T) with V_H = (pi/6)(30 nm)^3 = 1.41372e-23 m^3
        v_h = math.pi / 6 * (30e-9) ** 3
        oracle = 3 * 1e-3 * v_h / (K_B * 300.0)
        got = tau_brownian(30e-9, 1e-3, 300.0)
        assert got == pytest.approx(oracle, rel=1e-14)
        assert got == pytest.approx(1.0240e-5, rel=1e-4)

    def test_at_310(self):
        assert tau_brownian(30e-9, 1e-3, 310.0) == pytest.approx(9.909e-6, rel=1e-4)

    def test_cubic_scaling(self):
        assert tau_brownian(60e-9, 1e-3, 300.0) == pytest.approx(
            8 * tau_brownian(30e-9, 1e-3, 300.0), rel=1e-12)

    def test_tau_times_temperature_constant(self):
        # equals the calibration constant A up to k_B, independent of T
        products = [tau_brownian(30e-9, 1e-3, t) * t
                    for t in np.linspace(250.0, 350.0, 21)]
        assert np.ptp(products) <= 1e-12 * products[0]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tau_brownian(-1e-9, 1e-3, 300.0)
        with pytest.raises(ValueError):
            tau_brownian(30e-9, 1e-3, -5.0)


class TestTauNeel:
    def test_small_core(self):
        expo = 20e3 * math.pi / 6 * (10e-9) ** 3 / (K_B * 300.0)
        assert expo == pytest.approx(2.528, abs=2e-3)
        assert tau_neel(10e-9, 20e3, 300.0, 1e-9) == pytest.approx(
            1e-9 * math.exp(expo), rel=1e-12)
        assert tau_neel(10e-9, 20e3, 300.0, 1e-9) == pytest.approx(1.25e-8, rel=3e-3)

    def test_frozen_large_core(self):
        # exponent ~ 68.3: astronomically slow but not yet saturated
        got = tau_neel(30e-9, 20e3, 300.0, 1e-9)
        assert got == pytest.approx(4.430e20, rel=1e-3)
        assert got < TAU_NEEL_CAP

    def test_saturation_flag(self):
        got = tau_neel(100e-9, 50e3, 300.0, 1e-9)
        assert got == TAU_NEEL_CAP  # flagged effectively infinite

    def test_zero_anisotropy_limit(self):
        assert tau_neel(10e-9, 1e-12, 300.0, 1e-9) == pytest.approx(1e-9, rel=1e-9)

    def test_monotone_in_diameter(self):
        d = np.linspace(5e-9, 25e-9, 21)
        taus = tau_neel(d, 20e3, 300.0)
        assert np.all(np.diff(taus) > 0)


class TestTauEffective:
    def test_equal_parallel(self):
        assert tau_effective(2.0, 2.0) == 1.0

    def test_infinite_neel_dominance(self):
        tb = 1.024e-5
        assert tau_effective(tb, TAU_NEEL_CAP) == tb

    def test_ten_nm_case(self):
        tb = tau_brownian(10e-9, 1e-3, 300.0)
        tn = tau_neel(10e-9, 20e3, 300.0, 1e-9)
        got = tau_effective(tb, tn)
        assert got == pytest.approx(tb * tn / (tb + tn), rel=1e-14)
        assert got == pytest.approx(1.21e-8, rel=5e-3)  # Neel-dominated

    def test_bounded_and_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = rng.uniform(1e-9, 1e-3, 2)
            eff = tau_effective(a, b)
            assert eff <= min(a, b)
            assert eff == tau_effective(b, a)


class TestFieldCorrection:
    def test_zero_field_identity(self):
        assert tau_field_corrected(1e-5, 0.0) == 1e-5

    def test_monotone_decrease(self):
        xs = np.linspace(0.0, 10.0, 40)
        taus = tau_field_corrected(1e-5, xs)
        assert np.all(np.diff(taus) < 0)
        assert tau_field_corrected(1e-5, 5.0) < 1e-5

    def test_default_model_value(self):
        # formula plug-in oracle at the 1.5 mT / 300 K operating point
        xi = 2.457482000042716
        factor = 1.0 / math.sqrt(1.0 + 0.126 * xi**1.72)
        assert tau_field_corrected(1.0, xi) == pytest.approx(factor, rel=1e-12)
        assert factor == pytest.approx(0.79266, abs=1e-5)

    def test_custom_model(self):
        model = FieldCorrectionModel(coeff=0.5, power=1.0)
        assert tau_field_corrected(2.0, 6.0, model) == pytest.approx(1.0, rel=1e-12)


class TestDebyeResponse:
    def test_dc(self):
        assert debye_response(0.0, 1e-5) == (1.0, 0.0)

    def test_corner(self):
        atten, phase = debye_response(1e5, 1e-5)
        assert atten == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert phase == pytest.approx(math.pi / 4, rel=1e-12)

    def test_operating_point(self):
        tau = tau_brownian(30e-9, 1e-3, 300.0)
        omega = 2 * math.pi * 6000
        atten, phase = debye_response(omega, tau)
        assert phase == pytest.approx(math.atan(omega * tau), rel=1e-14)
        assert phase == pytest.approx(0.3683971877881867, rel=1e-12)
        assert math.degrees(phase) == pytest.approx(21.11, abs=0.05)

    def test_phase_monotone_and_pythagorean(self):
        tau = 1e-5
        omegas = np.linspace(0.0, 1e7, 300)
        atten, phase = debye_response(omegas, tau)
        assert np.all(np.diff(phase) > 0)
        # attenuation^2 + (attenuation * w * tau)^2 = 1
        identity = atten**2 + (atten * omegas * tau) ** 2
        assert np.max(np.abs(identity - 1.0)) < 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            debye_response(-1.0, 1e-5)
        with pytest.raises(ValueError):
            debye_response(1.0, 0.0)


class TestParticleSpec:
    def test_volumes(self, particle):
        assert particle.v_core == pytest.approx(1.41372e-23, rel=1e-5)
        assert particle.v_hydro >= particle.v_core

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ParticleSpec(d_core=30e-9, d_hydro=20e-9, k_aniso=1e4, m_s=1e-18,
                         n_conc=1e20, eta=1e-3)
        with pytest.raises(ValueError):
            ParticleSpec(d_core=30e-9, d_hydro=30e-9, k_aniso=-1.0, m_s=1e-18,
                         n_conc=1e20, eta=1e-3)
