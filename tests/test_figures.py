import math

import numpy as np
import pytest

from mnpthermo.errors import ConfigError
from mnpthermo.figures import (figure_error_vs_snr, figure_mixing_vs_single,
                               figure_phase_drift, figure_relaxation_vs_diameter,
                               figure_relaxation_vs_field,
                               figure_response_vs_frequency,
                               figure_spectrum_vs_field_ratio, generate_figure)
from mnpthermo.magnetization import FieldConfig, default_n_max
from mnpthermo.physics import debye_response
from mnpthermo.scenarios import default_particle, plan_frequencies
from mnpthermo.signal_chain import relaxation_time
from tests.oracles import doubled_coefficients


def test_unknown_id_rejected():
    with pytest.raises(ConfigError):
        generate_figure("fig99")


class TestRelaxationVsDiameter:
    def test_columns_and_effective_ratio(self):
        table = figure_relaxation_vs_diameter(k_aniso=20e3)
        assert table.header == ("d_core_nm", "tau_neel_s", "tau_brownian_s",
                                "tau_effective_s")
        by_d = {round(r[0], 3): r for r in table.rows}
        row30 = by_d[30.0]
        # Neel frozen at 30 nm: effective time is Brownian to within 5%
        assert row30[3] / row30[2] == pytest.approx(1.0, abs=0.05)

    def test_crossover_below_20nm(self):
        # small cores relax by the internal mechanism, large by rotation;
        # the handover must land below 20 nm for this anisotropy
        table = figure_relaxation_vs_diameter(k_aniso=20e3)
        rows = np.array(table.rows)
        small = rows[rows[:, 0] <= 12.0]
        large = rows[rows[:, 0] >= 20.0]
        assert np.all(small[:, 1] < small[:, 2])  # Neel faster
        assert np.all(large[:, 1] > large[:, 2])  # rotation faster
        cross = rows[np.argmin(np.abs(np.log10(rows[:, 1] / rows[:, 2]))), 0]
        assert cross < 20.0

    def test_coating_slows_rotation(self):
        bare = figure_relaxation_vs_diameter(coating=0.0)
        coated = figure_relaxation_vs_diameter(coating=5e-9)
        assert coated.rows[10][2] > bare.rows[10][2]


class TestResponseFigures:
    def test_fig2a_monotone(self):
        table = figure_response_vs_frequency()
        amps = [r[1] for r in table.rows]
        lags = [r[2] for r in table.rows]
        assert all(np.diff(amps) < 0)
        assert all(np.diff(lags) > 0)

    def test_fig2b_monotone_decrease(self):
        table = figure_relaxation_vs_field()
        taus = [r[1] for r in table.rows]
        assert all(np.diff(taus) < 0)
        assert taus[0] == pytest.approx(table.meta["tau_zero_field_s"])


class TestSpectrumFigure:
    def test_rows_and_monotone_ratio(self):
        table = figure_spectrum_vs_field_ratio(ratios=(1.0, 3.0, 5.5))
        ratios = sorted({r[0] for r in table.rows})
        assert ratios == [1.0, 3.0, 5.5]
        mixing_rel = []
        for b in ratios:
            rows = {r[1]: r[2] for r in table.rows if r[0] == b}
            mixing_rel.append(rows[9140.0] - rows[6000.0])  # dB difference
        assert all(np.diff(mixing_rel) > 0)

    def test_no_even_order_lines(self):
        table = figure_spectrum_vs_field_ratio(ratios=(5.5,))
        freqs = {r[1] for r in table.rows}
        assert 9140.0 in freqs and 2860.0 in freqs
        assert 7570.0 not in freqs and 4430.0 not in freqs

    def test_rows_match_node_doubling_oracle(self):
        # every row against a_n by node doubling times the Debye response,
        # normalized to the strongest line of its ratio
        table = generate_figure("fig8")
        p, temperature = default_particle(), table.meta["temperature_k"]
        tau = relaxation_time(p, temperature)
        b_high = table.meta["b_high_t"]
        for ratio in sorted({r[0] for r in table.rows}):
            fld = FieldConfig(plan_frequencies(6000, 1570), b_high,
                              ratio * b_high)
            a, _ = doubled_coefficients(fld, p, temperature, default_n_max(fld))
            freqs = np.arange(1, a.size + 1) * fld.plan.f_base
            atten, lag = debye_response(2.0 * np.pi * freqs, tau)
            z = a * atten * np.exp(-1j * lag)
            oracle = dict(zip(freqs, z / np.abs(z).max()))
            rows = [r for r in table.rows if r[0] == ratio]
            assert {f for f, w in oracle.items() if abs(w) > 1e-7} \
                <= {r[1] for r in rows}  # every line above -140 dB
            for _, f, level_db, phase in rows:
                w = oracle[f]
                assert abs(10.0 ** (level_db / 20.0) - abs(w)) < 1e-12
                if level_db > -100.0:
                    dphase = math.remainder(phase - np.angle(w), 2 * math.pi)
                    assert abs(dphase) < 1e-9


class TestComparisonFigures:
    def test_fig3_mixing_beats_single(self):
        table = figure_mixing_vs_single(n_points=11)
        assert table.meta["max_error_mixing_k"] < table.meta["max_error_single_k"]
        # both maxima sit at 320 K, a row at any odd n_points
        assert table.meta["max_error_single_k"] == pytest.approx(
            3.1973325659505463, abs=1e-9)
        assert table.meta["max_error_mixing_k"] == pytest.approx(
            1.471988780662116, abs=1e-9)
        assert table.meta["published_max_error_single_k"] == 0.56
        assert table.meta["published_max_error_mixing_k"] == 0.08

    def test_fig9_drift_suppression(self):
        table = figure_phase_drift()
        assert abs(table.meta["slope_mixing_deg_per_k"]) < \
            abs(table.meta["slope_direct_deg_per_k"])
        assert table.meta["slope_direct_deg_per_k"] == pytest.approx(
            -0.03645644514718723, abs=1e-9)
        assert table.meta["slope_mixing_deg_per_k"] == pytest.approx(
            -0.010683405442631496, abs=1e-9)
        assert table.meta["published_slope_direct_deg_per_k"] == 0.57
        assert table.meta["published_slope_mixing_deg_per_k"] == 0.05

    def test_fig9_slopes_match_closed_form(self):
        # the simulated slopes are a line fit over 295-305 K; the closed
        # form is the coil-phase derivative at 300 K
        meta = figure_phase_drift().meta
        for line in ("direct", "mixing"):
            assert meta[f"slope_{line}_deg_per_k"] == pytest.approx(
                meta[f"closed_form_slope_{line}_deg_per_k"], rel=1e-4)
        assert meta["closed_form_slope_direct_deg_per_k"] == pytest.approx(
            -0.0365, abs=5e-5)
        assert meta["closed_form_slope_mixing_deg_per_k"] == pytest.approx(
            -0.0107, abs=5e-5)


class TestErrorVsSnr:
    def test_slope_and_monotonicity(self):
        table = figure_error_vs_snr(snr_points=(35.0, 45.0, 55.0), trials=120,
                                    seed=4)
        stds = [r[1] for r in table.rows]
        assert all(np.diff(stds) < 0)
        amp_ratio = [10.0 ** (r[0] / 20.0) for r in table.rows]
        slope = np.polyfit(np.log10(amp_ratio), np.log10(stds), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.3)

    def test_csv_lines(self):
        table = figure_error_vs_snr(snr_points=(40.0,), trials=30, seed=1)
        lines = table.csv_lines()
        assert lines[0].startswith("snr_db,")
        assert "# trials=30" in lines
