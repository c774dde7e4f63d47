"""Figure-reproduction tables (CSV-shaped; plotting is left to external tools).

Each generator returns a FigureTable whose rows re-plot one published
figure; defaults follow the figure captions. Everything is deterministic
given the seed.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .estimator import direct_line_phase
from .magnetization import (FieldConfig, SamplingGrid, fourier_coefficients,
                            magnetization_spectrum, spectral_magnetization)
from .physics import (debye_response, tau_brownian, tau_effective,
                      tau_field_corrected, tau_neel)
from .scenarios import (AmbientModel, ScenarioConfig, TemperatureProgram,
                        default_particle, default_scenario, format_field,
                        ideal_coils, monte_carlo_std, plan_frequencies,
                        self_calibrate)
from .signal_chain import AmplifierModel, relaxation_time

FIGURE_IDS = ("fig1", "fig2a", "fig2b", "fig3", "fig4", "fig8", "fig9")


@dataclass
class FigureTable:
    figure_id: str
    header: tuple
    rows: list
    meta: dict = field(default_factory=dict)

    def csv_lines(self):
        """Header, rows (floats to 17 digits) and `# key=value` meta lines."""
        lines = [",".join(self.header)]
        lines += [",".join(format_field(v) for v in row) for row in self.rows]
        lines += [f"# {k}={v}" for k, v in self.meta.items()]
        return lines


def generate_figure(figure_id, seed=0, trials=200) -> FigureTable:
    """Dispatch by figure id; unknown ids raise ConfigError."""
    generators = {
        "fig1": lambda: figure_error_vs_snr(seed=seed, trials=trials),
        "fig2a": figure_response_vs_frequency,
        "fig2b": figure_relaxation_vs_field,
        "fig3": figure_mixing_vs_single,
        "fig4": figure_relaxation_vs_diameter,
        "fig8": figure_spectrum_vs_field_ratio,
        "fig9": figure_phase_drift,
    }
    if figure_id not in generators:
        raise ConfigError(f"unknown figure id {figure_id!r}; "
                          f"choose from {', '.join(FIGURE_IDS)}")
    return generators[figure_id]()


def figure_error_vs_snr(snr_points=(30.0, 35.0, 40.0, 45.0, 50.0, 55.0),
                        trials=200, seed=0) -> FigureTable:
    """Temperature-error std vs SNR (single 5 kHz tone, 30 nm, 1.5 mT).

    Monte Carlo with `trials` seeded noise draws per SNR point; the std
    should fall as 1/SNR (log-log slope -1).
    """
    coil_a, coil_b = ideal_coils()
    plan = plan_frequencies(5000, 1000, sample_rate=200000, mains=None,
                            window_periods=5)
    cfg = ScenarioConfig(
        particle=default_particle(), plan=plan, b_high=1.5e-3, b_low=0.0,
        coil_a=coil_a, coil_b=coil_b, amplifier=AmplifierModel.default(),
        snr_db=math.inf, seed=seed, mode="single",
        program=TemperatureProgram("constant", 300.0, 300.0, 1.0, 1),
        ambient=AmbientModel(t_base=300.0), cal_temperatures=(300.0,))
    cal = self_calibrate(cfg)
    rows = []
    for snr in snr_points:
        std, n_flagged = monte_carlo_std(cfg, 300.0, snr, trials, cal)
        rows.append((float(snr), std, trials - n_flagged))
    return FigureTable("fig1", ("snr_db", "temperature_error_std_k", "n_trials"),
                       rows, {"f_high_hz": 5000, "b_high_t": 1.5e-3,
                              "d_hydro_m": 30e-9, "trials": trials})


def figure_response_vs_frequency(d_hydro=30e-9, eta=1e-3, temperature=300.0,
                                 n_points=60) -> FigureTable:
    """First-order response magnitude and lag vs excitation frequency."""
    tau = tau_brownian(d_hydro, eta, temperature)
    freqs = np.logspace(2, 5, n_points)
    rows = []
    for f in freqs:
        atten, lag = debye_response(2.0 * math.pi * f, tau)
        rows.append((float(f), atten, lag))
    return FigureTable("fig2a", ("frequency_hz", "response_amplitude_rel",
                                 "phase_lag_rad"),
                       rows, {"tau_s": tau})


def figure_relaxation_vs_field(d_hydro=30e-9, eta=1e-3, temperature=300.0,
                               xi_max=10.0, n_points=50) -> FigureTable:
    """Effective relaxation time vs dimensionless field amplitude.

    Uses the package's empirical field-correction model; the published
    curve fixes only the qualitative monotone decrease.
    """
    tau0 = tau_brownian(d_hydro, eta, temperature)
    rows = []
    for xi in np.linspace(0.0, xi_max, n_points):
        rows.append((float(xi), tau_field_corrected(tau0, xi)))
    return FigureTable("fig2b", ("xi", "tau_s"), rows, {"tau_zero_field_s": tau0})


def figure_mixing_vs_single(t_min=310.0, t_max=320.0, n_points=21) -> FigureTable:
    """Mixing vs single-frequency comparison under coil temperature drift.

    6 kHz / 1.5 kHz two-tone drive, measured coil pair tracking the sample
    temperature, noiseless, both estimators one-point calibrated at the
    midpoint. Columns give each mode's reconstructed phase and error.
    """
    plan = plan_frequencies(6000, 1500, sample_rate=600000, mains=None,
                            window_periods=3)
    t_mid = 0.5 * (t_min + t_max)
    ambient = AmbientModel(t_base=t_mid, coupling=1.0, t_sample_ref=t_mid)
    cfg_mix = replace(default_scenario(), plan=plan, ambient=ambient,
                      program=TemperatureProgram("constant", t_mid, t_mid,
                                                 1.0, 1),
                      cal_temperatures=(t_mid,))
    cfg_sin = replace(cfg_mix, mode="single")
    cal_mix = self_calibrate(cfg_mix)
    cal_sin = self_calibrate(cfg_sin)

    rows = []
    for t_true in np.linspace(t_min, t_max, n_points):
        t_true = float(t_true)
        # the two modes differ only in the estimator: one synthesis serves both
        channels, _ = cfg_mix.clean_channels(t_true)
        single = cfg_sin.estimate(channels, cal_sin)
        mixing = cfg_mix.estimate(channels, cal_mix)
        rows.append((t_true, single.phi_h, mixing.phi_h,
                     single.t_est - t_true, mixing.t_est - t_true))
    errs_single = [abs(r[3]) for r in rows]
    errs_mixing = [abs(r[4]) for r in rows]
    return FigureTable(
        "fig3",
        ("t_true_k", "phi_h_single_rad", "phi_h_mixing_rad",
         "error_single_k", "error_mixing_k"),
        rows,
        {"max_error_single_k": max(errs_single),
         "max_error_mixing_k": max(errs_mixing),
         "published_max_error_single_k": 0.56,
         "published_max_error_mixing_k": 0.08})


def figure_relaxation_vs_diameter(k_aniso=20e3, coating=0.0, temperature=300.0,
                                  eta=1e-3, tau_0=1e-9, d_min=5e-9, d_max=40e-9,
                                  n_points=71) -> FigureTable:
    """Neel, Brownian and effective relaxation time vs core diameter."""
    rows = []
    for d in np.linspace(d_min, d_max, n_points):
        d = float(d)
        tn = tau_neel(d, k_aniso, temperature, tau_0)
        tb = tau_brownian(d + 2.0 * coating, eta, temperature)
        rows.append((d * 1e9, tn, tb, tau_effective(tb, tn)))
    return FigureTable("fig4", ("d_core_nm", "tau_neel_s", "tau_brownian_s",
                                "tau_effective_s"),
                       rows, {"k_aniso_j_m3": k_aniso, "coating_m": coating,
                              "temperature_k": temperature})


def figure_spectrum_vs_field_ratio(ratios=(1.0, 2.0, 3.0, 4.0, 5.5),
                                   b_high=0.36e-3, temperature=300.0,
                                   floor_db=-160.0) -> FigureTable:
    """Normalized magnetization spectra for several B_low/B_high ratios."""
    p = default_particle()
    tau = relaxation_time(p, temperature)
    rows = []
    for ratio in ratios:
        fld = FieldConfig(6000, 1570, b_high, ratio * b_high)
        h = fourier_coefficients(fld, p, temperature)
        ts = spectral_magnetization(h, tau, fld, SamplingGrid(500000, 1))
        for f, amp, phase in magnetization_spectrum(ts, fld.f_base):
            if amp > 0.0 and 20.0 * math.log10(amp) > floor_db:
                rows.append((float(ratio), f, 20.0 * math.log10(amp), phase))
    return FigureTable("fig8", ("b_ratio", "frequency_hz", "amplitude_db",
                                "phase_rad"),
                       rows, {"b_high_t": b_high, "temperature_k": temperature})


def figure_phase_drift(t_amb_min=295.0, t_amb_max=305.0, n_points=11,
                       t_sample=315.6) -> FigureTable:
    """Reconstructed vs directly measured phase as the coil temperature moves.

    The sample stays at a fixed temperature; only the coils drift. The
    mixing-line reconstruction with reference correction should change far
    less per kelvin than the directly measured phase. phi_h_direct_rad
    keeps the static coil phase (nominal coil phase 0), because only its
    slope is compared.
    """
    cfg = default_scenario()
    rows = []
    for t_amb in np.linspace(t_amb_min, t_amb_max, n_points):
        t_amb = float(t_amb)
        channels, _ = cfg.clean_channels(t_sample, t_amb)
        _, phi_mix, phi_p, phi_m, _ = cfg.tau(channels)
        phi_direct = direct_line_phase(channels, cfg.amplifier,
                                       cfg.plan.f_high)
        rows.append((t_amb, phi_p, phi_m, phi_direct, phi_mix))
    t = np.array([r[0] for r in rows])
    direct = np.array([r[3] for r in rows])
    mixed = np.array([r[4] for r in rows])
    slope_direct = float(np.polyfit(t, np.rad2deg(direct), 1)[0])
    slope_mixing = float(np.polyfit(t, np.rad2deg(mixed), 1)[0])
    return FigureTable(
        "fig9",
        ("t_ambient_k", "phi_plus_rad", "phi_minus_rad",
         "phi_h_direct_rad", "phi_h_mixing_rad"),
        rows,
        {"slope_direct_deg_per_k": slope_direct,
         "slope_mixing_deg_per_k": slope_mixing,
         "published_slope_direct_deg_per_k": 0.57,
         "published_slope_mixing_deg_per_k": 0.05})
