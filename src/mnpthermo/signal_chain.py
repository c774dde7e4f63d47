"""Measurement chain between the particle magnetization and digitized samples.

Models two mismatched pick-up coils with temperature-dependent impedance,
a differential amplifier with tabulated gain/phase, direct excitation
feedthrough, and seeded additive white Gaussian noise. Channel synthesis is
done in the frequency domain: every spectral line is a (frequency,
amplitude, phase) triple pushed through the coil and amplifier transfer
functions, then placed on its DFT bin; one irfft turns a channel's line
set into its sampled waveform.

Phase bookkeeping follows the voltage-signal convention of the detection
equations: a line whose magnetization lags by `lag` appears in the coil
voltage with phase (lag - 3*pi/2), and the direct feedthrough of an
excitation tone appears with phase (phi_o + coil phase). Background
subtraction and the reference channel remove everything except the sample
phases, which is what the estimator inverts.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import MU_0
from .errors import ConfigError
from .magnetization import (FieldConfig, HarmonicSet, SamplingGrid, TimeSeries,
                            fourier_coefficients, synthesize_lines)
from .physics import (ParticleSpec, debye_response, tau_brownian,
                      tau_effective, tau_neel)

FARADAY_PHASE_OFFSET = -1.5 * math.pi  # voltage phase minus relaxation lag


@dataclass(frozen=True)
class CoilParams:
    """Pick-up coil electrical model.

    r0        resistance (ohm) at t_ref
    l0        inductance (H)
    alpha_r   resistance temperature coefficient (1/K); 3.9e-3 ~ copper
    alpha_l   inductance temperature coefficient (1/K); 0 by default
    t_ref     reference temperature (K)
    coupling  pick-up sensitivity, volts per (A/m per second)
    """

    r0: float
    l0: float
    alpha_r: float = 3.9e-3
    t_ref: float = 300.0
    coupling: float = 1e-8
    alpha_l: float = 0.0

    def __post_init__(self):
        if self.r0 <= 0 or self.l0 <= 0 or self.coupling <= 0:
            raise ValueError("r0, l0 and coupling must be positive")

    def resistance(self, t_amb):
        r = self.r0 * (1.0 + self.alpha_r * (t_amb - self.t_ref))
        if np.any(np.asarray(r) <= 0.0):
            raise ValueError("coil resistance non-positive at this temperature")
        return r

    def inductance(self, t_amb):
        return self.l0 * (1.0 + self.alpha_l * (t_amb - self.t_ref))


def coil_transfer(coil: CoilParams, omega, t_amb):
    """Coil network (gain, phase) at angular frequency omega and coil temp.

    phase = arctan(omega * L(T) / R(T)); gain = |R + j w L| / R. Gain is
    normalized so omega -> 0 gives (1, 0).
    """
    if np.any(np.asarray(omega) < 0.0):
        raise ValueError("omega must be non-negative")
    x = np.asarray(omega, dtype=float) * coil.inductance(t_amb) / coil.resistance(t_amb)
    gain = np.sqrt(1.0 + x * x)
    phase = np.arctan(x)
    if np.ndim(x) == 0:
        return float(gain), float(phase)
    return gain, phase


@dataclass(frozen=True)
class AmplifierModel:
    """Differential amplifier with tabulated gain and phase vs frequency.

    Linear interpolation between rows, clamped outside the table. The
    shipped default is a smooth monotone placeholder, not measured data;
    load a real calibration with from_table_file().
    """

    frequencies: np.ndarray
    phases: np.ndarray          # rad
    gains: np.ndarray

    def __post_init__(self):
        for name in ("frequencies", "phases", "gains"):
            column = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(column)):
                raise ValueError(f"amplifier {name} must be finite")
            object.__setattr__(self, name, column)
        if np.any(self.gains <= 0.0):
            raise ValueError(f"amplifier gains must be positive "
                             f"(got {self.gains.min():g})")
        if self.frequencies.size < 2 or np.any(np.diff(self.frequencies) <= 0):
            raise ValueError("frequency grid must be strictly increasing, >= 2 rows")
        if self.phases.shape != self.frequencies.shape or self.gains.shape != self.frequencies.shape:
            raise ValueError("table columns must share one length")

    def phase(self, f):
        return np.interp(f, self.frequencies, self.phases)

    def gain(self, f):
        return np.interp(f, self.frequencies, self.gains)

    @classmethod
    def default(cls, gain=1000.0):
        # placeholder: -1 degree per 10 kHz, flat gain; NOT measured data
        f = np.array([0.0, 200000.0])
        return cls(f, np.deg2rad(-1e-4 * f), np.full(2, float(gain)))

    @classmethod
    def from_table_file(cls, path, gain=1000.0):
        """Load a calibration table: frequency_hz phase_deg [gain] per row.

        Whitespace-separated columns, '#' comments. With two columns the
        gain is flat at `gain`.
        """
        try:
            table = np.loadtxt(path, comments="#", ndmin=2)
        except OSError as exc:
            raise ConfigError(f"cannot read amplifier table {path}: {exc}") from exc
        if table.shape[1] == 2:
            gains = np.full(table.shape[0], float(gain))
        elif table.shape[1] == 3:
            gains = table[:, 2]
        else:
            raise ConfigError(f"amplifier table {path}: expected 2 or 3 columns")
        return cls(table[:, 0], np.deg2rad(table[:, 1]), gains)


@dataclass(frozen=True)
class NoiseModel:
    """Additive white Gaussian noise, power-referenced to a signal line.

    snr_db is the power ratio of the reference line to the per-sample
    noise; math.inf disables noise. Reproducible via seed.
    """

    snr_db: float = math.inf
    seed: int = 0

    def sigma(self, reference_amplitude):
        if math.isinf(self.snr_db):
            return 0.0
        signal_power = 0.5 * reference_amplitude**2
        return math.sqrt(signal_power / 10.0 ** (self.snr_db / 10.0))


@dataclass(frozen=True)
class SignalChainConfig:
    """Everything between M(t) and the digitized channels."""

    coil_a: CoilParams
    coil_b: CoilParams
    amplifier: AmplifierModel
    grid: SamplingGrid            # digitizer rate and window, all channels
    phi_o: float = 0.0            # excitation feedthrough phase (rad)
    phase_model: str = "debye"    # "debye" | "composed"

    def __post_init__(self):
        if self.phase_model not in ("debye", "composed"):
            raise ValueError(f"unknown phase model {self.phase_model!r}")


@dataclass
class MeasurementChannels:
    """The three digitized channels sharing one acquisition window.

    diff_background  amplified coil difference without sample
    diff_sample      amplified coil difference with sample
    ref_a            coil A tapped directly (pre-amplifier); carries the
                     excitation feedthrough lines (recorded sample-free)
    """

    diff_background: TimeSeries
    diff_sample: TimeSeries
    ref_a: TimeSeries
    f_base: float

    def __post_init__(self):
        series = (self.diff_background, self.diff_sample, self.ref_a)
        rates = {s.sample_rate for s in series}
        sizes = {s.samples.size for s in series}
        if len(rates) != 1 or len(sizes) != 1:
            raise ConfigError("channels must share sample rate and window")
        if not self.diff_background.covers_integer_periods(self.f_base):
            raise ConfigError("window must span integer base periods")


def _synthesize(lines, grid: SamplingGrid, f_base):
    """Sum cosine lines (frequency, amplitude, phase) into a waveform."""
    f, amp, ph = np.array(lines, dtype=float).reshape(-1, 3).T
    out = synthesize_lines(f, amp * np.exp(1j * ph), grid, f_base)
    return TimeSeries(grid.sample_rate, out)


@lru_cache(maxsize=16)
def _cached_harmonics(fld: FieldConfig, p: ParticleSpec, t_sample):
    """Constant-temperature scenarios reuse one harmonic decomposition."""
    return fourier_coefficients(fld, p, t_sample)


def relaxation_time(p: ParticleSpec, t_sample):
    """Effective (parallel Brownian/Neel) relaxation time at t_sample."""
    return tau_effective(tau_brownian(p.d_hydro, p.eta, t_sample),
                         tau_neel(p.d_core, p.k_aniso, t_sample, p.tau_0))


def _composed_line_orders(fld: FieldConfig):
    """Canonical (n1, n2) tone orders for the composed-phase convention."""
    orders = {}
    for n1, n2 in ((0, 1), (0, 3), (1, -2), (1, 0), (1, 2)):
        f = n1 * fld.f_high + n2 * fld.f_low
        if f > 0:
            orders[int(round(f / fld.f_base))] = (n1, n2)
    return orders


def sample_voltage_lines(fld: FieldConfig, p: ParticleSpec, t_sample, tau,
                         coil: CoilParams, t_amb, phase_model="debye",
                         harmonics: HarmonicSet | None = None):
    """Per-line sample voltage (frequency, amplitude, phase) through one coil.

    Amplitudes carry the Faraday coupling * 2*pi*f factor, the first-order
    attenuation and the coil gain. Phases follow the voltage convention
    (relaxation lag - 3*pi/2) plus the coil phase; a negative harmonic
    coefficient contributes pi. phase_model "debye" delays each line by
    arctan(2*pi*f*tau); "composed" delays each tone before mixing, giving
    n1*arctan(w_H*tau) + n2*arctan(w_L*tau) on the canonical lines only.
    """
    if harmonics is None:
        harmonics = fourier_coefficients(fld, p, t_sample)
    sig = harmonics.significant()
    if phase_model == "composed":
        orders = _composed_line_orders(fld)
        lag_h = math.atan(2.0 * math.pi * fld.f_high * tau)
        lag_l = math.atan(2.0 * math.pi * fld.f_low * tau)
    lines = []
    for n, a in zip(sig.indices, sig.coefficients):
        f = n * sig.f_base
        omega = 2.0 * math.pi * f
        atten, lag = debye_response(omega, tau)
        if phase_model == "composed":
            if n not in orders:
                continue
            n1, n2 = orders[n]
            lag = n1 * lag_h + n2 * lag_l
        gain_c, phase_c = coil_transfer(coil, omega, t_amb)
        amp = coil.coupling * omega * abs(a) * atten * gain_c
        ph = lag + FARADAY_PHASE_OFFSET + (math.pi if a < 0 else 0.0) + phase_c
        lines.append((f, amp, ph))
    return lines


def feedthrough_lines(fld: FieldConfig, coil: CoilParams, t_amb, phi_o,
                      frequencies=None):
    """Direct excitation pick-up (frequency, amplitude, phase) in one coil.

    Physical channels carry the two excitation tones; pass `frequencies`
    to lay reference lines at other analysis bins (composed-convention
    synthetic channels do this so the per-line reference reading works).
    """
    tone_amplitude = {fld.f_high: fld.b_high / MU_0, fld.f_low: fld.b_low / MU_0}
    if frequencies is None:
        frequencies = list(tone_amplitude)
    lines = []
    for f in frequencies:
        omega = 2.0 * math.pi * f
        gain_c, phase_c = coil_transfer(coil, omega, t_amb)
        h_amp = tone_amplitude.get(f, fld.b_high / MU_0)
        lines.append((f, coil.coupling * omega * h_amp * gain_c, phi_o + phase_c))
    return lines


def _through_amplifier(lines, amp: AmplifierModel):
    return [(f, a * float(amp.gain(f)), ph + float(amp.phase(f)))
            for f, a, ph in lines]


def _difference_lines(lines_a, lines_b):
    """Complex per-line subtraction of two line sets (A - B)."""
    acc = {}
    for f, a, ph in lines_a:
        acc[f] = acc.get(f, 0j) + a * np.exp(1j * ph)
    for f, a, ph in lines_b:
        acc[f] = acc.get(f, 0j) - a * np.exp(1j * ph)
    return [(f, float(np.abs(z)), float(np.angle(z)))
            for f, z in sorted(acc.items()) if np.abs(z) > 0.0]


def simulate_clean_channels(fld: FieldConfig, p: ParticleSpec, t_sample,
                            chain: SignalChainConfig, t_amb):
    """Noiseless channel synthesis; returns (channels, reference_amplitude).

    reference_amplitude is the largest amplified sample line, the scale
    every noise SNR is defined against. Identical coils cancel to an
    exactly-zero background. With the composed phase model the reference
    channel also receives feedthrough-structured lines at the analysis
    bins.
    """
    grid = chain.grid
    f_base = fld.f_base

    tau = relaxation_time(p, t_sample)
    harmonics = _cached_harmonics(fld, p, float(t_sample))
    sample_lines = sample_voltage_lines(fld, p, t_sample, tau, chain.coil_a,
                                        t_amb, chain.phase_model, harmonics)
    sample_amplified = _through_amplifier(sample_lines, chain.amplifier)

    ft_a = feedthrough_lines(fld, chain.coil_a, t_amb, chain.phi_o)
    ft_b = feedthrough_lines(fld, chain.coil_b, t_amb, chain.phi_o)
    ref_lines = ft_a
    if chain.phase_model == "composed":
        ref_lines = feedthrough_lines(
            fld, chain.coil_a, t_amb, chain.phi_o,
            frequencies=sorted({fld.f_high, fld.f_low}
                               | {f for f, _, _ in sample_lines}))

    background_lines = _through_amplifier(_difference_lines(ft_a, ft_b),
                                          chain.amplifier)

    diff_background = _synthesize(background_lines, grid, f_base)
    diff_sample = _synthesize(background_lines + sample_amplified, grid,
                              f_base)
    ref_a = _synthesize(ref_lines, grid, f_base)

    channels = MeasurementChannels(diff_background, diff_sample, ref_a, f_base)
    reference_amplitude = max((a for _, a, _ in sample_amplified), default=0.0)
    return channels, reference_amplitude


def apply_noise(channels: MeasurementChannels, noise: NoiseModel,
                reference_amplitude, seed_sequence=None) -> MeasurementChannels:
    """Add seeded white Gaussian noise, one stream per channel.

    Every channel gets the sigma that puts the noise power noise.snr_db
    below a line of reference_amplitude; the streams spawn from
    seed_sequence (default: noise.seed). An infinite snr_db returns
    channels unchanged.
    """
    if math.isinf(noise.snr_db):
        return channels
    if seed_sequence is None:
        seed_sequence = np.random.SeedSequence(noise.seed)
    sigma = noise.sigma(reference_amplitude)
    keys = seed_sequence.spawn(3)
    noisy = [TimeSeries(ts.sample_rate,
                        ts.samples + sigma * np.random.default_rng(k)
                        .standard_normal(ts.samples.size))
             for ts, k in zip((channels.diff_background, channels.diff_sample,
                               channels.ref_a), keys)]
    return MeasurementChannels(noisy[0], noisy[1], noisy[2], channels.f_base)
