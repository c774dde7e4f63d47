"""Forward model of the particle magnetization under two-tone excitation.

The steady-state waveform comes from one spectral route: Fourier
coefficients of the equilibrium (Langevin) response (an rfft of M0 on a
uniform grid), each line attenuated and delayed by the first-order
response and placed on its DFT bin, one irfft per waveform.

The tests check it against an independent time-domain route in
tests/oracles.py: fixed-step 4th-order integration of the relaxation ODE
dM/dt = (M0(t) - M)/tau, transient discarded. The two agree to < 1e-3
relative RMS.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import K_BOLTZMANN
from .errors import QuadratureError
from .physics import ParticleSpec, debye_response, langevin

# Harmonic lines below this fraction of the peak coefficient carry no
# information (the odd-symmetry selection rule zeroes them analytically)
# and are dropped from waveform synthesis.
NEGLIGIBLE_LINE_FRACTION = 1e-13

QUADRATURE_TOL = 1e-12  # aliasing allowed in a_n, relative to max|a_n|
MAX_QUADRATURE_NODES = 1 << 25  # one pass: 256 MB per float64 array


@dataclass(frozen=True)
class FieldConfig:
    """Two-tone excitation field; amplitudes are mu_0*H in tesla.

    Frequencies must be positive integers (Hz) so the pair shares an exact
    rational base frequency; f_base is their greatest common divisor.
    """

    f_high: float
    f_low: float
    b_high: float
    b_low: float

    def __post_init__(self):
        if not (self.f_high > self.f_low > 0):
            raise ValueError("need f_high > f_low > 0")
        for f in (self.f_high, self.f_low):
            if float(f) != int(f):
                raise ValueError("tone frequencies must be integer Hz "
                                 "(commensurate pair required)")
        if self.b_high < 0 or self.b_low < 0:
            raise ValueError("field amplitudes must be non-negative")

    @property
    def f_base(self):
        """Fundamental (Hz) of the commensurate pair."""
        return float(math.gcd(int(self.f_high), int(self.f_low)))

    def b_field(self, t):
        """Instantaneous field (tesla) at time(s) t."""
        t = np.asarray(t, dtype=float)
        return (self.b_low * np.cos(2 * np.pi * self.f_low * t)
                + self.b_high * np.cos(2 * np.pi * self.f_high * t))


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform sampling over an integer number of base periods."""

    sample_rate: float
    n_periods: int = 1

    def __post_init__(self):
        if self.sample_rate <= 0 or self.n_periods < 1:
            raise ValueError("sample_rate must be positive, n_periods >= 1")

    def n_samples(self, f_base):
        per_period = self.sample_rate / f_base
        if abs(per_period - round(per_period)) > 1e-9:
            raise ValueError("sample_rate must be an integer multiple of f_base")
        return int(round(per_period)) * self.n_periods


@dataclass(frozen=True)
class TimeSeries:
    """Sampled real-valued signal.

    `samples` is a read-only view (the caller's array stays writable), so
    the lazily cached `spectrum` always matches it.
    """

    sample_rate: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float).view()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.samples.size < 1:
            raise ValueError("need at least one sample")

    @cached_property
    def spectrum(self):
        """One-sided spectrum rfft * 2/N (read-only, computed once).

        Bin k holds the complex amplitude of the line at k/duration Hz,
        phase referenced to the window start.
        """
        spectrum = np.fft.rfft(self.samples) * (2.0 / self.samples.size)
        spectrum.flags.writeable = False
        return spectrum

    @cached_property
    def peak(self):
        """Amplitude of the strongest line above DC (0 without one)."""
        return (float(np.abs(self.spectrum[1:]).max())
                if self.spectrum.size > 1 else 0.0)

    @property
    def times(self):
        return np.arange(self.samples.size) / self.sample_rate

    @property
    def duration(self):
        return self.samples.size / self.sample_rate

    def covers_integer_periods(self, f_base, tol=1e-9):
        periods = self.duration * f_base
        return abs(periods - round(periods)) < tol


@dataclass(frozen=True)
class HarmonicSet:
    """Real Fourier cosine coefficients a_n of the equilibrium response.

    Entries are (n, a_n) with frequency n * f_base; indices strictly
    increasing. Coefficients are real because the zero-phase two-cosine
    drive makes M0(t) even in t.
    """

    f_base: float
    indices: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int))
        object.__setattr__(self, "coefficients",
                           np.asarray(self.coefficients, dtype=float))
        if np.any(np.diff(self.indices) <= 0):
            raise ValueError("indices must be strictly increasing")

    @property
    def frequencies(self):
        return self.indices * self.f_base

    def significant(self, fraction=NEGLIGIBLE_LINE_FRACTION):
        """Sub-set with |a_n| above `fraction` of the peak coefficient."""
        peak = np.max(np.abs(self.coefficients)) if self.coefficients.size else 0.0
        keep = np.abs(self.coefficients) > fraction * peak
        return HarmonicSet(self.f_base, self.indices[keep],
                           self.coefficients[keep])


def equilibrium_magnetization(t, fld: FieldConfig, p: ParticleSpec, temperature):
    """Equilibrium magnetization M0(t) = N * m_s * L(xi(t)), A/m."""
    if not temperature > 0:  # also rejects nan
        raise ValueError("temperature must be positive")
    xi_t = p.m_s * fld.b_field(t) / (K_BOLTZMANN * temperature)
    return p.n_conc * p.m_s * langevin(xi_t)


def default_n_max(fld: FieldConfig, guard_orders=6):
    """Smallest index covering f_high + guard_orders * f_low."""
    return int(math.ceil((fld.f_high + guard_orders * fld.f_low) / fld.f_base))


def fourier_coefficients(fld: FieldConfig, p: ParticleSpec, temperature,
                         n_max=None) -> HarmonicSet:
    """Cosine-series coefficients of M0(t) over one base period.

    a_n = (2/N) * Re rfft(M0)[n] on N uniform nodes (the trapezoidal rule,
    which folds a_{N-n} onto a_n). L(xi) has its nearest poles at +-i*pi and
    |Im xi(t+iy)| <= xi_max*sinh(2*pi*f_high*y), so |a_n| <= C*exp(-r*n) with
    r = asinh(pi/xi_max)*f_base/f_high (exact for one tone). One pass, on the
    least power of two N >= n_max + ln(1/QUADRATURE_TOL)/r and > 16*n_max.
    QuadratureError before M0 is evaluated if N > MAX_QUADRATURE_NODES, and
    after the pass if its top n_max bins times exp(-r*(N/2 - n_max)) exceed
    QUADRATURE_TOL * max|a_n|.
    """
    if not temperature > 0:  # also rejects nan
        raise ValueError("temperature must be positive")
    if n_max is None:
        n_max = default_n_max(fld)
    if n_max < (fld.f_high + 4 * fld.f_low) / fld.f_base:
        raise ValueError(f"n_max={n_max} does not cover f_high + 4*f_low")

    moment_field = p.m_s * (fld.b_high + fld.b_low)  # k_B*T * xi_max
    rate = (math.asinh(math.pi * K_BOLTZMANN * temperature / moment_field)
            * fld.f_base / fld.f_high if moment_field else math.inf)
    need = n_max + math.log(1 / QUADRATURE_TOL) / rate if rate else math.inf
    bits = math.ceil(math.log2(min(need, 2 * MAX_QUADRATURE_NODES)))
    n_nodes = max(2 << max(12, (8 * n_max).bit_length()), 1 << bits)
    if n_nodes > MAX_QUADRATURE_NODES:
        raise QuadratureError(f"harmonic quadrature at {temperature} K needs "
                              f"{max(need, n_nodes):.3g} nodes (> 2^25)")
    nodes = np.arange(n_nodes) * ((1.0 / fld.f_base) / n_nodes)
    spectrum = np.fft.rfft(equilibrium_magnetization(nodes, fld, p,
                                                     temperature))
    coeffs = (2.0 / n_nodes) * spectrum[1:n_max + 1].real
    folded = ((2.0 / n_nodes) * np.abs(spectrum[-n_max:]).max()
              * math.exp(-rate * (n_nodes // 2 - n_max)))
    if folded > QUADRATURE_TOL * np.max(np.abs(coeffs)):
        raise QuadratureError(f"harmonic quadrature at {temperature} K "
                              f"aliases {folded:.3g} onto its coefficients")
    return HarmonicSet(fld.f_base, np.arange(1, n_max + 1), coeffs)


def synthesize_lines(frequencies, phasors, grid: SamplingGrid, f_base):
    """Sum of lines Re(z * exp(2j*pi*f*t)) on the grid, by one irfft.

    Each line's 0.5 * N * z goes on its DFT bin. Every frequency must be
    an exact bin strictly between 0 and Nyquist (ValueError otherwise);
    lines sharing a bin add.
    """
    n = grid.n_samples(f_base)
    cycles = np.asarray(frequencies, dtype=float) * (n / grid.sample_rate)
    bins = np.rint(cycles).astype(int)
    if (np.any(np.abs(cycles - bins) > 1e-9) or np.any(bins < 1)
            or np.any(2 * bins >= n)):
        raise ValueError("line frequencies must be exact bins below Nyquist")
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    np.add.at(spectrum, bins, 0.5 * n * np.asarray(phasors, dtype=complex))
    return np.fft.irfft(spectrum, n)


def spectral_magnetization(h: HarmonicSet, tau, fld: FieldConfig,
                           grid: SamplingGrid) -> TimeSeries:
    """Steady-state M(t): each line attenuated and delayed per its frequency.

    M(t) = sum_n a_n / sqrt(1+(n w tau)^2) * cos(n w t - arctan(n w tau));
    the decayed transient term is omitted. Negligible lines are skipped
    (see NEGLIGIBLE_LINE_FRACTION).
    """
    sig = h.significant()
    atten, lag = debye_response(2.0 * np.pi * sig.frequencies, tau)
    out = synthesize_lines(sig.frequencies,
                           sig.coefficients * atten * np.exp(-1j * lag),
                           grid, h.f_base)
    return TimeSeries(grid.sample_rate, out)


def magnetization_spectrum(ts: TimeSeries, f_base):
    """Exact-bin decomposition at multiples of f_base, normalized to the peak.

    Returns a list of (frequency_hz, normalized_amplitude, phase_rad)
    for every base-frequency bin up to Nyquist; phases are referenced to
    the window start. Raises if the window is not an integer number of
    base periods.
    """
    n = ts.samples.size
    periods = n * f_base / ts.sample_rate
    if abs(periods - round(periods)) > 1e-9:
        raise ValueError("window must span an integer number of base periods")
    w = int(round(periods))
    bins = np.arange(1, (n // 2) // w + 1) * w
    lines = ts.spectrum[bins]
    amps = np.abs(lines)
    phases = np.angle(lines)
    freqs = bins * ts.sample_rate / n
    peak = amps.max() if amps.size else 1.0
    if peak == 0.0:
        peak = 1.0
    return [(float(f), float(a / peak), float(ph))
            for f, a, ph in zip(freqs, amps, phases)]
