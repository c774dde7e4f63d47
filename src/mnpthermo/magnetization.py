"""Forward model of the particle magnetization under two-tone excitation.

The steady state comes from one spectral route: Fourier coefficients of
the equilibrium (Langevin) response (an rfft of M0 on a uniform grid),
each line attenuated and delayed by the first-order response. The result
is a set of lines (base order, complex phasor); synthesize_lines places
them on the bins of the FrequencyPlan, the one integer source of every
frequency and bin, one irfft per waveform, when samples are needed.

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
# and are dropped from the line set.
NEGLIGIBLE_LINE_FRACTION = 1e-13

QUADRATURE_TOL = 1e-12  # aliasing allowed in a_n, relative to max|a_n|
MAX_QUADRATURE_NODES = 1 << 25  # one pass: 256 MB per float64 array


@dataclass(frozen=True)
class FrequencyPlan:
    """Two commensurate tones and the digitizer rate, in integer hertz.

    scenarios.plan_frequencies validates and builds it. Every line is a
    base order n: n * f_base hertz, at DFT bin n * window_periods of the
    n_samples-long window. All of it is integer arithmetic.
    """

    f_high: int
    f_low: int
    sample_rate: int
    window_periods: int = 1

    @property
    def f_base(self):
        """Fundamental (Hz) of the tone pair: their greatest common divisor."""
        return math.gcd(self.f_high, self.f_low)

    @property
    def f_plus(self):
        return self.f_high + 2 * self.f_low

    @property
    def f_minus(self):
        return self.f_high - 2 * self.f_low

    @property
    def n_samples(self):
        """Window length: window_periods whole base periods."""
        return self.sample_rate // self.f_base * self.window_periods

    def order(self, f):
        """Base order of the line at f hertz, a multiple of f_base."""
        return f // self.f_base

    def bin(self, order):
        """DFT bin of base order `order` in the window."""
        return order * self.window_periods


@dataclass(frozen=True)
class FieldConfig:
    """Two-tone excitation field: the plan's tones at amplitudes mu_0*H
    in tesla."""

    plan: FrequencyPlan
    b_high: float
    b_low: float

    def __post_init__(self):
        if self.b_high < 0 or self.b_low < 0:
            raise ValueError("field amplitudes must be non-negative")

    def b_field(self, t):
        """Instantaneous field (tesla) at time(s) t."""
        t = np.asarray(t, dtype=float)
        return (self.b_low * np.cos(2 * np.pi * self.plan.f_low * t)
                + self.b_high * np.cos(2 * np.pi * self.plan.f_high * t))


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

        Bin k holds the complex amplitude of the line at k cycles per
        window, phase referenced to the window start.
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


@dataclass(frozen=True)
class HarmonicSet:
    """Real Fourier cosine coefficients a_n of the equilibrium response.

    Entries are (n, a_n) with n a base order of the plan; indices strictly
    increasing. Coefficients are real because the zero-phase two-cosine
    drive makes M0(t) even in t.
    """

    plan: FrequencyPlan
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
        return self.indices * float(self.plan.f_base)

    def significant(self):
        """Sub-set with |a_n| above NEGLIGIBLE_LINE_FRACTION of the peak."""
        peak = np.max(np.abs(self.coefficients)) if self.coefficients.size else 0.0
        keep = np.abs(self.coefficients) > NEGLIGIBLE_LINE_FRACTION * peak
        return HarmonicSet(self.plan, self.indices[keep],
                           self.coefficients[keep])


def equilibrium_magnetization(t, fld: FieldConfig, p: ParticleSpec, temperature):
    """Equilibrium magnetization M0(t) = N * m_s * L(xi(t)), A/m."""
    if not temperature > 0:  # also rejects nan
        raise ValueError("temperature must be positive")
    xi_t = p.m_s * fld.b_field(t) / (K_BOLTZMANN * temperature)
    return p.n_conc * p.m_s * langevin(xi_t)


def default_n_max(fld: FieldConfig):
    """Base order of f_high + 6 * f_low."""
    return fld.plan.order(fld.plan.f_high + 6 * fld.plan.f_low)


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
    plan = fld.plan
    if n_max is None:
        n_max = default_n_max(fld)
    if n_max < plan.order(plan.f_high + 4 * plan.f_low):
        raise ValueError(f"n_max={n_max} does not cover f_high + 4*f_low")

    moment_field = p.m_s * (fld.b_high + fld.b_low)  # k_B*T * xi_max
    rate = (math.asinh(math.pi * K_BOLTZMANN * temperature / moment_field)
            * plan.f_base / plan.f_high if moment_field else math.inf)
    need = n_max + math.log(1 / QUADRATURE_TOL) / rate if rate else math.inf
    bits = math.ceil(math.log2(min(need, 2 * MAX_QUADRATURE_NODES)))
    n_nodes = max(2 << max(12, (8 * n_max).bit_length()), 1 << bits)
    if n_nodes > MAX_QUADRATURE_NODES:
        raise QuadratureError(f"harmonic quadrature at {temperature} K needs "
                              f"{max(need, n_nodes):.3g} nodes (> 2^25)")
    nodes = np.arange(n_nodes) * ((1.0 / plan.f_base) / n_nodes)
    spectrum = np.fft.rfft(equilibrium_magnetization(nodes, fld, p,
                                                     temperature))
    coeffs = (2.0 / n_nodes) * spectrum[1:n_max + 1].real
    folded = ((2.0 / n_nodes) * np.abs(spectrum[-n_max:]).max()
              * math.exp(-rate * (n_nodes // 2 - n_max)))
    if folded > QUADRATURE_TOL * np.max(np.abs(coeffs)):
        raise QuadratureError(f"harmonic quadrature at {temperature} K "
                              f"aliases {folded:.3g} onto its coefficients")
    return HarmonicSet(plan, np.arange(1, n_max + 1), coeffs)


def synthesize_lines(orders, phasors, plan: FrequencyPlan):
    """Sum of lines Re(z * exp(2j*pi*n*f_base*t)) over the plan's window,
    by one irfft.

    Each line's 0.5 * N * z goes on the bin of its base order n, which must
    lie strictly between 0 and Nyquist (ValueError otherwise); lines
    sharing a bin add.
    """
    n = plan.n_samples
    bins = plan.bin(np.asarray(orders, dtype=int))
    if np.any(bins < 1) or np.any(2 * bins >= n):
        raise ValueError("line bins must lie between DC and Nyquist")
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    np.add.at(spectrum, bins, 0.5 * n * np.asarray(phasors, dtype=complex))
    return np.fft.irfft(spectrum, n)


def magnetization_lines(h: HarmonicSet, tau):
    """Steady-state M(t) as lines: (base orders, phasors) of Re(z*exp(jwt)).

    z_n = a_n / sqrt(1+(n w tau)^2) * exp(-j*arctan(n w tau)); the decayed
    transient term is omitted. Negligible lines are skipped (see
    NEGLIGIBLE_LINE_FRACTION). synthesize_lines turns them into samples.
    """
    sig = h.significant()
    atten, lag = debye_response(2.0 * np.pi * sig.frequencies, tau)
    return sig.indices, sig.coefficients * atten * np.exp(-1j * lag)
