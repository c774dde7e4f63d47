"""Forward model of the particle magnetization under two-tone excitation.

Two independent routes produce the steady-state waveform:

* spectral: Fourier coefficients of the equilibrium (Langevin) response
  (an rfft of M0 on a uniform grid), each line attenuated and delayed by
  the first-order response and placed on its DFT bin, one irfft per
  waveform; and
* time-domain: fixed-step 4th-order integration of the relaxation ODE
  dM/dt = (M0(t) - M)/tau, transient discarded.

The two agree to < 1e-3 relative RMS and cross-check each other in tests.
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

_MAX_QUADRATURE_DOUBLINGS = 12


@dataclass(frozen=True)
class FieldConfig:
    """Two-tone excitation field; amplitudes are mu_0*H in tesla.

    Frequencies must be positive integers (Hz) so the pair shares an exact
    rational base frequency; f_base is their greatest common divisor.
    Tone phase offsets default to zero and must stay zero for the
    harmonic-coefficient route (the even-in-time construction).
    """

    f_high: float
    f_low: float
    b_high: float
    b_low: float
    phase_high: float = 0.0
    phase_low: float = 0.0

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
        return (self.b_low * np.cos(2 * np.pi * self.f_low * t + self.phase_low)
                + self.b_high * np.cos(2 * np.pi * self.f_high * t + self.phase_high))


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

    def times(self, f_base, t0=0.0):
        n = self.n_samples(f_base)
        return t0 + np.arange(n) / self.sample_rate


@dataclass(frozen=True)
class TimeSeries:
    """Sampled real-valued signal.

    `samples` is a read-only view (the caller's array stays writable), so
    the lazily cached `spectrum` always matches it.
    """

    sample_rate: float
    samples: np.ndarray
    t0: float = 0.0

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
        phase referenced to the window start t0.
        """
        spectrum = np.fft.rfft(self.samples) * (2.0 / self.samples.size)
        spectrum.flags.writeable = False
        return spectrum

    @property
    def times(self):
        return self.t0 + np.arange(self.samples.size) / self.sample_rate

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
    n_max: int

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
                           self.coefficients[keep], self.n_max)

    def amplitude_at(self, frequency):
        """Coefficient at an exact line frequency (0.0 if absent)."""
        n = int(round(frequency / self.f_base))
        hits = np.nonzero(self.indices == n)[0]
        return float(self.coefficients[hits[0]]) if hits.size else 0.0


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
                         n_max=None, tol=1e-12) -> HarmonicSet:
    """Cosine-series coefficients of M0(t) over one base period.

    a_n = (2/N) * Re rfft(M0)[n] on N uniform nodes: the trapezoidal rule,
    which converges exponentially on the periodic, analytic M0. N doubles
    until no coefficient moves by more than tol * max|a_n|, else
    QuadratureError.
    """
    if fld.phase_high != 0.0 or fld.phase_low != 0.0:
        raise ValueError("harmonic decomposition requires zero tone phases")
    if n_max is None:
        n_max = default_n_max(fld)
    min_cover = (fld.f_high + 4 * fld.f_low) / fld.f_base
    if n_max < min_cover:
        raise ValueError(f"n_max={n_max} does not cover f_high + 4*f_low")

    period = 1.0 / fld.f_base
    indices = np.arange(1, n_max + 1)

    # At least 8 nodes per period of the analysis harmonic n_max: the
    # integrand's own content (roughly another n_max) then aliases onto
    # the kept coefficients only below rounding; the doubling verifies.
    n_nodes = 1 << max(12, (8 * n_max).bit_length())
    prev = None
    for _ in range(_MAX_QUADRATURE_DOUBLINGS):
        nodes = np.arange(n_nodes) * (period / n_nodes)
        m0 = equilibrium_magnetization(nodes, fld, p, temperature)
        coeffs = (2.0 / n_nodes) * np.fft.rfft(m0)[1:n_max + 1].real
        if prev is not None:
            scale = np.max(np.abs(coeffs))
            if np.max(np.abs(coeffs - prev)) <= tol * scale:
                return HarmonicSet(fld.f_base, indices, coeffs, n_max)
        prev = coeffs
        n_nodes *= 2
    raise QuadratureError(
        f"harmonic coefficients did not converge after "
        f"{_MAX_QUADRATURE_DOUBLINGS} doublings (tol={tol})")


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
    return TimeSeries(grid.sample_rate, out, t0=0.0)


def _rk4_relaxation_weights(z):
    """Per-step linear-recurrence weights of classic RK4 on M' = (f - M)/tau.

    One step is M+ = a*M + b0*f(t) + bh*f(t+h/2) + b1*f(t+h) with z = h/tau;
    weights come from running the four stages on basis inputs.
    """
    def step(m, f0, fh, f1):
        k1 = (f0 - m)
        k2 = (fh - (m + 0.5 * z * k1))
        k3 = (fh - (m + 0.5 * z * k2))
        k4 = (f1 - (m + z * k3))
        return m + (z / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    a = step(1.0, 0.0, 0.0, 0.0)
    b0 = step(0.0, 1.0, 0.0, 0.0)
    bh = step(0.0, 0.0, 1.0, 0.0)
    b1 = step(0.0, 0.0, 0.0, 1.0)
    return a, b0, bh, b1


def relax_toward(drive, tau, h, m_init=0.0):
    """Integrate M' = (drive(t) - M)/tau with classic RK4 at fixed step h.

    `drive` holds samples at half-step spacing h/2 (2K+1 values for K
    steps). Returns K+1 state values including the initial one.
    """
    drive = np.asarray(drive, dtype=float)
    if drive.size < 3 or drive.size % 2 == 0:
        raise ValueError("drive needs an odd number (>=3) of half-step samples")
    # Imported here, not at module level: scipy.signal would add ~1 s and
    # ~65 MB to every import of the package, and only this oracle needs it.
    from scipy.signal import lfilter

    a, b0, bh, b1 = _rk4_relaxation_weights(h / tau)
    u = b0 * drive[0:-2:2] + bh * drive[1:-1:2] + b1 * drive[2::2]
    # M_{k+1} = a*M_k + u_k is a first-order IIR recurrence.
    states = lfilter([1.0], [1.0, -a], u, zi=[a * m_init])[0]
    return np.concatenate(([m_init], states))


def transient_periods(tau, f_base):
    """Base periods to discard: 10*tau rounded up to whole periods (>=1)."""
    return max(1, int(math.ceil(10.0 * tau * f_base)))


def ode_magnetization(fld: FieldConfig, p: ParticleSpec, temperature, tau,
                      grid: SamplingGrid, max_step=None) -> TimeSeries:
    """Time-domain oracle for the steady-state magnetization.

    Integrates from M(0) = 0 through the transient (see transient_periods)
    and returns the following `grid.n_periods` base periods. The internal
    step obeys h <= tau/20 and h <= 1/(50*f_high); pass `max_step` to
    force a coarser ceiling and get a ValueError if it violates those.
    """
    f_base = fld.f_base
    step_limit = min(tau / 20.0, 1.0 / (50.0 * fld.f_high))
    if max_step is not None:
        if max_step > step_limit * (1 + 1e-12):
            raise ValueError(
                f"requested step {max_step} exceeds stability limit {step_limit}")
        step_limit = max_step
    dt_out = 1.0 / grid.sample_rate
    substeps = max(1, int(math.ceil(dt_out / step_limit - 1e-12)))
    h = dt_out / substeps

    n_trans = transient_periods(tau, f_base)
    n_out = grid.n_samples(f_base)
    n_trans_samples = n_trans * int(round(grid.sample_rate / f_base))
    total_steps = (n_trans_samples + n_out) * substeps

    t_half = np.arange(2 * total_steps + 1) * (h / 2.0)
    m0 = equilibrium_magnetization(t_half, fld, p, temperature)
    states = relax_toward(m0, tau, h, m_init=0.0)

    keep = states[n_trans_samples * substeps::substeps][:n_out]
    t0 = n_trans / f_base
    return TimeSeries(grid.sample_rate, keep, t0=t0)


def magnetization_spectrum(ts: TimeSeries, f_base):
    """Exact-bin decomposition at multiples of f_base, normalized to the peak.

    Returns a list of (frequency_hz, normalized_amplitude, phase_rad)
    for every base-frequency bin up to Nyquist; phases are referenced to
    absolute time t = 0. Raises if the window is not an integer number of
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
    # re-reference phases from window start to absolute t = 0
    phases = np.angle(np.exp(1j * (phases - 2.0 * np.pi * freqs * ts.t0)))
    peak = amps.max() if amps.size else 1.0
    if peak == 0.0:
        peak = 1.0
    return [(float(f), float(a / peak), float(ph))
            for f, a, ph in zip(freqs, amps, phases)]
