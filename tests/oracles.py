"""Independent numerical routes that tests check the package against."""

import math

import numpy as np
from scipy.signal import lfilter

from mnpthermo.magnetization import (FieldConfig, SamplingGrid, TimeSeries,
                                     equilibrium_magnetization)
from mnpthermo.physics import ParticleSpec


def dft_line(ts, f):
    """Complex amplitude of the exact-bin line at f by direct DFT summation.

    z = (2/N) * sum_n x_n * exp(-2 pi i ((k n) mod N) / N) with k = f N / fs,
    phase referenced to the window start. This is a second route to the
    line, independent of the rfft the estimator reads; reducing k n mod N
    in integers keeps every exponent below 2 pi, so no phase is lost to a
    large argument. Asserts that f is an exact bin of the window.
    """
    n = ts.samples.size
    cycles = f * n / ts.sample_rate
    k = round(cycles)
    assert abs(cycles - k) < 1e-9, f"{f} Hz is not an exact bin"
    phase = (k * np.arange(n)) % n
    return complex((2.0 / n) * np.sum(ts.samples
                                      * np.exp(-2j * np.pi * phase / n)))


def doubled_coefficients(fld, p, temperature, n_max):
    """Cosine coefficients a_1..a_n_max of M0 by node doubling: (a, N).

    The trapezoidal rule a_n = (2/N) * Re rfft(M0)[n] on N uniform nodes,
    N doubling from 2^max(12, bitlen(8 n_max)) until no coefficient moves
    by more than 1e-12 * max|a_n|, at most 12 passes; N is the count it
    stops at. This is a second route to fourier_coefficients, which takes
    its node count from a closed-form decay bound instead of refining
    until it converges.
    """
    n_nodes = 1 << max(12, (8 * n_max).bit_length())
    prev = None
    for _ in range(12):
        nodes = np.arange(n_nodes) * ((1.0 / fld.f_base) / n_nodes)
        m0 = equilibrium_magnetization(nodes, fld, p, temperature)
        coeffs = (2.0 / n_nodes) * np.fft.rfft(m0)[1:n_max + 1].real
        if prev is not None and (np.max(np.abs(coeffs - prev))
                                 <= 1e-12 * np.max(np.abs(coeffs))):
            return coeffs, n_nodes
        prev = coeffs
        n_nodes *= 2
    raise AssertionError("no convergence in 12 passes")


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
    and returns the following `grid.n_periods` base periods. The transient
    spans whole base periods, so every line at a multiple of f_base has
    the same phase from the window start as from t = 0. The internal step
    obeys h <= tau/20 and h <= 1/(50*f_high); pass `max_step` to force a
    coarser ceiling and get a ValueError if it violates those.
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
    return TimeSeries(grid.sample_rate, keep)
