"""Closed-form single-particle physics.

Langevin statics, Brownian/Neel/effective relaxation times, first-order
(Debye) frequency response, and an empirical field-dependence hook for the
relaxation time. All functions are pure and accept scalars or numpy arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import K_BOLTZMANN

# Neel times above this value are treated as "effectively infinite"
# (moment frozen); parallel combination with any finite Brownian time
# then returns the Brownian time exactly in float64.
TAU_NEEL_CAP = 1e30

_LANGEVIN_SERIES_CUTOFF = 1e-2


def sphere_volume(diameter):
    """Volume (m^3) of a sphere of the given diameter (m)."""
    return (math.pi / 6.0) * np.asarray(diameter, dtype=float) ** 3


@dataclass(frozen=True)
class ParticleSpec:
    """Geometry and magnetic parameters of one particle population.

    d_core      core diameter (m)
    d_hydro     hydrodynamic diameter (m), >= d_core
    k_aniso     anisotropy constant (J/m^3)
    m_s         magnetic moment per particle (A*m^2)
    n_conc      particle number density (1/m^3)
    eta         carrier viscosity (Pa*s)
    tau_0       Neel attempt time (s)
    """

    d_core: float
    d_hydro: float
    k_aniso: float
    m_s: float
    n_conc: float
    eta: float
    tau_0: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.d_core <= self.d_hydro):
            raise ValueError("need d_hydro >= d_core > 0")
        for name in ("k_aniso", "m_s", "n_conc", "eta", "tau_0"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def v_core(self):
        return float(sphere_volume(self.d_core))

    @property
    def v_hydro(self):
        return float(sphere_volume(self.d_hydro))

    @classmethod
    def from_bulk_magnetization(cls, d_core, d_hydro, k_aniso, m_s_bulk,
                                n_conc, eta, tau_0=1e-9):
        """Build a spec with m_s = M_s_bulk * V_core (bulk value in A/m)."""
        m_s = m_s_bulk * float(sphere_volume(d_core))
        return cls(d_core, d_hydro, k_aniso, m_s, n_conc, eta, tau_0)


def langevin(xi):
    """Langevin function coth(x) - 1/x; odd, bounded in (-1, 1).

    Switches to the series x/3 - x^3/45 + 2x^5/945 below |x| = 1e-2 to
    avoid cancellation near the origin.
    """
    x = np.asarray(xi, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = np.abs(x) < _LANGEVIN_SERIES_CUTOFF
    xs = x[small]
    out[small] = xs / 3.0 - xs**3 / 45.0 + (2.0 / 945.0) * xs**5
    xl = x[~small]
    out[~small] = 1.0 / np.tanh(xl) - 1.0 / xl
    return float(out[0]) if scalar else out


def xi_parameter(p: ParticleSpec, b_amp, temperature):
    """Dimensionless field parameter m_s * B / (k_B * T); B in tesla."""
    if np.any(np.asarray(temperature) <= 0.0):
        raise ValueError("temperature must be positive")
    return p.m_s * np.asarray(b_amp, dtype=float) / (K_BOLTZMANN * temperature)


def tau_brownian(d_hydro, eta, temperature):
    """Brownian rotation time 3*eta*V_hydro / (k_B*T), in seconds."""
    if np.any(np.asarray(d_hydro) <= 0.0) or np.any(np.asarray(eta) <= 0.0) \
            or np.any(np.asarray(temperature) <= 0.0):
        raise ValueError("d_hydro, eta and temperature must be positive")
    return 3.0 * eta * sphere_volume(d_hydro) / (K_BOLTZMANN * temperature)


def tau_neel(d_core, k_aniso, temperature, tau_0=1e-9):
    """Neel flipping time tau_0 * exp(K*V_core / (k_B*T)), in seconds.

    Saturates at TAU_NEEL_CAP instead of overflowing; a returned value
    equal to the cap marks the moment as effectively frozen.
    """
    if np.any(np.asarray(d_core) <= 0.0) or np.any(np.asarray(k_aniso) <= 0.0) \
            or np.any(np.asarray(temperature) <= 0.0) or tau_0 <= 0.0:
        raise ValueError("all arguments must be positive")
    expo = k_aniso * sphere_volume(d_core) / (K_BOLTZMANN * np.asarray(temperature, dtype=float))
    cap_expo = math.log(TAU_NEEL_CAP / tau_0)
    result = np.where(expo >= cap_expo, TAU_NEEL_CAP,
                      np.minimum(tau_0 * np.exp(np.minimum(expo, cap_expo)),
                                 TAU_NEEL_CAP))
    return float(result) if result.ndim == 0 else result


def tau_effective(tau_b, tau_n):
    """Parallel combination tau_b*tau_n / (tau_b + tau_n).

    Never exceeds either input; returns tau_b exactly when tau_n has been
    saturated to TAU_NEEL_CAP (and vice versa).
    """
    tb = np.asarray(tau_b, dtype=float)
    tn = np.asarray(tau_n, dtype=float)
    if np.any(tb <= 0.0) or np.any(tn <= 0.0):
        raise ValueError("relaxation times must be positive")
    result = tb * tn / (tb + tn)
    return float(result) if result.ndim == 0 else result


@dataclass(frozen=True)
class FieldCorrectionModel:
    """Empirical shortening of the relaxation time with field amplitude.

    tau(xi) = tau(0) / sqrt(1 + coeff * xi**power). The published curve
    gives no functional form, so coefficient and exponent here are an
    implementer choice; reproduce trends with it, not absolute values.
    """

    coeff: float = 0.126
    power: float = 1.72

    def factor(self, xi):
        x = np.asarray(xi, dtype=float)
        if np.any(x < 0.0):
            raise ValueError("xi must be non-negative")
        return 1.0 / np.sqrt(1.0 + self.coeff * x**self.power)


DEFAULT_FIELD_CORRECTION = FieldCorrectionModel()


def tau_field_corrected(tau, xi, model: FieldCorrectionModel = DEFAULT_FIELD_CORRECTION):
    """Apply the field-amplitude correction to a zero-field relaxation time."""
    if np.any(np.asarray(tau) <= 0.0):
        raise ValueError("tau must be positive")
    result = np.asarray(tau, dtype=float) * model.factor(xi)
    return float(result) if result.ndim == 0 else result


def debye_response(omega, tau):
    """First-order response at angular frequency omega for time constant tau.

    Returns (attenuation, phase_lag): attenuation = 1/sqrt(1+(w*tau)^2),
    phase_lag = arctan(w*tau) in [0, pi/2).
    """
    if np.any(np.asarray(omega) < 0.0):
        raise ValueError("omega must be non-negative")
    if np.any(np.asarray(tau) <= 0.0):
        raise ValueError("tau must be positive")
    wt = np.asarray(omega, dtype=float) * tau
    atten = 1.0 / np.sqrt(1.0 + wt * wt)
    phase = np.arctan(wt)
    if np.ndim(wt) == 0:
        return float(atten), float(phase)
    return atten, phase
