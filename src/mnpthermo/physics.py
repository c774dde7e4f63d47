"""Closed-form single-particle physics.

Langevin statics, Brownian/Neel/effective relaxation times, first-order
(Debye) frequency response, and an empirical field-dependence hook for the
relaxation time. All functions are pure and accept scalars or numpy arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import K_BOLTZMANN

# Neel times at or above this value are treated as "effectively infinite"
# (moment frozen); tau_effective then returns the Brownian time exactly.
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


def _thermal_energy(temperature):
    """k_B*T in joules; ValueError unless every value is positive.

    Below ~1.8e-301 K the product underflows to 0, so a positive
    temperature can fail here too, before anything divides by it.
    """
    kt = K_BOLTZMANN * np.asarray(temperature, dtype=float)
    if not np.all(kt > 0.0):  # also rejects nan
        raise ValueError(f"temperature must give k_B*T > 0 "
                         f"(got {temperature!r} K)")
    return kt


def tau_brownian(d_hydro, eta, temperature):
    """Brownian rotation time 3*eta*V_hydro / (k_B*T), in seconds."""
    if np.any(np.asarray(d_hydro) <= 0.0) or np.any(np.asarray(eta) <= 0.0):
        raise ValueError("d_hydro and eta must be positive")
    return 3.0 * eta * sphere_volume(d_hydro) / _thermal_energy(temperature)


def tau_neel(d_core, k_aniso, temperature, tau_0=1e-9):
    """Neel flipping time tau_0 * exp(K*V_core / (k_B*T)), in seconds.

    Saturates at TAU_NEEL_CAP instead of overflowing; a returned value
    equal to the cap marks the moment as effectively frozen.
    """
    if np.any(np.asarray(d_core) <= 0.0) or np.any(np.asarray(k_aniso) <= 0.0) \
            or tau_0 <= 0.0:
        raise ValueError("all arguments must be positive")
    expo = k_aniso * sphere_volume(d_core) / _thermal_energy(temperature)
    cap_expo = math.log(TAU_NEEL_CAP / tau_0)
    result = np.where(expo >= cap_expo, TAU_NEEL_CAP,
                      np.minimum(tau_0 * np.exp(np.minimum(expo, cap_expo)),
                                 TAU_NEEL_CAP))
    return float(result) if result.ndim == 0 else result


def tau_effective(tau_b, tau_n):
    """Parallel combination tau_b*tau_n / (tau_b + tau_n).

    Never exceeds either input; a tau_n at or above TAU_NEEL_CAP is infinite,
    so tau_b comes back exactly, with no product formed (and vice versa).
    """
    tb, tn = np.broadcast_arrays(np.asarray(tau_b, dtype=float),
                                 np.asarray(tau_n, dtype=float))
    if np.any(tb <= 0.0) or np.any(tn <= 0.0):
        raise ValueError("relaxation times must be positive")
    result = np.where(tn >= TAU_NEEL_CAP, tb, tn)
    free = (tb < TAU_NEEL_CAP) & (tn < TAU_NEEL_CAP)
    result[free] = tb[free] * tn[free] / (tb[free] + tn[free])
    return float(result) if result.ndim == 0 else result


# Empirical shortening of the relaxation time with field amplitude,
# tau(xi) = tau(0) / sqrt(1 + coeff * xi**power). The published curve gives
# no functional form, so coefficient and exponent are an implementer choice;
# reproduce trends with them, not absolute values.
FIELD_CORRECTION_COEFF = 0.126
FIELD_CORRECTION_POWER = 1.72


def tau_field_corrected(tau, xi):
    """Apply the field-amplitude correction to a zero-field relaxation time."""
    if np.any(np.asarray(tau) <= 0.0):
        raise ValueError("tau must be positive")
    x = np.asarray(xi, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("xi must be non-negative")
    factor = 1.0 / np.sqrt(1.0 + FIELD_CORRECTION_COEFF
                           * x**FIELD_CORRECTION_POWER)
    result = np.asarray(tau, dtype=float) * factor
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
