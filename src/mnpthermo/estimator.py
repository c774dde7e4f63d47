"""Phase-based temperature estimation from the digitized channels.

Pipeline: exact-bin phasor extraction -> background subtraction and
reference-phase correction -> reconstruction of the high-frequency
relaxation phase from the two mixing lines -> relaxation time ->
temperature through a fitted calibration constant. A single-frequency
estimator (no mixing, no reference correction) is provided as the
comparison baseline.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .magnetization import FrequencyPlan, TimeSeries
from .signal_chain import AmplifierModel, MeasurementChannels

# Lines whose difference amplitude falls below this fraction of the
# channel's strongest line are treated as absent.
_LINE_FLOOR_FRACTION = 1e-13

FARADAY_UNSHIFT = 1.5 * math.pi  # inverse of the voltage-phase offset


def wrap_phase(phi):
    """Wrap an angle onto (-pi, pi]."""
    return math.atan2(math.sin(phi), math.cos(phi))


def _bin_projection(ts: TimeSeries, plan: FrequencyPlan, f):
    """Complex amplitude of the line at f hertz, a multiple of the plan's
    f_base, from the window start."""
    return complex(ts.spectrum[plan.bin(plan.order(f))])


def _sample_line(ch: MeasurementChannels, f):
    """Background-subtracted sample phasor at line f.

    Raises EstimationError when it is below the line floor of the sample
    channel.
    """
    z = (_bin_projection(ch.diff_sample, ch.plan, f)
         - _bin_projection(ch.diff_background, ch.plan, f))
    if abs(z) <= _LINE_FLOOR_FRACTION * max(ch.diff_sample.peak, 1e-300):
        raise EstimationError(f"no detectable sample line at {float(f)} Hz")
    return z


def sample_phase(ch: MeasurementChannels, amp: AmplifierModel, f, phi_o=0.0,
                 ref_frequency=None):
    """Sample phase at line f (integer hertz, a line of the channels'
    plan): the before/after-sample channel difference, corrected by the
    reference channel and the amplifier table.

    phase[diff_sample - diff_background] - phase[ref_a] - amp.phase(f)
    + phi_o, composed in the complex domain and wrapped to (-pi, pi].
    The reference phasor is taken at the analyzed line by default; pass
    ref_frequency (e.g. the high excitation tone) when the reference
    channel only carries the excitation lines.

    Raises EstimationError when the difference or reference line is
    undetectable.
    """
    z_diff = _sample_line(ch, f)
    f_ref = f if ref_frequency is None else ref_frequency
    z_ref = _bin_projection(ch.ref_a, ch.plan, f_ref)
    if abs(z_ref) <= _LINE_FLOOR_FRACTION * max(ch.ref_a.peak, 1e-300):
        raise EstimationError(f"reference channel has no line at "
                              f"{float(f_ref)} Hz")

    z = z_diff * np.conj(z_ref) / abs(z_ref)
    correction = cmath.exp(1j * (phi_o - float(amp.phase(f))))
    return cmath.phase(z * correction)


def phi_h_from_mixing(phi_plus, phi_minus):
    """High-frequency relaxation phase from the two mixing-line phases.

    The low-tone contributions cancel in the sum, leaving
    phi_H = wrap(phi_plus + phi_minus + 3*pi) / 2 on [0, pi/2). Inputs are
    voltage phases in the (lag - 3*pi/2) convention. Raises
    EstimationError when the reconstruction falls outside [0, pi/2).
    """
    s = cmath.phase(cmath.exp(1j * (phi_plus + phi_minus + 3.0 * math.pi)))
    if not 0.0 <= s < math.pi:  # also catches nan
        raise EstimationError(
            f"reconstructed phase outside [0, pi/2): inconsistent inputs "
            f"(wrapped sum {s:.6f} rad)")
    return 0.5 * s


def tau_from_phase(phi_h, f_high):
    """Relaxation time tan(phi_H) / (2*pi*f_H), strictly increasing in phi_H."""
    if not 0.0 <= phi_h < 0.5 * math.pi:
        raise ValueError("phi_h must lie in [0, pi/2)")
    if f_high <= 0:
        raise ValueError("f_high must be positive")
    return math.tan(phi_h) / (2.0 * math.pi * f_high)


@dataclass(frozen=True)
class CalibrationModel:
    """Maps relaxation time to temperature: T = A/tau (+ B for affine)."""

    kind: str               # "one_point" | "affine_in_inverse_tau"
    a: float                # K*s
    b: float = 0.0          # K
    points: tuple = ()      # fitted (tau, T) provenance

    def __post_init__(self):
        if self.kind not in ("one_point", "affine_in_inverse_tau"):
            raise ValueError(f"unknown calibration kind {self.kind!r}")
        if not (self.a > 0.0 and math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("calibration constants must be finite, A > 0")

    def temperature(self, tau):
        if np.any(np.asarray(tau) <= 0.0):
            raise ValueError("tau must be positive")
        t = self.a / np.asarray(tau, dtype=float) + self.b
        return float(t) if t.ndim == 0 else t


def calibrate(points, kind="one_point") -> CalibrationModel:
    """Fit the calibration from (tau, T_reference) pairs.

    one_point: A = mean(T*tau). affine_in_inverse_tau: least squares of
    T against 1/tau, needing >= 2 distinct tau values.
    """
    pts = [(float(t), float(T)) for t, T in points]
    if any(t <= 0.0 for t, _ in pts):
        raise ValueError("calibration taus must be positive")
    if kind == "one_point":
        if len(pts) < 1:
            raise ValueError("one_point calibration needs >= 1 point")
        a = float(np.mean([t * T for t, T in pts]))
        return CalibrationModel("one_point", a, 0.0, tuple(pts))
    if kind == "affine_in_inverse_tau":
        if len(pts) < 2:
            raise ValueError("affine calibration needs >= 2 points")
        taus = np.array([t for t, _ in pts])
        temps = np.array([T for _, T in pts])
        if len(set(taus.tolist())) < 2:
            raise ValueError("affine calibration needs distinct taus")
        design = np.column_stack([1.0 / taus, np.ones_like(taus)])
        (a, b), *_ = np.linalg.lstsq(design, temps, rcond=None)
        return CalibrationModel("affine_in_inverse_tau", float(a), float(b),
                                tuple(pts))
    raise ValueError(f"unknown calibration kind {kind!r}")


@dataclass
class TemperatureEstimate:
    """Estimator output; invalid results are flagged."""

    t_est: float
    tau_est: float
    phi_h: float
    phi_plus: float
    phi_minus: float
    valid: bool = True
    error: str | None = None

    @classmethod
    def invalid(cls, message):
        nan = float("nan")
        return cls(nan, nan, nan, nan, nan, False, message)


def direct_line_phase(ch: MeasurementChannels, amp: AmplifierModel, f,
                      nominal_coil_phase=0.0):
    """Directly measured relaxation-convention phase of line f.

    Background-subtracted difference phase, amplifier-corrected, shifted
    back by the Faraday convention and reduced by the (assumed-known)
    static coil phase. No reference-channel correction: this is the
    measurement the added reference channel is meant to improve on, so
    coil-phase drift passes straight through.
    """
    raw = cmath.phase(_sample_line(ch, f)) - float(amp.phase(f))
    return wrap_phase(raw - nominal_coil_phase + FARADAY_UNSHIFT)


def estimate_tau(ch: MeasurementChannels, plan, amp: AmplifierModel,
                 mode="mixing", *, phi_o=0.0, ref_frequency=None,
                 nominal_coil_phase=0.0):
    """Relaxation time and phases from the channels.

    mixing: sample phases at the two mixing lines -> phi_H -> tau.
    single: direct_line_phase at f_H (the single-frequency baseline).
    Returns (tau, phi_h, phi_plus, phi_minus). Raises
    EstimationError when the channels do not yield a positive tau, and
    ValueError for an unknown mode.
    """
    if mode == "mixing":
        phi_plus = sample_phase(ch, amp, plan.f_plus, phi_o, ref_frequency)
        phi_minus = sample_phase(ch, amp, plan.f_minus, phi_o, ref_frequency)
        phi_h = phi_h_from_mixing(phi_plus, phi_minus)
    elif mode == "single":
        phi_h = direct_line_phase(ch, amp, plan.f_high, nominal_coil_phase)
        if not 0.0 <= phi_h < 0.5 * math.pi:
            raise EstimationError(
                f"single-line phase {phi_h:.6f} rad outside [0, pi/2)")
        phi_plus = phi_minus = float("nan")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    tau = tau_from_phase(phi_h, plan.f_high)
    if tau <= 0.0:
        raise EstimationError(f"phi_H = {phi_h} rad gives no positive tau")
    return tau, phi_h, phi_plus, phi_minus


def estimate_temperature(ch: MeasurementChannels, plan, amp: AmplifierModel,
                         cal: CalibrationModel, mode="mixing", *, phi_o=0.0,
                         ref_frequency=None,
                         nominal_coil_phase=0.0) -> TemperatureEstimate:
    """Full inverse pipeline; an EstimationError yields a flagged estimate.

    Any other exception (an unknown mode, a bad plan) is a caller error
    and propagates.
    """
    try:
        tau, phi_h, phi_plus, phi_minus = estimate_tau(
            ch, plan, amp, mode, phi_o=phi_o, ref_frequency=ref_frequency,
            nominal_coil_phase=nominal_coil_phase)
    except EstimationError as exc:
        return TemperatureEstimate.invalid(str(exc))
    return TemperatureEstimate(cal.temperature(tau), tau, phi_h, phi_plus,
                               phi_minus)
