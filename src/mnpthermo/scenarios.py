"""Configuration-driven experiment runner.

Frequency planning with mains-collision checks, static and cooling
temperature scenarios with per-point seeded noise, self-calibration
against reference temperatures, Monte Carlo helpers, and CSV emission.
"""

import configparser
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, EstimationError, PlanRejection
from .estimator import (CalibrationModel, calibrate, estimate_tau,
                        estimate_temperature)
from .magnetization import FieldConfig, FrequencyPlan
from .physics import ParticleSpec
from .signal_chain import (AmplifierModel, CoilParams, NoiseModel,
                           SignalChainConfig, coil_transfer,
                           simulate_clean_channels, apply_noise)


MAX_WINDOW_SAMPLES = 1 << 24  # per channel: 128 MB of float64


def plan_frequencies(f_high, f_low, sample_rate=500000, mains=50,
                     window_periods=1) -> FrequencyPlan:
    """Validate a two-tone plan; raises PlanRejection listing every
    violated constraint. mains=None or 0 disables the mains check.

    Frequencies must be positive integer hertz (commensurability by
    construction), window_periods a positive integer and the window at
    most MAX_WINDOW_SAMPLES samples (ValueError); violations cover the
    mixing-line positivity, mains collisions on both mixing lines, the
    Nyquist margin and the rate/base-frequency divisibility.
    """
    for name, v in (("f_high", f_high), ("f_low", f_low),
                    ("sample_rate", sample_rate),
                    ("window_periods", window_periods)):
        if not (v > 0 and float(v).is_integer()):  # also rejects nan, inf
            raise ValueError(f"{name} must be a positive integer (got {v!r})")
    if mains and not (mains > 0 and float(mains).is_integer()):
        raise ValueError(f"mains must be a positive integer, or 0 or None "
                         f"to disable the check (got {mains!r})")
    if f_high <= f_low:
        raise ValueError("need f_high > f_low")

    plan = FrequencyPlan(int(f_high), int(f_low), int(sample_rate),
                         int(window_periods))
    mains = int(mains) if mains else 0
    if plan.sample_rate * plan.window_periods > (MAX_WINDOW_SAMPLES
                                                 * plan.f_base):
        raise ValueError(f"window_periods = {window_periods!r} at "
                         f"sample_rate = {plan.sample_rate:g} Hz gives a "
                         f"window of more than {MAX_WINDOW_SAMPLES} samples")

    violations = []
    if plan.f_minus <= 0:
        violations.append(f"f_minus = {plan.f_minus} Hz not positive "
                          f"(need f_high > 2*f_low)")
    if mains:
        for name, f in (("f_plus", plan.f_plus), ("f_minus", plan.f_minus)):
            if f > 0 and f % mains == 0:
                violations.append(
                    f"{name} = {f} Hz is a multiple of {mains} Hz mains "
                    f"({f // mains} x {mains})")
    if plan.sample_rate < 10 * plan.f_plus:
        violations.append(f"sample_rate {plan.sample_rate} < 10*f_plus = "
                          f"{10 * plan.f_plus}")
    if plan.sample_rate % plan.f_base != 0:
        violations.append(f"sample_rate {plan.sample_rate} not an integer "
                          f"multiple of f_base {plan.f_base}")
    if violations:
        raise PlanRejection(violations)
    return plan


@dataclass(frozen=True)
class TemperatureProgram:
    """Sample temperature vs time: constant hold or exponential cooling."""

    kind: str = "constant"          # "constant" | "cooling"
    t_start: float = 315.6
    t_end: float = 315.6
    duration: float = 120.0         # s
    n_points: int = 120
    time_constant: float = 180.0    # s, cooling only

    def __post_init__(self):
        if self.kind not in ("constant", "cooling"):
            raise ConfigError(f"unknown temperature program {self.kind!r}")
        if self.t_start <= 0 or self.t_end <= 0:
            raise ConfigError("temperatures must be positive")
        if self.n_points < 1 or self.duration <= 0 or self.time_constant <= 0:
            raise ConfigError("bad program timing")

    def times(self):
        return np.linspace(0.0, self.duration, self.n_points)

    def temperature(self, t):
        if self.kind == "constant":
            return self.t_start * np.ones_like(np.asarray(t, dtype=float))
        decay = np.exp(-np.asarray(t, dtype=float) / self.time_constant)
        return self.t_end + (self.t_start - self.t_end) * decay


@dataclass(frozen=True)
class AmbientModel:
    """Coil temperature as a function of the sample temperature.

    t_amb = t_base + coupling * (t_sample - t_sample_ref); coupling 0
    keeps the coils at t_base, coupling 1 makes them track the sample.
    """

    t_base: float = 300.0
    coupling: float = 0.0
    t_sample_ref: float = 315.0

    def ambient(self, t_sample):
        return self.t_base + self.coupling * (t_sample - self.t_sample_ref)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulated experiment."""

    particle: ParticleSpec
    plan: FrequencyPlan
    b_high: float
    b_low: float
    coil_a: CoilParams
    coil_b: CoilParams
    amplifier: AmplifierModel
    snr_db: float = math.inf
    seed: int = 0
    phi_o: float = 0.0
    phase_model: str = "debye"
    mode: str = "mixing"
    program: TemperatureProgram = TemperatureProgram()
    ambient: AmbientModel = AmbientModel()
    cal_temperatures: tuple = (315.0,)
    cal_kind: str = "one_point"
    noise: NoiseModel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.seed >= 0:
            raise ConfigError(f"seed must be a non-negative integer "
                              f"(got {self.seed!r})")
        object.__setattr__(self, "noise", NoiseModel(self.snr_db))

    @cached_property
    def field_config(self):
        return FieldConfig(self.plan, self.b_high, self.b_low)

    @cached_property
    def chain(self):
        return SignalChainConfig(self.coil_a, self.coil_b, self.amplifier,
                                 self.phi_o, self.phase_model)

    def ref_frequency(self):
        """Reference read at each line (None) for the composed channels,
        the only ones with reference lines there; else at f_high."""
        return None if self.phase_model == "composed" else self.plan.f_high

    def nominal_coil_phase(self):
        """Coil-A phase at f_high at the calibration-time coil temperature.

        The single-frequency baseline subtracts this known static phase;
        only the temperature drift relative to it corrupts that estimator.
        """
        t_cal = float(np.mean(self.cal_temperatures))
        _, phase = coil_transfer(self.coil_a, 2.0 * math.pi * self.plan.f_high,
                                 self.ambient.ambient(t_cal))
        return phase

    # The one synthesis (clean_channels) and estimator (tau, estimate)
    # entry points, binding every option in one place. They look up the
    # module-level functions by name, which perfbench/worker.py wraps.

    def clean_channels(self, t_sample, t_amb=None):
        """Noiseless channels at t_sample: (channels, reference_amplitude).

        The coils sit at t_amb, by default the ambient model's temperature
        for t_sample.
        """
        if t_amb is None:
            t_amb = self.ambient.ambient(t_sample)
        return simulate_clean_channels(self.field_config, self.particle,
                                       t_sample, self.chain, t_amb)

    @cached_property
    def _estimator_options(self):
        return {"phi_o": self.phi_o, "ref_frequency": self.ref_frequency(),
                "nominal_coil_phase": self.nominal_coil_phase()}

    def tau(self, channels):
        """(tau, phi_h, phi_plus, phi_minus) of channels.

        Raises EstimationError where estimate() would flag the channels.
        """
        return estimate_tau(channels, self.plan, self.amplifier, self.mode,
                            **self._estimator_options)

    def estimate(self, channels, cal: CalibrationModel):
        """Temperature estimate of channels through calibration cal."""
        return estimate_temperature(channels, self.plan, self.amplifier, cal,
                                    self.mode, **self._estimator_options)


@dataclass
class PointRecord:
    """One scenario time point; failed estimates keep the row, flagged."""

    t: float
    t_true: float
    t_est: float
    tau_est: float
    phi_h: float
    error: float
    ok: bool


@dataclass
class ExperimentResult:
    records: list
    summary: dict

    @staticmethod
    def summarize(records):
        ok = [r for r in records if r.ok]
        errors = np.array([r.error for r in ok]) if ok else np.array([])
        return {
            "n_points": len(records),
            "n_flagged": len(records) - len(ok),
            "max_abs_error_k": float(np.max(np.abs(errors))) if errors.size else float("nan"),
            "std_error_k": float(np.std(errors)) if errors.size else float("nan"),
        }


def _point_seed(master_seed, point_index, trial_index=0):
    """Deterministic per-point noise seeding, independent of run order."""
    return np.random.SeedSequence(entropy=master_seed,
                                  spawn_key=(point_index, trial_index))


def self_calibrate(cfg: ScenarioConfig) -> CalibrationModel:
    """Fit the tau -> T map from noiseless runs at the reference temps.

    Mirrors calibrating against a reference thermometer: the estimated
    (not true) relaxation time is paired with the known temperature, so
    slowly-varying pipeline bias is absorbed by the fit.
    """
    points = []
    for t_ref in cfg.cal_temperatures:
        channels, _ = cfg.clean_channels(t_ref)
        points.append((cfg.tau(channels)[0], t_ref))
    return calibrate(points, cfg.cal_kind)


def _estimates(cfg, cal, noise, draws):
    """Estimate T for each (sample temperature, noise seed) draw.

    Clean channels are synthesized only when a draw's temperature differs
    from the previous one's. One entry is enough, because the coil
    temperature follows the sample temperature, and a cooling run must not
    hold a channel set per point. Every draw adds its own noise stream.

    A generator, so that at a held temperature each noisy channel set
    stays bound until the next one replaces it: freed before the next draw
    allocates, its ~2 MB would go back to the OS and be faulted in again
    on every draw. A new temperature drops the old sets before
    synthesizing, so it holds no extra channel set meanwhile.
    """
    clean_t = None
    for t_sample, seed_sequence in draws:
        if t_sample != clean_t:
            clean_t = t_sample
            clean = noisy = None
            clean, ref_amp = cfg.clean_channels(t_sample)
        noisy = apply_noise(clean, noise, ref_amp, seed_sequence)
        yield cfg.estimate(noisy, cal)


def run_scenario(cfg: ScenarioConfig, cal: CalibrationModel | None = None) -> ExperimentResult:
    """Run the configured temperature program point by point.

    Clean channels are synthesized at the true sample (and ambient coil)
    temperature once per run of equal consecutive temperatures, so a
    constant hold synthesizes once; every point still adds its own
    deterministic noise stream and runs the estimator. Failures become
    flagged rows.
    """
    if cal is None:
        cal = self_calibrate(cfg)
    times = cfg.program.times()
    temperatures = [float(t) for t in cfg.program.temperature(times)]
    draws = ((t_true, _point_seed(cfg.seed, i))
             for i, t_true in enumerate(temperatures))
    estimates = _estimates(cfg, cal, cfg.noise, draws)
    records = []
    for t, t_true, est in zip(times, temperatures, estimates):
        if est.valid:
            records.append(PointRecord(float(t), t_true, est.t_est,
                                       est.tau_est, est.phi_h,
                                       est.t_est - t_true, True))
        else:
            nan = float("nan")
            records.append(PointRecord(float(t), t_true, nan, nan,
                                       nan, nan, False))
    return ExperimentResult(records, ExperimentResult.summarize(records))


def monte_carlo_std(cfg: ScenarioConfig, t_sample, snr_db, n_trials=200,
                    cal: CalibrationModel | None = None):
    """Temperature-error standard deviation over seeded noise trials.

    Channels are synthesized once; each trial adds an independent noise
    stream. Flagged trials are excluded and counted.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1 (got {n_trials!r})")
    if cal is None:
        cal = self_calibrate(cfg)
    draws = ((t_sample, _point_seed(cfg.seed, 0, j)) for j in range(n_trials))
    errors = []
    n_flagged = 0
    for est in _estimates(cfg, cal, NoiseModel(snr_db), draws):
        if est.valid:
            errors.append(est.t_est - t_sample)
        else:
            n_flagged += 1
    if not errors:
        raise EstimationError("all Monte Carlo trials flagged")
    return float(np.std(errors)), n_flagged


# --- defaults mirroring the experimental setup ---------------------------

def default_particle():
    """30 nm iron-oxide particle in water; moment from bulk magnetization."""
    return ParticleSpec.from_bulk_magnetization(
        d_core=30e-9, d_hydro=30e-9, k_aniso=20e3, m_s_bulk=4.8e5,
        n_conc=1e20, eta=1e-3, tau_0=1e-9)


def measured_coils():
    """Measured pick-up coil pair (impedance-analyzer values)."""
    coil_a = CoilParams(r0=10.4177, l0=1.64741e-3, alpha_r=3.9e-3,
                        t_ref=300.0, coupling=1e-8)
    coil_b = CoilParams(r0=10.6454, l0=1.70752e-3, alpha_r=3.9e-3,
                        t_ref=300.0, coupling=1e-8)
    return coil_a, coil_b


def ideal_coils():
    """Phase-free coil pair for isolating estimator properties."""
    coil = CoilParams(r0=10.0, l0=1e-12, alpha_r=0.0, t_ref=300.0,
                      coupling=1e-8)
    return coil, coil


def default_scenario() -> ScenarioConfig:
    """Scenario at the published operating point (6 kHz / 1.57 kHz)."""
    coil_a, coil_b = measured_coils()
    return ScenarioConfig(
        particle=default_particle(), plan=plan_frequencies(6000, 1570),
        b_high=0.36e-3, b_low=1.98e-3,
        coil_a=coil_a, coil_b=coil_b, amplifier=AmplifierModel.default())


# --- config file parsing --------------------------------------------------

def _number(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _integer(text):
    value = _number(text)
    if not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def _snr_db(text):
    # inf, or no value, disables noise
    return math.inf if text == "" or float(text) == math.inf else _number(text)


def _temperatures(text):
    values = tuple(_number(x) for x in text.replace(",", " ").split())
    if not values:
        raise ValueError("needs at least one temperature")
    return values


_COIL = (("r0_ohm", "l0_h"), {
    "r0_ohm": ("r0", _number), "l0_h": ("l0", _number),
    "alpha_r_per_k": ("alpha_r", _number),
    "alpha_l_per_k": ("alpha_l", _number),
    "t_ref_k": ("t_ref", _number), "coupling": ("coupling", _number)})
_AMBIENT = {"ambient_t_k": ("t_base", _number),
            "ambient_coupling": ("coupling", _number),
            "ambient_sample_ref_k": ("t_sample_ref", _number)}

# Every section the README documents: its required keys, and for each key
# the keyword it feeds and the converter of its text. Anything else is a
# typo; a key a file leaves out takes the default of what it feeds.
_SECTIONS = {
    "particle": (("d_core_m", "d_hydro_m"), {
        "d_core_m": ("d_core", _number), "d_hydro_m": ("d_hydro", _number),
        "k_aniso_j_m3": ("k_aniso", _number),
        "m_s_bulk_a_m": ("m_s_bulk", _number), "m_s_am2": ("m_s", _number),
        "n_conc_m3": ("n_conc", _number), "eta_pa_s": ("eta", _number),
        "tau_0_s": ("tau_0", _number)}),
    "field": (("f_h_hz", "f_l_hz", "b_h_t", "b_l_t"), {
        "f_h_hz": ("f_high", _number), "f_l_hz": ("f_low", _number),
        "b_h_t": ("b_high", _number), "b_l_t": ("b_low", _number)}),
    "acquisition": ((), {
        "sample_rate_hz": ("sample_rate", _number),
        "window_periods": ("window_periods", _number),
        "mains_hz": ("mains", _number)}),
    "coil_a": _COIL,
    "coil_b": _COIL,
    "amplifier": ((), {"gain": ("gain", _number),
                       "table_path": ("path", str)}),
    "noise": ((), {"snr_db": ("snr_db", _snr_db),
                   "seed": ("seed", _integer)}),
    "temperature": ((), {
        "program": ("kind", str), "t_start_k": ("t_start", _number),
        "t_end_k": ("t_end", _number), "duration_s": ("duration", _number),
        "points": ("n_points", _integer),
        "time_constant_s": ("time_constant", _number), **_AMBIENT}),
    "calibration": ((), {
        "kind": ("cal_kind", str),
        "temperatures_k": ("cal_temperatures", _temperatures)}),
    "estimator": ((), {
        "mode": ("mode", str), "phi_o_rad": ("phi_o", _number),
        "phase_model": ("phase_model", str)}),
}


def load_scenario(path) -> ScenarioConfig:
    """Read a key = value scenario file (INI sections; see README).

    Keys are case-sensitive; an undocumented section or key, a missing
    required key and a value its key cannot take raise ConfigError naming
    them.
    """
    # values are literal: a '%' in a path is not an interpolation
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"bad scenario syntax in {path}: {exc}") from exc
    try:
        return _scenario_from_parser(parser)
    except ValueError as exc:
        raise ConfigError(f"bad scenario {path}: {exc}") from exc


def _section(parser, name):
    """Keyword arguments from the keys that section `name` gives."""
    required, table = _SECTIONS[name]
    sec = parser[name] if parser.has_section(name) else {}
    unknown = [key for key in sec if key not in table]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in [{name}]")
    missing = [key for key in required if key not in sec]
    if missing:
        raise ConfigError(f"missing key {missing[0]!r} in [{name}]")
    values = {}
    for key, text in sec.items():
        keyword, convert = table[key]
        try:
            values[keyword] = convert(text)
        except ValueError as exc:
            raise ConfigError(f"bad value {text!r} for {key!r} in [{name}]: "
                              f"{exc}") from exc
    return values


def _scenario_from_parser(parser):
    # [DEFAULT] keys would otherwise show up in every section
    stray = ([f"key {key!r} in [{parser.default_section}]"
              for key in parser.defaults()]
             + [f"section [{name}]" for name in parser.sections()
                if name not in _SECTIONS])
    if stray:
        raise ConfigError(f"unknown {stray[0]}")

    particle = {name: getattr(default_particle(), name)
                for name in ("k_aniso", "n_conc", "eta", "tau_0")}
    particle.update(_section(parser, "particle"))
    if ("m_s_bulk" in particle) == ("m_s" in particle):
        raise ConfigError("[particle] needs one of 'm_s_bulk_a_m' and "
                          "'m_s_am2'")
    make_particle = (ParticleSpec.from_bulk_magnetization
                     if "m_s_bulk" in particle else ParticleSpec)

    tones = _section(parser, "field")
    plan = plan_frequencies(tones.pop("f_high"), tones.pop("f_low"),
                            **_section(parser, "acquisition"))

    coil_a, coil_b = (
        CoilParams(**_section(parser, name)) if parser.has_section(name)
        else coil
        for name, coil in zip(("coil_a", "coil_b"), measured_coils()))

    amp = _section(parser, "amplifier")
    table_path = amp.pop("path", "")
    amplifier = (AmplifierModel.from_table_file(table_path, **amp)
                 if table_path else AmplifierModel.default(**amp))

    program = _section(parser, "temperature")
    ambient = {kw: program.pop(kw) for kw, _ in _AMBIENT.values()
               if kw in program}
    if "t_start" in program:
        program.setdefault("t_end", program["t_start"])

    return ScenarioConfig(
        particle=make_particle(**particle), plan=plan,
        coil_a=coil_a, coil_b=coil_b, amplifier=amplifier,
        program=TemperatureProgram(**program), ambient=AmbientModel(**ambient),
        **tones, **_section(parser, "noise"),
        **_section(parser, "calibration"), **_section(parser, "estimator"))


# --- CSV emission ---------------------------------------------------------

RESULT_COLUMNS = ("t_s", "t_true_k", "t_est_k", "tau_est_s", "phi_h_rad",
                  "error_k", "ok")


def format_field(x):
    """Floats to 17 significant digits (round-trips float64), else str."""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def result_csv_lines(result: ExperimentResult):
    """Records as CSV lines plus a recomputable summary comment."""
    lines = [",".join(RESULT_COLUMNS)]
    for r in result.records:
        lines.append(",".join(format_field(v) for v in
                              (r.t, r.t_true, r.t_est, r.tau_est, r.phi_h,
                               r.error, int(r.ok))))
    if result.records:
        s = result.summary
        lines.append(f"# summary,n_points={s['n_points']},"
                     f"n_flagged={s['n_flagged']},"
                     f"max_abs_error_k={format_field(s['max_abs_error_k'])},"
                     f"std_error_k={format_field(s['std_error_k'])}")
    return lines


def emit_csv(result: ExperimentResult, path) -> None:
    """Write records (and the summary comment) to path.

    17-significant-digit formatting round-trips float64; I/O failures are
    re-raised with the path attached.
    """
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(result_csv_lines(result)) + "\n")
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc

