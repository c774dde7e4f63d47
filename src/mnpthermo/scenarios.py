"""Configuration-driven experiment runner.

Frequency planning with mains-collision checks, static and cooling
temperature scenarios with per-point seeded noise, self-calibration
against reference temperatures, Monte Carlo helpers, and CSV emission.
"""

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EstimationError, PlanRejection
from .estimator import (CalibrationModel, calibrate, estimate_tau,
                        estimate_temperature)
from .magnetization import FieldConfig
from .physics import ParticleSpec
from .signal_chain import (AcquisitionConfig, AmplifierModel, CoilParams,
                           NoiseModel, SignalChainConfig, coil_transfer,
                           simulate_clean_channels, apply_noise)

# Noise level that reproduces the published static-run spread
# (temperature-error std ~= 0.0267 K at 315.6 K with the default chain).
# Frozen output of match_snr(); re-derive with that function after any
# change to the default chain or window.
STATIC_MATCHED_SNR_DB = 92.3


@dataclass(frozen=True)
class FrequencyPlan:
    """Validated excitation/analysis frequency set (all exact bins)."""

    f_high: float
    f_low: float
    f_base: float
    f_plus: float
    f_minus: float
    sample_rate: float
    window_periods: int = 1


def plan_frequencies(f_high, f_low, sample_rate=500000, mains=50,
                     window_periods=1) -> FrequencyPlan:
    """Validate a two-tone plan; raises PlanRejection listing every
    violated constraint. mains=None or 0 disables the mains check.

    Inputs must be positive integer hertz (commensurability by
    construction); violations cover the mixing-line positivity, mains
    collisions on both mixing lines, the Nyquist margin and the
    rate/base-frequency divisibility.
    """
    for name, v in (("f_high", f_high), ("f_low", f_low),
                    ("sample_rate", sample_rate)):
        if float(v) != int(v) or v <= 0:
            raise ValueError(f"{name} must be a positive integer (got {v!r})")
    if f_high <= f_low:
        raise ValueError("need f_high > f_low")

    f_high, f_low, sample_rate = int(f_high), int(f_low), int(sample_rate)
    f_base = math.gcd(f_high, f_low)
    f_plus = f_high + 2 * f_low
    f_minus = f_high - 2 * f_low

    violations = []
    if f_minus <= 0:
        violations.append(f"f_minus = {f_minus} Hz not positive "
                          f"(need f_high > 2*f_low)")
    if mains:
        for name, f in (("f_plus", f_plus), ("f_minus", f_minus)):
            if f > 0 and f % int(mains) == 0:
                violations.append(
                    f"{name} = {f} Hz is a multiple of {int(mains)} Hz mains "
                    f"({f // int(mains)} x {int(mains)})")
    if sample_rate < 10 * f_plus:
        violations.append(f"sample_rate {sample_rate} < 10*f_plus = {10 * f_plus}")
    if sample_rate % f_base != 0:
        violations.append(
            f"sample_rate {sample_rate} not an integer multiple of f_base {f_base}")
    if violations:
        raise PlanRejection(violations)
    return FrequencyPlan(float(f_high), float(f_low), float(f_base),
                         float(f_plus), float(f_minus), float(sample_rate),
                         int(window_periods))


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
    ref_policy: str = "excitation"   # "excitation" | "line"
    program: TemperatureProgram = TemperatureProgram()
    ambient: AmbientModel = AmbientModel()
    cal_temperatures: tuple = (315.0,)
    cal_kind: str = "one_point"

    def field_config(self):
        return FieldConfig(self.plan.f_high, self.plan.f_low,
                           self.b_high, self.b_low)

    def chain(self, noise: NoiseModel | None = None):
        acq = AcquisitionConfig(self.plan.sample_rate, self.plan.window_periods)
        return SignalChainConfig(
            self.coil_a, self.coil_b, self.amplifier,
            noise if noise is not None else NoiseModel(self.snr_db, self.seed),
            acq, self.phi_o, self.phase_model)

    def ref_frequency(self):
        return None if self.ref_policy == "line" else self.plan.f_high


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


def nominal_coil_phase(cfg: ScenarioConfig):
    """Coil-A phase at f_high at the calibration-time coil temperature.

    The single-frequency baseline subtracts this known static phase; only
    the temperature drift relative to it corrupts that estimator.
    """
    t_cal = float(np.mean(cfg.cal_temperatures))
    _, phase = coil_transfer(cfg.coil_a, 2.0 * math.pi * cfg.plan.f_high,
                             cfg.ambient.ambient(t_cal))
    return phase


def self_calibrate(cfg: ScenarioConfig) -> CalibrationModel:
    """Fit the tau -> T map from noiseless runs at the reference temps.

    Mirrors calibrating against a reference thermometer: the estimated
    (not true) relaxation time is paired with the known temperature, so
    slowly-varying pipeline bias is absorbed by the fit.
    """
    fld = cfg.field_config()
    chain = cfg.chain(NoiseModel(math.inf, cfg.seed))
    nom = nominal_coil_phase(cfg)
    points = []
    for t_ref in cfg.cal_temperatures:
        channels, _ = simulate_clean_channels(fld, cfg.particle, t_ref, chain,
                                              cfg.ambient.ambient(t_ref))
        tau, *_ = estimate_tau(channels, cfg.plan, cfg.amplifier, cfg.mode,
                               phi_o=cfg.phi_o,
                               ref_frequency=cfg.ref_frequency(),
                               nominal_coil_phase=nom)
        points.append((tau, t_ref))
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
    fld = cfg.field_config()
    chain = cfg.chain()
    nom = nominal_coil_phase(cfg)
    clean_t = None
    for t_sample, seed_sequence in draws:
        if t_sample != clean_t:
            clean_t = t_sample
            clean = noisy = None
            clean, ref_amp = simulate_clean_channels(
                fld, cfg.particle, t_sample, chain,
                cfg.ambient.ambient(t_sample))
        noisy = apply_noise(clean, noise, ref_amp, seed_sequence)
        yield estimate_temperature(noisy, cfg.plan, cfg.amplifier, cal,
                                   cfg.mode, phi_o=cfg.phi_o,
                                   ref_frequency=cfg.ref_frequency(),
                                   nominal_coil_phase=nom)


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
    estimates = _estimates(cfg, cal, NoiseModel(cfg.snr_db, cfg.seed), draws)
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
    if cal is None:
        cal = self_calibrate(cfg)
    draws = ((t_sample, _point_seed(cfg.seed, 0, j)) for j in range(n_trials))
    errors = []
    n_flagged = 0
    for est in _estimates(cfg, cal, NoiseModel(snr_db, cfg.seed), draws):
        if est.valid:
            errors.append(est.t_est - t_sample)
        else:
            n_flagged += 1
    if not errors:
        raise EstimationError("all Monte Carlo trials flagged")
    return float(np.std(errors)), n_flagged


def match_snr(cfg: ScenarioConfig, target_std, t_sample=315.6,
              snr_guess=50.0, n_trials=200, iterations=3):
    """Find the snr_db whose static error std matches target_std.

    Uses the std ~ 10^(-snr/20) scaling to re-aim after each Monte Carlo
    evaluation; deterministic given cfg.seed. This is how
    STATIC_MATCHED_SNR_DB was frozen.
    """
    cal = self_calibrate(cfg)
    snr = float(snr_guess)
    for _ in range(iterations):
        std, _ = monte_carlo_std(cfg, t_sample, snr, n_trials, cal)
        snr = snr + 20.0 * math.log10(std / target_std)
    return snr


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


def default_scenario(mode="mixing", snr_db=math.inf, seed=0, coils="measured",
                     program=None, ambient=None, cal_temperatures=(315.0,),
                     cal_kind="one_point", phase_model="debye",
                     plan=None) -> ScenarioConfig:
    """Scenario at the published operating point (6 kHz / 1.57 kHz)."""
    plan = plan or plan_frequencies(6000, 1570)
    coil_a, coil_b = measured_coils() if coils == "measured" else ideal_coils()
    return ScenarioConfig(
        particle=default_particle(), plan=plan,
        b_high=0.36e-3, b_low=1.98e-3,
        coil_a=coil_a, coil_b=coil_b, amplifier=AmplifierModel.default(),
        snr_db=snr_db, seed=seed, phase_model=phase_model, mode=mode,
        program=program or TemperatureProgram(),
        ambient=ambient or AmbientModel(),
        cal_temperatures=tuple(cal_temperatures), cal_kind=cal_kind)


def static_scenario(seed=0, snr_db=STATIC_MATCHED_SNR_DB):
    """Published static run: 315.6 K hold, two minutes, matched noise."""
    return default_scenario(
        snr_db=snr_db, seed=seed,
        program=TemperatureProgram("constant", 315.6, 315.6, 120.0, 120),
        ambient=AmbientModel(t_base=300.0, coupling=0.02),
        cal_temperatures=(310.0, 315.0, 320.0), cal_kind="affine_in_inverse_tau")


def cooling_scenario(seed=0, snr_db=STATIC_MATCHED_SNR_DB):
    """Published dynamic run: exponential 320 -> 310 K cooling.

    The source experiment does not state its acquisition cadence; one
    point per ten seconds is the configurable default.
    """
    return default_scenario(
        snr_db=snr_db, seed=seed,
        program=TemperatureProgram("cooling", 320.0, 310.0, 600.0, 60, 180.0),
        ambient=AmbientModel(t_base=300.0, coupling=0.02),
        cal_temperatures=(310.0, 315.0, 320.0), cal_kind="affine_in_inverse_tau")


# --- config file parsing --------------------------------------------------

_REQUIRED_SECTIONS = ("particle", "field")

# Every section and key the README documents; anything else is a typo.
_COIL_KEYS = ("r0_ohm", "l0_h", "alpha_r_per_k", "alpha_l_per_k", "t_ref_k",
              "coupling")
_KNOWN_KEYS = {
    "particle": ("d_core_m", "d_hydro_m", "k_aniso_j_m3", "m_s_bulk_a_m",
                 "m_s_am2", "n_conc_m3", "eta_pa_s", "tau_0_s"),
    "field": ("f_h_hz", "f_l_hz", "b_h_t", "b_l_t"),
    "acquisition": ("sample_rate_hz", "window_periods", "mains_hz"),
    "coil_a": _COIL_KEYS,
    "coil_b": _COIL_KEYS,
    "amplifier": ("gain", "table_path"),
    "noise": ("snr_db", "seed"),
    "temperature": ("program", "t_start_k", "t_end_k", "duration_s", "points",
                    "time_constant_s", "ambient_t_k", "ambient_coupling",
                    "ambient_sample_ref_k"),
    "calibration": ("kind", "temperatures_k"),
    "estimator": ("mode", "ref_policy", "phi_o_rad", "phase_model"),
}


def load_scenario(path) -> ScenarioConfig:
    """Read a key = value scenario file (INI sections; see README).

    Keys are case-sensitive; an undocumented section or key raises
    ConfigError naming it.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
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
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad scenario {path}: {exc}") from exc


def _required_float(sec, key):
    # SectionProxy.getfloat returns None for a missing key
    if key not in sec:
        raise ConfigError(f"missing key {key!r} in [{sec.name}]")
    return sec.getfloat(key)


def _coil_from_section(sec):
    return CoilParams(r0=_required_float(sec, "r0_ohm"),
                      l0=_required_float(sec, "l0_h"),
                      alpha_r=sec.getfloat("alpha_r_per_k", 3.9e-3),
                      t_ref=sec.getfloat("t_ref_k", 300.0),
                      coupling=sec.getfloat("coupling", 1e-8),
                      alpha_l=sec.getfloat("alpha_l_per_k", 0.0))


def _check_known_keys(parser):
    # [DEFAULT] goes first: its keys would otherwise show up in every section
    known = {parser.default_section: (), **_KNOWN_KEYS}
    for name in (parser.default_section, *parser.sections()):
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")
        for key in parser[name]:
            if key not in known[name]:
                raise ConfigError(f"unknown key {key!r} in [{name}]")


def _scenario_from_parser(parser):
    _check_known_keys(parser)
    for name in _REQUIRED_SECTIONS:
        if not parser.has_section(name):
            raise ConfigError(f"missing [{name}] section")
    ps = parser["particle"]
    common = dict(d_core=_required_float(ps, "d_core_m"),
                  d_hydro=_required_float(ps, "d_hydro_m"),
                  k_aniso=ps.getfloat("k_aniso_j_m3", 20e3),
                  n_conc=ps.getfloat("n_conc_m3", 1e20),
                  eta=ps.getfloat("eta_pa_s", 1e-3),
                  tau_0=ps.getfloat("tau_0_s", 1e-9))
    if "m_s_bulk_a_m" in ps:
        particle = ParticleSpec.from_bulk_magnetization(
            m_s_bulk=ps.getfloat("m_s_bulk_a_m"), **common)
    elif "m_s_am2" in ps:
        particle = ParticleSpec(m_s=ps.getfloat("m_s_am2"), **common)
    else:
        raise ConfigError("missing key 'm_s_bulk_a_m' or 'm_s_am2' in [particle]")

    fs = parser["field"]
    acq = parser["acquisition"] if parser.has_section("acquisition") else {}
    mains = float(acq.get("mains_hz", 50)) if acq else 50
    plan = plan_frequencies(
        int(_required_float(fs, "f_h_hz")), int(_required_float(fs, "f_l_hz")),
        int(float(acq.get("sample_rate_hz", 500000))) if acq else 500000,
        mains=int(mains) if mains else None,
        window_periods=int(float(acq.get("window_periods", 1))) if acq else 1)

    coil_a, coil_b = measured_coils()
    if parser.has_section("coil_a"):
        coil_a = _coil_from_section(parser["coil_a"])
    if parser.has_section("coil_b"):
        coil_b = _coil_from_section(parser["coil_b"])

    amplifier = AmplifierModel.default()
    if parser.has_section("amplifier"):
        amp_sec = parser["amplifier"]
        gain = amp_sec.getfloat("gain", 1000.0)
        if amp_sec.get("table_path"):
            amplifier = AmplifierModel.from_table_file(amp_sec["table_path"], gain)
        else:
            amplifier = AmplifierModel.default(gain)

    noise_sec = parser["noise"] if parser.has_section("noise") else {}
    snr_raw = noise_sec.get("snr_db", "inf") if noise_sec else "inf"
    snr_db = math.inf if snr_raw in ("inf", "") else float(snr_raw)
    seed = int(float(noise_sec.get("seed", 0))) if noise_sec else 0

    prog = TemperatureProgram()
    amb = AmbientModel()
    if parser.has_section("temperature"):
        tsec = parser["temperature"]
        prog = TemperatureProgram(
            kind=tsec.get("program", "constant"),
            t_start=tsec.getfloat("t_start_k", 315.6),
            t_end=tsec.getfloat("t_end_k", tsec.getfloat("t_start_k", 315.6)),
            duration=tsec.getfloat("duration_s", 120.0),
            n_points=tsec.getint("points", 120),
            time_constant=tsec.getfloat("time_constant_s", 180.0))
        amb = AmbientModel(t_base=tsec.getfloat("ambient_t_k", 300.0),
                           coupling=tsec.getfloat("ambient_coupling", 0.0),
                           t_sample_ref=tsec.getfloat("ambient_sample_ref_k", 315.0))

    cal_temps = (315.0,)
    cal_kind = "one_point"
    if parser.has_section("calibration"):
        csec = parser["calibration"]
        cal_kind = csec.get("kind", "one_point")
        if csec.get("temperatures_k"):
            cal_temps = tuple(float(x) for x in
                              csec["temperatures_k"].replace(",", " ").split())

    est = parser["estimator"] if parser.has_section("estimator") else {}
    return ScenarioConfig(
        particle=particle, plan=plan,
        b_high=_required_float(fs, "b_h_t"), b_low=_required_float(fs, "b_l_t"),
        coil_a=coil_a, coil_b=coil_b, amplifier=amplifier,
        snr_db=snr_db, seed=seed,
        phi_o=float(est.get("phi_o_rad", 0.0)) if est else 0.0,
        phase_model=est.get("phase_model", "debye") if est else "debye",
        mode=est.get("mode", "mixing") if est else "mixing",
        ref_policy=est.get("ref_policy", "excitation") if est else "excitation",
        program=prog, ambient=amb,
        cal_temperatures=cal_temps, cal_kind=cal_kind)


# --- CSV emission ---------------------------------------------------------

RESULT_COLUMNS = ("t_s", "t_true_k", "t_est_k", "tau_est_s", "phi_h_rad",
                  "error_k", "ok")


def _fmt(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    return f"{x:.17g}"


def result_csv_lines(result: ExperimentResult):
    """Records as CSV lines plus a recomputable summary comment."""
    lines = [",".join(RESULT_COLUMNS)]
    for r in result.records:
        lines.append(",".join(_fmt(v) for v in
                              (r.t, r.t_true, r.t_est, r.tau_est, r.phi_h,
                               r.error, r.ok)))
    if result.records:
        s = result.summary
        lines.append(f"# summary,n_points={s['n_points']},"
                     f"n_flagged={s['n_flagged']},"
                     f"max_abs_error_k={_fmt(s['max_abs_error_k'])},"
                     f"std_error_k={_fmt(s['std_error_k'])}")
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


def read_result_csv(path) -> ExperimentResult:
    """Parse a file written by emit_csv (summary comment ignored)."""
    records = []
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != ",".join(RESULT_COLUMNS):
                raise ConfigError(f"{path}: unexpected header {header!r}")
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                records.append(PointRecord(
                    float(parts[0]), float(parts[1]), float(parts[2]),
                    float(parts[3]), float(parts[4]), float(parts[5]),
                    parts[6] == "1"))
    except OSError as exc:
        raise OSError(f"reading {path}: {exc}") from exc
    return ExperimentResult(records, ExperimentResult.summarize(records))
