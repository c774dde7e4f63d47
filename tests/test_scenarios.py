import math
import re
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnpthermo import PlanRejection, plan_frequencies, scenarios
from mnpthermo.errors import ConfigError
from mnpthermo.scenarios import (RESULT_COLUMNS, AmbientModel,
                                 ExperimentResult, PointRecord,
                                 ScenarioConfig, TemperatureProgram,
                                 _point_seed, default_scenario, emit_csv,
                                 load_scenario, monte_carlo_std,
                                 run_scenario, self_calibrate)
from mnpthermo.signal_chain import NoiseModel, apply_noise

ROOT = Path(__file__).resolve().parents[1]


def shipped_scenario(name, seed=0):
    """A published scenario, read from its file in configs/, at a seed."""
    return replace(load_scenario(ROOT / "configs" / name), seed=seed)


class TestPlanFrequencies:
    def test_operating_plan_accepted(self):
        plan = plan_frequencies(6000, 1570, 500000, 50)
        assert plan.f_plus == 9140.0
        assert plan.f_minus == 2860.0
        assert plan.f_base == 10.0

    def test_derived_lines_follow_the_tones(self):
        # the base frequency and mixing lines are not stored, so they
        # cannot disagree with the tones
        plan = plan_frequencies(6000, 1570, 500000, 50)
        assert [f.name for f in fields(plan)] == [
            "f_high", "f_low", "sample_rate", "window_periods"]
        moved = replace(plan, f_low=1500.0)
        derived = (moved.f_base, moved.f_plus, moved.f_minus)
        assert derived == (1500.0, 9000.0, 3000.0)
        assert all(type(f) is float for f in derived)

    def test_mains_collision_rejected(self):
        with pytest.raises(PlanRejection) as info:
            plan_frequencies(6000, 1500, 600000, 50)
        text = " ".join(info.value.violations)
        assert "f_plus = 9000" in text and "180 x 50" in text

    def test_all_violations_listed(self):
        with pytest.raises(PlanRejection) as info:
            plan_frequencies(5000, 1250, 500000, 50)
        joined = " ".join(info.value.violations)
        assert "7500" in joined and "2500" in joined
        assert len(info.value.violations) >= 2

    def test_nyquist_and_divisibility_named(self):
        with pytest.raises(PlanRejection) as info:
            plan_frequencies(6000, 1570, 30001, 50)
        joined = " ".join(info.value.violations)
        assert "10*f_plus" in joined
        assert "integer multiple of f_base" in joined

    def test_negative_mixing_line(self):
        with pytest.raises(PlanRejection) as info:
            plan_frequencies(3000, 1570, 500000, None)
        assert any("not positive" in v for v in info.value.violations)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            plan_frequencies(6000.5, 1570, 500000, 50)

    def test_mains_disable(self):
        plan = plan_frequencies(6000, 1500, 600000, None)
        assert plan.f_plus == 9000.0

    def test_mains_zero_disables(self):
        assert plan_frequencies(6000, 1500, 600000, 0).f_plus == 9000.0

    @pytest.mark.parametrize("mains", [-5, -50, 50.5, math.nan, math.inf])
    def test_bad_mains_rejected(self, mains):
        # -5 used to skip the check and 50.5 to be truncated to 50
        with pytest.raises(ValueError, match="mains must be a positive"):
            plan_frequencies(6000, 1570, 500000, mains)

    @pytest.mark.parametrize("name", ["f_high", "f_low", "sample_rate"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, name, bad):
        args = dict(f_high=6000, f_low=1570, sample_rate=500000)
        args[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be a positive"):
            plan_frequencies(**args)


@settings(derandomize=True, database=None, max_examples=300,
          deadline=None)
@given(f_low=st.integers(-2, 3000), f_minus=st.integers(-3000, 10000),
       oversample=st.integers(-1, 40), jitter=st.integers(-5, 5),
       mains=st.integers(-2, 100))
def test_plan_properties(f_low, f_minus, oversample, jitter, mains):
    # Drawn through f_minus and sample_rate/f_plus so that every outcome
    # (accepted, each violation, each ValueError) is common.
    f_high = 2 * f_low + f_minus
    sample_rate = oversample * (f_high + 2 * f_low) + jitter
    try:
        plan = plan_frequencies(f_high, f_low, sample_rate, mains)
    except (PlanRejection, ValueError):
        return
    assert plan.f_minus > 0
    assert plan.f_plus % plan.f_base == 0 and plan.f_minus % plan.f_base == 0
    if mains:
        assert plan.f_plus % mains != 0 and plan.f_minus % mains != 0
    assert plan.sample_rate >= 10 * plan.f_plus
    assert plan.sample_rate % plan.f_base == 0


class TestTemperatureProgram:
    def test_constant(self):
        prog = TemperatureProgram("constant", 315.6, 315.6, 120.0, 5)
        assert np.all(prog.temperature(prog.times()) == 315.6)

    def test_cooling_endpoints(self):
        prog = TemperatureProgram("cooling", 320.0, 310.0, 600.0, 3, 180.0)
        temps = prog.temperature(prog.times())
        assert temps[0] == pytest.approx(320.0)
        assert temps[-1] == pytest.approx(310.0 + 10.0 * math.exp(-600 / 180),
                                          rel=1e-12)
        assert np.all(np.diff(temps) < 0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TemperatureProgram("ramp", 320.0, 310.0, 600.0, 3)


class TestAmbientModel:
    def test_fixed(self):
        amb = AmbientModel(t_base=300.0, coupling=0.0)
        assert amb.ambient(320.0) == 300.0

    def test_tracking(self):
        amb = AmbientModel(t_base=315.0, coupling=1.0, t_sample_ref=315.0)
        assert amb.ambient(312.0) == pytest.approx(312.0)


class TestRunScenario:
    def test_composed_zero_noise_exact(self):
        # composed forward model + per-line reference: exact inverse
        cfg = replace(default_scenario(), phase_model="composed",
                      ref_policy="line", cal_temperatures=(315.0,),
                      program=TemperatureProgram("cooling", 318.0, 312.0,
                                                 60.0, 4, 30.0))
        result = run_scenario(cfg)
        assert result.summary["n_flagged"] == 0
        assert result.summary["max_abs_error_k"] < 1e-9

    def test_deterministic_csv(self, tmp_path):
        cfg = shipped_scenario("static.ini", seed=9)
        cfg = replace(cfg, program=TemperatureProgram("constant", 315.6,
                                                      315.6, 5.0, 4))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_scenario(cfg), p1)
        emit_csv(run_scenario(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_noise(self, tmp_path):
        base = shipped_scenario("static.ini", seed=1)
        prog = TemperatureProgram("constant", 315.6, 315.6, 5.0, 3)
        r1 = run_scenario(replace(base, program=prog))
        r2 = run_scenario(replace(base, seed=2, program=prog))
        assert r1.records[0].t_est != r2.records[0].t_est

    def test_flagged_rows_carried(self):
        # no low tone: the mixing lines are absent from the channels
        cfg = replace(default_scenario(), b_low=0.0,
                      program=TemperatureProgram("constant", 315.0, 315.0,
                                                 2.0, 2))
        cal_cfg = replace(default_scenario(), program=cfg.program)
        result = run_scenario(cfg, cal=self_calibrate(cal_cfg))
        assert result.summary["n_points"] == 2
        assert result.summary["n_flagged"] == 2
        assert all(not r.ok and math.isnan(r.t_est) for r in result.records)


def _per_point_rows(cfg, cal):
    """Reference loop: fresh clean synthesis at every point, then noise."""
    noise = NoiseModel(cfg.snr_db, cfg.seed)
    times = cfg.program.times()
    rows = []
    for i, (t, t_true) in enumerate(zip(times,
                                        cfg.program.temperature(times))):
        t_true = float(t_true)
        clean, ref_amp = cfg.clean_channels(t_true)
        est = cfg.estimate(apply_noise(clean, noise, ref_amp,
                                       _point_seed(cfg.seed, i)), cal)
        assert est.valid
        rows.append((float(t), t_true, est.t_est, est.tau_est, est.phi_h,
                     est.t_est - t_true, True))
    return rows


class TestCleanSynthesisReuse:
    @pytest.mark.parametrize("kind, syntheses", [("constant", 1),
                                                 ("cooling", 5)])
    def test_one_synthesis_per_held_temperature(self, monkeypatch, kind,
                                                syntheses):
        cfg = replace(shipped_scenario("static.ini", seed=4),
                      program=TemperatureProgram(kind, 316.0, 312.0, 40.0, 5,
                                                 30.0))
        cal = self_calibrate(cfg)
        calls = []
        real = scenarios.simulate_clean_channels

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(scenarios, "simulate_clean_channels", counted)
        run_scenario(cfg, cal)
        assert len(calls) == syntheses

    @pytest.mark.parametrize("cfg", [
        replace(shipped_scenario("static.ini", seed=5),
                program=TemperatureProgram("constant", 315.6, 315.6, 5.0, 4)),
        replace(shipped_scenario("cooling.ini", seed=5),
                program=TemperatureProgram("cooling", 320.0, 310.0, 60.0, 4,
                                           30.0)),
        replace(default_scenario(), program=TemperatureProgram(
            "constant", 315.6, 315.6, 5.0, 3)),
    ], ids=["static-noisy", "cooling-noisy", "constant-noiseless"])
    def test_records_equal_per_point_synthesis(self, cfg):
        cal = self_calibrate(cfg)
        rows = [astuple(r) for r in run_scenario(cfg, cal).records]
        assert rows == _per_point_rows(cfg, cal)

    def test_monte_carlo_std_unchanged(self):
        cfg = shipped_scenario("static.ini", seed=6)
        cal = self_calibrate(cfg)
        t_sample, n_trials = 315.6, 16
        clean, ref_amp = cfg.clean_channels(t_sample)
        noise = NoiseModel(cfg.snr_db, cfg.seed)
        errors = []
        for j in range(n_trials):
            est = cfg.estimate(apply_noise(clean, noise, ref_amp,
                                           _point_seed(cfg.seed, 0, j)), cal)
            errors.append(est.t_est - t_sample)
        assert monte_carlo_std(cfg, t_sample, cfg.snr_db, n_trials,
                               cal) == (float(np.std(errors)), 0)


@pytest.mark.parametrize("n_trials", [0, -3])
def test_monte_carlo_std_needs_a_trial(n_trials):
    with pytest.raises(ValueError, match="n_trials must be at least 1"):
        monte_carlo_std(shipped_scenario("static.ini"), 315.6, 40.0,
                        n_trials)


def read_result_csv(path) -> ExperimentResult:
    """Parse a file written by emit_csv (summary comment ignored)."""
    with open(path) as fh:
        assert fh.readline().strip() == ",".join(RESULT_COLUMNS)
        rows = [line.strip().split(",") for line in fh
                if line.strip() and not line.startswith("#")]
    records = [PointRecord(*(float(v) for v in row[:6]), row[6] == "1")
               for row in rows]
    return ExperimentResult(records, ExperimentResult.summarize(records))


class TestCsv:
    def _result(self):
        records = [PointRecord(0.0, 315.0, 315.1, 9.7e-6, 0.35, 0.1, True),
                   PointRecord(1.0, 315.0, float("nan"), float("nan"),
                               float("nan"), float("nan"), False),
                   PointRecord(2.0, 315.0, 314.95, 9.8e-6, 0.36, -0.05, True)]
        return ExperimentResult(records, ExperimentResult.summarize(records))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        result = self._result()
        emit_csv(result, path)
        back = read_result_csv(path)
        assert len(back.records) == 3
        for a, b in zip(result.records, back.records):
            assert a.ok == b.ok
            if a.ok:
                assert a.t_est == b.t_est and a.error == b.error

    def test_summary_recomputed_matches(self, tmp_path):
        path = tmp_path / "r.csv"
        result = self._result()
        emit_csv(result, path)
        back = read_result_csv(path)
        assert back.summary["max_abs_error_k"] == pytest.approx(
            result.summary["max_abs_error_k"], rel=1e-15)
        assert back.summary["std_error_k"] == pytest.approx(
            result.summary["std_error_k"], rel=1e-15)
        assert back.summary["n_flagged"] == 1

    def test_empty_result_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(ExperimentResult([], ExperimentResult.summarize([])), path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("t_s,")

    def test_io_error_has_path(self, tmp_path):
        with pytest.raises(OSError) as info:
            emit_csv(self._result(), tmp_path / "no" / "dir" / "r.csv")
        assert "r.csv" in str(info.value)


SCENARIO_INI = """
[particle]
d_core_m = 30e-9
d_hydro_m = 30e-9
k_aniso_j_m3 = 20e3
m_s_bulk_a_m = 4.8e5
n_conc_m3 = 1e20
eta_pa_s = 1e-3

[field]
f_h_hz = 6000
f_l_hz = 1570
b_h_t = 0.36e-3
b_l_t = 1.98e-3

[acquisition]
sample_rate_hz = 500000
window_periods = 1
mains_hz = 50

[coil_a]
r0_ohm = 10.4177
l0_h = 1.64741e-3

[coil_b]
r0_ohm = 10.6454
l0_h = 1.70752e-3

[noise]
snr_db = inf
seed = 3

[temperature]
program = constant
t_start_k = 315.0
duration_s = 2.0
points = 2
ambient_t_k = 300.0

[calibration]
kind = one_point
temperatures_k = 315.0

[estimator]
mode = mixing
ref_policy = excitation
"""


def assert_same_scenario(a, b):
    """Field-by-field equality; amplifier tables compare as arrays."""
    for f in fields(ScenarioConfig):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "amplifier":
            for column in ("frequencies", "phases", "gains"):
                assert np.array_equal(getattr(x, column), getattr(y, column))
        else:
            assert x == y, f.name


class TestConfigFile:
    def test_load_and_run(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(SCENARIO_INI)
        cfg = load_scenario(path)
        assert cfg.plan.f_plus == 9140.0
        assert cfg.particle.d_core == pytest.approx(30e-9)
        assert math.isinf(cfg.snr_db)
        result = run_scenario(cfg)
        assert result.summary["n_flagged"] == 0
        # one-point calibration at the program temperature: exact there
        assert result.summary["max_abs_error_k"] < 1e-6

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[particle]\nd_core_m = 30e-9\n")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "absent.ini")

    @pytest.mark.parametrize("name", ["static.ini", "cooling.ini"])
    def test_shipped_configs_load(self, name):
        assert load_scenario(ROOT / "configs" / name).snr_db == 92.3

    def test_empty_snr_disables_noise(self, tmp_path):
        path = tmp_path / "snr.ini"
        path.write_text(SCENARIO_INI.replace("snr_db = inf", "snr_db ="))
        assert load_scenario(path).snr_db == math.inf

    def test_integral_integers_accepted(self, tmp_path):
        # points = 2.0 used to be a config error; seed was truncated
        path = tmp_path / "integral.ini"
        path.write_text(SCENARIO_INI.replace("seed = 3", "seed = 3.0")
                        .replace("points = 2", "points = 2.0"))
        cfg = load_scenario(path)
        assert cfg.seed == 3 and cfg.program.n_points == 2
        assert isinstance(cfg.seed, int)

    def test_omitted_keys_take_the_readme_values(self, tmp_path):
        # only the required keys, and the README block of every key,
        # both load as the default scenario
        minimal = tmp_path / "minimal.ini"
        minimal.write_text(SCENARIO_INI.split("[acquisition]")[0])
        block = tmp_path / "readme.ini"
        readme = (ROOT / "README.md").read_text()
        block.write_text(readme.split("```ini\n")[1].split("```")[0])
        assert_same_scenario(load_scenario(minimal), default_scenario())
        assert_same_scenario(load_scenario(block), default_scenario())

    def test_percent_sign_is_literal(self, tmp_path):
        # '%' used to raise configparser's InterpolationSyntaxError, exit 1
        table = tmp_path / "amp%1.txt"
        table.write_text("0 0 500\n200000 -20 500\n")
        path = tmp_path / "pct.ini"
        path.write_text(f"{SCENARIO_INI}\n[amplifier]\n"
                        f"table_path = {table}\n")
        assert load_scenario(path).amplifier.gains.tolist() == [500.0, 500.0]

    def test_t_end_defaults_to_t_start(self, tmp_path):
        path = tmp_path / "hold.ini"
        path.write_text(SCENARIO_INI)
        program = load_scenario(path).program
        assert program.t_start == program.t_end == 315.0

    def test_readme_example_loads(self, tmp_path):
        # every key the README documents is accepted
        readme = (ROOT / "README.md").read_text()
        path = tmp_path / "readme.ini"
        path.write_text(readme.split("```ini\n")[1].split("```")[0])
        cfg = load_scenario(path)
        assert cfg.phase_model == "debye" and cfg.coil_a.alpha_l == 0.0

    @pytest.mark.parametrize("old, new, named", [
        ("seed = 3", "seeds = 3", "'seeds' in [noise]"),
        ("snr_db = inf", "SNR_DB = inf", "'SNR_DB' in [noise]"),
        ("[noise]", "[nosie]", "unknown section [nosie]"),
        ("[particle]", "[DEFAULT]\nseed = 1\n[particle]", "'seed' in [DEFAULT]"),
    ], ids=["key", "case", "section", "default"])
    def test_undocumented_key_or_section_rejected(self, tmp_path, old, new,
                                                  named):
        path = tmp_path / "typo.ini"
        path.write_text(SCENARIO_INI.replace(old, new))
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_scenario(path)


@pytest.mark.parametrize("mode", ["mixing", "single"])
def test_feedthrough_phase_is_bound_in_one_place(mode):
    """The phi_o the chain adds to the feedthrough, the estimator takes out:
    synthesis and estimate see the same options."""
    cfg = replace(default_scenario(), mode=mode)
    shifted = replace(cfg, phi_o=0.3)
    cal = self_calibrate(cfg)
    assert self_calibrate(shifted).a == pytest.approx(cal.a, rel=1e-12)
    expected = cfg.estimate(cfg.clean_channels(313.0)[0], cal)
    got = shifted.estimate(shifted.clean_channels(313.0)[0], cal)
    assert got.valid
    assert abs(got.t_est - expected.t_est) <= 1e-9


def test_nominal_coil_phase_matches_transfer():
    from mnpthermo.signal_chain import coil_transfer
    cfg = default_scenario()
    _, expected = coil_transfer(cfg.coil_a, 2 * math.pi * 6000,
                                cfg.ambient.ambient(315.0))
    assert cfg.nominal_coil_phase() == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("snr_db", [1e300, 4000.0, -1e30, -math.inf,
                                    math.nan])
def test_snr_db_without_a_finite_power_ratio_rejected(snr_db):
    # 10**(snr_db/10) overflowed in NoiseModel.sigma, or was 0 or nan
    with pytest.raises(ConfigError, match="snr_db"):
        replace(default_scenario(), snr_db=snr_db)


@pytest.mark.parametrize("snr_db", [math.inf, 3000.0, 92.3, 0.0, -3000.0])
def test_snr_db_with_a_finite_power_ratio_accepted(snr_db):
    assert replace(default_scenario(), snr_db=snr_db).snr_db == snr_db
