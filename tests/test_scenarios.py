import math
import re
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from mnpthermo import PlanRejection, plan_frequencies, scenarios
from mnpthermo.errors import ConfigError
from mnpthermo.estimator import estimate_temperature
from mnpthermo.scenarios import (STATIC_MATCHED_SNR_DB, AmbientModel,
                                 ExperimentResult, PointRecord,
                                 TemperatureProgram, _point_seed,
                                 cooling_scenario, default_scenario,
                                 emit_csv, load_scenario, monte_carlo_std,
                                 nominal_coil_phase, read_result_csv,
                                 run_scenario, self_calibrate,
                                 static_scenario)
from mnpthermo.signal_chain import (NoiseModel, apply_noise,
                                    simulate_clean_channels)


class TestPlanFrequencies:
    def test_operating_plan_accepted(self):
        plan = plan_frequencies(6000, 1570, 500000, 50)
        assert plan.f_plus == 9140.0
        assert plan.f_minus == 2860.0
        assert plan.f_base == 10.0

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
        cfg = default_scenario(phase_model="composed",
                               cal_temperatures=(315.0,),
                               program=TemperatureProgram(
                                   "cooling", 318.0, 312.0, 60.0, 4, 30.0))
        cfg = replace(cfg, ref_policy="line")
        result = run_scenario(cfg)
        assert result.summary["n_flagged"] == 0
        assert result.summary["max_abs_error_k"] < 1e-9

    def test_deterministic_csv(self, tmp_path):
        cfg = static_scenario(seed=9)
        cfg = replace(cfg, program=TemperatureProgram("constant", 315.6,
                                                      315.6, 5.0, 4))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_scenario(cfg), p1)
        emit_csv(run_scenario(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_noise(self, tmp_path):
        base = static_scenario(seed=1)
        prog = TemperatureProgram("constant", 315.6, 315.6, 5.0, 3)
        r1 = run_scenario(replace(base, program=prog))
        r2 = run_scenario(replace(static_scenario(seed=2), program=prog))
        assert r1.records[0].t_est != r2.records[0].t_est

    def test_flagged_rows_carried(self):
        # impossible analysis plan: mixing lines absent from the channels
        cfg = default_scenario(program=TemperatureProgram("constant", 315.0,
                                                          315.0, 2.0, 2))
        bad_plan = plan_frequencies(6000, 1570, 500000, 50)
        bad_plan = replace(bad_plan, f_plus=8000.0, f_minus=4000.0)
        cfg = replace(cfg, plan=bad_plan)
        cal_cfg = default_scenario(program=cfg.program)
        result = run_scenario(cfg, cal=self_calibrate(cal_cfg))
        assert result.summary["n_points"] == 2
        assert result.summary["n_flagged"] == 2
        assert all(not r.ok and math.isnan(r.t_est) for r in result.records)


def _estimate(cfg, cal, channels):
    return estimate_temperature(channels, cfg.plan, cfg.amplifier, cal,
                                cfg.mode, phi_o=cfg.phi_o,
                                ref_frequency=cfg.ref_frequency(),
                                nominal_coil_phase=nominal_coil_phase(cfg))


def _per_point_rows(cfg, cal):
    """Reference loop: fresh clean synthesis at every point, then noise."""
    noise = NoiseModel(cfg.snr_db, cfg.seed)
    times = cfg.program.times()
    rows = []
    for i, (t, t_true) in enumerate(zip(times,
                                        cfg.program.temperature(times))):
        t_true = float(t_true)
        clean, ref_amp = simulate_clean_channels(
            cfg.field_config(), cfg.particle, t_true, cfg.chain(),
            cfg.ambient.ambient(t_true))
        est = _estimate(cfg, cal, apply_noise(clean, noise, ref_amp,
                                              _point_seed(cfg.seed, i)))
        assert est.valid
        rows.append((float(t), t_true, est.t_est, est.tau_est, est.phi_h,
                     est.t_est - t_true, True))
    return rows


class TestCleanSynthesisReuse:
    @pytest.mark.parametrize("kind, syntheses", [("constant", 1),
                                                 ("cooling", 5)])
    def test_one_synthesis_per_held_temperature(self, monkeypatch, kind,
                                                syntheses):
        cfg = replace(static_scenario(seed=4), program=TemperatureProgram(
            kind, 316.0, 312.0, 40.0, 5, 30.0))
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
        replace(static_scenario(seed=5), program=TemperatureProgram(
            "constant", 315.6, 315.6, 5.0, 4)),
        replace(cooling_scenario(seed=5), program=TemperatureProgram(
            "cooling", 320.0, 310.0, 60.0, 4, 30.0)),
        default_scenario(program=TemperatureProgram(
            "constant", 315.6, 315.6, 5.0, 3)),
    ], ids=["static-noisy", "cooling-noisy", "constant-noiseless"])
    def test_records_equal_per_point_synthesis(self, cfg):
        cal = self_calibrate(cfg)
        rows = [astuple(r) for r in run_scenario(cfg, cal).records]
        assert rows == _per_point_rows(cfg, cal)

    def test_monte_carlo_std_unchanged(self):
        cfg = static_scenario(seed=6)
        cal = self_calibrate(cfg)
        t_sample, n_trials = 315.6, 16
        clean, ref_amp = simulate_clean_channels(
            cfg.field_config(), cfg.particle, t_sample,
            cfg.chain(NoiseModel(math.inf, cfg.seed)),
            cfg.ambient.ambient(t_sample))
        noise = NoiseModel(STATIC_MATCHED_SNR_DB, cfg.seed)
        errors = []
        for j in range(n_trials):
            est = _estimate(cfg, cal, apply_noise(clean, noise, ref_amp,
                                                  _point_seed(cfg.seed, 0, j)))
            errors.append(est.t_est - t_sample)
        assert monte_carlo_std(cfg, t_sample, STATIC_MATCHED_SNR_DB,
                               n_trials, cal) == (float(np.std(errors)), 0)


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


ROOT = Path(__file__).resolve().parents[1]

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


def test_nominal_coil_phase_matches_transfer():
    from mnpthermo.signal_chain import coil_transfer
    cfg = default_scenario()
    _, expected = coil_transfer(cfg.coil_a, 2 * math.pi * 6000,
                                cfg.ambient.ambient(315.0))
    assert nominal_coil_phase(cfg) == pytest.approx(expected, rel=1e-12)
