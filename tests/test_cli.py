import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnpthermo import magnetization, scenarios
from mnpthermo.cli import main
from mnpthermo.figures import FIGURE_IDS
from mnpthermo.scenarios import emit_csv, run_scenario
from tests.test_scenarios import ROOT, SCENARIO_INI, shipped_scenario


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(SCENARIO_INI)
    return str(path)


class TestPlanFreq:
    def test_accepts_operating_plan(self, capsys):
        assert main(["plan-freq", "6000", "1570"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("f_high_hz,")
        assert "9140" in out[1] and "2860" in out[1]

    def test_rejects_mains_collision(self, capsys):
        code = main(["plan-freq", "6000", "1500", "--sample-rate", "600000"])
        assert code == 3
        err = capsys.readouterr().err
        assert "category=plan-rejected" in err
        assert "9000" in err and "3000" in err  # every violation named

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        assert main(["plan-freq", "6000", "1570", "--out", str(out)]) == 0
        assert out.read_text().startswith("f_high_hz,")

    def test_mains_zero_disables(self, capsys):
        assert main(["plan-freq", "6000", "1500", "--sample-rate", "600000",
                     "--mains", "0"]) == 0

    def test_negative_mains_is_config_error(self, capsys):
        # used to skip the mains check and exit 0
        assert main(["plan-freq", "6000", "1570", "--mains", "-5"]) == 2
        captured = capsys.readouterr()
        assert "error category=config" in captured.err
        assert "mains" in captured.err and captured.out == ""


@pytest.mark.parametrize("old, new", [
    ("mains_hz = 50", "mains_hz = -5"),
    ("mains_hz = 50", "mains_hz = 50.5"),  # used to be truncated to 50
    ("f_h_hz = 6000", "f_h_hz = 6000.5"),
    ("sample_rate_hz = 500000", "sample_rate_hz = 500000.5"),
    ("window_periods = 1", "window_periods = 1.5"),  # used to run as 1
    ("seed = 3", "seed = 7.5"),  # used to run as 7
    ("points = 2", "points = 2.5"),
])
def test_non_integer_plan_in_config_is_config_error(tmp_path, capsys, old,
                                                    new):
    path = tmp_path / "plan.ini"
    path.write_text(SCENARIO_INI.replace(old, new))
    assert main(["scenario", "run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error category=config" in err
    assert new.split()[-1] in err


@pytest.mark.parametrize("old, new", [
    ("t_start_k = 315.6", "t_start_k = nan"),
    ("t_start_k = 315.6", "t_start_k = inf"),
    ("b_h_t = 0.36e-3", "b_h_t = nan"),
    ("temperatures_k = 310 315 320", "temperatures_k = 310 nan 320"),
    ("duration_s = 120", "duration_s = nan"),
    ("snr_db = 92.3", "snr_db = nan"),
    ("snr_db = 92.3", "snr_db = -inf"),
    ("eta_pa_s = 1e-3", "eta_pa_s = nan"),
    ("r0_ohm = 10.4177", "r0_ohm = nan"),
    ("mode = mixing", "mode = mixing\nphi_o_rad = nan"),
    ("ambient_coupling = 0.02", "ambient_coupling = -inf"),
])
def test_non_finite_number_in_config_is_config_error(tmp_path, capsys, old,
                                                     new):
    # each used to run: to a quadrature traceback, nan rows, every row
    # flagged, or an estimation failure
    path = tmp_path / "nonfinite.ini"
    path.write_text((ROOT / "configs" / "static.ini").read_text()
                    .replace(old, new, 1))
    assert main(["scenario", "run", str(path)]) == 2
    captured = capsys.readouterr()
    key = new.splitlines()[-1].split()[0]
    assert "error category=config" in captured.err
    assert f"{key!r}" in captured.err and "not a finite number" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("amplifier, named", [
    ("table_path = {table}", "amplifier phases must be finite"),
    ("gain = 0", "amplifier gains must be positive (got 0)"),
    ("gain = -5", "amplifier gains must be positive (got -5)"),
], ids=["nan-phase-row", "zero-gain", "negative-gain"])
def test_bad_amplifier_is_config_error(tmp_path, capsys, amplifier, named):
    # the nan row and the zero gain used to exit 4, the negative gain to
    # print an estimate
    table = tmp_path / "amp.txt"
    table.write_text("0 0 1000\n100000 nan 1000\n")
    path = tmp_path / "amp.ini"
    path.write_text((ROOT / "configs" / "static.ini").read_text()
                    + "\n[amplifier]\n" + amplifier.format(table=table) + "\n")
    assert main(["estimate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "error category=config" in captured.err
    assert named in captured.err and captured.out == ""


def test_unconverged_quadrature_is_config_error(capsys):
    # --temperature 1e-300 used to end in a QuadratureError traceback
    # (exit 1) after 12 node doublings, 10 s and ~1.5 GB; now the node
    # count is refused before the first pass
    assert main(["estimate", "--config", str(ROOT / "configs" / "static.ini"),
                 "--temperature", "1e-300"]) == 2
    captured = capsys.readouterr()
    assert "error category=config" in captured.err
    assert "harmonic quadrature at 1e-300 K needs" in captured.err
    assert captured.out == ""


def test_thermal_energy_underflow_is_config_error(capsys):
    # k_B * 1e-310 K underflows to 0; tau_brownian and tau_neel used to
    # divide by it (two RuntimeWarnings, a traceback under -W error)
    assert main(["estimate", "--config", str(ROOT / "configs" / "static.ini"),
                 "--temperature", "1e-310"]) == 2
    captured = capsys.readouterr()
    assert "error category=config" in captured.err
    assert "temperature must give k_B*T > 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("snr_db", ["1e300", "4000", "-1e30"])
def test_snr_db_out_of_float_range_is_config_error(tmp_path, capsys, snr_db):
    # 1e300 and 4000 used to exit 1 (OverflowError in NoiseModel.sigma),
    # -1e30 to exit 4 (a zero noise-power ratio: "wrapped sum nan")
    text = (ROOT / "configs" / "static.ini").read_text()
    assert "snr_db = 92.3" in text
    path = tmp_path / "snr.ini"
    path.write_text(text.replace("snr_db = 92.3", f"snr_db = {snr_db}", 1))
    assert main(["estimate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "error category=config" in captured.err
    assert "snr_db" in captured.err and captured.out == ""


def test_subnormal_snr_ratio_is_config_error_without_warning(tmp_path):
    # 10**(-320) is a positive subnormal ratio that passes the config
    # check; sigma's division used to overflow with a numpy RuntimeWarning
    # and the estimate exited 4 ("wrapped sum nan")
    text = (ROOT / "configs" / "static.ini").read_text()
    path = tmp_path / "snr.ini"
    path.write_text(text.replace("snr_db = 92.3", "snr_db = -3200", 1))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-W", "error", "-m", "mnpthermo.cli",
                          "estimate", "--config", str(path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 2, run.stderr
    assert "error category=config" in run.stderr and "snr_db" in run.stderr
    assert run.stdout == ""


def test_unsquarable_reference_line_is_config_error(tmp_path, capsys):
    # a reference line of ~1.5e282 V overflows when squared for its power;
    # that OverflowError used to escape NoiseModel.sigma (exit 1)
    text = (ROOT / "configs" / "static.ini").read_text()
    assert "n_conc_m3 = 1e20" in text
    path = tmp_path / "conc.ini"
    path.write_text(text.replace("n_conc_m3 = 1e20", "n_conc_m3 = 1e300", 1))
    assert main(["estimate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "error category=config" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("old, new, named", [
    ("coupling = 1e-8", "coupling = 1e300", "coupling = 1e+300"),
    ("r0_ohm = 10.4177", "r0_ohm = 1e-300", "r0 = 1e-300"),
    ("d_core_m = 30e-9", "d_core_m = 1e300", "d_core = 1e+300"),
    ("window_periods = 1", "window_periods = 1e300",
     "window_periods = 1e+300"),
], ids=["coupling", "r0", "d_core", "window_periods"])
def test_out_of_range_value_is_named_config_error(tmp_path, capsys, old, new,
                                                  named):
    # each used to print numpy overflow or invalid-cast warnings (which
    # fail here, as under -W error) and then exit 2 blaming snr_db
    # ("reference line of inf V"), the d_hydro >= d_core rule or "exact
    # bins"
    text = (ROOT / "configs" / "static.ini").read_text()
    assert old in text
    path = tmp_path / "range.ini"
    path.write_text(text.replace(old, new, 1))
    assert main(["estimate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "error category=config" in captured.err
    assert named in captured.err and captured.out == ""


# The [field] and [acquisition] keys that feed the frequency plan and the
# field, with their values in configs/static.ini.
PLAN_KEYS = {"f_h_hz": "6000", "f_l_hz": "1570", "b_h_t": "0.36e-3",
             "b_l_t": "1.98e-3", "sample_rate_hz": "500000",
             "window_periods": "1", "mains_hz": "50"}


def _scaled(shipped):
    """The shipped value, or it times +-10**e over 25 decades, or 0."""
    def scale(sign, e):
        value = float(shipped)
        return repr(sign * (value * 10 ** e if e >= 0 else value / 10 ** -e))

    return st.one_of(st.just(shipped), st.just("0"),
                     st.builds(scale, st.sampled_from((1, -1)),
                               st.integers(-12, 12)))


@st.composite
def _plan_key_changes(draw):
    keys = draw(st.lists(st.sampled_from(sorted(PLAN_KEYS)), min_size=2,
                         max_size=4, unique=True))
    return {key: draw(_scaled(PLAN_KEYS[key])) for key in keys}


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(changes=_plan_key_changes())
def test_plan_keys_in_config_exit_cleanly(changes):
    # several plan-feeding keys changed at once: estimate exits 0 with
    # finite numbers, 2 naming a config error (a rejected plan included)
    # or 4 naming an estimation failure; nothing escapes main, and no
    # numpy warning is raised on the way. The package's window and
    # quadrature limits are lowered here to bound the run time, so a plan
    # or a field beyond them exits 2 too.
    text = (ROOT / "configs" / "static.ini").read_text()
    for key, value in changes.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1,
                      flags=re.M)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch, \
            mock.patch.object(scenarios, "MAX_WINDOW_SAMPLES", 1 << 16), \
            mock.patch.object(magnetization, "MAX_QUADRATURE_NODES", 1 << 18), \
            warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        path = os.path.join(scratch, "plan.ini")
        with open(path, "w") as fh:
            fh.write(text)
        code = main(["estimate", "--config", path])
    category = {0: None, 2: "config", 4: "estimation"}
    assert code in category, (code, err.getvalue())
    if code == 0:
        row = out.getvalue().splitlines()[1]
        assert all(math.isfinite(float(x)) for x in row.split(","))
    else:
        assert err.getvalue().startswith(
            f"error category={category[code]}: "), err.getvalue()
        assert out.getvalue() == ""


def test_ref_policy_key_is_config_error(tmp_path, capsys):
    # the reference read follows phase_model; the key it had is unknown
    path = tmp_path / "policy.ini"
    path.write_text(SCENARIO_INI.replace("mode = mixing",
                                         "mode = mixing\nref_policy = line"))
    assert main(["scenario", "run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error category=config" in err
    assert "unknown key 'ref_policy' in [estimator]" in err


@pytest.mark.parametrize("argv", [
    ["scenario", "run", "{negative_seed_ini}"],
    ["scenario", "run", "{static_ini}", "--seed", "-3"],
    ["figure", "fig1", "--seed", "-2"],
], ids=["config", "scenario-flag", "figure-flag"])
def test_negative_seed_is_config_error(tmp_path, capsys, argv):
    # each used to fail only after self-calibration, with numpy's bare
    # "expected non-negative integer"
    static_ini = ROOT / "configs" / "static.ini"
    negative_seed_ini = tmp_path / "seed.ini"
    negative_seed_ini.write_text(
        static_ini.read_text().replace("seed = 0", "seed = -1"))
    argv = [a.format(static_ini=static_ini,
                     negative_seed_ini=negative_seed_ini) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error category=config" in captured.err
    assert "seed must be a non-negative integer" in captured.err
    assert captured.out == ""


class TestEstimate:
    def test_single_point(self, scenario_file, capsys):
        code = main(["estimate", "--config", scenario_file,
                     "--temperature", "315"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("t_true_k,t_est_k")
        t_true, t_est = (float(x) for x in lines[1].split(",")[:2])
        assert t_est == pytest.approx(315.0, abs=1e-6)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[particle]\n")
        assert main(["estimate", "--config", str(bad)]) == 2
        assert "category=config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "estimate"])
@pytest.mark.parametrize("temperature", ["0", "-5", "nan"])
def test_non_positive_temperature_is_config_error(scenario_file, capsys,
                                                  command, temperature):
    # 0 used to be read as "not given" and fell back to t_start
    code = main([command, "--config", scenario_file,
                 "--temperature", temperature])
    assert code == 2
    captured = capsys.readouterr()
    assert "category=config" in captured.err
    assert "--temperature" in captured.err
    assert captured.out == ""


class TestSimulate:
    def test_channel_csv(self, scenario_file, capsys):
        assert main(["simulate", "--config", scenario_file,
                     "--temperature", "315"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t_s,diff_background_v,diff_sample_v,ref_a_v"
        assert len(lines) == 1 + 50000

    def test_mode_refused(self, scenario_file, capsys):
        # simulate never estimates: --mode used to be accepted and ignored
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--config", scenario_file, "--mode", "single"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --mode single" in captured.err
        assert captured.out == ""


class TestScenario:
    def test_run_to_file(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "result.csv"
        code = main(["scenario", "run", scenario_file, "--trials", "2",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("t_s,")
        assert "# summary" in text

    def test_config_key_typo_exit_code(self, tmp_path, capsys):
        typo = tmp_path / "typo.ini"
        typo.write_text(SCENARIO_INI.replace("snr_db = inf", "snr_dB = 40"))
        assert main(["scenario", "run", str(typo)]) == 2
        err = capsys.readouterr().err
        assert "error category=config" in err
        assert "'snr_dB' in [noise]" in err

    def test_mode_override(self, scenario_file, capsys):
        code = main(["scenario", "run", scenario_file, "--trials", "1",
                     "--mode", "single"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        row = lines[1].split(",")
        assert row[-1] == "1"  # valid estimate in single mode too

    def test_run_equals_api(self, tmp_path):
        """The CLI writes the bytes emit_csv(run_scenario(...)) writes for
        the scenario the flags describe."""
        cli_csv, api_csv = tmp_path / "cli.csv", tmp_path / "api.csv"
        assert main(["scenario", "run", str(ROOT / "configs" / "static.ini"),
                     "--seed", "7", "--trials", "3",
                     "--out", str(cli_csv)]) == 0
        cfg = shipped_scenario("static.ini", seed=7)
        emit_csv(run_scenario(replace(cfg, program=replace(cfg.program,
                                                           n_points=3))),
                 api_csv)
        assert cli_csv.read_bytes() == api_csv.read_bytes()


@pytest.mark.parametrize("argv", [
    ["figure", "fig4"],
    ["scenario", "run", "SCENARIO", "--trials", "2"],
])
def test_out_file_equals_stdout(scenario_file, tmp_path, capsys, argv):
    argv = [scenario_file if a == "SCENARIO" else a for a in argv]
    assert main(argv) == 0
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out


class TestFigure:
    def test_fig4_stdout(self, capsys):
        assert main(["figure", "fig4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("d_core_nm,")

    def test_fig1_to_file(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["figure", "fig1", "--trials", "25", "--seed", "2",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("snr_db,")

    def test_unknown_figure(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "fig77"])  # argparse rejects the choice

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_config_error(self, capsys, trials):
        # 0 used to run the default 200 trials; -3 exited 4 ("all flagged")
        assert main(["figure", "fig1", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "error category=config" in captured.err
        assert f"n_trials must be at least 1 (got {trials})" in captured.err
        assert captured.out == ""


def test_import_loads_no_scipy():
    # scipy.signal took ~1 s of every CLI start; only the RK4 oracle needs it
    probe = ("import sys, mnpthermo, mnpthermo.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_import_loads_no_numpy_random():
    # numpy.random (with hashlib and secrets) adds ~10 ms to every start,
    # before calibration; only the noise draws need it
    probe = ("import sys, mnpthermo, mnpthermo.cli; "
             "print('numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _every_command():
    static = str(ROOT / "configs" / "static.ini")
    return [
        ["plan-freq", "6000", "1570"],
        ["simulate", "--config", static],
        ["estimate", "--config", static],
        ["scenario", "run", str(ROOT / "configs" / "cooling.ini"),
         "--trials", "3"],
        *(["figure", fig, "--trials", "2"] for fig in FIGURE_IDS),
    ]


def _run_in_one_process(tmp_path, commands, probe):
    # probe runs with the argv lists (each given --out) as sys.argv[1]
    out = str(tmp_path / "out.csv")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", probe,
                           json.dumps([c + ["--out", out] for c in commands])],
                          env=env, capture_output=True, text=True)


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is only a test extra: with it unimportable, every command
    # still exits 0
    probe = ("import json, sys; sys.modules['scipy'] = None\n"
             "from mnpthermo.cli import main\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    code = main(argv)\n"
             "    assert code == 0, (argv, code)\n")
    run = _run_in_one_process(tmp_path, _every_command(), probe)
    assert run.returncode == 0, run.stderr


def test_no_command_loads_numpy_ma(tmp_path):
    # numpy imports numpy.ma lazily (np.median, np.unique); it costs
    # ~16 ms and ~2 MB a run, and no command needs it
    static = str(ROOT / "configs" / "static.ini")
    commands = [*_every_command(),
                ["estimate", "--config", static, "--mode", "single"]]
    probe = ("import json, sys\n"
             "from mnpthermo.cli import main\n"
             "assert 'numpy.ma' not in sys.modules, 'on import'\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    code = main(argv)\n"
             "    assert code == 0, (argv, code)\n"
             "    assert 'numpy.ma' not in sys.modules, argv\n")
    run = _run_in_one_process(tmp_path, commands, probe)
    assert run.returncode == 0, run.stderr


def test_package_source_never_names_scipy():
    sources = [path for path in (ROOT / "src" / "mnpthermo").rglob("*")
               if path.is_file() and "__pycache__" not in path.parts]
    assert any(path.name == "magnetization.py" for path in sources)
    assert [path.name for path in sources
            if b"scipy" in path.read_bytes()] == []


@pytest.mark.parametrize("section, key", [
    ("coil_a", "r0_ohm"), ("coil_a", "l0_h"),
    ("coil_b", "r0_ohm"), ("coil_b", "l0_h"),
    ("field", "f_h_hz"), ("field", "f_l_hz"),
    ("field", "b_h_t"), ("field", "b_l_t"),
    ("particle", "d_core_m"), ("particle", "d_hydro_m"),
    ("particle", "m_s_bulk_a_m"),
])
def test_missing_required_key_is_config_error(tmp_path, capsys, section, key):
    # SectionProxy.getfloat returns None for a missing key; none may pass
    head, header, body = (ROOT / "configs" / "static.ini").read_text() \
        .partition(f"[{section}]\n")
    trimmed = re.sub(rf"^{key} = .*\n", "", body, count=1, flags=re.M)
    assert trimmed != body
    path = tmp_path / "missing.ini"
    path.write_text(head + header + trimmed)
    assert main(["estimate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error category=config" in err
    assert f"'{key}'" in err and f"[{section}]" in err
