import re

import pytest

from mnpthermo.cli import main
from tests.test_scenarios import ROOT, SCENARIO_INI


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
