"""Checks on the benchmark itself: exact span counts, CLI parity, the gate.

    python3 -m pytest -q perfbench

Not part of the package's test suite (pyproject's testpaths is tests/);
each test starts one or two fresh interpreters, about 5 s each.
"""

import subprocess
import sys

import run

N_SAMPLES = 50_000  # one 10 Hz base period at 500 kHz


def traced(name, count, seed, tmp_path):
    spec = dict(run.WORKLOADS[name], count=count)
    report = run.invoke(spec, seed, 1, tmp_path / "out")
    assert run.check(name, spec, seed, report, {})["failed"] == 0
    # One completion time per point, so point_ms_p10 has count - 1
    # intervals per invocation.
    assert len(report["t_points"]) == count
    assert len(run.point_intervals([report])) == count - 1
    trace = report["trace"]
    return {k: v["calls"] for k, v in trace["layers"].items()}, trace


def test_static_span_counts(tmp_path):
    calls, trace = traced("static", 2, 0, tmp_path)
    assert calls == {
        # 3 calibration temperatures + 1 hold temperature; the rest are
        # LRU hits. Two quadrature passes (N, 2N) per decomposition.
        "magnetization.fourier_coefficients": 4,
        "magnetization.equilibrium_magnetization": 8,
        "signal_chain.simulate_clean_channels": 2 + 3,
        "signal_chain.apply_noise": 2,
        "estimator.estimate_temperature": 2,
        "estimator.estimate_tau": 3,
        "scenarios.self_calibrate": 1,
        "scenarios.run_scenario": 1,
    }
    assert trace["counts"]["signal_chain.noise_samples"] == 2 * 3 * N_SAMPLES
    assert len(trace["point_s"]) == 2


def test_cooling_span_counts(tmp_path):
    calls, _ = traced("cooling", 3, 0, tmp_path)
    # The first point is at 320 K, a calibration temperature: an LRU hit.
    assert calls["magnetization.fourier_coefficients"] == 3 + 3 - 1
    assert calls["signal_chain.simulate_clean_channels"] == 3 + 3


def test_noise_trials_span_counts(tmp_path):
    calls, trace = traced("noise_trials", 3, 0, tmp_path)
    assert calls["signal_chain.simulate_clean_channels"] == 3 + 1
    assert calls["magnetization.fourier_coefficients"] == 4
    assert calls["signal_chain.apply_noise"] == 3
    assert calls["estimator.estimate_temperature"] == 3
    assert len(trace["point_s"]) == 3


def test_csv_matches_cli(tmp_path):
    """The benchmark's API-driven CSV is byte-identical to the CLI's, with
    the probe slices of an untraced invocation run between its points."""
    spec = dict(run.WORKLOADS["static"], count=3)
    report = run.invoke(spec, 7, 0, tmp_path / "out")
    assert run.slices([report])
    assert len(list(run.paired_points([report]))) == 2
    assert 0 < run.probe_pause(report) < 1
    cli_csv = tmp_path / "cli.csv"
    subprocess.run([sys.executable, "-m", "mnpthermo.cli", "scenario", "run",
                    str(run.ROOT / spec["config"]), "--seed", "7",
                    "--trials", "3", "--out", str(cli_csv)],
                   env=run.worker_env(), cwd=run.ROOT, check=True,
                   timeout=run.INVOCATION_TIMEOUT_S)
    with open(report["csv"], "rb") as a, open(cli_csv, "rb") as b:
        assert a.read() == b.read()


def test_gate_counts_reference_mismatch(tmp_path):
    """A point 1e-8 K off its recorded value fails; the recorded ones pass."""
    spec = run.WORKLOADS["static"]
    expected = run.load_reference()["static"]["0"]
    lines = ["t_s,t_true_k,t_est_k,tau_est_s,phi_h_rad,error_k,ok"]
    for i, t_est in enumerate(expected):
        lines.append(f"{i},315.6,{t_est!r},0,0,{t_est - 315.6!r},1")
    good = tmp_path / "good.csv"
    good.write_text("\n".join(lines) + "\n")
    bad = tmp_path / "bad.csv"
    t_off = expected[5] + 1e-8
    lines[6] = f"5,315.6,{t_off!r},0,0,{t_off - 315.6!r},1"
    bad.write_text("\n".join(lines) + "\n")
    reference = {"static": {"0": expected}}
    assert run.check("static", spec, 0, {"csv": good}, reference)["failed"] == 0
    assert run.check("static", spec, 0, {"csv": bad}, reference)["failed"] == 1



def test_gate_checks_every_noise_trial():
    """A uniform shift of every trial leaves the std as recorded, but fails
    every trial; one trial 1e-8 K off fails that trial alone."""
    spec = run.WORKLOADS["noise_trials"]
    recorded = run.load_reference()["noise_trials"]["0"]
    t_est = recorded["t_est"]
    report = {"std": recorded["std"], "t_true": 315.6, "t_est": t_est,
              "valid": [True] * len(t_est)}
    reference = {"noise_trials": {"0": recorded}}
    shifted = dict(report, t_est=[t + 1e-8 for t in t_est])
    one_off = dict(report, t_est=t_est[:5] + [t_est[5] + 1e-8] + t_est[6:])

    def failed(r):
        return run.check("noise_trials", spec, 0, r, reference)["failed"]

    assert failed(report) == 0
    assert failed(shifted) == spec["count"]
    assert failed(one_off) == 1
