"""Command-line surface: frequency planning, simulation, estimation,
scenario runs and figure tables. All outputs are CSV, to --out or stdout.

Exit codes: 0 success, 2 config error, 3 plan rejected, 4 estimation
failed, 5 I/O error. Failures print `error category=<name>: <detail>` on
stderr.
"""

import argparse
import sys
from dataclasses import replace

from .errors import (ConfigError, EstimationError, PlanRejection,
                     QuadratureError)
from .figures import FIGURE_IDS, generate_figure
from .scenarios import (format_field, load_scenario, plan_frequencies,
                        result_csv_lines, run_scenario, self_calibrate)
from .signal_chain import NoiseModel, apply_noise


def _write_lines(lines, out):
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_plan_freq(args):
    plan = plan_frequencies(args.f_high, args.f_low, args.sample_rate,
                            args.mains)
    header = "f_high_hz,f_low_hz,f_base_hz,f_plus_hz,f_minus_hz,sample_rate_hz"
    row = ",".join(format_field(v) for v in
                   (plan.f_high, plan.f_low, plan.f_base, plan.f_plus,
                    plan.f_minus, plan.sample_rate))
    _write_lines([header, row], args.out)
    return 0


def _prepared(args):
    cfg = load_scenario(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.mode:
        cfg = replace(cfg, mode=args.mode)
    return cfg


def _measured_channels(args):
    """Scenario, sample temperature and noisy channels for simulate/estimate."""
    cfg = _prepared(args)
    t_sample = (cfg.program.t_start if args.temperature is None
                else args.temperature)
    if not t_sample > 0:  # also rejects nan
        raise ConfigError(f"--temperature must be positive (got {t_sample!r} K)")
    channels, ref_amp = cfg.clean_channels(t_sample)
    channels = apply_noise(channels, NoiseModel(cfg.snr_db, cfg.seed), ref_amp)
    return cfg, t_sample, channels


def _cmd_simulate(args):
    _, _, channels = _measured_channels(args)
    t = channels.diff_background.times
    lines = ["t_s,diff_background_v,diff_sample_v,ref_a_v"]
    for i in range(t.size):
        lines.append(",".join(format_field(float(v)) for v in
                              (t[i], channels.diff_background.samples[i],
                               channels.diff_sample.samples[i],
                               channels.ref_a.samples[i])))
    _write_lines(lines, args.out)
    return 0


def _cmd_estimate(args):
    cfg, t_sample, channels = _measured_channels(args)
    est = cfg.estimate(channels, self_calibrate(cfg))
    if not est.valid:
        raise EstimationError(est.error)
    header = "t_true_k,t_est_k,tau_est_s,phi_h_rad,phi_plus_rad,phi_minus_rad"
    row = ",".join(format_field(v) for v in
                   (t_sample, est.t_est, est.tau_est, est.phi_h,
                    est.phi_plus, est.phi_minus))
    _write_lines([header, row], args.out)
    return 0


def _cmd_scenario(args):
    cfg = _prepared(args)
    if args.trials is not None:
        cfg = replace(cfg, program=replace(cfg.program, n_points=args.trials))
    _write_lines(result_csv_lines(run_scenario(cfg)), args.out)
    return 0


def _cmd_figure(args):
    table = generate_figure(args.figure_id, seed=args.seed, trials=args.trials)
    _write_lines(table.csv_lines(), args.out)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mnpthermo",
        description="Mixing-frequency nanoparticle thermometry simulator "
                    "and estimator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan-freq", help="validate a two-tone frequency plan")
    p.add_argument("f_high", type=int)
    p.add_argument("f_low", type=int)
    p.add_argument("--sample-rate", type=int, default=500000)
    p.add_argument("--mains", type=int, default=50,
                   help="mains frequency to avoid; 0 disables")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plan_freq)

    for name, fn in (("simulate", _cmd_simulate),
                     ("estimate", _cmd_estimate)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--temperature", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--mode", choices=("mixing", "single"))
        p.add_argument("--out")
        p.set_defaults(func=fn)

    p = sub.add_parser("scenario", help="run a configured experiment")
    p.add_argument("action", choices=("run",))
    p.add_argument("config")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, help="override the point count")
    p.add_argument("--mode", choices=("mixing", "single"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("figure", help="emit a figure-reproduction table")
    p.add_argument("figure_id", choices=FIGURE_IDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_figure)
    return parser


_EXIT_CATEGORIES = (
    (PlanRejection, "plan-rejected", 3),
    (ConfigError, "config", 2),
    # only inputs outside the range the forward model resolves reach it
    (QuadratureError, "config", 2),
    (EstimationError, "estimation", 4),
    (OSError, "io", 5),
    (ValueError, "config", 2),
)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for t, _, _ in _EXIT_CATEGORIES) as exc:
        for exc_type, category, code in _EXIT_CATEGORIES:
            if isinstance(exc, exc_type):
                print(f"error category={category}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
