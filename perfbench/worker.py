"""One benchmark invocation in a fresh interpreter, as a CLI run would be.

    python3 perfbench/worker.py --kind scenario --config configs/static.ini \
        --seed 3 --count 48 --trace 0 --out OUTDIR

Imports mnpthermo from the checkout's ``src``, sets up exactly as a user
does (load_scenario, seed via dataclasses.replace, self_calibrate), runs the
workload through the public API and writes ``OUTDIR/report.json`` with
monotonic timestamps (comparable with the parent's), peak RSS and the
workload's outputs. ``scenario`` runs ``run_scenario`` + ``emit_csv`` on
``count`` points; ``noise_trials`` runs ``monte_carlo_std`` with ``count``
trials at the config's start temperature and SNR. On both, a list append at
the estimate_temperature boundary records when each point (or trial) is
done, and for noise_trials its estimate too, so every trial can be
checked, not only their std.

Untraced invocations also time a probe slice (``make_probe``: fixed work
that uses no mnpthermo code) after an estimate, at most every
PROBE_GAP_S of loop time. The slices sample the machine's speed in the
same seconds as the points they sit between, so the benchmark can divide
it out of each point's time; that time starts after the slice before it.

With ``--trace 1`` wrappers are installed on the module attributes the
callers look names up in (the package uses ``from ... import``), and every
call records a span in memory; spans are summarized into the report.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402


_LOOPS = ("scenarios.run_scenario", "scenarios.monte_carlo_std")
PROBE_GAP_S = 0.2


def make_probe():
    """A callable that runs one probe slice (about 10 ms) and times it.

    The slice does on a 50 000-sample window what the loop does on its
    windows, on fixed inputs: it sums cosine lines into a waveform and
    takes one exact-bin phasor of it, as channel synthesis and the
    estimator do, then runs a small matrix product, more cosines and dot
    products in place, and an interpreted loop.
    """
    import numpy as np

    t = np.arange(50_000) / 500_000.0
    lines = [(10.0 * k, 1.0 / k, 0.1 * k) for k in range(1, 6)]
    x = np.linspace(0.0, 50.0, t.size)
    out = np.empty_like(x)
    a = np.random.default_rng(0).standard_normal((128, 256))
    b = a.T.copy()

    def probe():
        t0 = time.monotonic()
        wave = np.zeros_like(t)
        for f, amp, phase in lines:
            wave += amp * np.cos(2.0 * np.pi * f * t + phase)
        float(abs(np.exp(-2j * np.pi * 30.0 * t) @ wave))
        float((a @ b).sum())
        for _ in range(2):
            np.cos(x, out=out)
            float(out @ x)
        acc = 0
        for i in range(3000):
            acc += i * i
        return time.monotonic() - t0

    return probe


class Tracer:
    """In-memory span recorder: (name, start, end, parent index) per call."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def wrap(self, module, attr, name, counter=None):
        """Replace module.attr with a span-recording wrapper.

        counter(args, kwargs) -> (count_name, amount) adds computed work
        (nodes evaluated, samples drawn) at the same boundary.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                key, amount = counter(args, kwargs)
                self.counts[key] = self.counts.get(key, 0) + amount
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, time.monotonic(), None, parent])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.monotonic()

        setattr(module, attr, traced)

    def summary(self):
        """Per-name calls, total and self time; per-point completion times.

        Self time is a span's duration minus its direct children's. The
        loop is the run_scenario / monte_carlo_std span; loop_self_s sums
        self time inside it per module (the name's first component). A
        point completes when an estimate_temperature span ends; its time
        runs from the previous completion (or the loop's start).
        """
        child_time = [0.0] * len(self.spans)
        root = []
        for i, (_, start, end, parent) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
            if parent >= 0:
                child_time[parent] += end - start
        layers = {}
        loop_self_s = {}
        loop_s = 0.0
        point_s = []
        last_point = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s = end - start - child_time[i]
            entry = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += self_s
            if name in _LOOPS:
                loop_s += end - start
                last_point[i] = start
            elif self.spans[root[i]][0] in _LOOPS:
                module = name.split(".")[0]
                loop_self_s[module] = loop_self_s.get(module, 0.0) + self_s
                if name == "estimator.estimate_temperature" and parent in last_point:
                    point_s.append(end - last_point[parent])
                    last_point[parent] = end
        return {"layers": layers, "counts": dict(self.counts),
                "loop_s": loop_s, "loop_self_s": loop_self_s,
                "point_s": point_s}


def install_tracer(tracer):
    """Wrap each layer's public functions where their callers look them up."""
    from mnpthermo import magnetization, scenarios, signal_chain

    def nodes(args, kwargs):
        t = args[0] if args else kwargs["t"]
        return "magnetization.equilibrium_magnetization.nodes", len(t)

    def noise_samples(args, kwargs):
        channels, noise = args[0], args[1]
        if math.isinf(noise.snr_db):
            return "signal_chain.noise_samples", 0
        return "signal_chain.noise_samples", sum(
            ts.samples.size for ts in (channels.diff_background,
                                       channels.diff_sample, channels.ref_a))

    tracer.wrap(magnetization, "equilibrium_magnetization",
                "magnetization.equilibrium_magnetization", nodes)
    # _cached_harmonics calls this name only on an LRU miss.
    tracer.wrap(signal_chain, "fourier_coefficients",
                "magnetization.fourier_coefficients")
    tracer.wrap(scenarios, "simulate_clean_channels",
                "signal_chain.simulate_clean_channels")
    tracer.wrap(scenarios, "apply_noise", "signal_chain.apply_noise",
                noise_samples)
    tracer.wrap(scenarios, "estimate_temperature",
                "estimator.estimate_temperature")
    # Only self_calibrate reaches estimate_tau through this name;
    # estimate_temperature calls it inside the estimator module.
    tracer.wrap(scenarios, "estimate_tau", "estimator.estimate_tau")
    for attr in ("self_calibrate", "run_scenario", "monte_carlo_std"):
        tracer.wrap(scenarios, attr, f"scenarios.{attr}")


def record_estimates(trials, probe=None):
    """Append (t_est, valid, time done, slice time, time resumed) of every
    estimate.

    With a probe, a slice runs after an estimate once PROBE_GAP_S has
    passed since the last one, and the loop resumes after it; the slice
    time is None after the other estimates.
    """
    from mnpthermo import scenarios
    fn = scenarios.estimate_temperature
    last = [time.monotonic()]

    @functools.wraps(fn)
    def recorded(*args, **kwargs):
        est = fn(*args, **kwargs)
        done = time.monotonic()
        slice_s = None
        if probe is not None and done - last[0] >= PROBE_GAP_S:
            slice_s = probe()
            last[0] = time.monotonic()
        trials.append((est.t_est, est.valid, done, slice_s,
                       time.monotonic()))
        return est

    scenarios.estimate_temperature = recorded


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("scenario", "noise_trials"),
                        required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import mnpthermo
    from mnpthermo import scenarios
    t_imported = time.monotonic()

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_tracer(tracer)

    cfg = scenarios.load_scenario(args.config)
    cfg = replace(cfg, seed=args.seed)
    if args.kind == "scenario":
        cfg = replace(cfg, program=replace(cfg.program, n_points=args.count))
    cal = scenarios.self_calibrate(cfg)
    t_calibrated = time.monotonic()

    report = {"package": mnpthermo.__file__}
    trials = []
    record_estimates(trials, None if args.trace else make_probe())
    if args.kind == "scenario":
        csv_path = args.out / "result.csv"
        result = scenarios.run_scenario(cfg, cal)
        t_looped = time.monotonic()
        scenarios.emit_csv(result, csv_path)
        report["csv"] = str(csv_path)
    else:
        std, n_flagged = scenarios.monte_carlo_std(
            cfg, cfg.program.t_start, cfg.snr_db, args.count, cal)
        t_looped = time.monotonic()
        report.update(std=std, n_flagged=n_flagged,
                      t_true=cfg.program.t_start,
                      t_est=[t[0] for t in trials],
                      valid=[t[1] for t in trials])
    t_done = time.monotonic()

    report.update(
        t_start=T_START, t_imported=t_imported, t_calibrated=t_calibrated,
        t_looped=t_looped, t_done=t_done,
        t_points=[t[2] for t in trials], probe_s=[t[3] for t in trials],
        t_resumed=[t[4] for t in trials],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        report["trace"] = tracer.summary()
    (args.out / "report.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
