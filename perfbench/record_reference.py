"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record_reference.py

For each workload and each seed 0..SEEDS-1, makes one untraced invocation
exactly as perfbench/run.py does and stores its outputs in
perfbench/reference.json: every point's t_est (K) for the scenario
workloads, every trial's t_est and the error std (K) for noise_trials. Only re-record on a commit
whose estimates are known good: later commits must reproduce these values
to 1e-9 K.
"""

import contextlib
import json
import shutil
import sys

import run

SEEDS = 32


def main():
    reference = {}
    try:
        for name, spec in run.WORKLOADS.items():
            reference[name] = {}
            for seed in range(SEEDS):
                report = run.invoke(spec, seed, 0, run.OUT / name)
                tally = run.check(name, spec, seed, report, {})
                if tally["failed"]:
                    raise run.BenchError(f"{name} seed {seed}: {dict(tally)}")
                reference[name][str(seed)] = (
                    {"std": report["std"], "t_est": report["t_est"]}
                    if "std" in report else
                    [float(row["t_est_k"])
                     for row in run.read_points(report["csv"])])
                print(name, seed, file=sys.stderr)
    finally:
        shutil.rmtree(run.OUT, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.OUT.parent.rmdir()
    (run.HERE / "reference.json").write_text(
        json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
