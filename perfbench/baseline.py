"""Measure the benchmark's spread and write perfbench/baseline.json.

    python3 perfbench/baseline.py

Runs ``perfbench/run.py`` as a separate command, the way any caller
does: RUNS untraced runs per workload (seeds 0..RUNS-1) and one traced
run (seed 0). For each end-to-end metric it records the median, the
quartiles and their distance as a share of the median (the spread that must
stay below the metric's bound in BENCHMARK.json), next to the machine and
library versions the numbers were measured with.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

import run

RUNS = 10

BLAS_PROBE = """
import ctypes, numpy
libs = [l.split()[-1] for l in open('/proc/self/maps') if 'openblas' in l]
lib = ctypes.CDLL(libs[0])
print(getattr(lib, 'scipy_openblas_get_num_threads64_',
              getattr(lib, 'openblas_get_num_threads', lambda: -1))())
"""


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    probe = subprocess.run([sys.executable, "-c", BLAS_PROBE],
                           env=run.worker_env(), capture_output=True,
                           text=True, timeout=60)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                                capture_output=True, text=True,
                                timeout=60).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"commit": commit, "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": probe.stdout.strip() or probe.stderr.strip()}


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main():
    bench_json = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = bench_json["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench_json["end_to_end"]}

    baseline = {"environment": environment(), "run_seconds": seconds,
                "workloads": {}}
    for workload in run.WORKLOADS:
        results = [bench(workload, seed, seconds, 0)
                   for seed in range(RUNS)]
        e2e = {name: spread([r["metrics"][name]["value"] for r in results])
               for name in bounds}
        traced = bench(workload, 0, seconds, 1)
        baseline["workloads"][workload] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }
        for name, s in e2e.items():
            print(f"{workload:13s} {name:13s} median {s['median']:.4g} "
                  f"spread {s['spread']:.4f} bound {bounds[name]}",
                  file=sys.stderr)
    (run.HERE / "baseline.json").write_text(
        json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
