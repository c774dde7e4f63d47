"""Golden outputs: the bytes every CLI command writes at seed 0.

Each command runs in-process through cli.main and its output must equal
tests/golden/<name>.csv byte for byte. On a difference the test prints
the largest move in each column. `simulate` writes 3.9 MB, so its golden
file holds the SHA-256 of that output plus the exact-bin phasors the
estimator reads from it.

A change that moves an output on purpose regenerates the files with

    PYTHONPATH=src python -m tests.test_golden

and names the commands, columns and largest moves in CHANGES.md.
"""

import hashlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mnpthermo.cli import main
from mnpthermo.scenarios import format_field

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
STATIC = str(ROOT / "configs" / "static.ini")
COOLING = str(ROOT / "configs" / "cooling.ini")

COMMANDS = {
    "scenario_static": ["scenario", "run", STATIC],
    "scenario_cooling": ["scenario", "run", COOLING],
    **{f"estimate_{name}_{mode}": ["estimate", "--config", path,
                                   "--mode", mode]
       for name, path in (("static", STATIC), ("cooling", COOLING))
       for mode in ("mixing", "single")},
    "simulate_static": ["simulate", "--config", STATIC],
    "plan_freq": ["plan-freq", "6000", "1570"],
    "fig1": ["figure", "fig1", "--trials", "20"],
    **{fig: ["figure", fig]
       for fig in ("fig2a", "fig2b", "fig3", "fig4", "fig8", "fig9")},
}

# configs/static.ini: 500 kHz over one 0.1 s base period; the estimator
# reads f_high, f_plus and f_minus
SIMULATE_LINES_HZ = (6000, 9140, 2860)
SIMULATE_RATE_HZ = 500000


def _simulate_digest(text):
    """SHA-256 of the simulate CSV and its exact-bin phasors, as CSV."""
    header, _, body = text.partition("\n")
    columns = header.split(",")[1:]
    samples = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)[:, 1:]
    n = samples.shape[0]
    spectra = np.fft.rfft(samples, axis=0) * (2.0 / n)
    lines = [f"# sha256={hashlib.sha256(text.encode()).hexdigest()}",
             "channel,frequency_hz,re,im"]
    for j, channel in enumerate(columns):
        for f in SIMULATE_LINES_HZ:
            z = complex(spectra[f * n // SIMULATE_RATE_HZ, j])
            lines.append(",".join((channel, str(f), format_field(z.real),
                                   format_field(z.imag))))
    return "\n".join(lines) + "\n"


def run_command(name, out_path):
    """Output text of command `name`, written through --out."""
    assert main(COMMANDS[name] + ["--out", str(out_path)]) == 0
    text = Path(out_path).read_text()
    return _simulate_digest(text) if name == "simulate_static" else text


def _cells(text):
    """{(column, row): value} of a CSV with `# k=v` comment fields."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    cells = {}
    for i, line in enumerate(lines[1:], 1):
        if line.startswith("#"):
            for item in line[1:].strip().split(","):
                key, _, value = item.partition("=")
                cells[(key, i)] = value
        else:
            for j, value in enumerate(line.split(",")):
                key = header[j] if j < len(header) else f"col{j}"
                cells[(key, i)] = value
    return cells


def largest_moves(old, new):
    """Per column, the largest absolute move between two CSV texts."""
    a, b = _cells(old), _cells(new)
    moves = {}
    for key in sorted(set(a) | set(b)):
        column = key[0]
        try:
            move = abs(float(b[key]) - float(a[key]))
            move = 0.0 if math.isnan(move) and a[key] == b[key] else move
        except (KeyError, ValueError):
            move = 0.0 if a.get(key) == b.get(key) else math.inf
        moves[column] = max(moves.get(column, 0.0), move)
    return {column: move for column, move in moves.items() if move != 0.0}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, tmp_path):
    golden = (GOLDEN / f"{name}.csv").read_text()
    got = run_command(name, tmp_path / "out.csv")
    if got != golden:
        moves = largest_moves(golden, got)
        report = "\n".join(f"  {column}: {move:.3g}"
                           for column, move in moves.items())
        pytest.fail(f"{name} moved from tests/golden/{name}.csv; largest "
                    f"move per column:\n{report or '  (text only)'}")


def regenerate(scratch):
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(COMMANDS):
        text = run_command(name, Path(scratch) / "out.csv")
        (GOLDEN / f"{name}.csv").write_text(text)
        print(f"wrote tests/golden/{name}.csv", file=sys.stderr)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        regenerate(scratch)
