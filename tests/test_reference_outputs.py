"""Reference outputs of every subcommand on small configs.

Each case runs one `chdbc` subcommand and compares every file it writes with
the committed copy under tests/data/reference/<case>/:

- the same file names;
- manifests line by line, except the code-version line;
- CSV tables with the same header and row count, equal non-numeric cells,
  and numeric cells within RTOL times the largest magnitude of their column
  in the reference (the column scale).

The largest deviation per file is printed (`pytest -s` shows it).

Two columns of diagnostics.csv hold round-off, so their scale is no scale:
`mass` (about 1e-17, the drift of a conserved mean) and `newton_residual`
(below newton_tol by construction).  Any change of the linear algebra's
rounding moves them past the relative gate, even when every physical column
stays well inside it; SuperLU's symmetric mode alone moved `mass` by 0.86
and `newton_residual` by 7e-7 of their column scales.

Regenerate the references only on purpose, and say why where the change is
recorded, since a refreshed reference is a changed check:

    PYTHONPATH=src python tests/test_reference_outputs.py --update
"""

import csv
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from chdbc.cli import main

REFERENCE = Path(__file__).parent / "data" / "reference"
RTOL = 1e-9  # tied to solver.newton_tol = 1e-10; covers last-digit drift

_INTERVAL = {"domain.n": 33, "solver.lam": 2.0, "solver.dt": 1e-2}
# interval-quench's deep quench: runs reach beyond 1 - 1/N, so N matters
_QUENCH = {"domain.n": 24, "domain.a": -4.0, "domain.b": 4.0,
           "solver.lam": 6.0, "solver.dt": 1e-2, "experiment.amplitude": 0.85,
           "experiment.mean": 0.05}
_STRIP = {"domain.kind": "strip", "domain.nx": 8, "domain.ny": 9,
          "boundary.g": "tanh", "forcing.h2": 0.2, "solver.dt": 1e-2}

# case -> (subcommand, config settings)
CASES = {
    "simulate-interval": ("simulate", {**_INTERVAL, "solver.dt": 1e-3,
                                       "experiment.T": 0.05,
                                       "experiment.cadence": 0.01}),
    "simulate-strip": ("simulate", {**_STRIP, "experiment.T": 0.1,
                                    "experiment.cadence": 0.05}),
    "converge-n": ("converge-n", {**_QUENCH, "solver.dt": 5e-2,
                                  "experiment.n_levels": 2}),
    "lipschitz": ("lipschitz", {**_INTERVAL, "experiment.T": 0.1,
                                "experiment.cadence": 0.02}),
    "separation": ("separation", {**_QUENCH, "experiment.T": 0.2}),
    "sign-condition": ("sign-condition", {**_QUENCH, "experiment.T": 0.2}),
    "decay-interval": ("decay", {**_INTERVAL, "experiment.T": 0.1,
                                 "experiment.cadence": 0.02,
                                 "experiment.ensemble": 2}),
    "decay-strip": ("decay", {**_STRIP, "experiment.T": 0.1,
                              "experiment.cadence": 0.02,
                              "experiment.ensemble": 2}),
    # classical with a slope sweep, variational-only, and F(1) = inf
    "stationary-log-sweep": ("stationary", {"potential.kind": "logarithmic",
                                            "experiment.K": 0.5,
                                            "experiment.sweep": "0.2:4.0:8"}),
    "stationary-log-variational": ("stationary", {
        "potential.kind": "logarithmic", "experiment.K": 3.0}),
    "stationary-power": ("stationary", {"potential.kind": "power",
                                        "experiment.K": 2.0}),
}


def _run(case, outdir):
    command, settings = CASES[case]
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = outdir.parent / f"{case}.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert main([command, "--config", str(cfg), "--outdir", str(outdir),
                 "--seed", "1"]) == 0


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _manifest_lines(path):
    return [line for line in path.read_text().splitlines()
            if not line.startswith("# code version")]


def _compare_table(ref, out):
    """The largest deviation over the file's numeric cells, as a fraction of
    its column scale; fails on any structural or non-numeric difference."""
    with open(ref, newline="") as fh:
        want = list(csv.reader(fh))
    with open(out, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[:1] == want[:1], f"{ref.name}: header {got[:1]} != {want[:1]}"
    assert len(got) == len(want), \
        f"{ref.name}: {len(got) - 1} rows, expected {len(want) - 1}"
    worst = 0.0
    for j in range(len(want[0])):
        column = [_number(row[j]) for row in want[1:]]
        scale = max((abs(v) for v in column
                     if v is not None and math.isfinite(v)), default=0.0)
        for i, (row, v) in enumerate(zip(got[1:], column), start=2):
            cell = row[j]
            w = _number(cell)
            where = f"{ref.name} line {i}, column {want[0][j]}"
            if v is None or w is None or not math.isfinite(v):
                assert cell == want[i - 1][j], \
                    f"{where}: {cell!r} != {want[i - 1][j]!r}"
                continue
            dev = abs(w - v)
            assert dev <= RTOL * scale, \
                f"{where}: {w!r} != {v!r} (scale {scale:g})"
            if scale > 0.0:
                worst = max(worst, dev / scale)
    return worst


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_reference(case, tmp_path):
    ref_dir = REFERENCE / case
    out_dir = tmp_path / case
    _run(case, out_dir)
    names = sorted(p.name for p in ref_dir.iterdir())
    assert sorted(p.name for p in out_dir.iterdir()) == names
    for name in names:
        if name == "manifest.txt":
            assert _manifest_lines(out_dir / name) == \
                _manifest_lines(ref_dir / name), f"{case}/{name} differs"
        else:
            worst = _compare_table(ref_dir / name, out_dir / name)
            print(f"{case}/{name}: largest deviation {worst:.3g} "
                  "of the column scale")


def _update():
    shutil.rmtree(REFERENCE, ignore_errors=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            _run(case, Path(tmp) / case)
            shutil.copytree(Path(tmp) / case, REFERENCE / case)
            print(f"wrote {REFERENCE / case}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: {sys.argv[0]} --update  (rewrites {REFERENCE})")
    _update()
