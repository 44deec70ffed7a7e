"""Reference outputs of every subcommand on small configs.

Each case runs one `chdbc` subcommand and compares every file it writes with
the committed copy under tests/data/reference/<case>/:

- the same file names;
- manifests line by line, except the code-version line;
- CSV tables with the same header and row count, equal non-numeric cells,
  and numeric cells within RTOL times the largest magnitude of their column
  in the reference (the column scale).

Two columns of diagnostics.csv hold round-off, so their scale is no scale,
and they are checked against their invariants instead:

- `mass` (about 1e-17, the drift of a conserved mean) within
  1e-12 (1 + the reference's largest |min_u| or |max_u|) of the reference,
  the bound tests/test_solver.py puts on mass drift;
- `newton_residual` at most the case's solver.newton_tol, in both files.

Gated on their column scale, any change of the linear algebra's rounding
failed them while every physical column stayed well inside RTOL; SuperLU's
symmetric mode alone moved `mass` by 0.86 and `newton_residual` by 7e-7 of
their column scales.

The largest deviation per file of the other columns is printed (`pytest -s`
shows it).

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
from chdbc.experiments import DEFAULTS

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
    # at seed 0 the boundary margin dips at t = 0.1 (0.2062) below its value
    # at T (0.2164 at N = 8), so the table shows minima over the snapshots
    "separation-seed0": ("separation", {**_QUENCH, "experiment.T": 0.2,
                                        "seed": 0}),
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
    cfg.write_text("".join(f"{k} = {v}\n"
                           for k, v in {"seed": 1, **settings}.items()))
    assert main([command, "--config", str(cfg), "--outdir", str(outdir)]) == 0


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _manifest_lines(path):
    return [line for line in path.read_text().splitlines()
            if not line.startswith("# code version")]


def _round_off_gates(want, newton_tol):
    """Checks (got, want) -> bool of diagnostics.csv's round-off columns."""
    head = want[0]
    u_max = max(abs(float(row[head.index(name)]))
                for row in want[1:] for name in ("min_u", "max_u"))
    return {"mass": lambda w, v: abs(w - v) <= 1e-12 * (1.0 + u_max),
            "newton_residual": lambda w, v: max(w, v) <= newton_tol}


def _compare_table(ref, out, newton_tol):
    """The largest deviation over the file's numeric cells outside the
    round-off columns, as a fraction of its column scale; fails on any
    structural or non-numeric difference."""
    with open(ref, newline="") as fh:
        want = list(csv.reader(fh))
    with open(out, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[:1] == want[:1], f"{ref.name}: header {got[:1]} != {want[:1]}"
    assert len(got) == len(want), \
        f"{ref.name}: {len(got) - 1} rows, expected {len(want) - 1}"
    gates = _round_off_gates(want, newton_tol) \
        if ref.name == "diagnostics.csv" else {}
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
            if want[0][j] in gates:
                assert gates[want[0][j]](w, v), \
                    f"{where}: {w!r} against {v!r} breaks its invariant"
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
    newton_tol = float(CASES[case][1].get("solver.newton_tol",
                                          DEFAULTS["solver.newton_tol"]))
    _run(case, out_dir)
    names = sorted(p.name for p in ref_dir.iterdir())
    assert sorted(p.name for p in out_dir.iterdir()) == names
    for name in names:
        if name == "manifest.txt":
            assert _manifest_lines(out_dir / name) == \
                _manifest_lines(ref_dir / name), f"{case}/{name} differs"
        else:
            worst = _compare_table(ref_dir / name, out_dir / name, newton_tol)
            print(f"{case}/{name}: largest deviation {worst:.3g} "
                  "of the column scale")


@pytest.mark.parametrize("column, change, passes", [
    ("mass", 1e-15, True),  # round-off, yet 461 times the column scale
    ("mass", 1e-10, False),
    ("newton_residual", 1e-11, True),
    ("newton_residual", 1e-10, False),  # the residual is then above 1e-10
])
def test_round_off_gates(tmp_path, column, change, passes):
    ref = REFERENCE / "simulate-interval" / "diagnostics.csv"
    with open(ref, newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(column)
    rows[-1][j] = repr(float(rows[-1][j]) + change)
    doctored = tmp_path / ref.name
    with open(doctored, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    if passes:
        _compare_table(ref, doctored, newton_tol=1e-10)
    else:
        with pytest.raises(AssertionError, match=f"column {column}: "):
            _compare_table(ref, doctored, newton_tol=1e-10)


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
