"""Import cost: only the stationary solver loads scipy.integrate and
scipy.optimize, and it loads them on first use; importing the package root,
potentials or stationary loads no scipy module at all.  Importing chdbc.cli
sets the BLAS thread counts a user left unset before numpy loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, sys
lazy = ["scipy.integrate", "scipy.optimize"]
import chdbc.cli
before = [m for m in lazy if m in sys.modules]
rc = chdbc.cli.main(["stationary", "--potential", "logarithmic", "--K", "1.0",
                     "--outdir", sys.argv[1]])
after = [m for m in lazy if m in sys.modules]
print(json.dumps({"before": before, "rc": rc, "after": after}))
"""


def test_stationary_alone_loads_integrate_and_optimize(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "st")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.splitlines()
    out = json.loads(last)
    assert out["before"] == []  # import chdbc.cli leaves them unloaded
    assert out["rc"] == 0
    assert "classification: Classical" in printed
    assert out["after"] == ["scipy.integrate", "scipy.optimize"]


def test_root_potentials_and_stationary_load_no_scipy():
    # the package root re-exports nothing, so these need only numpy
    child = ("import json, sys, chdbc, chdbc.potentials, chdbc.stationary\n"
             "print(json.dumps({'version': chdbc.__version__, 'scipy': sorted("
             "m for m in sys.modules if m.startswith('scipy'))}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["version"]
    assert out["scipy"] == []


BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_cli_runs_blas_on_one_thread_unless_set():
    # chdbc.cli sets each thread count the user left unset to 1 before numpy
    # loads, and keeps one the user set
    child = ("import json, os, chdbc.cli\n"
             f"print(json.dumps({{k: os.environ.get(k) for k in {BLAS_THREADS}}}))\n")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for given in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        proc = subprocess.run([sys.executable, "-c", child], env={**env, **given},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {k: given.get(k, "1")
                                           for k in BLAS_THREADS}
